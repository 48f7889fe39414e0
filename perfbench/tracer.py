"""Layer instrumentation installed from outside the program.

Every target is a public function or method of a rookpaths layer.  The
wrapper replaces the original at every place that holds it: the defining
module, every module that imported it by name, the exactmath package and,
for methods, every alias in the class (``__rmul__ = __mul__``).  install()
then scans all rookpaths modules and fails if any original is left, so a
layer cannot read zero because a call went around its wrapper.

Kernel functions are called up to millions of times, so they keep counters
and accumulated seconds per caller layer instead of one span per call.
Stage-level functions also record spans (name, start, end, parent).
Seconds are inclusive and only the outermost call of a metric is timed, so
recursive calls are counted but not timed twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (metric, module, attribute); attribute "Class.method" names a method.
KERNELS = (
    ("mpoly.gcd", "rookpaths.exactmath.mpoly", "mpoly_gcd"),
    ("mpoly.mul", "rookpaths.exactmath.mpoly", "MPoly.__mul__"),
    ("mpoly.try_divide", "rookpaths.exactmath.mpoly", "MPoly.try_divide"),
    ("ratfun.mul", "rookpaths.exactmath.ratfun", "RatFun.__mul__"),
    ("ratfun.add", "rookpaths.exactmath.ratfun", "RatFun.__add__"),
    ("linalg.nullspace", "rookpaths.exactmath.linalg", "linear_nullspace"),
    ("series.mul", "rookpaths.exactmath.series", "PowerSeries.__mul__"),
    ("series.compose", "rookpaths.exactmath.series", "PowerSeries.compose"),
    ("telescope.solve", "rookpaths.telescope", "solve_parametrized_system"),
    ("telescope.cascade", "rookpaths.telescope", "rational_solve_cascade"),
)
STAGES = (
    ("telescope.stage_a", "rookpaths.telescope", "stage_a_search"),
    ("telescope.stage_b", "rookpaths.telescope", "stage_b_search"),
    ("telescope.stage_c", "rookpaths.telescope", "stage_c_reconstruct"),
    ("telescope.key_equation", "rookpaths.telescope", "verify_key_equation"),
    ("hypergeom.pullback", "rookpaths.hypergeom", "pullback_search"),
    ("hypergeom.symbolic_check", "rookpaths.hypergeom", "symbolic_solution_check"),
    ("hypergeom.closed_form", "rookpaths.hypergeom", "closed_form_check"),
    ("hypergeom.identities", "rookpaths.hypergeom", "identity_checks"),
    ("hypergeom.asymptotics", "rookpaths.hypergeom", "asymptotics_check"),
    ("ore.guess_rec", "rookpaths.ore", "guess_rec"),
    ("ore.rec_unroll", "rookpaths.ore", "rec_unroll"),
    ("ore.diffop_to_rec", "rookpaths.ore", "diffop_to_rec"),
    ("ore.rec_reduction", "rookpaths.ore", "prove_rec_reduction"),
    ("walks.dp", "rookpaths.walks", "diagonal_sequence"),
    ("diagonal.expand", "rookpaths.diagonal", "expand_diagonal"),
    ("diagonal.embedding", "rookpaths.diagonal", "residue_embedding"),
    ("numerics.extrapolate", "rookpaths.numerics", "extrapolate_partial_sums"),
)


def _layer(module_name: str) -> str:
    if module_name.startswith("rookpaths."):
        return module_name[len("rookpaths."):]
    return "bench"


def _rookpaths_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rookpaths" or name.startswith("rookpaths."))]


class Tracer:
    """Counters, per-caller seconds and stage spans for one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)       # (metric, caller layer) -> calls
        self.seconds = defaultdict(float)   # (metric, caller layer) -> outermost seconds
        self.extra = defaultdict(float)     # metric.quantity -> total
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._depth = defaultdict(int)
        self.t0 = perf()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, metric: str, fn, span: bool, after=None):
        calls, seconds, depth = self.calls, self.seconds, self._depth
        getframe = sys._getframe

        def wrapper(*args, **kwargs):
            key = (metric, _layer(getframe(1).f_globals.get("__name__", "")))
            calls[key] += 1
            if depth[metric]:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, False)
                return result
            depth[metric] = 1
            if span:
                self._open.append(len(self.spans))
                self.spans.append({"name": metric, "caller": key[1],
                                   "parent": self._open[-2] if len(self._open) > 1 else None,
                                   "start": perf() - self.t0, "end": None})
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                seconds[key] += end - start
                depth[metric] = 0
                if span:
                    self.spans[self._open.pop()]["end"] = end - self.t0
            if after is not None:
                after(args, kwargs, result, True)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def _after(self, metric: str):
        extra = self.extra
        if metric == "mpoly.gcd":
            def after(args, kwargs, result, outer):
                if outer:
                    extra["mpoly.gcd.outer"] += 1
                    extra["mpoly.gcd.trivial"] += result.is_constant()
        elif metric == "mpoly.mul":
            def after(args, kwargs, result, outer):
                a, b = args
                if hasattr(b, "terms"):
                    extra["mpoly.mul.pairs"] += len(a.terms) * len(b.terms)
        elif metric == "mpoly.try_divide":
            def after(args, kwargs, result, outer):
                extra["mpoly.try_divide.none"] += result is None
        elif metric == "linalg.nullspace":
            def after(args, kwargs, result, outer):
                m = args[0]
                rows, cols = m.shape if hasattr(m, "shape") else (len(m), len(m[0]))
                extra["linalg.nullspace.cells"] += rows * cols
                extra["linalg.nullspace.kernel_dim"] += len(result)
        elif metric == "telescope.solve":
            def after(args, kwargs, result, outer):
                verify = kwargs.get("verify", args[5] if len(args) > 5 else True)
                extra["telescope.solve.screen_calls"] += not verify
                extra["telescope.solve.empty"] += not result
        else:
            after = None
        return after

    # -- installation ----------------------------------------------------------

    def install(self) -> dict[str, int]:
        """Wrap every target; return the number of places rebound per metric."""
        import rookpaths  # noqa: F401  (loads every layer, so every import site exists)
        importlib.import_module("rookpaths.cli")
        sites: dict[str, int] = {}
        originals = []
        for table, span in ((KERNELS, False), (STAGES, True)):
            for metric, module, attr in table:
                owner = importlib.import_module(module)
                cls = None
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[attr]
                else:
                    original = getattr(owner, attr)
                wrapper = self._timed(metric, original, span, self._after(metric))
                sites[metric] = _rebind(original, wrapper, cls)
                originals.append((metric, original))
        for metric, original in originals:
            left = _holders(original)
            if left:
                raise RuntimeError(f"{metric}: original still reachable through {left}")
        return sites

    # -- results ---------------------------------------------------------------

    def total(self, metric: str, table: dict) -> float:
        return sum(v for (m, _), v in table.items() if m == metric)

    def metrics(self) -> dict[str, float]:
        """Totals per metric name, as listed under per_layer in BENCHMARK.json."""
        out: dict[str, float] = {}
        for metric, _, _ in KERNELS + STAGES:
            out[f"{metric}.calls"] = self.total(metric, self.calls)
            out[f"{metric}.s"] = self.total(metric, self.seconds)
        out.update(self.extra)
        gcd_outer = self.extra["mpoly.gcd.outer"]
        out["mpoly.gcd.trivial_share"] = self.extra["mpoly.gcd.trivial"] / gcd_outer if gcd_outer else 0.0
        calls = out["mpoly.try_divide.calls"]
        out["mpoly.try_divide.none_share"] = self.extra["mpoly.try_divide.none"] / calls if calls else 0.0
        calls = out["telescope.solve.calls"]
        out["telescope.solve.empty_share"] = self.extra["telescope.solve.empty"] / calls if calls else 0.0
        return out

    def by_caller(self) -> dict[str, dict[str, dict[str, float]]]:
        out: dict[str, dict[str, dict[str, float]]] = {}
        for (metric, caller), n in sorted(self.calls.items()):
            out.setdefault(metric, {})[caller] = {
                "calls": n, "s": round(self.seconds.get((metric, caller), 0.0), 6)}
        return out


def _rebind(original, wrapper, cls) -> int:
    n = 0
    if cls is not None:
        for name, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, name, wrapper)
                n += 1
    for module in _rookpaths_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                n += 1
    return n


def _holders(original) -> list[str]:
    found = []
    for module in _rookpaths_modules():
        for name, value in vars(module).items():
            if value is original:
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__.startswith("rookpaths"):
                found += [f"{value.__qualname__}.{k}" for k, v in vars(value).items() if v is original]
    return found
