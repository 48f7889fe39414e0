"""rookpaths benchmark: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Every measurement comes from a fresh child process (child.py), started one
at a time, so set-up is paid as a CLI user pays it and two processes never
share the CPUs.  The child runs the program in one thread, pinned to one CPU;
a sampler thread beside it measures that CPU's speed, and every time is
reported both raw and corrected to a reference speed (speed.py), because the
host's speed drifts more than any bound could allow.  The run:

1. starts one set-up-only child to compile bytecode (not timed);
2. starts MIN_SETUPS // 2 set-up-only children;
3. runs one pass of the workload per child, and starts another child while
   the time used plus the slowest pass so far fits in --seconds (at least
   one pass);
4. starts set-up-only children until there are MIN_SETUPS set-up samples;
5. with --trace 1, runs one more pass in a child with the layer wrappers of
   tracer.py installed, and reports its layer metrics and its overhead over
   the untraced median.  End-to-end metrics come only from untraced passes,
   and the times among them are the corrected ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end_to_end metrics of BENCHMARK.json, or with
--trace 1 its per_layer metrics).  An operation that crashes, times out or
returns a wrong answer counts as failed.  The trace (spans and per-caller
counters) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SETUPS = 11
RUN_LIMIT_S = 170.0  # every child is stopped by then, inside the 180 s a run may take
HASH_SEED = "0"

# Per-layer metrics that must read nonzero in the traced run of each
# workload; a zero means a wrapper missed its layer.
EXPECTED_NONZERO = {
    "prove": (
        "mpoly.gcd.calls", "mpoly.gcd.s", "mpoly.gcd.trivial_share",
        "mpoly.mul.calls", "mpoly.mul.s", "mpoly.mul.pairs",
        "mpoly.try_divide.calls", "mpoly.try_divide.s", "mpoly.try_divide.none_share",
        "ratfun.mul.calls", "ratfun.mul.s", "ratfun.add.calls", "ratfun.add.s",
        "linalg.nullspace.calls", "linalg.nullspace.s", "linalg.nullspace.cells",
        "linalg.nullspace.kernel_dim",
        "telescope.stage_a.s", "telescope.stage_b.s", "telescope.stage_c.s",
        "telescope.key_equation.s", "telescope.solve.calls", "telescope.solve.screen_calls",
        "telescope.solve.s", "telescope.solve.empty_share", "telescope.cascade.s",
        "hypergeom.symbolic_check.s", "hypergeom.closed_form.s", "hypergeom.identities.s",
        "hypergeom.asymptotics.s", "walks.dp.s", "diagonal.embedding.s",
    ),
    "pullback": (
        "mpoly.gcd.calls", "mpoly.gcd.s", "mpoly.gcd.trivial_share",
        "mpoly.mul.calls", "mpoly.mul.s", "mpoly.mul.pairs",
        "mpoly.try_divide.calls", "mpoly.try_divide.s",
        "ratfun.mul.calls", "ratfun.mul.s", "ratfun.add.calls", "ratfun.add.s",
        "hypergeom.pullback.s",
    ),
    "refute": (
        "mpoly.gcd.calls", "mpoly.gcd.s", "mpoly.mul.calls", "mpoly.mul.s",
        "ratfun.mul.calls", "ratfun.add.calls",
        "linalg.nullspace.calls", "linalg.nullspace.s", "linalg.nullspace.cells",
        "telescope.stage_a.s", "telescope.stage_b.s", "telescope.solve.calls",
        "telescope.solve.screen_calls", "telescope.solve.s", "telescope.solve.empty_share",
    ),
    "series": (
        "mpoly.gcd.calls", "mpoly.gcd.s",
        "series.mul.calls", "series.mul.s", "series.compose.s",
        "hypergeom.closed_form.s", "hypergeom.identities.s", "hypergeom.asymptotics.s",
        "ore.guess_rec.s", "ore.rec_unroll.s", "ore.diffop_to_rec.s", "ore.rec_reduction.s",
        "walks.dp.s", "diagonal.expand.s", "numerics.extrapolate.s",
    ),
}


class Child:
    """One child.py process and the events it reported."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float,
                 setup_only: bool = False, trace: bool = False):
        self.events: list[dict] = []
        self.timed_out = False
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--scratch", str(scratch)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
        cmd += ["--spawned-at", repr(time.perf_counter())]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            for line in _lines(proc, deadline):
                self.events.append(json.loads(line))
        except TimeoutError:
            self.timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        self.returncode = proc.returncode

    @property
    def ops(self) -> list[dict]:
        return [e for e in self.events if e["event"] == "op"]

    @property
    def ready(self) -> dict | None:
        return next((e for e in self.events if e["event"] == "ready"), None)

    @property
    def done(self) -> dict | None:
        return next((e for e in self.events if e["event"] == "done"), None)

    def tally(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, errors); an unfinished child failed one more operation."""
        errors = [f"{op['name']}: {op['error']}" for op in self.ops if not op["ok"]]
        attempted = len(self.ops)
        if self.done is None:
            attempted += 1
            errors.append("timed out" if self.timed_out else f"exited with {self.returncode}")
        return attempted, len(errors), errors


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield the lines of the child's stdout until EOF or the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line


def environment(args, sizes: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "PYTHONHASHSEED": HASH_SEED, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **sizes}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "rookpaths" / "__init__.py").is_file():
        print(f"error: no rookpaths source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = environment(args, workloads.series_sizes(args.seed) if args.workload == "series" else {})
    print("# env " + json.dumps(env), flush=True)

    def child(**kw) -> Child:
        return Child(args.workload, args.seed, scratch, deadline, **kw)

    child(setup_only=True)
    # Half the set-up samples are taken before the passes and half after, so
    # that they span the run.
    setups = [child(setup_only=True).ready for _ in range(MIN_SETUPS // 2)]
    passes: list[Child] = []
    start = time.perf_counter()
    slowest = 0.0
    while True:
        t = time.perf_counter()
        c = child()
        passes.append(c)
        slowest = max(slowest, time.perf_counter() - t)
        if c.done is None or time.perf_counter() - start + slowest > args.seconds:
            break
    setups += [c.ready for c in passes]
    while len(setups) < MIN_SETUPS and passes[-1].done is not None:
        setups.append(child(setup_only=True).ready)
    setups = [s for s in setups if s is not None]
    traced = child(trace=True) if args.trace and passes[-1].done is not None else None

    attempted = failed = 0
    for c in passes + [traced] * (traced is not None):
        a, f, errors = c.tally()
        attempted, failed = attempted + a, failed + f
        for e in errors:
            print(f"# FAILED {e}", file=sys.stderr)
    done = [c.done for c in passes if c.done is not None]
    walls = [d["pass_ref_s"] for d in done]
    metrics = {}
    if walls:
        wall = statistics.median(walls)
        print(f"# {args.workload}: {len(walls)} pass(es), wall_ref_s median {wall:.3f} of "
              f"{[round(w, 3) for w in walls]}; raw wall "
              f"{[round(d['pass_s'], 3) for d in done]} s; probe mean "
              f"{[round(d['probe_mean_s'] * 1e3, 3) for d in done]} ms over "
              f"{[d['probes'] for d in done]} probes", flush=True)
        print(f"# setup_s median {statistics.median(s['setup_ref_s'] for s in setups):.4f} "
              f"(raw {statistics.median(s['setup_s'] for s in setups):.4f}) of {len(setups)}; "
              f"pinned to CPU {sorted({s['cpu'] for s in setups}, key=str)}", flush=True)
    if walls and not args.trace:
        values = {
            "wall_ref_s": wall,
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in done),
            "passed_share": (attempted - failed) / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    elif walls and traced is not None and traced.done is not None:
        layer = traced.done["metrics"]
        layer["trace.overhead_s"] = traced.done["pass_ref_s"] - wall
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / wall
        print(f"# trace: traced pass {traced.done['pass_ref_s']:.3f} s, overhead "
              f"{layer['trace.overhead_s']:+.3f} s ({layer['trace.overhead_share']:+.1%})",
              flush=True)
        missing = [n for n in EXPECTED_NONZERO[args.workload] if not layer.get(n)]
        if missing:
            failed += 1
            print(f"# FAILED self-test: per-layer metrics read zero: {missing}", file=sys.stderr)
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        _write_trace(scratch, env, traced.done, wall)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _write_trace(scratch: Path, env: dict, done: dict, untraced_wall: float) -> None:
    path = scratch / f"trace-{env['workload']}-seed{env['seed']}.json"
    path.write_text(json.dumps({
        "env": env, "untraced_wall_ref_s": untraced_wall,
        "traced_wall_ref_s": done["pass_ref_s"], "traced_wall_s": done["pass_s"],
        "metrics": done["metrics"], "by_caller": done["by_caller"], "spans": done["spans"],
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
