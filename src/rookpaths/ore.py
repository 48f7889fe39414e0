"""Ore operators: differential and shift algebra over rational functions.

DiffOp is a linear differential operator with RatFun coefficients; the
product enforces the commutation d_v * a = a * d_v + da/dv.  RecOp is a
linear recurrence operator stored in backward form sum_j q_j(n) u_{n-j}
(offset j counts shifts into the past; negative offsets reach forward),
with commutation sigma^{-j} * q(n) = q(n-j) * sigma^{-j}.

Together these support translating an ODE for a power series into a
recurrence for its coefficients, unrolling and guessing recurrences, and
proving one recurrence from another through an exact operator identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exactmath import (MPoly, PowerSeries, RatFun, clear_denominators, frac_gcd, linear_nullspace,
                        mpoly_gcd)
from .walks import SeqTable

N_VARS = ("n",)


class InsufficientTermsError(ValueError):
    """Raised when a guessing ansatz would be underdetermined."""


class SingularRecurrenceError(ArithmeticError):
    """Raised when unrolling hits a vanishing leading coefficient."""

    def __init__(self, index: int):
        super().__init__(f"leading coefficient vanishes at index {index}")
        self.index = index


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


class DiffOp:
    """Linear differential operator: map from d-exponent tuples to RatFun."""

    __slots__ = ("cvars", "dvars", "terms")

    def __init__(self, cvars: Sequence[str], dvars: Sequence[str],
                 terms: Mapping[tuple[int, ...], RatFun | MPoly]):
        self.cvars = tuple(cvars)
        self.dvars = tuple(dvars)
        for v in self.dvars:
            if v not in self.cvars:
                raise ValueError(f"derivation variable {v!r} outside coefficient ring {self.cvars}")
        clean: dict[tuple[int, ...], RatFun] = {}
        for exp, c in terms.items():
            if len(exp) != len(self.dvars):
                raise ValueError("exponent length mismatch")
            if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exp):
                raise ValueError(f"derivative exponents must be nonnegative integers, got {tuple(exp)}")
            if isinstance(c, MPoly):
                c = RatFun(c)
            if not c.is_zero():
                clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(cvars: Sequence[str], dvars: Sequence[str]) -> DiffOp:
        return DiffOp(cvars, dvars, {})

    @staticmethod
    def identity(cvars: Sequence[str], dvars: Sequence[str]) -> DiffOp:
        one = RatFun.from_scalar(1, tuple(cvars))
        return DiffOp(cvars, dvars, {(0,) * len(tuple(dvars)): one})

    @staticmethod
    def partial(cvars: Sequence[str], dvars: Sequence[str], name: str) -> DiffOp:
        dvars = tuple(dvars)
        exp = tuple(1 if v == name else 0 for v in dvars)
        if sum(exp) != 1:
            raise ValueError(f"{name!r} not a derivation variable of {dvars}")
        return DiffOp(cvars, dvars, {exp: RatFun.from_scalar(1, tuple(cvars))})

    # -- structure ---------------------------------------------------------

    def order(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: tuple[int, ...]) -> RatFun:
        return self.terms.get(exp, RatFun.from_scalar(0, self.cvars))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return (self.cvars == other.cvars and self.dvars == other.dvars
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "DiffOp(0)"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "".join(f"*d{v}^{k}" for v, k in zip(self.dvars, exp) if k)
            parts.append(f"({self.terms[exp].text()}){mono}")
        return "DiffOp(" + " + ".join(parts) + ")"

    # -- ring operations -----------------------------------------------------

    def _check(self, other: DiffOp) -> None:
        if self.cvars != other.cvars or self.dvars != other.dvars:
            raise ValueError("operator variable mismatch")

    def __add__(self, other: DiffOp) -> DiffOp:
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return DiffOp(self.cvars, self.dvars, out)

    def __neg__(self) -> DiffOp:
        return DiffOp(self.cvars, self.dvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def __mul__(self, other: DiffOp) -> DiffOp:
        """Noncommutative product (self acts after other)."""
        self._check(other)
        out: dict[tuple[int, ...], RatFun] = {}
        caches: dict[tuple[int, ...], dict[tuple[int, ...], RatFun]] = {eb: {} for eb in other.terms}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                for k in _sub_exponents(ea):
                    coeff = _derivative_from_cache(cb, self.dvars, k, caches[eb])
                    if coeff.is_zero():
                        continue
                    mult = math.prod(math.comb(a, b) for a, b in zip(ea, k))
                    exp = tuple(a - b + c for a, b, c in zip(ea, k, eb))
                    contrib = ca * coeff * mult
                    cur = out.get(exp)
                    out[exp] = contrib if cur is None else cur + contrib
        return DiffOp(self.cvars, self.dvars, out)

    # -- action -------------------------------------------------------------

    def apply_ratfun(self, target: RatFun) -> RatFun:
        """Apply to a rational function over a (possibly larger) variable set."""
        tvars = target.vars
        for v in self.cvars:
            if v not in tvars:
                raise ValueError(f"target lacks operator variable {v!r}")
        result = RatFun.from_scalar(0, tvars)
        deriv_cache: dict[tuple[int, ...], RatFun] = {(0,) * len(self.dvars): target}
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            d = _derivative_from_cache(target, self.dvars, exp, deriv_cache)
            result = result + self.terms[exp].extend_vars(tvars) * d
        return result

    def apply_series(self, series: PowerSeries) -> PowerSeries:
        """Apply a univariate operator to a series; order drops by the d-order.

        Rational coefficients are expanded as series themselves, which
        requires their denominators to be units at the origin.
        """
        if len(self.dvars) != 1:
            raise ValueError("series application requires a univariate operator")
        var = self.dvars[0]
        if series.var != var:
            raise ValueError("series variable mismatch")
        r = self.order()
        out_order = series.order - r
        if out_order < 0:
            raise ValueError("series order too small for the operator order")
        acc = PowerSeries.zero(var, out_order)
        d = series
        for k in range(r + 1):
            c = self.terms.get((k,))
            if c is not None:
                if c.den.constant_value() == 0:
                    raise ValueError("coefficient denominator vanishes at the origin")
                cs = PowerSeries.from_ratfun(c, var, out_order)
                acc = acc + cs * d.truncate(out_order)
            d = d.derivative()
        return acc

    # -- normal forms -----------------------------------------------------------

    def clear_denominators(self) -> DiffOp:
        """Left-multiply by the lcm of coefficient denominators (polynomial output)."""
        polys = clear_denominators(list(self.terms.values()), self.cvars)
        return DiffOp(self.cvars, self.dvars,
                      {e: RatFun(p, _reduced=True) for e, p in zip(self.terms, polys)})

    def normalized(self) -> DiffOp:
        """Polynomial coefficients, joint content 1, top coefficient positive."""
        cleared = self.clear_denominators()
        if not cleared.terms:
            return cleared
        polys = {e: c.as_mpoly() for e, c in cleared.terms.items()}
        g: MPoly | None = None
        for p in polys.values():
            g = p if g is None else mpoly_gcd(g, p)
            if g.is_constant():
                break
        if g is not None and not g.is_constant():
            polys = {e: p.divide_exact(g) for e, p in polys.items()}
        content = Fraction(0)
        for p in polys.values():
            content = frac_gcd(content, p.rational_content())
        top = max(polys, key=lambda e: (sum(e), e))
        if polys[top].leading_coeff() < 0:
            content = -content
        inv = 1 / content
        return DiffOp(self.cvars, self.dvars, {e: p * inv for e, p in polys.items()})

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": "diff",
            "vars": list(self.cvars),
            "dvars": list(self.dvars),
            "terms": [
                {"exp": list(e), "coeff": self.terms[e].text()}
                for e in sorted(self.terms, key=lambda e: (sum(e), e))
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> DiffOp:
        try:
            cvars = tuple(data["vars"])
            dvars = tuple(data["dvars"])
            terms = {tuple(t["exp"]): RatFun.parse(t["coeff"], cvars) for t in data["terms"]}
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed operator JSON: {type(exc).__name__}: {exc}") from None
        return DiffOp(cvars, dvars, terms)


def _sub_exponents(e: tuple[int, ...]):
    """All componentwise-smaller-or-equal exponent tuples."""
    if not e:
        yield ()
        return
    head, rest = e[0], e[1:]
    for sub in _sub_exponents(rest):
        for i in range(head + 1):
            yield (i,) + sub


def _derivative_from_cache(target, dvars: tuple[str, ...], exp: tuple[int, ...], cache: dict):
    """d^exp target, memoized in cache; target is anything with .derivative(var)."""
    if exp in cache:
        return cache[exp]
    # Step down one derivative from the nearest cached ancestor.
    for i, e in enumerate(exp):
        if e > 0:
            parent = exp[:i] + (e - 1,) + exp[i + 1:]
            base = _derivative_from_cache(target, dvars, parent, cache)
            val = base.derivative(dvars[i])
            cache[exp] = val
            return val
    return target


# ---------------------------------------------------------------------------
# Recurrence operators
# ---------------------------------------------------------------------------


class RecOp:
    """Backward-form recurrence operator sum_j q_j(n) u_{n-j}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, MPoly | int | Fraction]):
        clean: dict[int, MPoly] = {}
        for j, q in terms.items():
            if not isinstance(j, int) or isinstance(j, bool):
                raise ValueError(f"shift offsets must be integers, got {j!r}")
            if isinstance(q, (int, Fraction)):
                q = MPoly.const(N_VARS, q)
            if q.vars != N_VARS:
                raise ValueError("recurrence coefficients live in Q[n]")
            if not q.is_zero():
                clean[j] = q
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms) - min(self.terms)

    def coeff(self, j: int) -> MPoly:
        return self.terms.get(j, MPoly.zero(N_VARS))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecOp):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "RecOp(0)"
        parts = [f"({self.terms[j].text()})*u[n-{j}]" if j >= 0 else f"({self.terms[j].text()})*u[n+{-j}]"
                 for j in sorted(self.terms)]
        return "RecOp(" + " + ".join(parts) + ")"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: RecOp) -> RecOp:
        out = dict(self.terms)
        for j, q in other.terms.items():
            cur = out.get(j)
            out[j] = q if cur is None else cur + q
        return RecOp(out)

    def __neg__(self) -> RecOp:
        return RecOp({j: -q for j, q in self.terms.items()})

    def __sub__(self, other: RecOp) -> RecOp:
        return self + (-other)

    def scale(self, factor: MPoly | int | Fraction) -> RecOp:
        """Left multiplication by a polynomial in n."""
        if isinstance(factor, (int, Fraction)):
            factor = MPoly.const(N_VARS, factor)
        return RecOp({j: factor * q for j, q in self.terms.items()})

    def __mul__(self, other: RecOp) -> RecOp:
        """Composition: (q_j sigma^-j)(p_k sigma^-k) = q_j(n) p_k(n-j) sigma^-(j+k)."""
        out: dict[int, MPoly] = {}
        for j, qj in self.terms.items():
            for k, pk in other.terms.items():
                shifted = _shift_n(pk, -j)
                cur = out.get(j + k)
                prod = qj * shifted
                out[j + k] = prod if cur is None else cur + prod
        return RecOp(out)

    # -- action ---------------------------------------------------------------

    def apply(self, terms: Sequence[int]) -> list[tuple[int, Fraction]]:
        """Values sum_j q_j(n) u_{n-j} for each n whose every referenced
        index lies inside the data."""
        if self.is_zero():
            return []
        lo, hi = min(self.terms), max(self.terms)
        n_end = len(terms) - 1 + lo  # largest n with every forward index in range
        out = []
        for n in range(max(hi, 0), n_end + 1):
            acc = Fraction(0)
            for j, q in self.terms.items():
                acc += q.eval_full({"n": n}) * terms[n - j]
            out.append((n, acc))
        return out

    # -- normal forms ----------------------------------------------------------

    def shift_normalized(self) -> RecOp:
        """Shift offsets so the smallest is 0 (substituting n -> n + min)."""
        if not self.terms:
            return self
        lo = min(self.terms)
        if lo == 0:
            return self
        return RecOp({j - lo: _shift_n(q, lo) for j, q in self.terms.items()})

    def normalized(self) -> RecOp:
        """Offsets from 0, integer content 1, leading q_0 n-coefficient positive."""
        op = self.shift_normalized()
        if not op.terms:
            return op
        content = Fraction(0)
        for q in op.terms.values():
            content = frac_gcd(content, q.rational_content())
        lead = op.terms[min(op.terms)]
        if lead.leading_coeff() < 0:
            content = -content
        inv = 1 / content
        return RecOp({j: q * inv for j, q in op.terms.items()})

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": "shift",
            "terms": [
                {"exp": [j], "coeff": self.terms[j].text()}
                for j in sorted(self.terms)
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> RecOp:
        try:
            terms = {t["exp"][0]: MPoly.parse(t["coeff"], N_VARS) for t in data["terms"]}
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed recurrence JSON: {type(exc).__name__}: {exc}") from None
        return RecOp(terms)


def _shift_n(p: MPoly, delta: int) -> MPoly:
    """Substitute n -> n + delta in a polynomial of Q[n]."""
    if delta == 0 or p.is_zero():
        return p
    repl = MPoly(N_VARS, {(1,): 1, (0,): delta})
    return p.subs_poly("n", repl)


# ---------------------------------------------------------------------------
# ODE <-> recurrence translation
# ---------------------------------------------------------------------------


def diffop_to_rec(op: DiffOp) -> RecOp:
    """Recurrence satisfied by the coefficients of any series the ODE kills.

    Rule: a term x^a d^b maps to offset a-b with coefficient equal to the
    falling factorial (n-a+b)(n-a+b-1)...(n-a+1); the result is shifted so
    offsets start at 0 and content/sign normalized.
    """
    if len(op.dvars) != 1:
        raise ValueError("translation requires a univariate operator")
    if op.is_zero():
        raise ValueError("the zero operator has no recurrence")
    cleared = op.clear_denominators()
    var = op.dvars[0]
    if cleared.cvars != (var,):
        raise ValueError("coefficients must be polynomials in the series variable only")
    out: dict[int, MPoly] = {}
    n = MPoly.var(N_VARS, "n")
    for (b,), c in cleared.terms.items():
        cpoly = c.as_mpoly()
        for (a,), coef in cpoly.terms.items():
            j = a - b
            ff = MPoly.const(N_VARS, 1)
            for i in range(b):
                ff = ff * (n + (b - a - i))
            cur = out.get(j)
            contrib = ff * coef
            out[j] = contrib if cur is None else cur + contrib
    return RecOp(out).normalized()


def rec_unroll(rec: RecOp, initial: SeqTable, n_max: int) -> SeqTable:
    """Extend a sequence exactly to n_max using a backward recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    op = rec.shift_normalized()
    r = op.order()
    if len(initial.terms) < r:
        raise ValueError(f"need at least {r} initial terms, got {len(initial.terms)}")
    if len(initial.terms) > n_max + 1:
        return SeqTable(initial.name, initial.terms[: n_max + 1], initial.provenance)
    values: list[Fraction] = [Fraction(v) for v in initial.terms]
    q0 = op.coeff(0)
    for n in range(len(values), n_max + 1):
        lead = q0.eval_full({"n": n})
        if lead == 0:
            raise SingularRecurrenceError(n)
        acc = Fraction(0)
        for j, q in op.terms.items():
            if j:
                acc += q.eval_full({"n": n}) * values[n - j]
        values.append(-acc / lead)
    terms = []
    for n, v in enumerate(values):
        if v.denominator != 1:
            raise ArithmeticError(f"non-integer term at n={n}; transcription bug likely")
        terms.append(v.numerator)
    return SeqTable(initial.name, terms, "recurrence")


def guess_rec(seq: SeqTable, max_order: int, max_degree: int) -> list[RecOp]:
    """Basis of recurrences of bounded order and degree annihilating the terms.

    One equation per window: sum_j q_j(n) u_{n-j} = 0 for n = order..N-1,
    so N terms yield N - order usable equations.  If (order+1)(degree+1)
    unknowns plus an oversampling margin of 2 exceed that, the degree falls
    back to the largest feasible value (candidates beyond it are simply
    untested); if even degree 0 is infeasible the data is insufficient.
    """
    for name, bound in (("max_order", max_order), ("max_degree", max_degree)):
        if bound < 0:
            raise ValueError(f"{name} must be >= 0")
    oversample = 2
    terms = seq.terms
    r = max_order
    rows_avail = len(terms) - r
    degree = None
    for d in range(max_degree, -1, -1):
        if (r + 1) * (d + 1) + oversample <= rows_avail:
            degree = d
            break
    if degree is None:
        need = r + (r + 1) + oversample
        raise InsufficientTermsError(
            f"guessing order {r} needs at least {need} terms even at degree 0; got {len(terms)}")

    cols = [(j, k) for j in range(r + 1) for k in range(degree + 1)]
    basis = linear_nullspace([[MPoly.const((), n ** k * terms[n - j]) for j, k in cols]
                              for n in range(r, len(terms))])

    found = []
    for vec in basis:
        coeffs: dict[int, MPoly] = {}
        for (j, k), p in zip(cols, vec):
            if p.is_zero():
                continue
            c = p.constant_value()
            cur = coeffs.get(j, MPoly.zero(N_VARS))
            coeffs[j] = cur + MPoly(N_VARS, {(k,): c})
        found.append(RecOp(coeffs).normalized())
    return found


@dataclass
class RecReductionReport:
    """Outcome of proving small from big via an exact operator identity."""

    passed: bool
    residual: RecOp
    base_cases: dict[int, Fraction] = field(default_factory=dict)
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {self.detail}"


def prove_rec_reduction(big: RecOp, small: RecOp, multiplier: MPoly,
                        cofactor: RecOp, terms: SeqTable | None = None) -> RecReductionReport:
    """Verify cofactor*small == multiplier*big and base cases on given terms.

    A zero residual shows every solution of big turns the small form into a
    sequence b with cofactor(b) = 0; the base cases b_n = 0 pin b to zero.
    Base cases run at n = small_order .. small_order+7 against the supplied
    terms (defaults to the rook diagonal from the DP oracle).
    """
    residual = cofactor * small - big.scale(multiplier)
    identity_ok = residual.is_zero()

    if terms is None:
        from .walks import ROOK, diagonal_sequence
        n_hi = small.shift_normalized().order() + 7
        terms = diagonal_sequence(ROOK, n_hi)
    sm = small.shift_normalized()
    base: dict[int, Fraction] = {}
    for n, value in sm.apply(terms.terms):
        if n > sm.order() + 7:
            break
        base[n] = value
    base_ok = all(v == 0 for v in base.values())

    passed = identity_ok and base_ok
    detail = (
        f"operator identity residual {'zero' if identity_ok else 'NONZERO'}; "
        f"base cases n={min(base)}..{max(base)} {'all zero' if base_ok else 'violated'}"
        if base else "no base cases computable")
    return RecReductionReport(passed, residual, base, detail)
