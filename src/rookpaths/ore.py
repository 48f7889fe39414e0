"""Ore operators: differential and shift algebra over rational functions.

DiffOp is a linear differential operator with RatFun coefficients; the
product enforces the commutation d_v * a = a * d_v + da/dv.  RecOp is a
linear recurrence operator stored in backward form sum_j q_j(n) u_{n-j}
(offset j counts shifts into the past; negative offsets reach forward),
with commutation sigma^{-j} * q(n) = q(n-j) * sigma^{-j}.

A DiffOp changes its own variable (points, infinity and pullbacks) and
divides exactly on the right (the closed-form proof and stage C).
Together these support translating an ODE for a power series into a
recurrence for its coefficients, unrolling and guessing recurrences, and
proving one recurrence from another through an exact operator identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence

# mpoly_gcd is unused here but stays imported: the benchmark's wrapper check expects it at this site.
from .exactmath import (MPoly, PowerSeries, RatFun, clear_denominators, frac_gcd, linear_nullspace,  # noqa: F401
                        monomial_key, mpoly_gcd, strip_content)
from .walks import SeqTable

N_VARS = ("n",)

# Caps on operators read from files, far above every operator and certificate the
# pipeline writes (order 4, degree 16); verify-cert at both caps takes seconds.
ORDER_CAP = 12
DEGREE_CAP = 256


def check_input_caps(field: str, polys: Sequence[MPoly], order: int = 0) -> None:
    """Reject a file's field whose operator order or polynomial degree passes its cap."""
    if order > ORDER_CAP:
        raise ValueError(f"{field}: operator order {order} is over the input cap of {ORDER_CAP}")
    degree = max((p.total_degree() for p in polys), default=0)
    if degree > DEGREE_CAP:
        raise ValueError(f"{field}: polynomial degree {degree} is over the input cap of {DEGREE_CAP}")


def check_distinct_exponents(exps: Sequence[tuple]) -> None:
    """Reject a file's terms that give one exponent twice, of which a dict would keep the last."""
    seen = set()
    for e in exps:
        if e in seen:
            raise ValueError(f"terms: exponent {list(e)} is given twice")
        seen.add(e)


class InsufficientTermsError(ValueError):
    """Raised when a guessing ansatz would be underdetermined."""


class SingularRecurrenceError(ArithmeticError):
    """Raised when unrolling hits a vanishing leading coefficient."""

    def __init__(self, index: int):
        super().__init__(f"leading coefficient vanishes at index {index}")
        self.index = index


class NonIntegerTermError(ArithmeticError):
    """Raised when unrolling an integer sequence meets a non-integer term."""

    def __init__(self, index: int):
        super().__init__(f"non-integer term at n={index}; transcription bug likely")
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

    def right_divide(self, divisor: DiffOp) -> tuple[DiffOp, DiffOp]:
        """(quotient, remainder) with self = quotient * divisor + remainder.

        The divisor's lead is its largest exponent in graded-lex order; every
        term whose exponent dominates the lead is removed, largest first, by
        subtracting (c / lead coefficient) d^(e - lead) * divisor.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("right division by the zero operator")
        lead_exp = max(divisor.terms, key=monomial_key)
        lead = divisor.terms[lead_exp]
        quotient, rem = DiffOp.zero(self.cvars, self.dvars), self
        for _ in range(1000):
            target = max((e for e in rem.terms if all(a >= b for a, b in zip(e, lead_exp))),
                         key=monomial_key, default=None)
            if target is None:
                return quotient, rem
            mexp = tuple(a - b for a, b in zip(target, lead_exp))
            m = DiffOp(self.cvars, self.dvars, {mexp: rem.terms[target] / lead})
            quotient, rem = quotient + m, rem - m * divisor
        raise ArithmeticError("operator division does not terminate")

    def change_variable(self, f: RatFun) -> DiffOp:
        """The operator in x for z = f(x): sum c_k(f(x)) (f'(x)^-1 d)^k.

        It kills y(f(x)) whenever self kills y(z); x -> x + p moves a point
        to the origin and x -> 1/x brings infinity there.
        """
        if len(self.dvars) != 1 or self.cvars != self.dvars:
            raise ValueError("change of variable requires a univariate operator")
        (var,) = self.dvars
        if f.is_constant():
            raise ValueError("change of variable requires a nonconstant map")
        step = DiffOp(self.cvars, self.dvars, {(1,): 1 / f.derivative(var)})
        power = DiffOp.identity(self.cvars, self.dvars)
        out = DiffOp.zero(self.cvars, self.dvars)
        for k in range(self.order() + 1):
            if k:
                power = step * power
            if (k,) in self.terms:
                c = self.terms[(k,)].subs(var, f)
                out = out + DiffOp(self.cvars, self.dvars, {e: c * p for e, p in power.terms.items()})
        return out

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
        acc = PowerSeries(var, [0] * (out_order + 1))
        d = series
        for k in range(r + 1):
            c = self.terms.get((k,))
            if c is not None:
                if c.den.constant_value() == 0:
                    raise ValueError("coefficient denominator vanishes at the origin")
                cs = PowerSeries.from_ratfun(c, var, out_order)
                acc = acc + cs * d  # the product carries cs's order, out_order
            d = d.derivative()
        return acc

    # -- normal forms -----------------------------------------------------------

    def clear_denominators(self) -> DiffOp:
        """Left-multiply by the lcm of coefficient denominators (polynomial output)."""
        polys = clear_denominators(list(self.terms.values()), self.cvars)
        return DiffOp(self.cvars, self.dvars,
                      {e: RatFun(p, _reduced=True) for e, p in zip(self.terms, polys)})

    def normalized(self) -> DiffOp:
        """Polynomial coefficients, joint content 1, top coefficient (by monomial_key) positive."""
        if not self.terms:
            return self
        cleared = clear_denominators(list(self.terms.values()), self.cvars)
        polys = strip_content(dict(zip(self.terms, cleared)))
        sign = -1 if polys[max(polys, key=monomial_key)].leading_coeff() < 0 else 1
        return DiffOp(self.cvars, self.dvars, {e: RatFun(p * sign, _reduced=True) for e, p in polys.items()})

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
            exps = [tuple(t["exp"]) for t in data["terms"]]
            check_distinct_exponents(exps)
            sides = {e: RatFun.parse_sides(t["coeff"], cvars) for e, t in zip(exps, data["terms"])}
            check_input_caps("terms", [p for pair in sides.values() for p in pair],
                             max(map(sum, sides), default=0))
            terms = {e: RatFun(*pair) for e, pair in sides.items()}
        except (KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
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

    def scale(self, factor: MPoly) -> RecOp:
        """Left multiplication by a polynomial in n."""
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
        content = reduce(frac_gcd, (q.rational_content() for q in op.terms.values()))
        inv = (-1 if op.terms[min(op.terms)].leading_coeff() < 0 else 1) / content
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
            exps = [(t["exp"][0],) for t in data["terms"]]
            check_distinct_exponents(exps)
            terms = {j: MPoly.parse(t["coeff"], N_VARS) for (j,), t in zip(exps, data["terms"])}
        except (KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed recurrence JSON: {type(exc).__name__}: {exc}") from None
        op = RecOp(terms)
        check_input_caps("terms", list(op.terms.values()), op.order())
        return op


def _shift_n(p: MPoly, delta: int) -> MPoly:
    """Substitute n -> n + delta in a polynomial of Q[n]."""
    return p if delta == 0 else p.subs("n", MPoly(N_VARS, {(1,): 1, (0,): delta}), 1)


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
    terms = list(unrolled_terms(rec, initial, n_max))
    return SeqTable(initial.name, terms,
                    initial.provenance if len(initial.terms) > n_max + 1 else "recurrence")


def unrolled_terms(rec: RecOp, initial: SeqTable, n_max: int):
    """Yield terms 0..n_max of rec_unroll's table, holding only the last rec.order() terms."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    op = rec.shift_normalized()
    r = op.order()
    if len(initial.terms) < r:
        raise ValueError(f"need at least {r} initial terms, got {len(initial.terms)}")
    if len(initial.terms) > n_max + 1:
        yield from initial.terms[: n_max + 1]
        return
    terms: list[int] = []
    for n, v in enumerate(initial.terms):
        v = Fraction(v)
        if v.denominator != 1:
            raise NonIntegerTermError(n)
        terms.append(v.numerator)
    yield from terms
    # q_j scaled by one common denominator, as integer coefficients by falling
    # degree; the rest are negated, since q_0(n) u_n = -sum_(j > 0) q_j(n) u_(n-j)
    scale = math.lcm(*(c.denominator for q in op.terms.values() for c in q.terms.values()))
    horner = {j: [int(scale * q.terms.get((k,), 0)) for k in range(q.degree("n"), -1, -1)]
              for j, q in op.terms.items()}
    lead_coeffs = horner.pop(0, [])
    rest = [(j, [-c for c in cs]) for j, cs in horner.items()]
    window = terms[len(terms) - r:]
    for n in range(len(terms), n_max + 1):
        lead = 0
        for c in lead_coeffs:
            lead = lead * n + c
        if lead == 0:
            raise SingularRecurrenceError(n)
        acc = 0
        for j, cs in rest:
            q = 0
            for c in cs:
                q = q * n + c
            acc += q * window[r - j]
        value, rem = divmod(acc, lead)
        if rem:
            raise NonIntegerTermError(n)
        window = window[1:] + [value]
        yield value


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
    # the largest d <= max_degree with (r + 1)(d + 1) + oversample <= rows_avail
    degree = min(max_degree, (rows_avail - oversample) // (r + 1) - 1)
    if degree < 0:
        need = r + (r + 1) + oversample
        raise InsufficientTermsError(
            f"guessing order {r} needs at least {need} terms even at degree 0; got {len(terms)}")

    cols = [(j, k) for j in range(r + 1) for k in range(degree + 1)]
    basis = linear_nullspace([[n ** k * terms[n - j] for j, k in cols] for n in range(r, len(terms))])

    found = []
    for vec in basis:
        coeffs: dict[int, MPoly] = {}
        for (j, k), c in zip(cols, vec):
            if c:
                coeffs[j] = coeffs.get(j, MPoly.zero(N_VARS)) + MPoly(N_VARS, {(k,): c})
        found.append(RecOp(coeffs).normalized())
    return found


class IdentityReport:
    """Outcome of an exact-identity check: the key equation, a right division with
    zero remainder, or a recurrence reduction with its base cases."""

    __slots__ = ("passed", "residual", "detail", "base_cases")

    def __init__(self, passed: bool, residual: RatFun | DiffOp | RecOp, detail: str = "",
                 base_cases: dict[int, Fraction] | None = None):
        self.passed, self.residual, self.detail = passed, residual, detail
        self.base_cases = {} if base_cases is None else base_cases

    def __str__(self) -> str:
        return ("PASS" if self.passed else "FAIL") + (f": {self.detail}" if self.detail else "")


def prove_rec_reduction(big: RecOp, small: RecOp, multiplier: MPoly,
                        cofactor: RecOp, terms: SeqTable | None = None) -> IdentityReport:
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
    base: dict[int, Fraction] = dict(sm.apply(terms.terms[:sm.order() + 8]))
    base_ok = all(v == 0 for v in base.values())

    passed = identity_ok and base_ok
    detail = (
        f"operator identity residual {'zero' if identity_ok else 'NONZERO'}; "
        f"base cases n={min(base)}..{max(base)} {'all zero' if base_ok else 'violated'}"
        if base else "no base cases computable")
    return IdentityReport(passed, residual, detail, base)
