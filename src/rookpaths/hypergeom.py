"""Gauss hypergeometric layer: series, singularity analysis, pullbacks.

Covers the 2F1 power series, local exponent analysis of second-order
operators (indicial equations, Frobenius classification of removable vs
logarithmic points), the rational-pullback search driven by the cube
condition, symbolic verification that a prefactor times 2F1(f(x)) solves a
given operator, asymptotics of the diagonal sequence, and the classical
series identities connecting the two hypergeometric expressions.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from fractions import Fraction
from typing import Sequence

from .exactmath import MPoly, PowerSeries, RatFun, mpoly_gcd, poly, ratfun, root_values
from .exactmath.mpoly import _rational_roots
from .numerics import decimal_str, extrapolate_partial_sums, pi_rational, sqrt_rational
from .ore import DiffOp, IdentityReport, RecOp, diffop_to_rec, unrolled_terms
from . import rookdata
from .walks import ROOK, FrozenRecord, SeqTable, diagonal_sequence

X = ("x",)
GAP_CAP = 1000  # the Frobenius test takes one recurrence step per unit of an integer exponent gap
SCREEN_PRIME = (1 << 31) - 1  # _squarefree_mod_p works modulo this prime
GAUSS_DIGITS = 10  # the numeric 2F1(1/3, 2/3; 2; 1) must match 9 sqrt(3)/(4 pi) to this many digits


class HypergeomError(ValueError):
    pass


class HypergeomSpec(FrozenRecord):
    """Parameters (a, b; c) of a Gauss hypergeometric series."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction):
        if (q := Fraction(c)).denominator == 1 and q <= 0:
            raise HypergeomError("lower parameter -c must not be a nonnegative integer")
        for k, v in zip(self.__slots__, (a, b, c)):
            object.__setattr__(self, k, v)


def f21_series(spec: HypergeomSpec, order: int) -> PowerSeries:
    """Exact truncated 2F1 series via the Pochhammer term ratio."""
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for n in range(order):
        term = term * (spec.a + n) * (spec.b + n) / ((spec.c + n) * (n + 1))
        coeffs.append(term)
    return PowerSeries("x", coeffs)


def gauss_operator(spec: HypergeomSpec) -> DiffOp:
    """x(1-x) w'' + (c - (a+b+1)x) w' - ab w."""
    a, b, c = spec.a, spec.b, spec.c
    return DiffOp(X, X, {
        (2,): RatFun(poly("x*(1-x)", X)),
        (1,): RatFun(MPoly(X, {(0,): c, (1,): -(a + b + 1)})),
        (0,): RatFun(MPoly.const(X, -a * b)),
    })


# ---------------------------------------------------------------------------
# Local exponents / singularity classification
# ---------------------------------------------------------------------------


class PointReport:
    __slots__ = ("location", "exponents", "exponent_difference", "klass")

    def __init__(self, location: Fraction | str, exponents: tuple[Fraction, Fraction],
                 exponent_difference: Fraction, klass: str):
        # location: a rational point or "inf"; klass: ordinary | removable | logarithmic | non-removable-other
        self.location, self.exponents = location, exponents
        self.exponent_difference, self.klass = exponent_difference, klass


class SingularityReport:
    __slots__ = ("points",)

    def __init__(self, points: list[PointReport]):
        self.points = points

    def non_removable(self) -> list[Fraction | str]:
        return [p.location for p in self.points
                if p.klass in ("logarithmic", "non-removable-other")]

    def at(self, location) -> PointReport:
        for p in self.points:
            if p.location == location:
                return p
        raise KeyError(location)


def local_exponents(L: DiffOp) -> SingularityReport:
    """Indicial analysis of a second-order operator at every singular point.

    Singular points are the rational roots of the leading coefficient plus
    infinity; a nonconstant irrational remainder aborts with an error, as do
    an irregular singular point (indicial degree < 2) and exponents outside
    Q.  Integer exponent differences are classified removable vs logarithmic
    by running the Frobenius construction from the smaller exponent and
    testing the consistency condition at the gap.
    """
    cleared = _cleared(L)
    if cleared.order() != 2:
        raise HypergeomError("local exponent analysis expects an order-2 operator")
    roots, rest = _rational_roots(cleared.coeff((2,)).as_mpoly())
    if not rest.is_constant():
        raise HypergeomError(
            f"leading coefficient has a non-rational factor of degree {rest.total_degree()}; "
            "singular-point analysis over Q cannot continue")
    points = [_classify_point(cleared, root) for root, _mult in roots]
    points.append(_classify_point(cleared, "inf"))
    return SingularityReport(points)


def exponents_at(L: DiffOp, location: Fraction) -> PointReport:
    """Classify one rational point (ordinary points report exponents (0, 1))."""
    return _classify_point(_cleared(L), Fraction(location))


def _cleared(L: DiffOp) -> DiffOp:
    if L.cvars != L.dvars or len(L.dvars) != 1:
        raise HypergeomError("the operator must be univariate in its series variable, "
                             f"got vars {list(L.cvars)} and dvars {list(L.dvars)}")
    return L.clear_denominators()


def _classify_point(L: DiffOp, location: Fraction | str) -> PointReport:
    """Exponents and class of a rational point or "inf", from the coefficient recurrence.

    With the operator moved to the origin (x -> x + p, or x -> 1/x for
    infinity) and chi_i(e) the coefficient of x^(e+mu+i) in L(x^e), the
    recurrence of its series solutions is q_i(n) = kappa * chi_i(n-i), so
    q_0 is the indicial polynomial.
    """
    one, v = MPoly.const(L.cvars, 1), MPoly(L.cvars, {(1,): 1})
    shift = RatFun(one, v) if location == "inf" else RatFun(v + location)
    local = L.change_variable(shift).normalized()
    rec = diffop_to_rec(local)
    indicial = rec.coeff(0)
    if indicial.degree("n") != 2:
        raise HypergeomError(f"point {location} is not regular singular "
                             "(indicial degree < 2)")
    roots, rest = _rational_roots(indicial)
    if not rest.is_constant():
        raise HypergeomError("irrational local exponents are out of scope")
    e1, e2 = (r for r, mult in roots for _ in range(mult))
    d = e2 - e1
    if local.coeff((2,)).num.constant_value():
        return PointReport(location, (e1, e2), d, "ordinary")
    if d == 0:
        klass = "logarithmic"
    elif d.denominator != 1:
        klass = "non-removable-other"
    elif d > GAP_CAP:
        raise HypergeomError(f"point {location}: integer exponent gap {d} is over the cap of {GAP_CAP}")
    else:
        klass = "removable" if _frobenius_consistent(rec, e1, int(d)) else "logarithmic"
    return PointReport(location, (e1, e2), d, klass)


def _frobenius_consistent(rec: RecOp, e_small: Fraction, gap: int) -> bool:
    """Series construction from the smaller exponent: does step `gap` close?

    The candidate series coefficients satisfy
    q_0(e+m) c_m = -sum_i q_i(e+m) c_(m-i); at m = gap the left factor
    vanishes, and the point is removable exactly when the right side
    vanishes there too.
    """
    c = [Fraction(1)]

    def rhs(m: int) -> Fraction:
        return -sum((q.eval_full({"n": e_small + m}) * c[m - i]
                     for i, q in rec.terms.items() if 1 <= i <= m), Fraction(0))

    for m in range(1, gap):
        c.append(rhs(m) / rec.coeff(0).eval_full({"n": e_small + m}))
    return rhs(gap) == 0


# ---------------------------------------------------------------------------
# Rational pullbacks
# ---------------------------------------------------------------------------


SING_POINTS = (Fraction(0), Fraction(1), Fraction(1, 64), Fraction(2, 3))
TRIED_TRIPLES = ((Fraction(0), Fraction(0), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(1, 3)))


class PullbackCandidate:
    """A map f = c prod (x-p)^(n_p) whose shifted numerator is a perfect cube;
    points is the singular set the search ran on."""

    __slots__ = ("points", "exponents", "constant", "map", "cube_root")

    def __init__(self, points: tuple[Fraction, ...], exponents: dict[Fraction, int], constant: Fraction,
                 map: RatFun, cube_root: MPoly | None = None):
        self.points, self.exponents, self.constant = points, exponents, constant
        self.map, self.cube_root = map, cube_root

    def exponent_tuple(self) -> tuple[int, ...]:
        return tuple(self.exponents.get(p, 0) for p in self.points)

    def simplified_map(self) -> RatFun:
        """The Moebius post-transform f -> f/(f-1) (cube moves to the denominator)."""
        one = RatFun.from_scalar(1, X)
        return self.map / (self.map - one)


def pullback_search(sing_set: Sequence[Fraction], target_triple, max_degree: int) -> list[PullbackCandidate]:
    """Candidates f with root/pole support on the singular set and the cube
    condition at the fractional exponent.

    For the triple (0, 0, 1/3) the search runs in the swapped frame
    (0, 1/3, 0), numerator of f-1 a perfect cube, which is where the
    exponent vector and constant live; simplified_map() then applies the
    Moebius transform back.  An all-integer triple admits no power
    condition for this ansatz solver and yields no candidates.  The points
    of the singular set must be distinct.

    Each step runs once at the level it depends on: the cofactor table once
    per support, G once per primitive ray (the vector over the gcd of its
    entries, signed by the first nonzero one), and _power_roots once per
    vector _exponent_vectors admits.
    """
    if max_degree < 1:
        raise HypergeomError("max_degree must be >= 1")
    points = [Fraction(p) for p in sing_set]
    if len(set(points)) != len(points):
        raise HypergeomError("the singular set repeats a point")
    fractional = [e for e in map(Fraction, target_triple) if e.denominator > 1]
    if not fractional:
        return []
    power = fractional[0].denominator
    ratios = [p.as_integer_ratio() for p in points]
    tables: dict[tuple[bool, ...], list[tuple[int, ...]]] = {}
    gcds: dict[tuple[int, ...], MPoly] = {}
    results: list[PullbackCandidate] = []
    for exps, M in _exponent_vectors(len(points), max_degree, power):
        unit = math.gcd(*exps) if next(filter(None, exps)) > 0 else -math.gcd(*exps)
        ray = tuple(e // unit for e in exps)
        if (G := gcds.get(ray)) is None:
            support = tuple(map(bool, exps))
            if support not in tables:
                tables[support] = _cofactor_table([r for r, e in zip(ratios, exps) if e])
            G = gcds[ray] = _ray_gcd(tables[support], [w for w in ray if w], power)
        for const, Q in _power_roots(points, exps, M, power, G):
            num, den = _monic_parts(points, exps)
            results.append(PullbackCandidate(
                points=tuple(points), exponents={p: e for p, e in zip(points, exps) if e},
                constant=const, map=RatFun(num * const, den), cube_root=Q))
    return results


def _exponent_vectors(npts: int, max_degree: int, power: int):
    """The exponent vectors that pass the degree test of _power_roots, each with its
    map degree M = max(deg N, deg D), in lexicographic order: deg N != deg D,
    M <= max_degree, power | M and (power-1) * M/power <= |support| - 1.  A depth-first
    walk keeps deg N and deg D within top, the largest such M, and tests the rest at
    the leaves."""
    top = min(max_degree, (npts - 1) * power // (power - 1)) // power * power

    def walk(prefix: tuple[int, ...], deg_n: int, deg_d: int):
        leaf = len(prefix) == npts - 1
        for v in range(deg_d - top, top - deg_n + 1):
            e, n, d = prefix + (v,), deg_n + max(v, 0), deg_d - min(v, 0)
            if not leaf:
                yield from walk(e, n, d)
            elif n != d and not (M := max(n, d)) % power and (power - 1) * (M // power) < npts - e.count(0):
                yield e, M

    return walk((), 0, 0)


def _monic_parts(points, exps) -> tuple[MPoly, MPoly]:
    """N = prod (x-p)^e over e > 0 and D = prod (x-p)^(-e) over e < 0."""
    num = MPoly.const(X, 1)
    den = MPoly.const(X, 1)
    for p, e in zip(points, exps):
        factor = MPoly(X, {(1,): 1, (0,): -p})
        if e > 0:
            num = num * factor ** e
        elif e < 0:
            den = den * factor ** (-e)
    return num, den


def _cofactor_table(support) -> list[tuple[int, ...]]:
    """Row p is b_p * prod_(q != p) (b_q x - a_q), coefficients from x^0 up, for the
    points q = a_q/b_q of a support given as (a_q, b_q); returned as its columns."""
    rows = []
    for i, (_, b) in enumerate(support):
        row = [b]
        for a_q, b_q in support[:i] + support[i + 1:]:
            row = [b_q * lower - a_q * same for lower, same in zip([0] + row, row + [0])]
        rows.append(row)
    return list(zip(*rows))


def _ray_gcd(columns, ray, power: int) -> MPoly:
    """G = gcd(R, R', ..., R^(power-2)) for R = sum_p w_p prod_(q != p) (x - q) times
    prod_q b_q, w the ray's weights on the support's points: the weights dotted with each
    column of the support's _cofactor_table.  For power >= 3, G = 1 when R is squarefree,
    which _squarefree_mod_p often shows without building R; the gcd chain decides every
    ray it leaves open."""
    coeffs = [sum(map(operator.mul, ray, column)) for column in columns]
    if power >= 3 and _squarefree_mod_p(coeffs):
        return MPoly.const(X, 1)
    R = MPoly(X, {(j,): c for j, c in enumerate(coeffs)})
    G = R
    for _ in range(power - 2):
        R = R.derivative("x")
        G = mpoly_gcd(G, R)
    return G


def _squarefree_mod_p(coeffs: list[int]) -> bool:
    """True when SCREEN_PRIME does not divide the leading coefficient of the integer
    polynomial R = sum_j coeffs[j] x^j and R, R' are coprime modulo SCREEN_PRIME;
    then R is squarefree over Q.  A repeated factor h of R can be taken primitive
    in Z[x] (Gauss's lemma), so lc(h) divides lc(R), h mod p keeps its degree and
    divides both R and R' mod p.  False decides nothing."""
    p = SCREEN_PRIME
    a, b = [c % p for c in coeffs], [j * c % p for j, c in enumerate(coeffs)][1:]
    if not a[-1]:
        return False
    while True:  # Euclid's algorithm over GF(p) on coefficient lists from x^0 up
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a.pop() * inverse % p, len(a) + 1 - len(b)
            a[shift:] = [(c - q * d) % p for c, d in zip(a[shift:], b)]
        a, b = b, a


def _power_roots(points, exps, M: int, power: int, G: MPoly):
    """Constants c (and monic root Q) with c*N - D = k * Q^power for a constant k.

    N and D are the monic numerator/denominator of an exponent vector that
    passes _exponent_vectors' degree test, M = max(deg N, deg D) with
    deg N != deg D, and Q is monic of degree M/power.  For c != 0, Q is
    prime to N and D, so with f = c*N/D a root of Q of multiplicity m is a
    root of f - 1 of multiplicity power*m, of f' of multiplicity power*m - 1,
    and so of the numerator of the logarithmic derivative f'/f over the
    support S of the vector,

        R = sum_p e_p prod_(q in S, q != p) (x - q),

    of degree |S| - 1 with lead deg N - deg D.  Hence Q^(power-1) divides
    R, which is the degree test (power-1) * M/power <= |S| - 1.  Q also divides
    G = gcd(R, R', ..., R^(power-2)), so a G of degree below M/power ends the
    step, and otherwise c*N - D and G share a root alpha and
    c = D(alpha)/N(alpha): c is one of root_values(D, N, G) (G, a factor of
    R, has no root in S, so it is prime to N).  No step reads G beyond a
    nonzero constant, and R(g*e) = g*R(e), so G may come from any nonzero
    multiple of the weights, as _ray_gcd's G of their primitive ray does.
    For each c, Q is the power-th root of (c*N - D)/k read in 1/x, accepted
    only when the exact re-expansion k * Q^power = c*N - D holds.
    """
    q_deg = M // power
    if G.degree("x") < q_deg:  # Q divides G
        return []
    N, D = _monic_parts(points, exps)
    out = []
    for c in root_values(D, N, G):
        lhs = N * c - D
        k = Fraction(lhs.leading_coeff())  # c when deg N > deg D, else -1
        in_y = PowerSeries("x", [lhs.terms.get((M - j,), 0) / k for j in range(q_deg + 1)])
        root = in_y.power(Fraction(1, power)).coeffs
        Q = MPoly(X, {(q_deg - j,): qj for j, qj in enumerate(root)})
        if k * Q ** power == lhs:  # exact re-expansion check
            out.append((c, Q))
    return out


# ---------------------------------------------------------------------------
# Operator pullback and symbolic solution check
# ---------------------------------------------------------------------------


def operator_pullback(spec: HypergeomSpec, f: RatFun) -> DiffOp:
    """Normalized annihilator of y(f(x)) for y any solution of the Gauss equation."""
    if f.is_constant():
        raise HypergeomError("pullback map must be nonconstant")
    return gauss_operator(spec).change_variable(f).normalized()


def symbolic_solution_check(L: DiffOp, prefactor: RatFun, spec: HypergeomSpec,
                            f: RatFun) -> IdentityReport:
    """Prove L(prefactor * y(f)) = 0 with y = 2F1(a,b;c;.) symbolically.

    M = (Gauss operator in f) * (1/prefactor) kills prefactor * y(f) for
    every solution y of the Gauss equation.  PASS means L = Q * M exactly,
    a zero remainder of the right division, so L kills them too: a proof
    independent of any series truncation.
    """
    M = gauss_operator(spec).change_variable(f) * DiffOp(L.cvars, L.dvars, {(0,): 1 / prefactor})
    _, remainder = L.right_divide(M)
    if remainder.is_zero():
        return IdentityReport(True, remainder)
    return IdentityReport(False, remainder, f"remainder {remainder!r}")


# ---------------------------------------------------------------------------
# Closed form, asymptotics, identities
# ---------------------------------------------------------------------------


class CheckReport:
    __slots__ = ("check", "passed", "detail", "order")

    def __init__(self, check: str, passed: bool, detail: str, order: int):
        self.check, self.passed, self.detail, self.order = check, passed, detail, order

    def to_json_dict(self) -> dict:
        return {"check": self.check, "status": "PASS" if self.passed else "FAIL",
                "detail": self.detail, "order": self.order}

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.check}: {status}" + (f" ({self.detail})" if self.detail else "")


def closed_form_series(order: int) -> PowerSeries:
    """The series 6/((1-4x)(1-64x)) * 2F1(1/3,2/3;2; 27x(2-3x)/(1-4x)^3)."""
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    outer = f21_series(spec, order)
    prefactor = PowerSeries.from_ratfun(rookdata.closed_form_prefactor(), "x", order)
    return prefactor * outer.compose(rookdata.closed_form_pullback())


def closed_form_check(n_max: int, terms: SeqTable | None = None) -> CheckReport:
    """Coefficient n of the closed form is (n+1) a_{n+1} for n < n_max (a: terms or the rook DP)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = _derivative_mismatch(closed_form_series(n_max + 1), n_max, terms)
    detail = "matches the derivative of the diagonal series" if n is None else f"coefficient mismatch at n={n}"
    return CheckReport("closed-form", n is None, detail, n_max)


def _derivative_mismatch(series: PowerSeries, count: int, terms: SeqTable | None) -> int | None:
    """The first n < count where coefficient n of the series is not (n+1) a_(n+1), the
    derivative of the rook diagonal (terms, or counted to n = count); None when all agree."""
    terms = diagonal_sequence(ROOK, count) if terms is None else terms
    if len(terms) <= count:
        raise ValueError(f"need the rook diagonal to n={count}, got {len(terms)} terms")
    return next((n for n in range(count) if series.coeff(n) != (n + 1) * terms[n + 1]), None)


def f21_at_one(spec: HypergeomSpec) -> Fraction:
    """Numeric value of 2F1(a,b;c;1) by extrapolated exact partial sums.

    Direct partial sums converge like a power of 1/n, far too slowly; since
    they admit an asymptotic expansion in 1/n, exact polynomial extrapolation
    through a dozen partial sums reaches many digits.  The result is a
    rational enclosure, independent of the Gauss evaluation formula.
    """
    if spec.c - spec.a - spec.b <= 0:
        raise HypergeomError("2F1(a, b; c; 1) diverges unless c - a - b > 0")
    (an, ad), (bn, bd), (cn, cd) = (p.as_integer_ratio() for p in (spec.a, spec.b, spec.c))
    nodes = [200 + 100 * i for i in range(12)]
    # term n is num/den and the partial sum through it total/den, unreduced, den the product
    # of the steps' q; each node's sum is extrapolated as an integer over the last node's den,
    # scaled by the q past it: a suffix product of the q products over the gaps between nodes
    num = total = gap = 1
    sums, gaps = [], []  # at each node: total, and the product of q since the node before it
    for n in range(max(nodes)):
        num *= (an + n * ad) * (bn + n * bd) * cd
        q = ad * bd * (cn + n * cd) * (n + 1)
        gap *= q
        total = total * q + num
        if n + 1 in nodes:
            sums.append(total)
            gaps.append(gap)
            gap = 1
    scaled, den = {}, 1  # den: the product of q past each node in turn, and at the end over every step
    for node, partial, product in zip(nodes[::-1], sums[::-1], gaps[::-1]):
        scaled[node] = partial * den
        den *= product
    return extrapolate_partial_sums(scaled.__getitem__, nodes) / den


class AsymptoticsReport:
    __slots__ = ("gauss_value", "gauss_target", "gauss_digits_ok", "ratio_error", "ratio_ok", "growth_ratio_ok",
                 "n_probe")

    def __init__(self, gauss_value: Fraction, gauss_target: Fraction, gauss_digits_ok: bool,
                 ratio_error: Fraction, ratio_ok: bool, growth_ratio_ok: bool, n_probe: int):
        self.gauss_value, self.gauss_target, self.gauss_digits_ok = gauss_value, gauss_target, gauss_digits_ok
        self.ratio_error, self.ratio_ok, self.growth_ratio_ok = ratio_error, ratio_ok, growth_ratio_ok
        self.n_probe = n_probe

    __eq__ = FrozenRecord.__eq__  # equal by value, field by field

    def passed(self) -> bool:
        return self.gauss_digits_ok and self.ratio_ok and self.growth_ratio_ok

    def lines(self) -> list[str]:
        return [
            f"2F1(1/3,2/3;2;1) = {decimal_str(self.gauss_value, 14)} "
            f"vs 9*sqrt(3)/(4*pi) = {decimal_str(self.gauss_target, 14)} "
            f"[{f'>={GAUSS_DIGITS} digits' if self.gauss_digits_ok else 'MISMATCH'}]",
            f"relative error of a_n*n/64^n against 9*sqrt(3)/(40*pi) at n={self.n_probe}: "
            f"{decimal_str(self.ratio_error, 6)} [{'PASS' if self.ratio_ok else 'FAIL'}]",
            f"growth ratio a_(n+1)/a_n near 64 within 1%: "
            f"[{'PASS' if self.growth_ratio_ok else 'FAIL'}]",
        ]


def asymptotics_check(n_probe: int = 2000, tolerance: Fraction = Fraction(1, 100),
                      terms: SeqTable | None = None) -> AsymptoticsReport:
    """Numeric Gauss value and the growth constant check, unrolled from terms[:3] or the rook DP."""
    if n_probe < 100:
        raise ValueError("n_probe must be at least 100")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    spec = HypergeomSpec(Fraction(1, 3), Fraction(2, 3), Fraction(2))
    value = f21_at_one(spec)
    sqrt3 = sqrt_rational(Fraction(3))
    pi = pi_rational()
    target = Fraction(9, 4) * sqrt3 / pi
    gauss_ok = abs(value - target) < target / 10 ** GAUSS_DIGITS

    base = diagonal_sequence(ROOK, 2) if terms is None else SeqTable(terms.name, terms.terms[:3], "dp")
    previous, an = deque(unrolled_terms(rookdata.recurrence_order3(), base, n_probe), maxlen=2)
    rho = Fraction(9) * sqrt3 / (40 * pi)
    ratio = Fraction(an * n_probe, 64 ** n_probe)
    rel_err = abs(ratio - rho) / rho
    growth = Fraction(an, previous)
    growth_ok = abs(growth - 64) < Fraction(64) / 100

    return AsymptoticsReport(
        gauss_value=value, gauss_target=target, gauss_digits_ok=gauss_ok,
        ratio_error=rel_err, ratio_ok=rel_err < tolerance,
        growth_ratio_ok=growth_ok, n_probe=n_probe)


def identity_checks(order: int = 30, beukers_order: int = 25,
                    terms: SeqTable | None = None) -> list[CheckReport]:
    """The contiguity, quartic-pullback, and alternative-form (against terms) series identities."""
    for name, size in (("order", order), ("beukers_order", beukers_order)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1")
    return [
        _contiguity_check(order),
        _quartic_pullback_check(order),
        _alternative_form_check(beukers_order, terms),
    ]


def _contiguity_check(order: int) -> CheckReport:
    # (9(1-x)/2) * d/dx 2F1(1/3,2/3;1;x) = 2F1(1/3,2/3;2;x)
    lhs_series = f21_series(HypergeomSpec(Fraction(1, 3), Fraction(2, 3), Fraction(1)), order + 1)
    pre = PowerSeries.from_ratfun(ratfun("9*(1-x)/2", X), "x", order)
    lhs = pre * lhs_series.derivative()
    rhs = f21_series(HypergeomSpec(Fraction(1, 3), Fraction(2, 3), Fraction(2)), order)
    ok = lhs == rhs
    return CheckReport("contiguity", ok, f"series agree to order {min(lhs.order, rhs.order)}", order)


def _quartic_pullback_check(order: int) -> CheckReport:
    # 2F1(1/3,2/3;1;x) = 2F1(1/12,5/12;1; 64x^3(1-x)/(9-8x)^3) * (1-8x/9)^(-1/4)
    lhs = f21_series(HypergeomSpec(Fraction(1, 3), Fraction(2, 3), Fraction(1)), order)
    outer = f21_series(HypergeomSpec(Fraction(1, 12), Fraction(5, 12), Fraction(1)), order)
    radical = PowerSeries.from_ratfun(ratfun("(9-8*x)/9", X), "x", order).power(Fraction(-1, 4))
    rhs = outer.compose(ratfun(rookdata.GOURSAT_PULLBACK_TEXT, X)) * radical
    ok = lhs == rhs
    return CheckReport("quartic-pullback", ok, f"series agree to order {order}", order)


def _alternative_form_check(order: int, terms: SeqTable | None) -> CheckReport:
    # G'(x) = (1-x)/(2(1+6x)) * ((1-4x) H'(x) - 4 H(x)),
    # H = g2^(-1/4) * 2F1(1/12,5/12;1; 1/J), 1/J of valuation 3.
    work = order + 2
    g2 = PowerSeries.from_ratfun(ratfun(rookdata.G2_TEXT, X), "x", work)
    g2_root_inv = g2.power(Fraction(-1, 4))
    inv_j = RatFun(poly(rookdata.J_INVERSE_NUM_TEXT, X), poly(rookdata.G2_TEXT, X) ** 3)
    outer = f21_series(HypergeomSpec(Fraction(1, 12), Fraction(5, 12), Fraction(1)), work)
    H = g2_root_inv * outer.compose(inv_j)
    pre = PowerSeries.from_ratfun(ratfun("(1-x)/(2*(1+6*x))", X), "x", work)
    lever = PowerSeries.from_ratfun(ratfun("1-4*x", X), "x", work)
    rhs = pre * (lever * H.derivative() - 4 * H)
    n = _derivative_mismatch(rhs, order + 1, terms)
    detail = "matches the derivative of the diagonal series" if n is None else f"mismatch at n={n}"
    return CheckReport("alternative-form", n is None, detail, order)
