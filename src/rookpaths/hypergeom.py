"""Gauss hypergeometric layer: series, singularity analysis, pullbacks.

Covers the 2F1 power series, local exponent analysis of second-order
operators (indicial equations, Frobenius classification of removable vs
logarithmic points), the rational-pullback search driven by the cube
condition, symbolic verification that a prefactor times 2F1(f(x)) solves a
given operator, asymptotics of the diagonal sequence, and the classical
series identities connecting the two hypergeometric expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactmath import MPoly, PowerSeries, RatFun, mpoly_gcd, poly, ratfun
from .numerics import decimal_str, extrapolate_partial_sums, pi_rational, sqrt_rational
from .ore import DiffOp, rec_unroll
from . import rookdata
from .walks import ROOK, SeqTable, diagonal_sequence

X = ("x",)
E = ("e",)  # the exponent variable of indicial polynomials


class HypergeomError(ValueError):
    pass


@dataclass(frozen=True)
class HypergeomSpec:
    """Parameters (a, b; c) of a Gauss hypergeometric series."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        c = Fraction(self.c)
        if c.denominator == 1 and c <= 0:
            raise HypergeomError("lower parameter -c must not be a nonnegative integer")

    @staticmethod
    def from_exponent_triple(e0: Fraction, e1: Fraction, einf: Fraction) -> HypergeomSpec:
        c = 1 - Fraction(e0)
        apb = c - Fraction(e1)
        amb = Fraction(einf)
        return HypergeomSpec((apb + amb) / 2, (apb - amb) / 2, c)


def f21_series(spec: HypergeomSpec, order: int) -> PowerSeries:
    """Exact truncated 2F1 series via the Pochhammer term ratio."""
    c = Fraction(spec.c)
    if c.denominator == 1 and -order <= c <= 0:
        raise HypergeomError("parameter pole inside the truncation range")
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


@dataclass
class PointReport:
    location: Fraction | str  # a rational point or "inf"
    exponents: tuple[Fraction, Fraction]
    exponent_difference: Fraction
    klass: str  # ordinary | removable | logarithmic | non-removable-other


@dataclass
class SingularityReport:
    points: list[PointReport]

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
    coeffs = _polynomial_coefficients(L)
    if not coeffs or max(coeffs) != 2:
        raise HypergeomError("local exponent analysis expects an order-2 operator")
    roots, rest = _rational_roots(coeffs[2])
    if not rest.is_constant():
        raise HypergeomError(
            "leading coefficient has a non-rational factor; singular-point "
            f"analysis over Q cannot continue: {rest.text()}")
    points: list[PointReport] = []
    for root, _mult in roots:
        points.append(_classify_point(coeffs, root))
    points.append(_classify_point(_infinity_coefficients(coeffs), Fraction(0), label="inf"))
    points.sort(key=lambda p: (isinstance(p.location, str), p.location if not isinstance(p.location, str) else 0))
    return SingularityReport(points)


def exponents_at(L: DiffOp, location: Fraction) -> PointReport:
    """Classify one rational point (ordinary points report exponents (0, 1))."""
    coeffs = _polynomial_coefficients(L)
    return _classify_point(coeffs, Fraction(location))


def _polynomial_coefficients(L: DiffOp) -> dict[int, MPoly]:
    if L.cvars != L.dvars or len(L.dvars) != 1:
        raise HypergeomError("the operator must be univariate in its series variable, "
                             f"got vars {list(L.cvars)} and dvars {list(L.dvars)}")
    cleared = L.clear_denominators()
    out = {}
    for (k,), c in cleared.terms.items():
        out[k] = c.as_mpoly()
    return out


def _rational_roots(p: MPoly) -> tuple[list[tuple[Fraction, int]], MPoly]:
    """Rational roots of a nonzero univariate p, and the cofactor without them.

    Returns the sorted (root, multiplicity) pairs and the primitive part of
    p with every (x - root)^multiplicity divided out; the cofactor has no
    rational root, and it is constant exactly when p splits over Q.
    """
    work = p.primitive_part()
    roots: list[tuple[Fraction, int]] = []
    zero_mult = min(exp[0] for exp in work.terms)
    if zero_mult:  # the pullback's conditions are often powers of c
        roots.append((Fraction(0), zero_mult))
        work = MPoly(p.vars, {(e - zero_mult,): c for (e,), c in work.terms.items()})
    while not work.is_constant():
        root = _find_rational_root(work)
        if root is None:
            break
        mult = 0
        factor = MPoly(p.vars, {(1,): root.denominator, (0,): -root.numerator})
        while (q := work.try_divide(factor)) is not None:
            work = q
            mult += 1
        roots.append((root, mult))
    return sorted(roots), work


def _find_rational_root(p: MPoly) -> Fraction | None:
    """A rational root of a primitive univariate p, or None.

    With q its squarefree part, L the lead and d the degree of q, y = L*x
    turns q into the monic integer polynomial m(y) = L^(d-1) q(y/L), whose
    rational roots are integers below B = 1 + max|coefficient of m|.  Modulo
    a prime at which every root of m is simple, each integer root reduces to
    one of those roots, and Newton (Hensel) lifting recovers it modulo a
    power of the prime above 2B.  No coefficient is factored, so huge
    coefficients cost only their length.
    """
    (var,) = p.vars
    q = p.divide_exact(mpoly_gcd(p, p.derivative(var)))
    d = q.degree(var)
    lead = int(q.terms[(d,)])
    m = [int(q.terms.get((i,), 0)) * lead ** (d - 1 - i) for i in range(d)] + [1]
    dm = [i * c for i, c in enumerate(m)][1:]
    bound = 1 + max(abs(c) for c in m[:-1])

    def value(coeffs: list[int], y: int, modulus: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * y + c) % modulus
        return acc

    prime = 1
    while True:
        prime += 1
        if any(prime % k == 0 for k in range(2, prime)):
            continue
        residues = [r for r in range(prime) if value(m, r, prime) == 0]
        if all(value(dm, r, prime) for r in residues):
            break
    for r in residues:
        modulus = prime
        while modulus <= 2 * bound:
            modulus *= modulus
            r = (r - value(m, r, modulus) * pow(value(dm, r, modulus), -1, modulus)) % modulus
        root = Fraction(r if 2 * r < modulus else r - modulus, lead)
        if q.eval_full({var: root}) == 0:
            return root
    return None


def _shifted_coeffs(coeffs: dict[int, MPoly], p: Fraction) -> dict[int, MPoly]:
    if p == 0:
        return coeffs
    repl = MPoly(X, {(1,): 1, (0,): p})
    return {k: c.subs_poly("x", repl) for k, c in coeffs.items()}


def _infinity_coefficients(coeffs: dict[int, MPoly]) -> dict[int, MPoly]:
    """Operator under x -> 1/w, cleared to polynomials in w (variable reused)."""
    # d/dx -> -w^2 d/dw;  d2/dx2 -> w^4 d2/dw2 + 2 w^3 d/dw
    c2 = coeffs.get(2, MPoly.zero(X))
    c1 = coeffs.get(1, MPoly.zero(X))
    c0 = coeffs.get(0, MPoly.zero(X))
    deg = max(c.degree("x") for c in (c2, c1, c0) if not c.is_zero())

    def flip(c: MPoly, extra: int) -> MPoly:
        # c(1/w) * w^deg, then shifted by the operator factor w^extra
        out = {}
        for (e,), coef in c.terms.items():
            out[(deg - e + extra,)] = coef
        return MPoly(X, out)

    new2 = flip(c2, 4)
    new1 = flip(c2, 3) * 2 - flip(c1, 2)
    new0 = flip(c0, 0)
    val = min(min(e for (e,) in c.terms) for c in (new2, new1, new0) if not c.is_zero())
    if val:
        new2, new1, new0 = (MPoly(X, {(e - val,): cc for (e,), cc in c.terms.items()})
                            for c in (new2, new1, new0))
    return {2: new2, 1: new1, 0: new0}


def _classify_point(coeffs: dict[int, MPoly], p: Fraction, label=None) -> PointReport:
    local = _shifted_coeffs(coeffs, p)
    location = label if label is not None else p
    vals = {}
    for k, c in local.items():
        if not c.is_zero():
            vals[k] = min(e for (e,) in c.terms)
    mu = min(vals[k] - k for k in vals)
    if vals.get(2, None) is None or vals[2] - 2 > mu:
        raise HypergeomError(f"point {location} is not regular singular "
                             "(indicial degree < 2)")
    roots, rest = _rational_roots(_chi(local, mu, 0))
    if not rest.is_constant():
        raise HypergeomError("irrational local exponents are out of scope")
    e1, e2 = (r for r, mult in roots for _ in range(mult))
    d = e2 - e1
    if vals[2] == 0:
        return PointReport(location, (e1, e2), d, "ordinary")
    if d == 0:
        klass = "logarithmic"
    elif d.denominator != 1:
        klass = "non-removable-other"
    else:
        klass = "removable" if _frobenius_consistent(local, mu, e1, int(d)) else "logarithmic"
    return PointReport(location, (e1, e2), d, klass)


def _chi(local: dict[int, MPoly], mu: int, i: int) -> MPoly:
    """chi_i(e) = sum_k [x^(mu+i+k)] c_k * e(e-1)...(e-k+1), over ("e",).

    chi_0 is the indicial polynomial: L(x^e) = sum_i chi_i(e) x^(e+mu+i).
    """
    e = MPoly.var(E, "e")
    out = MPoly.zero(E)
    for k, c in local.items():
        coef = c.terms.get((mu + i + k,))
        if coef:
            term = MPoly.const(E, coef)
            for j in range(k):
                term = term * (e - j)
            out = out + term
    return out


def _frobenius_consistent(local: dict[int, MPoly], mu: int, e_small: Fraction,
                          gap: int) -> bool:
    """Series construction from the smaller exponent: does step `gap` close?

    The candidate series coefficients satisfy
    chi_0(e+m) c_m = -sum chi_i(e+m-i) c_(m-i); at m = gap the left factor
    vanishes, and the point is removable exactly when the right side
    vanishes there too.
    """
    chis = [_chi(local, mu, i) for i in range(gap + 1)]
    c = [Fraction(1)]

    def rhs(m: int) -> Fraction:
        return -sum((chis[i].eval_full({"e": e_small + m - i}) * c[m - i]
                     for i in range(1, m + 1)), Fraction(0))

    for m in range(1, gap):
        c.append(rhs(m) / chis[0].eval_full({"e": e_small + m}))
    return rhs(gap) == 0


# ---------------------------------------------------------------------------
# Rational pullbacks
# ---------------------------------------------------------------------------


SING_POINTS = (Fraction(0), Fraction(1), Fraction(1, 64), Fraction(2, 3))
TRIED_TRIPLES = ((Fraction(0), Fraction(0), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(1, 3)))


@dataclass
class PullbackCandidate:
    """A map f = c prod (x-p)^(n_p) whose shifted numerator is a perfect cube."""

    exponents: dict[Fraction, int]
    constant: Fraction
    map: RatFun
    parameters: HypergeomSpec
    cube_root: MPoly = field(repr=False, default=None)
    cube_scale: Fraction = Fraction(1)

    def exponent_tuple(self) -> tuple[int, ...]:
        return tuple(self.exponents.get(p, 0) for p in SING_POINTS)

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
    condition for this ansatz solver and yields no candidates.
    """
    triple = tuple(Fraction(e) for e in target_triple)
    fractional = [e for e in triple if e.denominator > 1]
    if not fractional:
        return []
    power = fractional[0].denominator
    # Search frame: the fractional exponent sits at e1 (roots of f-1).
    rest = list(triple)
    rest.remove(fractional[0])
    search_triple = (rest[0], fractional[0], rest[1])
    params = HypergeomSpec.from_exponent_triple(*search_triple)
    points = [Fraction(p) for p in sing_set]
    results: list[PullbackCandidate] = []
    for exps in _exponent_vectors(len(points), max_degree):
        assignment = dict(zip(points, exps))
        found = _solve_power_condition(points, exps, power)
        for const, Q, scale in found:
            f = _build_map(assignment, const)
            results.append(PullbackCandidate(
                exponents={p: e for p, e in assignment.items() if e},
                constant=const, map=f, parameters=params,
                cube_root=Q, cube_scale=scale))
    return results


def _exponent_vectors(npts: int, max_degree: int):
    """Integer exponent vectors with map degree max(sum+, sum-) <= max_degree."""
    span = list(range(-max_degree, max_degree + 1))

    def rec(i, acc):
        if i == npts:
            pos = sum(e for e in acc if e > 0)
            neg = -sum(e for e in acc if e < 0)
            if 0 < max(pos, neg) <= max_degree and any(acc):
                yield tuple(acc)
            return
        for e in span:
            pos = sum(v for v in acc if v > 0) + max(e, 0)
            neg = -sum(v for v in acc if v < 0) + max(-e, 0)
            if pos <= max_degree and neg <= max_degree:
                yield from rec(i + 1, acc + [e])

    yield from rec(0, [])


def _build_map(assignment: dict[Fraction, int], const: Fraction) -> RatFun:
    num = MPoly.const(X, 1)
    den = MPoly.const(X, 1)
    for p, e in assignment.items():
        factor = MPoly(X, {(1,): 1, (0,): -p})
        if e > 0:
            num = num * factor ** e
        elif e < 0:
            den = den * factor ** (-e)
    return RatFun(num * const, den)


def _solve_power_condition(points, exps, power: int):
    """Constants c (and root Q, scale k) with c*N - D = k * Q^power.

    N and D are the monic numerator/denominator built from the exponent
    vector, M = max(deg N, deg D), and Q is monic of degree M/power.  Let
    a_j(c) be the coefficient of x^(M-j) in c*N - D and k = a_0.  Read in
    y = 1/x, the condition is sum_j a_j y^j = k * (sum_j q_j y^j)^power
    with q_0 = 1, and the substitution q_j = r_j / k^j clears the equation
    for y^i to one in Q[c]:

        a_i k^(i-1) = power * r_i + [y^i] (sum_{j<i} r_j y^j)^power.

    For i <= deg Q it determines r_i; beyond, it is a polynomial condition
    on c.  No gcd is taken until the conditions meet: the rational roots of
    their gcd give the candidates, each verified by exact re-expansion.
    """
    n_list = [Fraction(1)]
    d_list = [Fraction(1)]
    for p, e in zip(points, exps):
        for _ in range(abs(e)):
            target = n_list if e > 0 else d_list
            new = [Fraction(0)] * (len(target) + 1)
            for i, cc in enumerate(target):
                new[i + 1] += cc
                new[i] += -p * cc
            if e > 0:
                n_list = new
            else:
                d_list = new
    dn, dd = len(n_list) - 1, len(d_list) - 1
    if dn == dd:
        return []  # degenerate leading cancellation not explored
    M = max(dn, dd)
    if M % power:
        return []
    q_deg = M // power

    C = ("c",)
    YC = ("x", "c")  # y = 1/x takes the slot of x
    cvar = MPoly.var(C, "c")
    a = [cvar * (n_list[M - j] if M - j <= dn else 0) - (d_list[M - j] if M - j <= dd else 0)
         for j in range(M + 1)]
    k = a[0]  # c when deg N > deg D, else -1
    r = [MPoly.const(C, 1)]
    conditions: list[MPoly] = []
    for i in range(1, M + 1):
        if i <= q_deg + 1:  # afterwards every r_j is known and the power is final
            T = MPoly(YC, {(j, e): cc for j, rj in enumerate(r) for (e,), cc in rj.terms.items()})
            powered = [p.restricted(C) for p in (T ** power).coeffs_in("x")]
        rest = a[i] * k ** (i - 1)
        if i < len(powered):
            rest = rest - powered[i]
        if i <= q_deg:
            r.append(rest * Fraction(1, power))
        elif not rest.is_zero():
            conditions.append(rest)
    if not conditions:
        return []
    g = conditions[0]
    for cond in conditions[1:]:
        if g.is_constant():
            return []
        g = mpoly_gcd(g, cond)
    roots, _ = _rational_roots(g)
    out = []
    for c0, _mult in roots:
        scale = k.eval_full({"c": c0})
        if c0 == 0 or scale == 0:
            continue
        Q = MPoly(X, {(q_deg - i,): rj.eval_full({"c": c0}) / scale ** i for i, rj in enumerate(r)})
        lhs = MPoly(X, {(M - j,): aj.eval_full({"c": c0}) for j, aj in enumerate(a)})
        if (Q ** power) * scale == lhs:  # exact re-expansion check
            out.append((c0, Q, scale))
    return out


# ---------------------------------------------------------------------------
# Operator pullback and symbolic solution check
# ---------------------------------------------------------------------------


def operator_pullback(spec: HypergeomSpec, f: RatFun) -> DiffOp:
    """Annihilator of y(f(x)) for y any solution of the Gauss equation.

    Chain rule plus the Gauss equation reduce y''(f) to the (y, y') basis:
    with G = f(1-f), the monic operator is
        d^2 + [f''/f' - f'(c - (a+b+1) f)/G] d + [-f'^2 a b / G] ... sign per
    the reduction; coefficients are cleared to polynomials afterwards.
    """
    if f.is_constant():
        raise HypergeomError("pullback map must be nonconstant")
    a, b, c = spec.a, spec.b, spec.c
    one = RatFun.from_scalar(1, X)
    fp = f.derivative("x")
    fpp = fp.derivative("x")
    G = f * (one - f)
    B = -(fpp * G - fp * fp * (RatFun.from_scalar(c, X) - (a + b + 1) * f)) / (G * fp)
    C = -(fp * fp) * Fraction(a * b) / G
    op = DiffOp(X, X, {(2,): one, (1,): B, (0,): C})
    return op.normalized()


@dataclass
class SymbolicCheckReport:
    passed: bool
    alpha: RatFun
    beta: RatFun

    def __str__(self) -> str:
        return "PASS" if self.passed else f"FAIL: residual ({self.alpha.text()}, {self.beta.text()})"


def symbolic_solution_check(L: DiffOp, prefactor: RatFun, spec: HypergeomSpec,
                            f: RatFun) -> SymbolicCheckReport:
    """Prove L(prefactor * y(f)) = 0 with y = 2F1(a,b;c;.) symbolically.

    States are pairs (r0, r1) representing r0*y(f) + r1*y'(f); derivatives
    reduce y'' through the Gauss equation, so applying L yields a final pair
    (alpha, beta) of rational functions.  PASS means both vanish
    identically, a proof independent of any series truncation.
    """
    a, b, c = spec.a, spec.b, spec.c
    one = RatFun.from_scalar(1, X)
    fp = f.derivative("x")
    G = f * (one - f)
    # y''(f) = [ab y - (c - (a+b+1) f) y'] / G
    y2_y = RatFun.from_scalar(a * b, X) / G
    y2_yp = -(RatFun.from_scalar(c, X) - (a + b + 1) * f) / G

    def differentiate(state: tuple[RatFun, RatFun]) -> tuple[RatFun, RatFun]:
        r0, r1 = state
        return (r0.derivative("x") + r1 * fp * y2_y,
                r0 * fp + r1.derivative("x") + r1 * fp * y2_yp)

    cleared = L.clear_denominators()
    order = cleared.order()
    states = [(prefactor, RatFun.from_scalar(0, X))]
    for _ in range(order):
        states.append(differentiate(states[-1]))
    alpha = RatFun.from_scalar(0, X)
    beta = RatFun.from_scalar(0, X)
    for (k,), coeff in cleared.terms.items():
        alpha = alpha + coeff * states[k][0]
        beta = beta + coeff * states[k][1]
    return SymbolicCheckReport(alpha.is_zero() and beta.is_zero(), alpha, beta)


# ---------------------------------------------------------------------------
# Closed form, asymptotics, identities
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    check: str
    passed: bool
    detail: str = ""
    order: int | None = None

    def to_json_dict(self) -> dict:
        data = {"check": self.check, "status": "PASS" if self.passed else "FAIL",
                "detail": self.detail}
        if self.order is not None:
            data["order"] = self.order
        return data

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.check}: {status}" + (f" ({self.detail})" if self.detail else "")


def closed_form_series(order: int) -> PowerSeries:
    """The series 6/((1-4x)(1-64x)) * 2F1(1/3,2/3;2; 27x(2-3x)/(1-4x)^3)."""
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    inner = PowerSeries.from_ratfun(rookdata.closed_form_pullback(), "x", order)
    outer = f21_series(spec, order)
    prefactor = PowerSeries.from_ratfun(rookdata.closed_form_prefactor(), "x", order)
    return prefactor * outer.compose(inner)


def closed_form_check(n_max: int, terms: SeqTable | None = None) -> CheckReport:
    """Coefficient n of the closed form equals (n+1) a_{n+1} for n < n_max."""
    if terms is None:
        terms = diagonal_sequence(ROOK, n_max + 1)
    rhs = closed_form_series(n_max + 1)
    for n in range(n_max):
        expected = Fraction((n + 1) * terms[n + 1])
        if rhs.coeff(n) != expected:
            return CheckReport("closed-form", False,
                               f"coefficient mismatch at n={n}", n_max)
    integrated = rhs.integral().truncate(n_max)
    for n in range(n_max + 1):
        expected = Fraction(terms[n]) if n else Fraction(1)
        got = integrated.coeff(n) + (1 if n == 0 else 0)
        if got != expected:
            return CheckReport("closed-form", False,
                               f"integrated coefficient mismatch at n={n}", n_max)
    return CheckReport("closed-form", True, "matches the derivative of the diagonal series", n_max)


def f21_at_one(spec: HypergeomSpec, nodes: Sequence[int] | None = None) -> Fraction:
    """Numeric value of 2F1(a,b;c;1) by extrapolated exact partial sums.

    Direct partial sums converge like a power of 1/n, far too slowly; since
    they admit an asymptotic expansion in 1/n, exact Neville extrapolation
    through a dozen partial sums reaches many digits.  The result is a
    rational enclosure, independent of the Gauss evaluation formula.
    """
    if nodes is None:
        nodes = [200 + 100 * i for i in range(12)]
    coeffs = f21_series(spec, max(nodes)).coeffs
    sums: dict[int, Fraction] = {}
    acc = Fraction(0)
    wanted = set(nodes)
    for n, c in enumerate(coeffs):
        acc += c
        if n in wanted:
            sums[n] = acc
    return extrapolate_partial_sums(lambda n: sums[n], list(nodes))


@dataclass
class AsymptoticsReport:
    gauss_value: Fraction
    gauss_target: Fraction
    gauss_digits_ok: bool
    ratio_error: Fraction
    ratio_ok: bool
    growth_ratio_ok: bool
    n_probe: int

    def passed(self) -> bool:
        return self.gauss_digits_ok and self.ratio_ok and self.growth_ratio_ok

    def lines(self) -> list[str]:
        return [
            f"2F1(1/3,2/3;2;1) = {decimal_str(self.gauss_value, 14)} "
            f"vs 9*sqrt(3)/(4*pi) = {decimal_str(self.gauss_target, 14)} "
            f"[{'>=10 digits' if self.gauss_digits_ok else 'MISMATCH'}]",
            f"relative error of a_n*n/64^n against 9*sqrt(3)/(40*pi) at n={self.n_probe}: "
            f"{decimal_str(self.ratio_error, 6)} [{'PASS' if self.ratio_ok else 'FAIL'}]",
            f"growth ratio a_(n+1)/a_n near 64 within 1%: "
            f"[{'PASS' if self.growth_ratio_ok else 'FAIL'}]",
        ]


def asymptotics_check(n_probe: int = 2000, tolerance: Fraction = Fraction(1, 100),
                      digits: int = 10) -> AsymptoticsReport:
    """Numeric Gauss value and the recurrence-driven growth constant check."""
    if n_probe < 100:
        raise ValueError("n_probe must be at least 100")
    spec = HypergeomSpec(Fraction(1, 3), Fraction(2, 3), Fraction(2))
    value = f21_at_one(spec)
    sqrt3 = sqrt_rational(Fraction(3))
    pi = pi_rational()
    target = Fraction(9, 4) * sqrt3 / pi
    gauss_ok = abs(value - target) < target / 10 ** digits

    base = diagonal_sequence(ROOK, 2)
    seq = rec_unroll(rookdata.recurrence_order3(), base, n_probe)
    rho = Fraction(9) * sqrt3 / (40 * pi)
    an = Fraction(seq[n_probe])
    ratio = an * n_probe / Fraction(64) ** n_probe
    rel_err = abs(ratio - rho) / rho
    growth = Fraction(seq[n_probe]) / Fraction(seq[n_probe - 1])
    growth_ok = abs(growth - 64) < Fraction(64) / 100

    return AsymptoticsReport(
        gauss_value=value, gauss_target=target, gauss_digits_ok=gauss_ok,
        ratio_error=rel_err, ratio_ok=rel_err < tolerance,
        growth_ratio_ok=growth_ok, n_probe=n_probe)


def identity_checks(order: int = 30, beukers_order: int = 25,
                    terms: SeqTable | None = None) -> list[CheckReport]:
    """The contiguity, quartic-pullback, and alternative-form series identities."""
    reports = [
        _contiguity_check(order),
        _quartic_pullback_check(order),
        _alternative_form_check(beukers_order, terms),
    ]
    return reports


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
    inner = PowerSeries.from_ratfun(ratfun(rookdata.GOURSAT_PULLBACK_TEXT, X), "x", order)
    outer = f21_series(HypergeomSpec(Fraction(1, 12), Fraction(5, 12), Fraction(1)), order)
    radical = PowerSeries.from_ratfun(ratfun("(9-8*x)/9", X), "x", order).nth_root(4).inverse()
    rhs = outer.compose(inner) * radical
    ok = lhs == rhs
    return CheckReport("quartic-pullback", ok, f"series agree to order {order}", order)


def _alternative_form_check(order: int, terms: SeqTable | None) -> CheckReport:
    # G'(x) = (1-x)/(2(1+6x)) * ((1-4x) H'(x) - 4 H(x)),
    # H = g2^(-1/4) * 2F1(1/12,5/12;1; 1/J), 1/J of valuation 3.
    work = order + 2
    g2 = PowerSeries.from_ratfun(ratfun(rookdata.G2_TEXT, X), "x", work)
    g2_root_inv = g2.nth_root(4).inverse()
    inv_j = PowerSeries.from_ratfun(
        RatFun(poly(rookdata.J_INVERSE_NUM_TEXT, X), poly(rookdata.G2_TEXT, X) ** 3), "x", work)
    outer = f21_series(HypergeomSpec(Fraction(1, 12), Fraction(5, 12), Fraction(1)), work)
    H = g2_root_inv * outer.compose(inv_j)
    pre = PowerSeries.from_ratfun(ratfun("(1-x)/(2*(1+6*x))", X), "x", work)
    lever = PowerSeries.from_ratfun(ratfun("1-4*x", X), "x", work)
    rhs = pre * (lever * H.derivative() - 4 * H)
    if terms is None:
        terms = diagonal_sequence(ROOK, order + 2)
    for n in range(order + 1):
        if rhs.coeff(n) != Fraction((n + 1) * terms[n + 1]):
            return CheckReport("alternative-form", False, f"mismatch at n={n}", order)
    return CheckReport("alternative-form", True,
                       "matches the derivative of the diagonal series", order)
