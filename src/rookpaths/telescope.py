"""Creative telescoping for the rook diagonal: the proof engine.

The pipeline solves P(F) = dS/ds + dT/dt in three stages.  Stage A finds
operators in (d_x, d_s) whose action on F is a t-derivative of phi*F; the
two certificates found present a rectangular system with quotient basis
(1, d_x).  Stage B looks for P in d_x alone with P congruent to d_s Q
modulo that system; its equations come from normal forms, the remainders
of the right division by the stage-A pair.  Stage C divides P - d_s Q by
the same pair, recombines the certificates into (S, T), and the key
equation is verified by exact rational normalization, a self-contained
proof regardless of how the candidates were found.

Every certificate comes from one rational solver for parametrized
first-order systems (rational_solve_cascade): classical local pole analysis
gives a universal denominator per component, and a minimal-numerator-degree
sweep fixes the gauge freedom of the congruence.  Solutions with a zero
operator block are trivial exact certificates: the solver's column order
makes the canonical kernel return the others already reduced modulo them.
Each system is validated and cleared once (ParamSystem); a solve only slices
the cleared equations into rows for its degree bounds.  The system is also
frozen once at two rational values of the passive variables, and each degree
level is first screened on the frozen copies.  A frozen copy has no passive
variables, so it holds plain rationals from its split to its integer kernel;
the exact solve is always the decider and everything returned re-verifies.
One content strip (exactmath.strip_content) serves the nullspace,
DiffOp.normalized and both stages' operator blocks, whose certificate side is
divided by the factor removed; stage A then fixes the gauge phi -> phi - lambda(x, s)/F.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from .exactmath import (MPoly, RatFun, clear_denominators, linear_nullspace, monomial_key, mpoly_gcd, multiplicity,
                        root_values)
from .ore import DiffOp, IdentityReport, _derivative_from_cache, check_input_caps

XST = ("x", "s", "t")


class TelescopeError(RuntimeError):
    pass


class DivisionRemainderError(TelescopeError):
    """Operator division left a nonzero remainder: congruence input was false."""

    def __init__(self, remainder: DiffOp):
        super().__init__("nonzero remainder in operator division")
        self.remainder = remainder


# ---------------------------------------------------------------------------
# Rational solutions of parametrized first-order systems
# ---------------------------------------------------------------------------


class ParamSolution:
    """One basis element (y, e) with dy/dv + A y = B e; y_i = z_i/u_i is divided on first read."""

    __slots__ = ("z", "u", "e", "_y")

    def __init__(self, z: list[MPoly], u: list[RatFun], e: list[MPoly]):
        self.z, self.u, self.e, self._y = z, u, e, None

    @property
    def y(self) -> list[RatFun]:
        if self._y is None:
            self._y = [RatFun(zi) / ui for zi, ui in zip(self.z, self.u)]
        return self._y

    def __eq__(self, other):
        return (self.y == other.y and self.e == other.e) if type(other) is ParamSolution else NotImplemented


class ParamSystem:
    """dy/dv + A y = B e with y_i = z_i/denominator_i, validated and cleared once:
    for equation i, one clearing of A_ij/u_j (every j), 1/u_i, u_i'/u_i^2 and -B_ie
    gives P_j, W, V and E_e, each split by powers of the main variable v.  The split
    holds MPolys over the passive variables, or plain rationals when there are none."""

    def __init__(self, A: Sequence[Sequence[RatFun]], B: Sequence[Sequence[RatFun]],
                 denominators: Sequence[MPoly], main_var: str):
        n = len(A)
        d = len(B[0]) if B else 0
        if any(len(row) != n for row in A) or any(len(row) != d for row in B) or len(B) != n:
            raise ValueError("malformed system: A must be n x n and B n x d")
        fullvars = A[0][0].vars
        if main_var not in fullvars:
            raise ValueError(f"main variable {main_var!r} not in {fullvars}")
        if len(denominators) != n:
            raise ValueError("need one denominator per component")
        self.A, self.B, self.main_var = A, B, main_var
        self.kvars = tuple(v for v in fullvars if v != main_var)
        self.zero = MPoly.zero(self.kvars) if self.kvars else 0
        self.dens = [RatFun(dc.aligned(fullvars)) for dc in denominators]
        self.split = []
        for i, u in enumerate(self.dens):
            fracs = [a / w for a, w in zip(A[i], self.dens)] + [1 / u, u.derivative(main_var) / (u * u)]
            self.split.append([[c.restricted(self.kvars) if self.kvars else c.packed.get(0, 0)
                                for c in p.coeffs_in(main_var)] if p else []
                               for p in clear_denominators(fracs + [-b for b in B[i]], fullvars)])


def solve_parametrized_system(system: ParamSystem, bounds: Sequence[int], *,
                              verify: bool = True) -> list[ParamSolution]:
    """All (y, e) of the system with deg_v z_i <= bound_i.

    Completeness is relative to the per-component denominators and degree
    bounds; with verify on, each basis pair is substituted back and checked exactly.
    """
    if len(bounds) != len(system.dens):
        raise ValueError("need one degree bound per component")
    ncols = sum(b + 1 for b in bounds) + len(system.B[0])
    eq_rows = [row for i, split in enumerate(system.split)
               for row in _equation_rows(split, i, bounds, system.zero)]
    solutions = []
    for vec in linear_nullspace(eq_rows or [[system.zero] * ncols]):
        sol = _solution_from_vector(vec, system.dens, bounds, system.main_var)
        if verify and not _check_param_solution(system.A, system.B, sol, system.main_var):
            raise TelescopeError("parametrized solver produced a non-solution")
        solutions.append(sol)
    return solutions


def _solution_from_vector(vec: Sequence[MPoly | int], dens: Sequence[RatFun], bounds: Sequence[int],
                          main_var: str) -> ParamSolution:
    """(y, e) from a kernel vector in _equation_rows' column order: y_i =
    z_i / u_i with z_i = sum_k c_ik v^k, then the parameter block e.  The vector is read
    back in natural order (c_00, c_01, ..., c_10, ..., e) and signed so that
    its first nonzero coordinate there has a positive leading coefficient.  With
    no passive variables the vector holds ints, read straight into z_i and e."""
    fullvars = dens[0].vars
    v = MPoly.var(fullvars, main_var)
    numbers = fullvars == (main_var,)
    unknowns = sum(b + 1 for b in bounds)
    natural = list(vec[:unknowns])[::-1] + list(vec[unknowns:])
    first = next(c for c in natural if c)
    if (first if numbers else first.leading_coeff()) < 0:
        natural = [-c for c in natural]
    z, pos = [], 0
    for b in bounds:
        chunk = natural[pos:pos + b + 1]
        z.append(MPoly(fullvars, {(k,): c for k, c in enumerate(chunk)}) if numbers else
                 sum((c.with_vars(fullvars) * v ** k for k, c in enumerate(chunk) if c), MPoly.zero(fullvars)))
        pos += b + 1
    return ParamSolution(z, dens, [MPoly.const((), c) for c in natural[pos:]] if numbers else natural[pos:])


def _equation_rows(split: Sequence[list], i: int, bounds: Sequence[int], zero: MPoly | int) -> list[list]:
    """Equation i as polynomial rows, one per power of v, from its cleared split.

    With y_j = sum_k c_jk v^k / u_j, column c_jk is P_j v^k, plus
    k W v^(k-1) - V v^k when j = i, and column e_e is E_e.  The unknown block
    runs in reverse (last component's top coefficient first), then e: each free
    unknown column of the canonical kernel gives a solution with e = 0 whose
    lowest natural-order coordinate is that column, so the free unknown columns
    are the echelon pivots of the trivial solutions.  Zero rows are dropped.
    """
    n = len(bounds)
    P, (W, V), E = split[:n], split[n:n + 2], split[n + 2:]

    def at(coeffs: list, m: int):
        return coeffs[m] if 0 <= m < len(coeffs) else zero

    def cell(j: int, k: int, m: int):
        c = at(P[j], m - k)
        return c + at(W, m - k + 1) * k - at(V, m - k) if j == i else c

    shifts = list(bounds) + [bounds[i] - 1, bounds[i]] + [0] * len(E)
    top = max(len(p) + b for p, b in zip(split, shifts))
    rows = [[cell(j, k, m) for j in reversed(range(n)) for k in reversed(range(bounds[j] + 1))]
            + [at(e, m) for e in E] for m in range(top)]
    return [row for row in rows if any(row)]


def _check_param_solution(A, B, sol: ParamSolution, main_var: str) -> bool:
    n = len(A)
    fullvars = A[0][0].vars
    for i in range(n):
        acc = sol.y[i].derivative(main_var)
        for j in range(n):
            acc = acc + A[i][j] * sol.y[j]
        for j, ej in enumerate(sol.e):
            acc = acc - B[i][j] * RatFun(ej.with_vars(fullvars))
        if not acc.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Denominator and degree bounds for first-order rational solving
#
# For a scalar equation y' + a y = b the pole order of a rational solution
# at a squarefree factor pi is bounded by classical local analysis: at a
# simple pole of a the order is max(ord_pi(b) - 1, positive integer residue
# of a); at a higher-order pole k it is ord_pi(b) - k; at ordinary points
# ord_pi(b) - 1.  Triangular systems cascade the analysis component by
# component.  The degree bound comes from the matching balance at infinity.
# The cascade then finds the lowest numerator degree admitting solutions
# (bisecting the screen, then solving exactly upward), which fixes the gauge
# freedom of the telescoping congruence the same way the tight bounds do.
# ---------------------------------------------------------------------------

def _squarefree_decomposition(p: MPoly, v: str) -> list[MPoly]:
    """Yun decomposition: one factor per multiplicity class (classes merged).

    Returns the distinct squarefree pieces; pooling them (rather than the
    single squarefree part) lets the gcd-free refinement separate factors
    whose multiplicities differ, so pole orders read off correctly.
    """
    p = p.primitive_part()
    dp = p.derivative(v)
    if dp.is_zero():
        return []
    out = []
    g = mpoly_gcd(p, dp)
    c = p.divide_exact(g)
    w = g
    while not c.is_constant():
        y = mpoly_gcd(c, w)
        piece = c.divide_exact(y)
        if not piece.is_constant() and piece.degree(v) > 0:
            out.append(piece.primitive_part())
        c = y
        if not w.is_constant():
            w = w.divide_exact(y)
    return out


def _gcd_free_basis(polys: list[MPoly], v: str) -> list[MPoly]:
    """Pairwise-coprime factors (degree >= 1 in v) generating the inputs."""
    basis: list[MPoly] = []
    queue = [p.primitive_part() for p in polys if p.degree(v) > 0]
    while queue:
        p = queue.pop()
        for i, q in enumerate(basis):
            g = mpoly_gcd(p, q)
            if not g.is_constant():
                basis.pop(i)
                for part in (g, q.divide_exact(g), p.divide_exact(g)):
                    if not part.is_constant():
                        queue.append(part.primitive_part())
                break
        else:
            if p.degree(v) > 0:
                basis.append(p)
    return sorted(basis, key=lambda f: (f.degree(v), f.text()))


def universal_denominator(a: RatFun, rhs_dens: list[MPoly],
                          main_var: str) -> MPoly:
    """Denominator multiple for rational solutions of y' + a y = b,
    where the right sides b range over fractions with the listed
    denominators."""
    pool = _squarefree_decomposition(a.den, main_var)
    for den in rhs_dens:
        pool.extend(_squarefree_decomposition(den, main_var))
    basis = _gcd_free_basis(pool, main_var)
    u = MPoly.const(a.vars, 1)
    for pi in basis:
        k = multiplicity(a.den, pi)[0]
        ordb = max((multiplicity(den, pi)[0] for den in rhs_dens), default=0)
        if k >= 2:
            bound = max(ordb - k, 0)
            u = u * pi ** bound if bound else u
            continue
        base = max(ordb - 1, 0)
        if base:
            u = u * pi ** base
        if k == 1:
            # integer-residue poles: pi | (num - m * slope).  m is a value of num/slope at a
            # root of pi, read at the first passive point keeping deg pi and pi prime to slope
            # (the others are zeros of lc(pi) * Res(pi, slope)); the exact gcd confirms it.
            slope = pi.derivative(main_var) * a.den.divide_exact(pi)
            passive = [v for v in a.vars if v != main_var]
            for point in (dict(zip(passive, p)) for n in itertools.count(1)
                          for p in itertools.product(range(1, n + 1), repeat=len(passive))):
                pi_p, slope_p = pi.eval_at(point), slope.eval_at(point)
                if pi_p.degree(main_var) == pi.degree(main_var) and mpoly_gcd(pi_p, slope_p).is_constant():
                    break
            for m in root_values(a.num.eval_at(point), slope_p, pi_p):
                if m.denominator == 1 and m > base:
                    g = mpoly_gcd(pi, a.num - slope * m)
                    if g.degree(main_var) > 0:
                        u = u * g ** (int(m) - base)
    return u.primitive_part()


def _deg_inf(r: RatFun, v: str) -> int | None:
    """Degree at infinity (num degree minus den degree); None for zero."""
    if r.is_zero():
        return None
    return r.num.degree(v) - r.den.degree(v)


def _lead_inf(r: RatFun, v: str) -> RatFun:
    """Ratio of leading coefficients in v, over the passive variables."""
    kvars = tuple(u for u in r.vars if u != v)
    lead_n = r.num.coeffs_in(v)[r.num.degree(v)].restricted(kvars)
    lead_d = r.den.coeffs_in(v)[r.den.degree(v)].restricted(kvars)
    return RatFun(lead_n, lead_d)


def degree_bound(a: RatFun, u: MPoly, rhs_degrees: list[int | None],
                 main_var: str) -> int:
    """Numerator degree bound for y = z/u in y' + a y = b (b over rhs list)."""
    deg_u = u.degree(main_var)
    D = None
    for dd in rhs_degrees:
        if dd is not None:
            dd_total = dd + deg_u
            D = dd_total if D is None else max(D, dd_total)
    if D is None:
        D = -1  # homogeneous right side
    da = _deg_inf(a, main_var)
    # a~ = a - u'/u; the u-part always has degree exactly -1 when u moves.
    if da is not None and da > -1:
        return max(D - da, 0)
    # residue at infinity of a~
    rho: RatFun | None = None
    if da == -1:
        rho = _lead_inf(a, main_var).extend_vars(a.vars)
    if deg_u > 0:
        shift = RatFun.from_scalar(-deg_u, a.vars)
        rho = shift if rho is None else rho + shift
    if rho is None or rho.is_zero():
        return max(D + 1, 0)
    if rho.is_constant():
        val = rho.constant_value()
        if val.denominator == 1 and val <= 0:
            return max(D + 1, int(-val), 0)
    return max(D + 1, 0)


def rational_solve_cascade(A: Sequence[Sequence[RatFun]],
                           B: Sequence[Sequence[RatFun]],
                           main_var: str) -> list[ParamSolution] | None:
    """Complete rational solving for (block-)triangular first-order systems.

    The screen asks, with the passive variables frozen, whether a numerator
    degree level admits a solution with a nonzero parameter block.  It is
    monotone in the level (a frozen solution space grows with its bounds), so
    it runs at level 0, then at the top level (failing: []), then bisects for
    the least passing level; from there levels are solved exactly up to the
    first with a nonzero parameter block (trivial certificates alone keep the
    search going).  Its basis elements with a nonzero parameter block are
    returned as they are: the solver's column order makes each the
    representative modulo trivial solutions that vanishes on their echelon
    pivots.  None when A is not lower-triangular."""
    if any(not A[i][j].is_zero() for i in range(len(A)) for j in range(i + 1, len(A))):
        return None
    dens, caps = _cascade_bounds(A, B, main_var)
    top = max(caps) if caps else 0
    frozen = [_freeze(A, B, dens, point, main_var) for point in _SCREEN_POINTS]

    def passes(level: int) -> bool:
        return _screen(frozen, [min(level, c) for c in caps])

    if passes(0):
        low = 0
    elif top and passes(top):
        low = bisect_left(range(top), True, 1, key=passes)  # the least passing level in 1..top
    else:
        return []
    exact = ParamSystem(A, B, dens, main_var)
    for level in range(low, top + 1):
        sols = solve_parametrized_system(exact, [min(level, c) for c in caps])
        particular = [s for s in sols if _has_parameter(s)]
        if particular:
            return particular
    return []


def _cascade_bounds(A, B, main_var: str) -> tuple[list[MPoly], list[int]]:
    """The universal denominator and numerator degree bound of each component."""
    dens: list[MPoly] = []
    caps: list[int] = []
    for i in range(len(A)):
        rhs_dens: list[MPoly] = []
        rhs_degrees: list[int | None] = []
        for j in range(len(B[i])):
            if not B[i][j].is_zero():
                rhs_dens.append(B[i][j].den)
                rhs_degrees.append(_deg_inf(B[i][j], main_var))
        for j in range(i):
            if not A[i][j].is_zero():
                rhs_dens.append(A[i][j].den * dens[j])
                da = _deg_inf(A[i][j], main_var)
                rhs_degrees.append(da + caps[j] - dens[j].degree(main_var))
        u = universal_denominator(A[i][i], rhs_dens, main_var)
        dens.append(u)
        caps.append(degree_bound(A[i][i], u, rhs_degrees, main_var))
    return dens, caps


# Fixed evaluation points for screening (deterministic).
_SCREEN_POINTS = (
    {"x": Fraction(7, 13), "s": Fraction(3, 11)},
    {"x": Fraction(-5, 7), "s": Fraction(9, 4)},
)


def _has_parameter(sol: ParamSolution) -> bool:
    return not all(p.is_zero() for p in sol.e)


def _freeze(A, B, dens: Sequence[MPoly], point: dict, main_var: str) -> ParamSystem | None:
    """The system with the passive variables fixed at point; None when an
    entry has a pole there or a denominator vanishes (unlucky)."""
    pt = {k: w for k, w in point.items() if k in A[0][0].vars and k != main_var}
    try:
        Ae = [[entry.eval_at(pt) for entry in row] for row in A]
        Be = [[entry.eval_at(pt) for entry in row] for row in B]
    except ZeroDivisionError:
        return None
    dens_e = [dd.eval_at(pt) for dd in dens]
    return None if any(dd.is_zero() for dd in dens_e) else ParamSystem(Ae, Be, dens_e, main_var)


def _screen(frozen: Sequence[ParamSystem | None], bounds: Sequence[int]) -> bool:
    """Cheap necessary test: does a nonzero-parameter solution survive with
    the passive variables frozen at one of the screening points?"""
    for system in frozen:
        if system is None:
            return True  # unlucky point; let the exact solve decide
        sols = solve_parametrized_system(system, bounds, verify=False)
        if any(_has_parameter(s) for s in sols):
            return True
    return False


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Ansatz:
    """Search shape: the operator support."""

    __slots__ = ("support",)

    def __init__(self, support: tuple[tuple[int, int], ...]):
        if not support:
            raise ValueError("empty operator support")
        self.support = support


class StageACertificate:
    """Operator P in (d_x, d_s) with P(F) = d/dt (phi * F)."""

    __slots__ = ("operator", "phi")

    def __init__(self, operator: DiffOp, phi: RatFun):
        self.operator, self.phi = operator, phi

    def verify(self, F: RatFun) -> IdentityReport:
        """The key equation with S = 0 and T = phi F."""
        return verify_key_equation(Certificate(self.operator, RatFun.from_scalar(0, XST), self.phi * F), F)


class Certificate:
    """Telescoper P (in d_x) with rational certificates S, T for F."""

    __slots__ = ("P", "S", "T", "verified", "stage_log")

    def __init__(self, P: DiffOp, S: RatFun, T: RatFun, verified: bool = False,
                 stage_log: tuple[str, ...] = ()):
        self.P, self.S, self.T, self.stage_log, self.verified = P, S, T, stage_log, verified

    def to_json_dict(self) -> dict:
        return {
            "P": self.P.to_json_dict(),
            "S": self.S.text(),
            "T": self.T.text(),
            "verified": self.verified,
            "stage_log": list(self.stage_log),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        try:
            sides = {name: RatFun.parse_sides(data[name], XST) for name in ("S", "T")}
            for name, pair in sides.items():
                check_input_caps(name, pair)
            return Certificate(
                P=DiffOp.from_json_dict(data["P"]),
                S=RatFun(*sides["S"]),
                T=RatFun(*sides["T"]),
                verified=bool(data.get("verified", False)),
                stage_log=tuple(data.get("stage_log", ())),
            )
        except (KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed certificate JSON: {type(exc).__name__}: {exc}") from None


def verify_key_equation(cert: Certificate, F: RatFun) -> IdentityReport:
    """Check P(F) - dS/ds - dT/dt = 0 by exact normalization; cert is left as it was."""
    residual = cert.P.apply_ratfun(F) - cert.S.derivative("s") - cert.T.derivative("t")
    if residual.is_zero():
        return IdentityReport(True, RatFun.from_scalar(0, XST), "residual identically zero")
    return IdentityReport(False, residual, "nonzero residual")


def _divide_by_pair(op: DiffOp, P1: DiffOp, P2: DiffOp) -> tuple[DiffOp, DiffOp, DiffOp]:
    """(A1, A2, R) with op = A1 P1 + A2 P2 + R: right division by P1, then by P2."""
    A1, rem = op.right_divide(P1)
    A2, rem = rem.right_divide(P2)
    return A1, A2, rem


# ---------------------------------------------------------------------------
# Stage A
# ---------------------------------------------------------------------------

def stage_a_search(F: RatFun, total_order: int, ansatz: Ansatz | None = None) -> list[StageACertificate]:
    """Operators sum eta_e d^e (support e) with P(F) = d/dt(phi F).

    Default support is every d_x^i d_s^j with i+j <= total_order; an explicit
    ansatz restricts the support.  The operator block is brought to content 1
    with its highest-support coefficient positive (_canonical_block), phi is
    divided by the factor removed and freed of the gauge term lambda(x, s)/F
    that cancels a pole of phi.  Every certificate is re-verified before
    being returned.
    """
    if total_order < 0:
        raise ValueError("total order must be >= 0")
    if ansatz is None:
        support = tuple((i, j) for i in range(total_order + 1)
                        for j in range(total_order + 1 - i))
        ansatz = Ansatz(support=support)
    support = tuple(sorted(ansatz.support, key=monomial_key))

    cache: dict[tuple[int, ...], RatFun] = {}
    A = [[F.derivative("t") / F]]
    B = [[_derivative_from_cache(F, ("x", "s"), e, cache) / F for e in support]]
    sols = rational_solve_cascade(A, B, "t")
    return [_stage_a_solution_to_cert(sol, support, F) for sol in sols]


def stage_a_pair(F: RatFun) -> list[StageACertificate]:
    """The two stage-A certificates stages B and C work modulo: total order 1,
    then order 2 in d_x alone; any other count is a failed stage check."""
    certs = stage_a_search(F, 1) + stage_a_search(F, 2, Ansatz(support=((0, 0), (1, 0), (2, 0))))
    if len(certs) != 2:
        raise TelescopeError("stage A did not produce the expected two certificates")
    return certs


def _stage_a_solution_to_cert(sol: ParamSolution, support: tuple[tuple[int, int], ...],
                              F: RatFun) -> StageACertificate:
    op, g = _canonical_block(sol, support, ("x", "s"))
    cert = StageACertificate(operator=op, phi=_fix_gauge(sol.y[0] / RatFun(g.with_vars(sol.y[0].vars)), F))
    if not cert.verify(F).passed:
        raise TelescopeError("stage A produced a certificate that fails its identity")
    return cert


def _canonical_block(sol: ParamSolution, support: Sequence[tuple[int, ...]],
                     vars: tuple[str, ...]) -> tuple[DiffOp, MPoly]:
    """The block sum e_i d^support_i over vars as DiffOp.normalized makes it (content 1,
    top coefficient positive) and the factor g = old/new removed from it."""
    op = DiffOp(vars, vars, {e: RatFun(p.with_vars(vars), _reduced=True)
                             for e, p in zip(support, sol.e)}).normalized()
    top = max(op.terms, key=monomial_key)
    return op, sol.e[support.index(top)].with_vars(vars).divide_exact(op.terms[top].num)


def _fix_gauge(phi: RatFun, F: RatFun) -> RatFun:
    """Canonical phi in the class phi + lambda(x, s)/F, all with equal d/dt(phi F).

    At the first t-linear factor t - r of F (in gcd-free basis order) where
    lambda = (phi F)|_{t=r} lowers the t-degree of phi's denominator, shift
    by that lambda; otherwise phi is already canonical.
    """
    parts = [F.num, F.num.derivative("x"), F.num.derivative("s"), F.den]
    for f in _gcd_free_basis(parts, "t"):
        if f.degree("t") != 1:
            continue
        c0, c1 = f.coeffs_in("t")
        try:
            lam = (phi * F).subs("t", RatFun(-c0, c1))
        except ZeroDivisionError:
            continue  # phi F has a pole at t = r
        shifted = phi - lam / F
        if shifted.den.degree("t") < phi.den.degree("t"):
            return shifted
    return phi


# ---------------------------------------------------------------------------
# Stage B
# ---------------------------------------------------------------------------


def stage_b_search(P1: DiffOp, P2: DiffOp, d: int) -> tuple[DiffOp, DiffOp] | None:
    """Find P = sum eta_i d_x^i (i <= d) and Q = phi_0 + phi_1 d_x with
    P congruent to d_s Q modulo the left ideal generated by (P1, P2).

    P1 must contain d_s and P2 must contain d_x^2; the quotient has basis
    (1, d_x).  Column j of A is the normal form (remainder modulo the pair) of
    d_s times basis element j, column i of B that of d_x^i.  Returns None
    when no solution exists at this order.
    """
    xs, basis = ("x", "s"), ((0, 0), (1, 0))
    if P1.coeff((0, 1)).is_zero():
        raise ValueError("P1 has no d_s term")
    if P2.coeff((2, 0)).is_zero():
        raise ValueError("P2 has no d_x^2 term")
    if any(e[1] for e in P2.terms):
        raise ValueError("P2 must be free of d_s")

    def normal_form(op: DiffOp) -> DiffOp:
        rem = _divide_by_pair(op, P1, P2)[2]
        if any(e not in basis for e in rem.terms):
            raise ValueError("stage B: the stage-A pair does not reduce to the basis (1, d_x)")
        return rem

    dx, ds = DiffOp.partial(xs, xs, "x"), DiffOp.partial(xs, xs, "s")
    powers = [normal_form(DiffOp.identity(xs, xs))]
    for _ in range(d):
        powers.append(normal_form(dx * powers[-1]))
    shifted = [normal_form(ds), normal_form(ds * dx)]
    A = [[nf.coeff(e) for nf in shifted] for e in basis]
    B = [[nf.coeff(e) for nf in powers] for e in basis]

    sols = rational_solve_cascade(A, B, "s")
    if sols is None:
        raise TelescopeError("stage B: the reduced system is not lower-triangular")
    if not sols:
        return None
    if len(sols) > 1:
        raise TelescopeError("unexpected multi-dimensional stage B solution space")
    return _stage_b_solution_to_ops(sols[0], d)


def _stage_b_solution_to_ops(sol: ParamSolution, d: int) -> tuple[DiffOp, DiffOp]:
    P, g = _canonical_block(sol, [(i,) for i in range(d + 1)], ("x",))
    phi0, phi1 = (y / RatFun(g.with_vars(y.vars)) for y in sol.y)
    Q = DiffOp(("x", "s"), ("x", "s"), {(0, 0): phi0, (1, 0): phi1})
    return (P, Q)


# ---------------------------------------------------------------------------
# Stage C
# ---------------------------------------------------------------------------


def stage_c_reconstruct(P: DiffOp, Q: DiffOp, stage_a: Sequence[StageACertificate],
                        F: RatFun) -> Certificate:
    """Divide P - d_s Q by the stage-A pair and recombine into (P, S, T).

    The division eliminates d_s with P1 first, then divides the d_x-part by
    P2; the remainder must vanish exactly.  With quotients A1, A2 and the
    stage-A certificates psi1, psi2, S = Q(F) and T = A1(psi1 F) + A2(psi2 F).
    The certificate carries the key equation's verdict: a failing one is
    returned, not raised, so that the caller reports it.
    """
    if len(stage_a) < 2:
        raise ValueError("need the two stage-A certificates")
    P1, P2 = stage_a[0].operator, stage_a[1].operator
    psi1, psi2 = stage_a[0].phi, stage_a[1].phi

    xs = ("x", "s")
    ds = DiffOp.partial(xs, xs, "s")
    R = DiffOp(xs, xs, {(i, 0): c.extend_vars(xs) for (i,), c in P.terms.items()}) - ds * Q

    A1, A2, R = _divide_by_pair(R, P1, P2)
    if not R.is_zero():
        raise DivisionRemainderError(R)

    S = Q.apply_ratfun(F)
    T = A1.apply_ratfun(psi1 * F) + A2.apply_ratfun(psi2 * F)

    log = (f"A1 = {A1!r}", f"A2 = {A2!r}")
    return Certificate(P, S, T, verify_key_equation(Certificate(P, S, T), F).passed, log)


# ---------------------------------------------------------------------------
# Counting bounds
# ---------------------------------------------------------------------------


class LipshitzReport:
    """Size arithmetic for the two linear-algebra existence arguments."""

    __slots__ = ("raw_N", "raw_unknowns", "raw_equations", "refined_N", "refined_rows", "refined_cols")

    def __init__(self, raw_N: int, raw_unknowns: int, raw_equations: int, refined_N: int, refined_rows: int,
                 refined_cols: int):
        self.raw_N, self.raw_unknowns, self.raw_equations = raw_N, raw_unknowns, raw_equations
        self.refined_N, self.refined_rows, self.refined_cols = refined_N, refined_rows, refined_cols

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    def lines(self) -> list[str]:
        return [
            f"free-operator argument: N = {self.raw_N}, "
            f"unknowns C(N+4,4) = {self.raw_unknowns:,}, "
            f"equations 18(N+1)^3 = {self.raw_equations:,}",
            f"refined argument: N = {self.refined_N}, "
            f"matrix size {self.refined_rows} x {self.refined_cols}",
        ]


def lipshitz_bounds() -> LipshitzReport:
    """Smallest N making each counting argument's system underdetermined."""
    N = 0
    while math.comb(N + 4, 4) <= 18 * (N + 1) ** 3:
        N += 1
    raw_N = N
    raw_unknowns = math.comb(N + 4, 4)
    raw_equations = 18 * (N + 1) ** 3

    N = 0
    while math.comb(N + 3, 3) <= (13 * N + 14) * (N + 1) // 2:
        N += 1
    refined_N = N
    u = math.comb(N + 3, 3)
    e = (13 * N + 14) * (N + 1) // 2
    return LipshitzReport(raw_N, raw_unknowns, raw_equations, refined_N, e, u)
