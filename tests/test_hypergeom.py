"""Hypergeometric layer: series, exponents, pullbacks, asymptotics, identities."""

import hashlib
import itertools
import random
from fractions import Fraction as Fr
from itertools import accumulate

import pytest

from rookpaths import hypergeom, rookdata
from rookpaths.exactmath import MPoly, RatFun, linalg, poly, ratfun
from rookpaths.exactmath import series as series_module
from rookpaths.exactmath.mpoly import _rational_roots
from rookpaths.hypergeom import (HypergeomSpec, HypergeomError, SING_POINTS, asymptotics_check,
                                 closed_form_check, closed_form_series, exponents_at,
                                 f21_at_one, f21_series, gauss_operator, identity_checks,
                                 local_exponents, operator_pullback, pullback_search,
                                 symbolic_solution_check, SCREEN_PRIME, _cofactor_table, _exponent_vectors,
                                 _monic_parts, _power_roots, _ray_gcd, _squarefree_mod_p)
from rookpaths.numerics import decimal_str, extrapolate_partial_sums, pi_rational, sqrt_rational
from rookpaths.ore import DiffOp, rec_unroll
from rookpaths.walks import ROOK, SeqTable, diagonal_sequence

X = ("x",)


# -- series ------------------------------------------------------------------------


def test_f21_geometric():
    s = f21_series(HypergeomSpec(Fr(1), Fr(1), Fr(1)), 8)
    assert all(c == 1 for c in s.coeffs)


def test_f21_closed_form_parameters():
    # Pochhammer oracle: (1/3)_n (2/3)_n / ((2)_n n!) for n = 1, 2
    def pochhammer(a, n):
        v = Fr(1)
        for i in range(n):
            v *= a + i
        return v

    expected1 = pochhammer(Fr(1, 3), 1) * pochhammer(Fr(2, 3), 1) / (pochhammer(Fr(2), 1) * 1)
    expected2 = pochhammer(Fr(1, 3), 2) * pochhammer(Fr(2, 3), 2) / (pochhammer(Fr(2), 2) * 2)
    s = f21_series(HypergeomSpec(Fr(1, 3), Fr(2, 3), Fr(2)), 4)
    assert s.coeffs[1] == expected1 == Fr(1, 9)
    assert s.coeffs[2] == expected2 == Fr(10, 243)


def test_f21_constant_term_is_one():
    for spec in (HypergeomSpec(Fr(1, 2), Fr(3), Fr(7, 2)),
                 HypergeomSpec(Fr(-1, 3), Fr(5, 4), Fr(1, 6))):
        assert f21_series(spec, 5).coeffs[0] == 1


def test_f21_parameter_symmetry():
    a, b, c = Fr(1, 5), Fr(7, 3), Fr(3, 2)
    assert f21_series(HypergeomSpec(a, b, c), 12) == f21_series(HypergeomSpec(b, a, c), 12)


def test_f21_rejects_parameter_pole():
    for c in (Fr(-2), 0):
        with pytest.raises(HypergeomError, match="lower parameter -c must not be a nonnegative integer"):
            HypergeomSpec(Fr(1), Fr(1), c)


# -- local exponents ------------------------------------------------------------------


def test_p2_nonremovable_points(rook_f):
    report = local_exponents(rookdata.operator_p2())
    assert set(map(str, report.non_removable())) == {"0", "1", "1/64", "2/3", "inf"}
    for loc in report.non_removable():
        assert report.at(loc).klass == "logarithmic"


def test_p2_removable_point():
    report = local_exponents(rookdata.operator_p2())
    assert report.at(Fr(-1, 6)).klass == "removable"


def test_ordinary_points_have_difference_one():
    ddx2 = DiffOp(X, X, {(2,): RatFun(poly("1", X))})
    for p in (Fr(0), Fr(1, 3), Fr(-7, 5), Fr(12)):
        rep = exponents_at(ddx2, p)
        assert rep.klass == "ordinary"
        assert rep.exponent_difference == 1


def test_gauss_exponents_at_zero():
    # exponents of the Gauss operator at 0 are {0, 1-c}
    for c in (Fr(1, 2), Fr(5, 3), Fr(9, 4)):
        spec = HypergeomSpec(Fr(1, 3), Fr(1, 5), c)
        rep = exponents_at(gauss_operator(spec), Fr(0))
        assert set(rep.exponents) == {Fr(0), 1 - c}


def _euler_bessel(c2: str, c1: str, c0: str) -> DiffOp:
    return DiffOp(X, X, {(2,): poly(c2, X), (1,): poly(c1, X), (0,): poly(c0, X)})


@pytest.mark.parametrize("op, exponents, klass", [
    (_euler_bessel("x^2", "-2*x", "2"), (1, 2), "removable"),  # solutions x, x^2
    (_euler_bessel("x^2", "x", "x^2-1"), (-1, 1), "logarithmic"),  # Bessel J_1 and Y_1
    (_euler_bessel("x^2", "x", "0"), (0, 0), "logarithmic"),  # solutions 1, log x
    (_euler_bessel("2*x^2", "x", "x"), (0, Fr(1, 2)), "non-removable-other"),
    (_euler_bessel("x^2", "x", "-2"), None, None),  # exponents +-sqrt(2)
    (_euler_bessel("x^2", "x", "1"), None, None),  # exponents +-i
    (_euler_bessel("x^2", "x", "-1000000000000000000000000000002"), None, None),
], ids=["removable", "log-integer-gap", "log-equal", "half-gap", "irrational", "complex",
        "irrational-huge"])
def test_exponents_at_zero_branches(op, exponents, klass):
    if exponents is None:
        with pytest.raises(HypergeomError, match="irrational local exponents"):
            exponents_at(op, Fr(0))
        return
    rep = exponents_at(op, Fr(0))
    assert rep.exponents == tuple(map(Fr, exponents))
    assert rep.exponent_difference == exponents[1] - exponents[0]
    assert rep.klass == klass


def test_euler_operator_exponents_by_construction():
    # (x-p)^2 d^2 + (1-e1-e2)(x-p) d + e1*e2 has exponents e1, e2 at p and
    # solutions (x-p)^e1, (x-p)^e2, so the gap alone decides the class
    rng = random.Random(43)
    gaps = [Fr(0)] * 4 + [Fr(rng.randint(1, 5)) for _ in range(8)] \
        + [Fr(rng.randint(1, 20), rng.choice([2, 3, 5, 7])) for _ in range(8)]
    for gap in gaps:
        e1 = Fr(rng.randint(-9, 9), rng.randint(1, 6))
        e2 = e1 + gap
        p = Fr(rng.randint(-9, 9), rng.randint(1, 5))
        xp = MPoly(X, {(1,): 1, (0,): -p})
        op = DiffOp(X, X, {(2,): xp * xp, (1,): xp * (1 - e1 - e2), (0,): MPoly.const(X, e1 * e2)})
        rep = exponents_at(op, p)
        assert rep.exponents == (e1, e2)
        assert rep.exponent_difference == gap
        if gap == 0:
            assert rep.klass == "logarithmic"
        elif gap.denominator == 1:
            assert rep.klass == "removable"
        else:
            assert rep.klass == "non-removable-other"


@pytest.mark.parametrize("name", ["y", "n", "t"])
def test_local_exponents_read_the_operator_variable(name):
    # the points are moved to the origin in the operator's own variable, so the
    # same operator in another variable gets the same report
    def report(v):
        vs = (v,)
        op = DiffOp(vs, vs, {(2,): poly(f"{v}^2*({v}-1)", vs), (1,): poly(f"-2*{v}", vs),
                             (0,): poly("2", vs)})
        return [(p.location, p.exponents, p.klass) for p in local_exponents(op).points]
    assert report(name) == report("x")


def test_irregular_singularity_rejected():
    # x^3 y'' - y = 0 has an irregular singular point at 0
    op = DiffOp(X, X, {(2,): RatFun(poly("x^3", X)), (0,): RatFun.from_scalar(-1, X)})
    with pytest.raises(HypergeomError):
        local_exponents(op)


def test_non_rational_leading_factor_rejected():
    # (x^2-2) y'' + y = 0 is singular at +-sqrt(2), which the analysis over Q cannot place
    op = DiffOp(X, X, {(2,): RatFun(poly("x^2-2", X)), (0,): RatFun.from_scalar(1, X)})
    with pytest.raises(HypergeomError, match=r"non-rational factor of degree 2;"):
        local_exponents(op)
    roots, rest = _rational_roots(poly("x^2*(3*x-1)^2*(x^2-2)", X))
    assert roots == [(Fr(0), 2), (Fr(1, 3), 2)]
    assert rest == poly("x^2-2", X)


def test_rational_roots_by_construction():
    # products of known linear factors and a cofactor without rational roots;
    # huge coefficients must cost their length, not a search over divisors
    rng = random.Random(41)
    for _ in range(60):
        roots = [Fr(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
        cofactor = poly(rng.choice(["1", "x^2-2", "x^2+1", "3*x^3-5", "x^4+x+1"]), X)
        p = cofactor * rng.choice([1, -3, 7])
        for r in roots:
            p = p * MPoly(X, {(1,): r.denominator, (0,): -r.numerator})
        found, rest = _rational_roots(p)
        assert found == sorted((r, roots.count(r)) for r in set(roots))
        assert rest == cofactor
    big = 10 ** 30
    assert _rational_roots(poly(f"x^2-{big}", X))[0] == [(Fr(-10 ** 15), 1), (Fr(10 ** 15), 1)]
    assert _rational_roots(poly(f"(7*x-{big})*(x+3)", X))[0] == [(Fr(-3), 1), (Fr(big, 7), 1)]
    roots, rest = _rational_roots(poly(f"x^2-{big + 2}", X))
    assert roots == [] and rest == poly(f"x^2-{big + 2}", X)


def test_multivariate_operator_rejected():
    xs = ("x", "s")
    op = DiffOp(xs, X, {(2,): RatFun(poly("x", xs)), (0,): RatFun.from_scalar(1, xs)})
    with pytest.raises(HypergeomError, match="univariate in its series variable"):
        local_exponents(op)


# -- pullbacks -----------------------------------------------------------------------


def test_pullback_search_finds_reference_candidate():
    cands = pullback_search(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 3)
    match = [c for c in cands if c.constant == Fr(-81, 64)]
    assert len(match) == 1
    c = match[0]
    assert c.exponents == {Fr(0): 1, Fr(1): -2, Fr(1, 64): -1, Fr(2, 3): 1}
    assert c.map == ratfun("-81*x*(x-2/3)/(64*(x-1)^2*(x-1/64))", X)
    assert c.simplified_map() == rookdata.closed_form_pullback()


def test_pullback_candidates_satisfy_cube_condition():
    cands = pullback_search(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 3)
    one = RatFun.from_scalar(1, X)
    for c in cands:
        shifted = c.map - one
        quotient = shifted.num.try_divide(c.cube_root ** 3)
        assert quotient is not None and quotient.is_constant()
        assert not quotient.is_zero()


def test_pullback_search_degree_8_finds_the_same_candidates():
    def rows(cands):
        return [(c.exponent_tuple(), c.constant, c.map.text()) for c in cands]

    cube = (Fr(0), Fr(0), Fr(1, 3))
    at_6 = rows(pullback_search(SING_POINTS, cube, 6))
    assert len(at_6) == 2
    assert rows(pullback_search(SING_POINTS, cube, 8)) == at_6


def test_pullback_search_rejects_repeated_point():
    with pytest.raises(HypergeomError, match="repeats a point"):
        pullback_search((Fr(0), Fr(1), Fr(2, 2)), (Fr(0), Fr(0), Fr(1, 3)), 3)


@pytest.mark.parametrize("points, triple, max_degree, count", [
    pytest.param(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 3, 2, id="rook-cube"),
    # at power 2, G = R has degree |support| - 1 > deg Q = 1 on three or four points
    pytest.param((Fr(0), Fr(1), Fr(1, 4), Fr(-1, 8)), (Fr(0), Fr(0), Fr(1, 2)), 2, 44,
                 id="square"),
])
def test_pullback_search_matches_sympy_oracle(points, triple, max_degree, count):
    # independent solve of c*N - D = k*Q^power, Q a general monic polynomial
    # of degree M/power, for every nonzero vector of map degree <= max_degree,
    # enumerated here: the oracle also covers each vector the degree test rejects
    sympy = pytest.importorskip("sympy")
    power = max(e.denominator for e in triple)
    x, c, k = sympy.symbols("x c k")
    pts = [sympy.Rational(p.numerator, p.denominator) for p in points]
    expected = set()
    span = range(-max_degree, max_degree + 1)
    for exps in itertools.product(span, repeat=len(pts)):
        if not 0 < sum(map(abs, exps)) + abs(sum(exps)) <= 2 * max_degree:
            continue
        N = sympy.Mul(*[(x - p) ** e for p, e in zip(pts, exps) if e > 0])
        D = sympy.Mul(*[(x - p) ** -e for p, e in zip(pts, exps) if e < 0])
        dn, dd = sympy.degree(N, x), sympy.degree(D, x)
        if dn == dd or max(dn, dd) % power:
            continue
        qs = sympy.symbols(f"q1:{max(dn, dd) // power + 1}")
        Q = x ** len(qs) + sum(q * x ** (len(qs) - 1 - i) for i, q in enumerate(qs))
        unknowns = [c, *qs, k]
        eqs = sympy.Poly(c * N - D - k * Q ** power, x).all_coeffs()
        for sol in sympy.solve(eqs, unknowns, dict=True):
            assert set(sol) == set(unknowns)
            if all(sol[v].is_rational for v in unknowns) and sol[c] != 0 and sol[k] != 0:
                expected.add((exps, Fr(str(sol[c]))))
    cands = pullback_search(points, triple, max_degree)
    assert {(cand.exponent_tuple(), cand.constant) for cand in cands} == expected
    assert len(expected) == count


def _passes_degree_test(exps, power, max_degree):
    # restated from _power_roots: deg N != deg D, M = max(deg N, deg D)
    # <= max_degree, power | M and Q^(power-1) of degree (power-1)*M/power divides
    # R, of degree |support| - 1
    dn = sum(e for e in exps if e > 0)
    dd = -sum(e for e in exps if e < 0)
    M = max(dn, dd)
    support = sum(1 for e in exps if e)
    return dn != dd and M <= max_degree and M % power == 0 and (power - 1) * M // power <= support - 1


def _map_degree(exps):
    return max(sum(e for e in exps if e > 0), -sum(e for e in exps if e < 0))


def _fresh_gcd(points, exps, power):
    # G from the vector's own weights, with a cofactor table of its own
    table = _cofactor_table([p.as_integer_ratio() for p, e in zip(points, exps) if e])
    return _ray_gcd(table, [e for e in exps if e], power)


def test_exponent_vectors_match_brute_force():
    # the walk yields exactly the degree-test survivors of the full lexicographic
    # enumeration, in the same order, each with its map degree; five points (infinity
    # as a fifth) up to max-degree 4
    for npts, span in ((2, 8), (3, 8), (4, 8), (5, 4)):
        # (map degree, vector) over the span of max-degree span, in product order
        box = itertools.product(range(-span, span + 1), repeat=npts)
        full = [((sum(map(abs, e)) + abs(sum(e))) // 2, e) for e in box]
        full = [(degree, e) for degree, e in full if 0 < degree <= span]
        for power, max_degree in itertools.product((2, 3, 4, 6), range(1, span + 1)):
            expected = [(e, degree) for degree, e in full
                        if degree <= max_degree and _passes_degree_test(e, power, max_degree)]
            assert list(_exponent_vectors(npts, max_degree, power)) == expected, (npts, power, max_degree)


FIVE_POINTS = (Fr(0), Fr(1), Fr(-1), Fr(1, 2), Fr(2))


def _search_rows(points, triple, max_degree):
    return [(c.exponent_tuple(), c.constant, c.map.text(), c.cube_root.text())
            for c in pullback_search(points, triple, max_degree)]


def _search_steps(points, triple, max_degree):
    # the search's rows and its steps: the (vector, M) of each _power_roots call, the
    # support of each cofactor table and the (columns, ray, power) of each G it builds
    vectors, tables, gcds = [], [], []
    power_roots, cofactor_table, ray_gcd = hypergeom._power_roots, hypergeom._cofactor_table, hypergeom._ray_gcd
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypergeom, "_power_roots", lambda points, exps, M, *rest:
                      vectors.append((exps, M)) or power_roots(points, exps, M, *rest))
        patch.setattr(hypergeom, "_cofactor_table", lambda support:
                      tables.append(tuple(support)) or cofactor_table(support))
        patch.setattr(hypergeom, "_ray_gcd", lambda columns, ray, power:
                      gcds.append((tuple(columns), tuple(ray), power)) or ray_gcd(columns, ray, power))
        rows = _search_rows(points, triple, max_degree)
    return rows, vectors, tables, gcds


def test_pullback_search_solves_only_admitted_vectors():
    # past the degree at which the degree test stops admitting new vectors the
    # search does the same work and finds the same candidates
    cube = (Fr(0), Fr(0), Fr(1, 3))
    calls, rows = [], []
    for max_degree in (6, 8, 16):
        found, vectors, _, _ = _search_steps(SING_POINTS, cube, max_degree)
        assert all(_passes_degree_test(e, 3, max_degree) and M == _map_degree(e) for e, M in vectors)
        calls.append(len(vectors))
        rows.append(found)
    assert calls == [168] * 3 and rows[0] == rows[1] == rows[2] and len(rows[0]) == 2


def test_pullback_search_builds_one_power_gcd_per_weight_ray():
    # e, -e and 2e share G: the rook cube search's 168 vectors on 5 supports need one
    # cofactor table per support and 84 G, one per support and primitive ray
    rows, vectors, tables, gcds = _search_steps(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 6)
    assert len(rows) == 2 and len(vectors) == 168
    assert len(tables) == len(set(tables)) == 5
    assert len(gcds) == len(set(gcds)) == 84
    assert {len(support) for support in tables} == {3, 4}


@pytest.mark.parametrize("points, power, max_degree, admitted_count, pair_count", [
    pytest.param(SING_POINTS, 3, 6, 168, 4, id="rook-cube"),
    pytest.param((Fr(0), Fr(1), Fr(1, 4), Fr(-1, 8)), 2, 3, 60, 88, id="square"),  # G = R
    pytest.param(SING_POINTS, 4, 4, 190, 0, id="rook-fourth-power"),  # G = gcd(R, R', R'')
])
def test_power_condition_is_the_same_with_a_shared_power_gcd(points, power, max_degree, admitted_count,
                                                            pair_count):
    # a G built once, from an admitted vector e, and shared by e, -e and 2e gives the
    # (c, Q) pairs of a G built afresh from each vector's own weights
    admitted = list(_exponent_vectors(len(points), max_degree, power))
    found = 0
    for exps, M in admitted:
        shared = _fresh_gcd(points, exps, power)
        for e, m in ((exps, M), (tuple(-v for v in exps), M), (tuple(2 * v for v in exps), 2 * M)):
            pairs = _power_roots(points, e, m, power, shared)
            assert pairs == _power_roots(points, e, m, power, _fresh_gcd(points, e, power)), e
            found += len(pairs)
    assert (len(admitted), found) == (admitted_count, pair_count)


def test_five_point_cube_search_keeps_its_rows():
    # five finite points, as many as a search with infinity as a fifth point: 4,100
    # admitted vectors and 8 candidates, rows pinned from the exact gcd chain alone
    rows = _search_rows(FIVE_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 8)
    assert len(list(_exponent_vectors(5, 8, 3))) == 4100
    assert [(e, c) for e, c, *_ in rows] == [
        ((-4, -1, 1, 1, 4), Fr(-2, 27)), ((-2, -2, 2, 2, 2), Fr(-4, 27)), ((-1, -4, 4, 1, 1), Fr(2, 27)),
        ((-1, -1, 1, 4, 1), Fr(-16, 27)), ((1, 1, -1, -4, -1), Fr(-27, 16)), ((1, 4, -4, -1, -1), Fr(27, 2)),
        ((2, 2, -2, -2, -2), Fr(-27, 4)), ((4, 1, -1, -1, -4), Fr(-27, 2))]
    assert _sha256(repr(rows)) == "8629bb37c2e9b0f7e7ba95142fef1f1b7c6b475e1a01361ac9409eb2e0b8532a"


def test_pullback_search_is_the_same_without_the_squarefree_screen(monkeypatch):
    # with every ray left to the exact gcd chain, the rook cube search gives the same rows
    cube = (Fr(0), Fr(0), Fr(1, 3))
    screened = [_search_rows(SING_POINTS, cube, d) for d in (6, 8, 16)]
    monkeypatch.setattr(hypergeom, "_squarefree_mod_p", lambda coeffs: False)
    assert [_search_rows(SING_POINTS, cube, d) for d in (6, 8, 16)] == screened


@pytest.mark.parametrize("points, triple, max_degree, steps", [
    pytest.param(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 6, (168, 5, 84), id="rook-cube"),
    pytest.param(SING_POINTS, (Fr(0), Fr(0), Fr(1, 4)), 4, (190, 1, 95), id="rook-fourth-power"),
    pytest.param(FIVE_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 8, (4100, 16, 2040), id="five-point-cube"),
])
def test_screened_power_gcd_is_the_exact_one(monkeypatch, points, triple, max_degree, steps):
    # on every weight ray of the search, the G the screen returns is the one the gcd
    # chain builds; steps counts the vectors solved, the cofactor tables and the G built
    _, vectors, tables, gcds = _search_steps(points, triple, max_degree)
    assert (len(vectors), len(set(tables)), len(set(gcds))) == steps
    assert len(tables) == len(set(tables)) and len(gcds) == len(set(gcds))
    screened = [_ray_gcd(*key) for key in gcds]
    monkeypatch.setattr(hypergeom, "_squarefree_mod_p", lambda coeffs: False)
    assert [_ray_gcd(*key) for key in gcds] == screened


def test_rook_cube_search_runs_one_exact_gcd(monkeypatch):
    # the screen decides 83 of the 84 weight rays; the exact gcd runs once, on the
    # one R with a repeated root
    gcd = hypergeom.mpoly_gcd
    calls = []
    monkeypatch.setattr(hypergeom, "mpoly_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    assert len(pullback_search(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 6)) == 2
    (R, dR), = calls
    assert dR == R.derivative("x") and gcd(R, dR).degree("x") == 1


def _dense_poly(coeffs):
    return MPoly(X, {(j,): c for j, c in enumerate(coeffs)})


def test_squarefree_screen_accepts_only_squarefree_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeff = st.integers(-2 ** 40, 2 ** 40)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(coeff, min_size=1, max_size=6), coeff.filter(bool))
    def check(lower, lead):
        coeffs = lower + [lead]  # degree 1 to 6
        if _squarefree_mod_p(coeffs):
            R = _dense_poly(coeffs)
            assert hypergeom.mpoly_gcd(R, R.derivative("x")).is_constant()
            assert sympy.discriminant(sum(c * x ** j for j, c in enumerate(coeffs)), x) != 0

    check()


def test_squarefree_screen_never_accepts_a_square_factor():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.integers(-2 ** 40, 2 ** 40)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(coeff, coeff.filter(bool), st.lists(coeff, min_size=0, max_size=4), coeff.filter(bool))
    def check(a, b, lower, lead):
        S = _dense_poly(lower + [lead])
        R = MPoly(X, {(1,): b, (0,): -a}) ** 2 * S
        assert not _squarefree_mod_p([R.terms.get((j,), 0) for j in range(R.degree("x") + 1)])

    check()


@pytest.mark.parametrize("coeffs", [
    pytest.param([1, 1, SCREEN_PRIME], id="p-divides-the-leading-coefficient"),
    pytest.param([SCREEN_PRIME, 0, 1], id="square-modulo-p"),
])
def test_squarefree_screen_leaves_squarefree_cases_undecided(coeffs):
    # both polynomials are squarefree over Q, and the gcd chain says so
    R = _dense_poly(coeffs)
    assert hypergeom.mpoly_gcd(R, R.derivative("x")).is_constant()
    assert not _squarefree_mod_p(coeffs)
    assert _squarefree_mod_p([1, 1, 1]) and _squarefree_mod_p([7])


@pytest.mark.parametrize("exps, constant", [((1, -1, 3, -2), Fr(-1)), ((3, 1, -1, -2), Fr(-9, 16))])
def test_power_condition_with_a_cubic_minimal_polynomial(monkeypatch, exps, constant):
    # mu is cubic only from max-degree 4, past the sympy oracle's reach; its one
    # rational root gives the constant, and since no Q has c*N - D = k*Q^2 there,
    # the vector has no candidate
    points = (Fr(0), Fr(1), Fr(1, 4), Fr(-1, 8))
    seen = []
    monkeypatch.setattr(linalg, "_rational_roots", lambda p: seen.append(p) or _rational_roots(p))
    assert _power_roots(points, exps, _map_degree(exps), 2, _fresh_gcd(points, exps, 2)) == []
    mu, = seen
    N, D = _monic_parts(points, exps)
    assert mu.degree("x") == 3
    assert [r * D.rational_content() / N.rational_content() for r, _ in _rational_roots(mu)[0]] == [constant]


def test_pullback_all_integer_triple_is_empty():
    assert pullback_search(SING_POINTS, (0, 0, 0), 3) == []


def test_operator_pullback_identity():
    spec = HypergeomSpec(Fr(1, 3), Fr(2, 3), Fr(2))
    assert operator_pullback(spec, ratfun("x", X)) == gauss_operator(spec).normalized()


def test_operator_pullback_rejects_constant():
    with pytest.raises(HypergeomError):
        operator_pullback(HypergeomSpec(Fr(1, 3), Fr(2, 3), Fr(2)), ratfun("5", X))


def test_pullback_exponent_differences_match_p2():
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    op = operator_pullback(spec, rookdata.closed_form_pullback())
    rep_pull = local_exponents(op)
    rep_p2 = local_exponents(rookdata.operator_p2())
    for loc in (Fr(0), Fr(1), Fr(1, 64), Fr(2, 3), "inf"):
        assert rep_pull.at(loc).exponent_difference == rep_p2.at(loc).exponent_difference


def test_pullback_multiplicity_law():
    rng = random.Random(77)
    for _ in range(4):
        c = Fr(1, rng.randrange(2, 6))
        spec = HypergeomSpec(Fr(1, 4), Fr(1, 4) + c, Fr(1) - c)  # e0 = c
        m = rng.randrange(1, 4)
        f = ratfun(f"x^{m}*(x-3)/(1-2*x)", X)
        rep = exponents_at(operator_pullback(spec, f), Fr(0))
        assert rep.exponent_difference == m * c


# -- closed form ----------------------------------------------------------------------


def test_symbolic_solution_check_passes():
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    report = symbolic_solution_check(rookdata.operator_p2(), rookdata.closed_form_prefactor(),
                                     spec, rookdata.closed_form_pullback())
    assert report.passed


def test_symbolic_solution_check_scaling_invariance():
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    scaled = rookdata.closed_form_prefactor() * Fr(-7, 3)
    assert symbolic_solution_check(rookdata.operator_p2(), scaled, spec,
                                   rookdata.closed_form_pullback()).passed


def test_symbolic_solution_check_detects_wrong_prefactor():
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    bad = rookdata.closed_form_prefactor() * ratfun("x", X)
    report = symbolic_solution_check(rookdata.operator_p2(), bad, spec, rookdata.closed_form_pullback())
    assert not report.passed
    assert not report.residual.is_zero()


def test_closed_form_series_constant_coefficient():
    series = closed_form_series(4)
    assert series.coeff(0) == 6  # equals 1 * a_1


def test_closed_form_check_passes():
    assert closed_form_check(30).passed


def test_checks_read_a_passed_prefix_of_the_diagonal():
    # a table through the last index read gives the self-counted results; a
    # table one term short is refused
    terms = diagonal_sequence(ROOK, 30)
    assert closed_form_check(30, terms).passed
    assert [r.passed for r in identity_checks(10, 29, terms)] == [True] * 3
    assert asymptotics_check(150, terms=terms) == asymptotics_check(150)
    short = diagonal_sequence(ROOK, 29)
    for check in (lambda: closed_form_check(30, short), lambda: identity_checks(10, 29, short)):
        with pytest.raises(ValueError, match="to n=30, got 30 terms"):
            check()


@pytest.mark.parametrize("check, name", [
    (lambda: closed_form_check(0), "n_max"),
    (lambda: identity_checks(0), "order"),
    (lambda: identity_checks(30, 0), "beukers_order"),
], ids=["closed-form-n-max", "identity-order", "identity-beukers-order"])
def test_series_checks_refuse_order_zero(check, name):
    # at order 0 a series check would compare no coefficient and pass vacuously
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        check()


def test_series_checks_pass_at_the_benchmark_order():
    assert all(report.passed for report in identity_checks(60))
    assert closed_form_check(60).passed


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOURSAT_OUTER = HypergeomSpec(Fr(1, 12), Fr(5, 12), Fr(1))


@pytest.mark.parametrize("spec, order, pullback, digest", [
    (GOURSAT_OUTER, 60, ratfun(rookdata.GOURSAT_PULLBACK_TEXT, X),
     "0ae1de8469320e76e57fa1f95874e7ad3e766dffa9fab4e3ae7a9d3bf75442ee"),
    (HypergeomSpec(*rookdata.closed_form_parameters()), 61, rookdata.closed_form_pullback(),
     "62c47061da0d313d15bf0ffa885c2ae828ef678fb7830a4f91ac849897e8c15c"),
], ids=["goursat", "closed-form"])
def test_compose_keeps_its_pinned_coefficients(spec, order, pullback, digest):
    # digests of the coefficient texts, as the unscaled division by D^K gives them
    composed = f21_series(spec, order).compose(pullback)
    assert _sha256(",".join(str(c) for c in composed.coeffs)) == digest


def test_compose_divides_by_a_unit_constant_term(monkeypatch):
    # the Goursat map has D(0) = 729; compose must hand the division D'^K with D'(0) = 1
    divisors = []
    quotient = series_module._quotient

    def spy(var, a, b, *args):
        divisors.append(b)
        return quotient(var, a, b, *args)

    monkeypatch.setattr(series_module, "_quotient", spy)
    f21_series(GOURSAT_OUTER, 60).compose(ratfun(rookdata.GOURSAT_PULLBACK_TEXT, X))
    assert [abs(b[0]) for b in divisors] == [1]
    assert max(abs(c) for c in divisors[0]).bit_length() < 1000


def test_closed_form_check_detects_wrong_prefactor(monkeypatch):
    # prefactor 7 instead of 6: mismatch at n = 0
    monkeypatch.setattr(rookdata, "closed_form_prefactor",
                        lambda: ratfun("7/((1-4*x)*(1-64*x))", X))
    report = closed_form_check(6)
    assert not report.passed
    assert report.detail == "coefficient mismatch at n=0"


def test_symbolic_check_implies_series_check():
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    symbolic = symbolic_solution_check(rookdata.operator_p2(), rookdata.closed_form_prefactor(),
                                       spec, rookdata.closed_form_pullback())
    assert symbolic.passed and closed_form_check(20).passed


# -- asymptotics & identities ------------------------------------------------------------


def test_gauss_value_numeric():
    value = f21_at_one(HypergeomSpec(Fr(1, 3), Fr(2, 3), Fr(2)))
    target = Fr(9, 4) * sqrt_rational(Fr(3)) / pi_rational()
    assert abs(value - target) < target / 10 ** 10
    assert decimal_str(value, 6) == "1.240490"
    assert _sha256(str(value)) == "4d897b2ab5506d0b9873d90768758d391f0636f392153ca135543117fb960238"


def test_f21_at_one_rejects_divergent_parameters():
    for spec in (HypergeomSpec(Fr(1, 3), Fr(2, 3), Fr(1)), HypergeomSpec(Fr(1, 2), Fr(1, 2), Fr(1, 2))):
        with pytest.raises(HypergeomError, match="c - a - b > 0"):
            f21_at_one(spec)


def neville_at_zero(xs, ys):
    """The interpolating polynomial of (xs, ys) at 0 by Neville's triangle."""
    p = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            p[i] = (xs[i + level] * p[i] - xs[i] * p[i + 1]) / (xs[i + level] - xs[i])
    return p[0]


@pytest.mark.parametrize("spec, digest", [
    (HypergeomSpec(Fr(1, 12), Fr(5, 12), Fr(3, 2)),
     "53db4d4b91b08ed0f0d082295f02c637e54161e8df2c067fbc64f7853beafcfd"),
    (HypergeomSpec(Fr(-1, 3), Fr(1, 4), Fr(7, 3)),
     "5bff7ac0c2e0a074acba8c2d55783ecc9f13214331094ddc77d52d8665ac1cba"),
], ids=["spec0", "spec1"])
def test_f21_at_one_extrapolates_series_partial_sums(spec, digest):
    # the series' own partial sums through Neville's triangle at 1/n = 0, and
    # the digest of the value's text as that triangle gives it
    nodes = [200 + 100 * i for i in range(12)]
    sums = list(accumulate(f21_series(spec, max(nodes)).coeffs))
    value = f21_at_one(spec)
    assert value == neville_at_zero([Fr(1, n) for n in nodes], [sums[n] for n in nodes])
    assert _sha256(str(value)) == digest


def test_extrapolation_matches_neville_triangle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nonzero = st.integers(-10 ** 6, 10 ** 6).filter(bool)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(nonzero, min_size=1, max_size=14, unique=True), st.data())
    def check(nodes, data):
        values = {n: data.draw(st.fractions(max_denominator=10 ** 12)) for n in nodes}
        expected = neville_at_zero([Fr(1, n) for n in nodes], [values[n] for n in nodes])
        assert extrapolate_partial_sums(values.__getitem__, nodes) == expected

    check()


def test_extrapolation_needs_a_node():
    with pytest.raises(ValueError, match="at least one node"):
        extrapolate_partial_sums(lambda n: Fr(n), [])


def test_asymptotics_check():
    report = asymptotics_check(500, Fr(1, 100))
    assert report.passed()
    # the check keeps only the last terms of the unroll; its error is the one
    # that rec_unroll's whole table gives
    a = rec_unroll(rookdata.recurrence_order3(), SeqTable("rook", [1, 6, 222], "dp"), 500).terms
    rho = Fr(9) * sqrt_rational(Fr(3)) / (40 * pi_rational())
    assert report.ratio_error == abs(Fr(a[500] * 500, 64 ** 500) - rho) / rho


def test_identity_checks_pass():
    for report in identity_checks(30, 25):
        assert report.passed, report
