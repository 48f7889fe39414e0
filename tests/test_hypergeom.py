"""Hypergeometric layer: series, exponents, pullbacks, asymptotics, identities."""

import random
from fractions import Fraction as Fr

import pytest

from rookpaths import rookdata
from rookpaths.exactmath import MPoly, RatFun, poly, ratfun
from rookpaths.hypergeom import (HypergeomSpec, HypergeomError, SING_POINTS, asymptotics_check,
                                 closed_form_check, closed_form_series, exponents_at,
                                 f21_at_one, f21_series, gauss_operator, identity_checks,
                                 local_exponents, operator_pullback, pullback_search,
                                 symbolic_solution_check, _exponent_vectors, _rational_roots)
from rookpaths.numerics import decimal_str, pi_rational, sqrt_rational
from rookpaths.ore import DiffOp

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
    with pytest.raises(HypergeomError):
        HypergeomSpec(Fr(1), Fr(1), Fr(-2))


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


def test_irregular_singularity_rejected():
    # x^3 y'' - y = 0 has an irregular singular point at 0
    op = DiffOp(X, X, {(2,): RatFun(poly("x^3", X)), (0,): RatFun.from_scalar(-1, X)})
    with pytest.raises(HypergeomError):
        local_exponents(op)


def test_non_rational_leading_factor_rejected():
    # (x^2-2) y'' + y = 0 is singular at +-sqrt(2), which the analysis over Q cannot place
    op = DiffOp(X, X, {(2,): RatFun(poly("x^2-2", X)), (0,): RatFun.from_scalar(1, X)})
    with pytest.raises(HypergeomError, match=r"non-rational factor.*1\*x\^2 \+ -2"):
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


def test_pullback_search_matches_sympy_oracle():
    # independent solve of c*N - D = k*(x+q)^3 for every map of degree 3
    sympy = pytest.importorskip("sympy")
    x, c, q, k = sympy.symbols("x c q k")
    points = [sympy.Rational(p.numerator, p.denominator) for p in SING_POINTS]
    expected = set()
    for exps in _exponent_vectors(len(points), 3):
        N = sympy.Mul(*[(x - p) ** e for p, e in zip(points, exps) if e > 0])
        D = sympy.Mul(*[(x - p) ** -e for p, e in zip(points, exps) if e < 0])
        dn, dd = sympy.degree(N, x), sympy.degree(D, x)
        if dn == dd or max(dn, dd) % 3:
            continue
        eqs = sympy.Poly(c * N - D - k * (x + q) ** 3, x).all_coeffs()
        for sol in sympy.solve(eqs, [c, q, k], dict=True):
            assert set(sol) == {c, q, k}
            if all(sol[v].is_rational for v in (c, q, k)) and sol[c] != 0 and sol[k] != 0:
                expected.add((exps, Fr(str(sol[c]))))
    cands = pullback_search(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 3)
    assert {(cand.exponent_tuple(), cand.constant) for cand in cands} == expected
    assert len(expected) == 2


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
    assert not symbolic_solution_check(rookdata.operator_p2(), bad, spec,
                                       rookdata.closed_form_pullback()).passed


def test_closed_form_series_constant_coefficient():
    series = closed_form_series(4)
    assert series.coeff(0) == 6  # equals 1 * a_1


def test_closed_form_check_passes():
    assert closed_form_check(30).passed


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


def test_asymptotics_check():
    report = asymptotics_check(500, Fr(1, 100))
    assert report.passed()


def test_identity_checks_pass():
    for report in identity_checks(30, 25):
        assert report.passed, report
