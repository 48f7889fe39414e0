"""Arithmetic kernel: polynomials, rational functions, series, nullspaces."""

import random
from fractions import Fraction

import pytest

from rookpaths import rookdata
from rookpaths.exactmath import (MPoly, PowerSeries, RatFun, clear_denominators, clear_vector,
                                 frac_gcd, linear_nullspace, mpoly_gcd, poly, ratfun, resultant)
from rookpaths.exactmath import mpoly as mpoly_module

X = ("x",)
XST = ("x", "s", "t")
Q1_TEXT = "-s*t+2*s^2*t+2*t^2+2*x*s-3*s*t^2-3*x*t-3*x*s^2+4*x*s*t"


def rand_poly(rng, vars, nterms, maxdeg, maxc=9):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg + 1) for _ in vars)
        terms[e] = rng.randrange(-maxc, maxc + 1)
    return MPoly(vars, terms)


# -- gcd ---------------------------------------------------------------------


def test_gcd_shared_linear_factor():
    g = mpoly_gcd(poly("x^2-1", X), poly("x-1", X))
    assert g == poly("x-1", X)


def test_gcd_with_zero_is_normalization():
    p = poly("-2*x^2+4*x", X)
    g = mpoly_gcd(p, MPoly.zero(X))
    assert g == poly("x^2-2*x", X)  # content 1, positive leading coefficient
    assert mpoly_gcd(MPoly.zero(X), MPoly.zero(X)).is_zero()


def test_gcd_st_q1_example():
    q1 = poly(Q1_TEXT, XST)
    g = mpoly_gcd(poly("s*t", XST) * q1, q1)
    # equal to q1 after the gcd's own normalization (positive leading coeff)
    assert g == q1.primitive_part()
    assert g.leading_coeff() > 0
    assert g.rational_content() == 1


def test_gcd_divisibility_property():
    rng = random.Random(20240)
    for _ in range(40):
        a = rand_poly(rng, XST, 4, 2)
        b = rand_poly(rng, XST, 4, 2)
        g = rand_poly(rng, XST, 3, 2)
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        d = mpoly_gcd(g * a, g * b)
        assert d.try_divide(g.primitive_part()) is not None


def test_gcd_matches_prs_and_sympy_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x s t")
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), coeffs, max_size=4).map(
        lambda terms: MPoly(XST, terms))
    monomials = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: MPoly(XST, {e: 1}))

    def to_sympy(p):
        return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                     for e, c in p.terms.items()} or {(0, 0, 0): 0},
                                    *gens, domain=sympy.QQ)

    def from_sympy(p):
        return MPoly(XST, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms() if c})

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, polys, monomials, monomials)
    def check(a, b, g, ma, mb):
        fa, fb = a * g * ma, b * g * mb
        d = mpoly_gcd(fa, fb)
        assert d == from_sympy(to_sympy(fa).gcd(to_sympy(fb))).primitive_part()
        if g:
            assert d.try_divide(g) is not None
        if fa and fb:
            pa, pb = fa.primitive_part(), fb.primitive_part()
            assert d == mpoly_module._gcd_core(pa, pb).primitive_part()
            heu = mpoly_module._heu_gcd(pa, pb)
            assert heu is None or heu.primitive_part() == d

    check()


def test_gcd_prs_fallback_gives_the_same_results(monkeypatch):
    a = poly("s*t^2-s^2*t-x*s*t+x*s^2-t^2+s*t+x*t-x*s", XST)
    q1 = poly(Q1_TEXT, XST)
    den = rookdata.embedded_f().den
    pairs = [(a, a), (a * poly("x+s", XST), a * poly("t-1", XST)), (poly("s*t", XST) * q1, q1),
             (q1, a), (den, den.derivative("t")), (den * q1, den.derivative("x") * q1),
             (den, a * poly("2*x-3", XST))]
    expected = [mpoly_gcd(p, q) for p, q in pairs]
    assert expected[0] == expected[1] == a.primitive_part()
    assert expected[2] == q1.primitive_part()
    assert expected[3].is_constant()
    reached = []
    core = mpoly_module._gcd_core

    def counting_core(p, q):
        reached.append(1)
        return core(p, q)

    monkeypatch.setattr(mpoly_module, "_heu_gcd", lambda p, q: None)
    monkeypatch.setattr(mpoly_module, "_gcd_core", counting_core)
    assert [mpoly_gcd(p, q) for p, q in pairs] == expected
    assert len(reached) >= len(pairs)


def test_discriminant_matches_factored_reference_form():
    q1 = poly(Q1_TEXT, XST)
    res = resultant(q1, q1.derivative("t"), "t")
    lc = q1.coeffs_in("t")[q1.degree("t")]
    disc = -res.divide_exact(lc)
    assert disc == poly("(x-s)*(16*x*s^2-4*s^3-24*x*s+4*s^2+9*x-s)", XST)


# -- rational functions --------------------------------------------------------


def test_ratfun_normalization_fixed_point():
    rng = random.Random(7)
    for _ in range(30):
        n = rand_poly(rng, XST, 4, 2)
        d = rand_poly(rng, XST, 4, 2)
        if d.is_zero():
            continue
        r = RatFun(n, d)
        again = RatFun(r.num, r.den)
        assert again.num == r.num and again.den == r.den


def test_ratfun_equality_is_cross_multiplication():
    rng = random.Random(8)
    for _ in range(30):
        n = rand_poly(rng, XST, 3, 2)
        d = rand_poly(rng, XST, 3, 2)
        m = rand_poly(rng, XST, 2, 1)
        if d.is_zero() or m.is_zero():
            continue
        r1 = RatFun(n, d)
        r2 = RatFun(n * m, d * m)
        assert r1 == r2
        assert r1.num * r2.den == r2.num * r1.den


def test_ratfun_field_arithmetic():
    a = ratfun("x/(1-x)", X)
    b = ratfun("1/(1+x)", X)
    assert a + b == ratfun("(x*(1+x)+(1-x))/((1-x)*(1+x))", X)
    assert a * b / b == a
    assert (a - a).is_zero()


def test_canonical_text_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        n = rand_poly(rng, XST, 5, 3)
        d = rand_poly(rng, XST, 4, 2)
        if d.is_zero():
            continue
        r = RatFun(n, d)
        assert RatFun.parse(r.text(), XST) == r
        p = rand_poly(rng, XST, 5, 3)
        assert MPoly.parse(p.text(), XST) == p


# -- power series ---------------------------------------------------------------


def test_series_compose_identity():
    geom = PowerSeries.from_ratfun(ratfun("1/(1-x)", X), "x", 12)
    ident = PowerSeries.identity("x", 12)
    assert geom.compose(ident) == geom
    assert geom.coeffs[:4] == [1, 1, 1, 1]


def test_series_inner_pullback_expansion():
    # independent oracle: 27x(2-3x) * sum C(k+2,2) 4^k x^k
    order = 8
    binom = [Fraction((k + 2) * (k + 1), 2) * 4 ** k for k in range(order + 1)]
    oracle = [Fraction(0)] * (order + 1)
    for k, c in enumerate(binom):
        if k + 1 <= order:
            oracle[k + 1] += 54 * c
        if k + 2 <= order:
            oracle[k + 2] -= 81 * c
    inner = PowerSeries.from_ratfun(ratfun("27*x*(2-3*x)/((1-4*x)^3)", X), "x", order)
    assert inner.coeffs == oracle
    assert inner.coeffs[1] == 54 and inner.coeffs[2] == 567


def test_series_compose_rejects_unit_valuation():
    outer = PowerSeries.from_ratfun(ratfun("1/(1-x)", X), "x", 8)
    bad = PowerSeries.one("x", 8)
    with pytest.raises(ValueError):
        outer.compose(bad)


def test_series_compose_respects_multiplication():
    rng = random.Random(10)
    for _ in range(10):
        f = PowerSeries("x", [Fraction(rng.randrange(-5, 6)) for _ in range(10)])
        g = PowerSeries("x", [Fraction(rng.randrange(-5, 6)) for _ in range(10)])
        h = PowerSeries("x", [0] + [Fraction(rng.randrange(-3, 4)) for _ in range(9)])
        lhs = (f * g).compose(h)
        rhs = f.compose(h) * g.compose(h)
        assert lhs == rhs


def test_series_nth_root_examples_and_property():
    square = PowerSeries.from_ratfun(ratfun("(1+x)^2", X), "x", 10)
    assert square.power(Fraction(1, 2)).coeffs[:3] == [1, 1, 0]
    assert PowerSeries.one("x", 10).power(Fraction(1, 4)) == PowerSeries.one("x", 10)
    g2 = PowerSeries.from_ratfun(ratfun("(1-4*x)*(1-60*x+120*x^2-64*x^3)", X), "x", 24)
    r = g2.power(Fraction(1, 4))
    assert r ** 4 == g2
    rng = random.Random(11)
    for k in (2, 3, 5):
        p = PowerSeries("x", [1] + [Fraction(rng.randrange(-4, 5)) for _ in range(12)])
        assert p.power(Fraction(1, k)) ** k == p


def test_series_nth_root_rejects_other_constant():
    with pytest.raises(ValueError):
        PowerSeries("x", [2, 1]).power(Fraction(1, 2))
    with pytest.raises(ValueError, match="constant term 1"):
        PowerSeries("x", [-1, 1, 1]).power(Fraction(-1, 4))


def test_series_power_matches_binary_powering():
    # integer exponents against ** (binary powering), constant terms other than 1 included
    rng = random.Random(12)
    for c0 in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 5)):
        p = PowerSeries("x", [c0] + [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                                     for _ in range(10)])
        one = PowerSeries.one("x", p.order)
        for alpha in range(-3, 4):
            if alpha >= 0:
                assert p.power(alpha) == p ** alpha
            else:
                assert p.power(alpha) * p ** -alpha == one


def test_series_fourth_root_radical_against_sympy():
    sympy = pytest.importorskip("sympy")
    order = 15
    x = sympy.Symbol("x")
    expansion = sympy.series((1 - sympy.Rational(8, 9) * x) ** sympy.Rational(-1, 4), x, 0,
                             order + 1).removeO()
    expected = [Fraction(str(expansion.coeff(x, n))) for n in range(order + 1)]
    radical = PowerSeries.from_ratfun(ratfun("(9-8*x)/9", X), "x", order).power(Fraction(-1, 4))
    assert radical.coeffs == expected


def test_series_division_by_positive_valuation_rejected():
    a = PowerSeries.one("x", 6)
    b = PowerSeries.identity("x", 6)
    with pytest.raises(ValueError):
        a / b


# -- linear algebra ---------------------------------------------------------------


def test_nullspace_identity_is_trivial():
    m = [[MPoly.const(X, int(i == j)) for j in range(3)] for i in range(3)]
    assert linear_nullspace(m) == []


def test_nullspace_single_relation():
    basis = linear_nullspace([[poly("x", X), MPoly.const(X, -1)]])
    assert len(basis) == 1
    assert basis[0][0] == poly("1", X)
    assert basis[0][1] == poly("x", X)


def _rank_oracle(rows):
    """Plain fraction Gaussian elimination over Q(x) evaluated at x=5/7."""
    pt = Fraction(5, 7)
    work = [[e.eval_at({"x": pt}).constant_value() for e in row] for row in rows]
    rank = 0
    ncols = len(work[0])
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] / work[rank][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_nullspace_rank_plus_kernel_dimension():
    rng = random.Random(12)
    for _ in range(12):
        rows = [[rand_poly(rng, X, 2, 2) for _ in range(4)] for _ in range(3)]
        basis = linear_nullspace(rows)
        # exactness: m * v = 0
        for vec in basis:
            for row in rows:
                acc = MPoly.zero(X)
                for e, v in zip(row, vec):
                    acc = acc + e * v
                assert acc.is_zero()
        assert _rank_oracle(rows) + len(basis) == 4


def test_nullspace_vectors_are_content_free():
    basis = linear_nullspace([[poly("2*x", X), poly("-2", X)]])
    assert basis[0][0].rational_content() == 1
    # a fraction after an entry of content 1 must still be cleared
    m = [[MPoly.const((), v) for v in row] for row in ([1, 0, -1], [0, 2, -1])]
    assert linear_nullspace(m) == [[MPoly.const((), 2), MPoly.const((), 1), MPoly.const((), 2)]]


@pytest.mark.parametrize("matrix", [
    [],
    [[]],
    [[poly("x", X), poly("1", X)], [poly("x", X)]],
    [[poly("x", X), MPoly.const(XST, 1)]],
], ids=["no-rows", "empty-row", "ragged", "mixed-vars"])
def test_nullspace_rejects_malformed_matrix(matrix):
    with pytest.raises(ValueError):
        linear_nullspace(matrix)


def test_parse_rejects_noncanonical_text_in_one_line():
    with pytest.raises(ValueError, match=r"'x\^2-2'.*canonical form"):
        MPoly.parse("x^2-2", X)
    with pytest.raises(ValueError, match=r"negative power of 'x' in '1\*x\^-1'"):
        MPoly.parse("1*x^-1", X)


def test_clear_vector_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    xs = ("x", "s")
    polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.fractions(-6, 6, max_denominator=4), max_size=3).map(
        lambda terms: MPoly(xs, terms))
    ratfuns = st.tuples(polys, polys.filter(bool)).map(lambda nd: RatFun(*nd))

    def proportional(out, entries):
        assert [bool(p) for p in out] == [bool(e) for e in entries]
        for i, (pi, ei) in enumerate(zip(out, entries)):
            for pj, ej in zip(out[i + 1:], entries[i + 1:]):
                assert RatFun(pi) * ej == RatFun(pj) * ei

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(ratfuns, min_size=1, max_size=4))
    def check(entries):
        proportional(clear_denominators(entries, xs), entries)
        out = clear_vector(entries, xs)
        proportional(out, entries)
        nonzero = [p for p in out if p]
        if not nonzero:
            return
        content = Fraction(0)
        for p in nonzero:
            content = frac_gcd(content, p.rational_content())
        assert content == 1
        g = nonzero[0]
        for p in nonzero[1:]:
            g = mpoly_gcd(g, p)
        assert g.is_constant()
        assert nonzero[0].leading_coeff() > 0

    check()


# -- multiplication and division internals -----------------------------------------


def test_packed_multiplication_matches_schoolbook():
    rng = random.Random(2024)
    for trial in range(60):
        vars = (X, ("x", "s"), XST)[trial % 3]
        a = rand_poly(rng, vars, rng.randrange(1, 30), 5, 10 ** (1 + trial % 4))
        b = rand_poly(rng, vars, rng.randrange(1, 30), 5, 10 ** (1 + trial % 4))
        if a.is_zero() or b.is_zero():
            continue
        ref: dict = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                ref[e] = ref.get(e, 0) + ca * cb
        ref = {e: c for e, c in ref.items() if c}
        assert a._mul_packed(b).terms == ref
        assert (a * b).terms == ref


def test_ratfun_addition_agrees_with_cross_multiplication():
    rng = random.Random(2025)
    for _ in range(25):
        n1, d1 = rand_poly(rng, XST, 3, 2), rand_poly(rng, XST, 3, 2)
        n2, d2 = rand_poly(rng, XST, 3, 2), rand_poly(rng, XST, 3, 2)
        g = rand_poly(rng, XST, 2, 1)
        if d1.is_zero() or d2.is_zero() or g.is_zero():
            continue
        a = RatFun(n1, d1 * g)
        b = RatFun(n2, d2 * g)
        total = a + b
        # cross-multiplied reference, reduced through the constructor
        ref = RatFun(a.num * b.den + b.num * a.den, a.den * b.den)
        assert total == ref


def test_try_divide_round_trip_and_rejection():
    rng = random.Random(2026)
    for _ in range(40):
        a = rand_poly(rng, XST, 5, 3)
        b = rand_poly(rng, XST, 4, 2)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        q = prod.try_divide(b)
        assert q is not None and q == a
        bumped = prod + MPoly(XST, {(0, 0, 0): 1})
        if bumped.try_divide(b) is not None:
            # only possible when b divides the bump itself, i.e. b constant
            assert b.is_constant()
