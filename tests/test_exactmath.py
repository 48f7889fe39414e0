"""Arithmetic kernel: polynomials, rational functions, series, nullspaces."""

import math
import random
import re
from fractions import Fraction

import pytest

from rookpaths import rookdata
from rookpaths.exactmath import (MPoly, PowerSeries, RatFun, clear_denominators, linear_nullspace,
                                 mpoly_gcd, mpoly_lcm, multiplicity, poly, ratfun, root_values, strip_content)
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


def test_frac_gcd_with_a_zero_side():
    # the general formula covers a zero side: frac_gcd(0, b) = frac_gcd(b, 0) = |b|
    for b in (Fraction(-5, 6), Fraction(3, 4), Fraction(7), -2):
        assert mpoly_module.frac_gcd(Fraction(0), b) == abs(b)
        assert mpoly_module.frac_gcd(b, 0) == abs(b)
    assert mpoly_module.frac_gcd(Fraction(0), Fraction(0)) == 0


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


def test_division_and_content_match_sympy():
    # the integer kernel: try_divide on packed exponents, primitive_part and
    # scaling by a Fraction, against sympy's div and primitive in 0 to 3
    # variables; exponents 2^k - 1 and 2^k sit at the packed fields' boundaries
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))
    exps = st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16])

    @st.composite
    def operands(draw):
        vars = XST[:draw(st.integers(0, 3))]
        polys = st.dictionaries(st.tuples(*[exps] * len(vars)), coeffs, max_size=4).map(
            lambda terms: MPoly(vars, terms))
        return vars, draw(polys), draw(polys), draw(polys)

    def to_sympy(p):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(terms or {(0,) * len(p.vars): 0}, *sympy.symbols(p.vars),
                                    domain=sympy.QQ)

    def from_sympy(p, vars):
        return MPoly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms() if c})

    def demoted(p):
        return all(isinstance(c, int) or c.denominator > 1 for c in p.terms.values()) and all(p.terms.values())

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(operands(), st.fractions(-9, 9, max_denominator=7))
    @hypothesis.example((XST, poly("2*x^7*s^8", XST), poly("s^8*t-1/2", XST), poly("x^8", XST)), Fraction(-3, 2))
    @hypothesis.example((XST[:2], poly("x^7-2*s^8", XST[:2]), poly("-3/2", XST[:2]), poly("x^15", XST[:2])),
                        Fraction(5, 3))
    @hypothesis.example((XST, poly("x^15", XST), poly("x*s^16+t", XST), MPoly.zero(XST)), Fraction(1))
    @hypothesis.example(((), MPoly.const((), 3), MPoly.const((), Fraction(-2, 5)), MPoly.zero(())), Fraction(0))
    def check(case, scale):
        vars, a, b, q = case
        for p in (a, b):
            scaled = p * scale
            assert demoted(scaled)
            if vars:
                assert scaled == from_sympy(to_sympy(p) * sympy.Rational(scale.numerator, scale.denominator), vars)
                if p:
                    content, prim = to_sympy(p).primitive()
                    prim = from_sympy(prim, vars)
                    assert p.rational_content() == abs(Fraction(int(content.p), int(content.q)))
                    expected = prim if prim.leading_coeff() > 0 else -prim
                    assert p.primitive_part() == expected and demoted(p.primitive_part())
        if not b:
            return
        for dividend in (a, a * b, a * b + q):
            got = dividend.try_divide(b)
            if not vars:
                assert got == MPoly.const((), dividend.constant_value() / b.constant_value())
                continue
            quo, rem = sympy.div(to_sympy(dividend), to_sympy(b))
            if rem.is_zero:
                assert got == from_sympy(quo, vars) and demoted(got)
            else:
                assert got is None

    check()


def test_restricted_matches_the_exponent_tuple_route():
    # restricted re-packs keys straight onto the kept variables; the oracle goes through
    # exponent tuples and the constructor.  A live dropped variable and a kept tuple out
    # of canonical order still raise
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))
    exps = st.sampled_from([0, 1, 2, 3, 7, 8, 15, 16])

    @st.composite
    def cases(draw):
        keep = tuple(v for v in XST if draw(st.booleans()))
        monomials = st.tuples(*[exps if v in keep else st.just(0) for v in XST])
        return MPoly(XST, draw(st.dictionaries(monomials, coeffs, max_size=5))), keep

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((poly("x^15*t^16-3/2", XST), ("x", "t")))
    @hypothesis.example((poly("7", XST), ()))
    def check(case):
        p, keep = case
        index = [XST.index(v) for v in keep]
        got = p.restricted(keep)
        assert got.vars == keep
        assert got == MPoly(keep, {tuple(exp[i] for i in index): c for exp, c in p.terms.items()})
        assert got.with_vars(XST) == p
        for v in XST:
            if v not in keep:
                with pytest.raises(ValueError, match=f"cannot drop live variable {v!r}"):
                    (p + MPoly.var(XST, v)).restricted(keep)
        if len(keep) > 1:
            with pytest.raises(ValueError, match="canonical order"):
                p.restricted(keep[::-1])

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


MONOMIAL_CONTENT_CASES = {
    "pure-monomial": ("x^3*s^2", "x*s^5*(x+t)"),
    "pure-monomials": ("x^4*t", "x^2*s*t^3"),
    "shared-content": ("x^2*s^3*t*(x+s*t+1)*(x+s)", "x^4*s*t^2*(x+s*t+1)*(t-1)"),
    "content-and-q1": (f"x*s^2*({Q1_TEXT})", f"x^3*s*t*({Q1_TEXT})*(2*x-3)"),
    "exponent-near-200": ("x^199*s^2*(x+s)", "x^200*s*t*(x+s)*(x-t)"),
}


@pytest.mark.parametrize("path", ["heuristic", "prs"])
@pytest.mark.parametrize("name", MONOMIAL_CONTENT_CASES)
def test_gcd_with_monomial_content_matches_sympy(monkeypatch, name, path):
    # a monomial factor is read back from GCDHEU's digits like any other
    # factor, and the PRS fallback splits it off as content in each variable
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x s t")
    a, b = (poly(text, XST) for text in MONOMIAL_CONTENT_CASES[name])
    expected = sympy.gcd(sympy.sympify(a.text()), sympy.sympify(b.text()))
    expected = MPoly(XST, {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(expected, *gens).terms()})
    fallbacks = []
    if path == "prs":
        monkeypatch.setattr(mpoly_module, "_heu_gcd", lambda p, q: None)
    else:
        core = mpoly_module._gcd_core
        monkeypatch.setattr(mpoly_module, "_gcd_core", lambda p, q: fallbacks.append(1) or core(p, q))
    assert mpoly_gcd(a, b) == mpoly_gcd(b, a) == expected.primitive_part()
    assert not fallbacks


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


def test_derivative_divides_out_only_the_common_factor_of_g():
    # d/dt of (t+s)/(s*t): g = gcd(s*t, s) = s and N = -s, so only the v-free
    # factor s cancels, once, and the stored result is -1/t^2
    got = RatFun(poly("t+s", XST), poly("s*t", XST)).derivative("t")
    assert (got.num, got.den) == (poly("-1", XST), poly("t^2", XST))


def test_ratfun_derivative_matches_sympy_and_the_unsplit_quotient():
    # the derivative in each of x, s and t of n/d, d a product of factors with
    # multiplicities up to 3, some of them free of the variable, against sympy's
    # reduced quotient and against RatFun(n'd - nd', d^2); equality of RatFun is
    # identity of the stored parts, so a result that is not reduced fails too
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x s t")
    factors = st.sampled_from(["x", "s", "t", "s+1", "x-s", "t+s", "2*x-1", "s*t-x", "x^2+t", "t^2-s*x+3",
                               "x*s+t^2", "s^2+2"]).map(lambda text: poly(text, XST))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                            st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)),
                            max_size=4).map(lambda terms: MPoly(XST, terms))

    def to_sympy(p):
        return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                     for e, c in p.terms.items()} or {(0, 0, 0): 0},
                                    *gens, domain=sympy.QQ)

    def from_sympy(p):
        return MPoly(XST, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms() if c})

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=3),
                      st.integers(1, 5))
    def check(n, powers, c):
        d = MPoly.const(XST, c)
        for p, k in powers:
            d = d * p ** k
        f = RatFun(n, d)
        for v in XST:
            got = f.derivative(v)
            num, den = to_sympy(f.num), to_sympy(f.den)
            p, q = (num.diff(gens[XST.index(v)]) * den - num * den.diff(gens[XST.index(v)])).cancel(
                den ** 2, include=True)
            assert got == RatFun(from_sympy(p), from_sympy(q))
            old = f.num.derivative(v) * f.den - f.num * f.den.derivative(v)
            assert got == RatFun(old, f.den * f.den)

    check()


def test_lcm_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x s t")
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                            st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)),
                            max_size=3).map(lambda terms: MPoly(XST, terms))

    def to_sympy(p):
        return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                     for e, c in p.terms.items()} or {(0, 0, 0): 0},
                                    *gens, domain=sympy.QQ)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, polys)
    def check(a, b, g):
        a, b = a * g, b * g  # a shared factor, so that the lcm is not always the product
        if not (a and b):
            assert mpoly_lcm(a, b).is_zero()
            return
        want = MPoly(XST, {e: Fraction(int(c.p), int(c.q))
                           for e, c in to_sympy(a).lcm(to_sympy(b)).terms() if c}).primitive_part()
        assert mpoly_lcm(a, b) == want

    check()


def test_ratfun_with_a_constant_side_is_the_gcd_normalized_one():
    # RatFun(c, d) and RatFun(n, c) skip the gcd; the stored parts must be those
    # that dividing out mpoly_gcd(num, den) first gives
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scalars = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=5)).filter(bool)
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), scalars, max_size=4).map(
        lambda terms: MPoly(XST, terms))

    def gcd_normalized(num, den):
        g = mpoly_gcd(num, den)
        return RatFun(num.divide_exact(g), den.divide_exact(g), _reduced=True)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, scalars)
    def check(p, c):
        c = MPoly.const(XST, c)
        for num, den in ((p, c), (c, p)) if p else ((p, c),):
            got, want = RatFun(num, den), gcd_normalized(num, den)
            assert (got.num, got.den) == (want.num, want.den)

    check()


def test_canonical_text_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        n = rand_poly(rng, XST, 5, 3)
        d = rand_poly(rng, XST, 4, 2)
        if d.is_zero():
            continue
        r = RatFun(n, d)
        assert RatFun(*RatFun.parse_sides(r.text(), XST)) == r
        p = rand_poly(rng, XST, 5, 3)
        assert MPoly.parse(p.text(), XST) == p


def test_expression_reader_round_trips_canonical_text():
    # poly and ratfun read the canonical text back: fractional coefficients,
    # exponents at the packed field's cap, and reduced fractions over (x, s, t)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cap = mpoly_module.EXPONENT_CAP
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))

    def polys(exps, max_size):
        return st.dictionaries(st.tuples(*[exps] * 3), coeffs, max_size=max_size).map(lambda t: MPoly(XST, t))

    small = polys(st.integers(0, 3), 4)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(small, small.filter(bool), polys(st.sampled_from([0, 1, cap - 1, cap]), 3))
    @hypothesis.example(poly("-3/2*x^2*s + 1", XST), poly("2*t - 4/3", XST), poly("x^2147483647*t - 1/2", XST))
    def check(num, den, wide):
        for p in (num, den, wide):
            assert poly(p.text(), XST) == p
        for r in (RatFun(num, den), RatFun(wide, den) if den.is_constant() else RatFun(wide)):
            assert ratfun(r.text(), XST) == r

    check()


@pytest.mark.parametrize("reader, text", [
    (poly, "3/2*x + 0.5"),
    (poly, "abs(x)"),
    (poly, "x.real"),
    (poly, "y + 1"),
    (poly, "xs - 1"),
    (poly, "x^-1"),
    (poly, "x^(1+1)"),
    (poly, "x/(s+1)"),
    (poly, "(x+1)/0"),
    (ratfun, "x/s*t"),
    (ratfun, "(x+1)/(s"),
], ids=["float", "call", "attribute", "unknown-name", "multi-letter-name", "negative-exponent",
        "non-literal-exponent", "non-constant-divisor", "zero-divisor", "quotient-below-top",
        "syntax-error"])
def test_expression_reader_rejects_text_outside_its_grammar(reader, text):
    # only int literals, names in vars, + - * and ^ by an int literal, / by a
    # nonzero constant (and one top-level / in ratfun); the message names the text
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        reader(text, XST)


# -- substitution ----------------------------------------------------------------


def horner_oracle(p, name, repl):
    """p with the polynomial repl put for name, by plain Horner over p's coefficients."""
    acc = MPoly.zero(p.vars)
    for c in reversed(p.coeffs_in(name)):
        acc = acc * repl + c
    return acc


def test_ratfun_subs_matches_sympy():
    # one variable of (x, s, t) at a rational function, which may contain the
    # variable itself (as change_variable passes f(x) for x), against f with g put
    # for v in sympy's sparse field Q(x, s, t), whose arithmetic cancels as it goes;
    # a denominator vanishing there raises ZeroDivisionError
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.fields import field
    K, *gens = field(XST, QQ)
    coeffs = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), coeffs, max_size=4).map(
        lambda terms: MPoly(XST, terms))
    nonzero = polys.filter(bool)

    def to_field(p, v="x", g=gens[0]):
        """p in K with g put for the variable v: sum_k p_k g^k over its powers of v."""
        i, parts = XST.index(v), {}
        for e, c in p.terms.items():
            parts.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = QQ(c.numerator, c.denominator)
        return sum((K(K.ring.from_dict(part)) * (g ** k if k else 1) for k, part in parts.items()), K.zero)

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, nonzero, st.sampled_from(XST), polys, nonzero)
    @hypothesis.example(poly("x^2-x", XST), poly("x^3+2", XST), "x", poly("x+1/2", XST), poly("1", XST))
    @hypothesis.example(poly("x^2*s-x", XST), poly("x-s^2", XST), "x", poly("1", XST), poly("x", XST))
    @hypothesis.example(poly("1", XST), poly("t-x", XST), "t", poly("x", XST), poly("1", XST))
    @hypothesis.example(poly("x", XST), poly("s*t-x^2", XST), "t", poly("x^2", XST), poly("s", XST))
    def check(n, d, v, a, b):
        f, g = RatFun(n, d), RatFun(a, b)
        image = to_field(g.num) / to_field(g.den)
        sym_den = to_field(f.den, v, image)
        if sym_den == 0:
            with pytest.raises(ZeroDivisionError):
                f.subs(v, g)
            return
        got = f.subs(v, g)
        want = to_field(f.num, v, image) / sym_den
        assert to_field(got.num) / to_field(got.den) - want == 0
        assert RatFun(got.num, got.den) == got  # already normalized

    check()


def test_closed_form_map_into_the_gauss_coefficients():
    # the paper's pullback f = 27x(2-3x)/(1-4x)^3 put into x(1-x), checked by hand
    f = ratfun("27*x*(2-3*x)/(1-4*x)^3", X)
    got = ratfun("x*(1-x)", X).subs("x", f)
    assert got == f * (1 - f)
    assert got.den == poly("(1-4*x)^6", X)


def test_mpoly_subs_with_unit_denominator_is_horner():
    # den = 1, as an int or as the constant polynomial, is plain Horner
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))

    @st.composite
    def operands(draw):
        vars = XST[:draw(st.integers(1, 3))]
        polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(vars)), coeffs, max_size=5).map(
            lambda terms: MPoly(vars, terms))
        return draw(polys), draw(st.sampled_from(vars)), draw(polys)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(operands())
    @hypothesis.example((poly("n^4-3*n+1/2", ("n",)), "n", poly("n+7", ("n",))))
    def check(operands):
        p, v, repl = operands
        want = horner_oracle(p, v, repl)
        assert p.subs(v, repl, 1) == want
        assert p.subs(v, repl, MPoly.const(p.vars, 1)) == want

    check()


def test_mpoly_subs_is_homogenized():
    # den^D * p(num/den), D the degree in the variable: a constant den scales
    # coefficient e by den^(D-e), and a variable-free p comes back as it is
    p = poly("2*x^3*s-x+5", XST)
    assert p.subs("x", poly("t", XST), 3) == poly("2*t^3*s-9*t+135", XST)
    assert p.subs("t", poly("x^2", XST), poly("s", XST)) == p
    assert MPoly.zero(XST).subs("x", poly("s", XST), poly("t", XST)).is_zero()
    with pytest.raises(ValueError, match="variable mismatch"):
        p.subs("x", poly("x", X), 1)


def test_ratfun_subs_raises_on_a_vanishing_denominator():
    # the denominator vanishes identically there: ZeroDivisionError, which
    # _fix_gauge reads as a pole at t = r
    with pytest.raises(ZeroDivisionError):
        ratfun("1/(t-x)", XST).subs("t", ratfun("x", XST))
    with pytest.raises(ZeroDivisionError):
        ratfun("x/(s*t-x^2)", XST).subs("t", ratfun("x^2/s", XST))
    # a common factor cancels before the substitution, so this pole is removable
    assert ratfun("(t-x)/(t^2-x^2)", XST).subs("t", ratfun("x", XST)) == ratfun("1/(2*x)", XST)


# -- power series ---------------------------------------------------------------


def test_series_compose_identity():
    geom = PowerSeries.from_ratfun(ratfun("1/(1-x)", X), "x", 12)
    ident = ratfun("x", X)
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
    bad = ratfun("1", X)
    with pytest.raises(ValueError):
        outer.compose(bad)


def test_series_compose_respects_multiplication():
    rng = random.Random(10)
    for _ in range(10):
        f = PowerSeries("x", [Fraction(rng.randrange(-5, 6)) for _ in range(10)])
        g = PowerSeries("x", [Fraction(rng.randrange(-5, 6)) for _ in range(10)])
        # a polynomial map is exact mod x^10
        h = RatFun(MPoly(X, {(i,): rng.randrange(-3, 4) for i in range(1, 10)}))
        lhs = (f * g).compose(h)
        rhs = f.compose(h) * g.compose(h)
        assert lhs == rhs


def test_series_nth_root_examples_and_property():
    square = PowerSeries.from_ratfun(ratfun("(1+x)^2", X), "x", 10)
    assert square.power(Fraction(1, 2)).coeffs[:3] == [1, 1, 0]
    one = PowerSeries("x", [1] + [0] * 10)
    assert one.power(Fraction(1, 4)) == one
    g2 = PowerSeries.from_ratfun(ratfun("(1-4*x)*(1-60*x+120*x^2-64*x^3)", X), "x", 24)
    r = g2.power(Fraction(1, 4))
    assert math.prod([r] * 4) == g2
    rng = random.Random(11)
    for k in (2, 3, 5):
        p = PowerSeries("x", [1] + [Fraction(rng.randrange(-4, 5)) for _ in range(12)])
        assert math.prod([p.power(Fraction(1, k))] * k) == p


def test_series_nth_root_rejects_other_constant():
    with pytest.raises(ValueError):
        PowerSeries("x", [2, 1]).power(Fraction(1, 2))
    with pytest.raises(ValueError, match="constant term 1"):
        PowerSeries("x", [-1, 1, 1]).power(Fraction(-1, 4))


def test_series_power_matches_repeated_products():
    # integer exponents against repeated series products, constant terms other than 1 included
    rng = random.Random(12)
    for c0 in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 5)):
        p = PowerSeries("x", [c0] + [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                                     for _ in range(10)])
        one = PowerSeries("x", [1] + [0] * p.order)
        for alpha in range(-3, 4):
            product = math.prod([p] * abs(alpha), start=one)
            if alpha >= 0:
                assert p.power(alpha) == product
            else:
                assert p.power(alpha) * product == one


def test_series_fourth_root_radical_against_sympy():
    sympy = pytest.importorskip("sympy")
    order = 15
    x = sympy.Symbol("x")
    expansion = sympy.series((1 - sympy.Rational(8, 9) * x) ** sympy.Rational(-1, 4), x, 0,
                             order + 1).removeO()
    expected = [Fraction(str(expansion.coeff(x, n))) for n in range(order + 1)]
    radical = PowerSeries.from_ratfun(ratfun("(9-8*x)/9", X), "x", order).power(Fraction(-1, 4))
    assert radical.coeffs == expected


def test_series_product_matches_schoolbook_convolution():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # zeros, negatives, denominators up to 10^15 and some numerators scaled by 10^6
    coeffs = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10 ** 15).map(
        lambda q: q * 10 ** 6 if q.numerator % 2 else q))
    # long dense operands: every coefficient nonzero, numerators up to 53 bits
    dense = [Fraction((-1) ** k * (k * k + 7) ** 5, 3 ** (k % 7)) for k in range(40)]

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(coeffs, min_size=1, max_size=50), st.lists(coeffs, min_size=1, max_size=50))
    @hypothesis.example(dense, dense[::-1] + [Fraction(1, 10 ** 12)])
    def check(a, b):
        n = min(len(a), len(b))
        expected = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]
        product = PowerSeries("x", a) * PowerSeries("x", b)
        assert product.coeffs == expected
        assert (PowerSeries("x", b) * PowerSeries("x", a)).coeffs == expected

    check()


def test_series_compose_against_sympy():
    sympy = pytest.importorskip("sympy")
    order = 16
    x = sympy.Symbol("x")
    for f_text, g_text in (("(2-x)/(1+3*x^2)", "x*(1+2*x)/(3-5*x)"),
                           ("1/(1-x-7*x^3)", "(3*x-24*x^2)/(6+2*x)")):
        f, g = (sympy.sympify(t.replace("^", "**")) for t in (f_text, g_text))
        expansion = sympy.series(f.subs(x, g), x, 0, order + 1).removeO()
        expected = [Fraction(str(expansion.coeff(x, n))) for n in range(order + 1)]
        outer = PowerSeries.from_ratfun(ratfun(f_text, X), "x", order)
        inner = ratfun(g_text, X)
        assert outer.compose(inner).coeffs == expected


def test_series_compose_matches_horner_over_series_products():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def horner(outer, f):
        # the composition as Horner's rule over truncated series products; the
        # map expands by Miller's power recurrence, not by series division
        n = outer.order
        num, den = (PowerSeries("x", [p.terms.get((i,), 0) for i in range(n + 1)])
                    for p in (f.num, f.den))
        inner = num * den.power(-1)
        acc = PowerSeries("x", [0] * (n + 1))
        for c in reversed(outer.coeffs):
            acc = acc * inner + c
        return acc

    ints = st.integers(-9, 9)
    # D(0) not in {1, -1}, so powers of D(0) enter every coefficient
    d0 = st.integers(-12, 12).filter(lambda c: abs(c) > 1)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=25),
                      st.integers(1, 3), st.lists(ints, min_size=1, max_size=3).filter(any),
                      d0, st.lists(ints, max_size=3), st.integers(1, 3))
    @hypothesis.example([Fraction(1, k + 1) for k in range(20)], 3, [64, -64], 729,
                        [-1944, 1728, -512], 1)
    def check(outer, v, n_coeffs, d_const, d_coeffs, d_power):
        num = MPoly(X, {(v + i,): c for i, c in enumerate(n_coeffs)})
        den = MPoly(X, {(i,): c for i, c in enumerate([d_const] + d_coeffs)}) ** d_power
        f = RatFun(num, den)
        outer = PowerSeries("x", outer)
        assert outer.compose(f) == horner(outer, f)

    check()


def test_series_compose_rejects_other_maps():
    outer = PowerSeries.from_ratfun(ratfun("1/(1-x)", X), "x", 8)
    for bad in (ratfun("(1+x)/(1-x)", X), ratfun("x/y", ("x", "y")), ratfun("y", ("y",)),
                ratfun("x*s/(1-x)", ("x", "s"))):
        with pytest.raises(ValueError):
            outer.compose(bad)


def test_series_division_by_positive_valuation_rejected():
    with pytest.raises(ValueError, match="nonzero constant term"):
        PowerSeries.from_ratfun(ratfun("1/x", X), "x", 6)


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
    assert linear_nullspace([[1, 0, -1], [0, 2, -1]]) == [[2, 1, 2]]


def test_strip_content_divides_out_the_row_content():
    # under any keys, the polynomial gcd and the rational content go and the signs stay
    row = {("a", 1): poly("-3/5*(x-2)*x", X), ("b", 2): poly("6/5*(x-2)", X)}
    assert strip_content(row) == {("a", 1): poly("-x", X), ("b", 2): poly("2", X)}
    assert strip_content({0: poly("4", X), 1: poly("-6*x", X)}) == {0: poly("2", X), 1: poly("-3*x", X)}
    stripped = {0: poly("x+1", X), 1: poly("2*x", X)}
    assert strip_content(stripped) is stripped


def test_constant_nullspace_matches_sympy_and_polynomial_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    entries = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6))

    @st.composite
    def matrices(draw):
        ncols = draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
        # zero rows, repeated rows and combinations of earlier rows lower the rank
        for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "combination")), max_size=3)):
            if kind == "zero":
                rows.append([Fraction(0)] * ncols)
            elif kind == "repeat":
                rows.append(list(draw(st.sampled_from(rows))))
            else:
                a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entries)
                rows.append([p + c * q for p, q in zip(a, b)])
        return draw(st.permutations(rows))

    def canonical(vec):
        # cleared to integers of content 1, first nonzero entry positive
        vec = [Fraction(int(e.p), int(e.q)) for e in vec]
        den = math.lcm(*(e.denominator for e in vec))
        ints = [int(e * den) for e in vec]
        g = math.gcd(*ints) * (1 if next(e for e in ints if e) > 0 else -1)
        return [Fraction(e // g) for e in ints]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices())
    def check(rows):
        expected = [canonical(vec) for vec in sympy.Matrix(rows).nullspace()]
        assert linear_nullspace(rows) == expected  # plain numbers in, ints out
        assert all(type(e) is int for vec in linear_nullspace(rows) for e in vec)
        polynomial_path = linear_nullspace([[MPoly.const(X, e) for e in row] for row in rows])
        assert [[p.constant_value() for p in vec] for vec in polynomial_path] == expected
        assert all(p.is_constant() for vec in polynomial_path for p in vec)

    check()


@pytest.mark.parametrize("matrix", [
    [],
    [[]],
    [[poly("x", X), poly("1", X)], [poly("x", X)]],
    [[poly("x", X), MPoly.const(XST, 1)]],
    [[MPoly.const((), 1), 2]],
    [[MPoly.const((), 1), MPoly.const((), 2)]],
], ids=["no-rows", "empty-row", "ragged", "mixed-vars", "mpoly-and-number", "no-variables"])
def test_nullspace_rejects_malformed_matrix(matrix):
    with pytest.raises(ValueError):
        linear_nullspace(matrix)


def _at_sqrt2(p: MPoly) -> tuple[Fraction, Fraction]:
    """p(sqrt 2) as (u, v) with p(sqrt 2) = u + v*sqrt(2)."""
    u = v = Fraction(0)
    for (e,), c in p.terms.items():
        if e % 2:
            v += c * 2 ** (e // 2)
        else:
            u += c * 2 ** (e // 2)
    return u, v


def test_root_values_match_direct_evaluation():
    # G = prod (x - r)^k * (x^2 - 2): the values of a/b at the roots of G that are
    # rational are a(r)/b(r) at the rational roots r, plus the value at +-sqrt(2)
    # exactly when a/b is rational there (its two conjugate values then agree)
    rng = random.Random(26)
    for trial in range(60):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        G = poly("x^2-2", X) * rng.choice([1, -3, Fraction(1, 5)])
        for r in roots:
            G = G * MPoly(X, {(1,): r.denominator, (0,): -r.numerator}) ** rng.randint(1, 2)
        b = rand_poly(rng, X, 3, 3)
        while b.is_zero() or any(b.eval_full({"x": r}) == 0 for r in roots) or _at_sqrt2(b) == (0, 0):
            b = rand_poly(rng, X, 3, 3)
        # a constant h (at a nonconstant b too) and a zero a are the edge cases
        a = [MPoly.zero(X), b * Fraction(-7, 3), rand_poly(rng, X, 4, 5)][trial % 3]
        expected = {a.eval_full({"x": r}) / b.eval_full({"x": r}) for r in roots}
        (ua, va), (ub, vb) = _at_sqrt2(a), _at_sqrt2(b)
        if ua * vb == va * ub:
            expected.add(ua / ub if ub else va / vb)
        assert root_values(a, b, G) == sorted(expected), (a, b, G)


def test_multiplicity_returns_the_cofactor():
    p = poly("(x-1)^3*(x+2)", X)
    assert multiplicity(p, poly("x-1", X)) == (3, poly("x+2", X))
    assert multiplicity(p, poly("2*x-2", X)) == (3, poly("x+2", X) * Fraction(1, 8))
    assert multiplicity(p, poly("x", X)) == (0, p)


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

    check()


# -- packed monomial keys ------------------------------------------------------------

CAP = mpoly_module.EXPONENT_CAP


def sympy_ring(vars):
    """sympy's sparse ring in grlex over vars reversed, plus an unused last
    generator: its term order is then MPoly's, and 0 variables need no case."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring
    return ring(",".join([*reversed(vars), "unused"]), sympy.QQ, grlex)[0]


def to_ring(p, R):
    return R.from_dict({(*reversed(e), 0): R.domain(c.numerator, c.denominator) for e, c in p.terms.items()})


def from_ring(f, vars):
    return MPoly(vars, {tuple(reversed(m[:-1])): Fraction(int(c.numerator), int(c.denominator))
                        for m, c in f.terms()})


def assert_views_match_ring(p, R, values):
    # leading coefficient, degrees, derivatives, substitution and canonical
    # text of one polynomial against sympy's sparse ring
    f = to_ring(p, R)
    assert MPoly(p.vars, dict(p.terms)) == p and len(p.terms) == len(f)
    assert p.is_constant() == (f.is_ground or not f)
    if p:
        assert p.leading_coeff() == f.LC
        assert p.total_degree() == max(map(sum, f.monoms()))
    gens = dict(zip(reversed(p.vars), R.gens))
    for v in p.vars:
        assert p.degree(v) == max(f.degree(gens[v]), 0)
        assert p.derivative(v) == from_ring(f.diff(gens[v]), p.vars)
    at = f.subs([(gens[v], R.domain(c.numerator, c.denominator)) for v, c in values.items()]) if values else f
    assert p.eval_at(values).with_vars(p.vars) == from_ring(at, p.vars)
    assert p.eval_at(values).vars == tuple(v for v in p.vars if v not in values)
    assert MPoly.parse(p.text(), p.vars) == p
    # text lists the terms in descending order, as sympy's terms() does
    order = [next(iter(MPoly.parse(chunk, p.vars).terms)) for chunk in p.text().split(" + ")] if p else []
    assert order == [tuple(reversed(m[:-1])) for m in f.monoms()]


@pytest.fixture(scope="module")
def kernel_strategies():
    pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))

    def operands(exps, values):
        @st.composite
        def draw_operands(draw):
            vars = XST[:draw(st.integers(0, 3))]
            polys = st.dictionaries(st.tuples(*[exps] * len(vars)), coeffs, max_size=4).map(
                lambda terms: MPoly(vars, terms))
            point = draw(st.dictionaries(st.sampled_from(vars), values, max_size=len(vars))) if vars else {}
            return vars, draw(polys), draw(polys), point
        return draw_operands()

    return st, operands


def test_packed_keys_match_sympy_at_the_exponent_cap(kernel_strategies):
    # exponents at the cap: round trips, views and products, where a product
    # over the cap and a monomial one over it both raise ValueError naming it
    hypothesis = pytest.importorskip("hypothesis")
    st, operands = kernel_strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(operands(st.sampled_from([0, 1, 2, CAP - 1, CAP]), st.sampled_from([-1, 0, 1])))
    # a product that lands on the cap, and one that passes it
    @hypothesis.example((XST, poly("x^2147483646*t^2-s", XST), poly("3/2*x-s^2147483646", XST), {"t": -1}))
    @hypothesis.example((XST[:1], poly("x^2147483647", XST[:1]), poly("x", XST[:1]), {}))
    def check(operands):
        vars, a, b, point = operands
        R = sympy_ring(vars)
        for p in (a, b):
            assert_views_match_ring(p, R, point)
        if a and b and any(a.degree(v) + b.degree(v) > CAP for v in vars):
            with pytest.raises(ValueError, match=str(CAP)):
                a * b
        else:
            assert a * b == from_ring(to_ring(a, R) * to_ring(b, R), vars)
        for i in range(len(vars)):
            with pytest.raises(ValueError, match=str(CAP)):
                MPoly(vars, {tuple(CAP + (j == i) for j in range(len(vars))): 1})

    check()


def test_kernel_matches_sympy_in_packed_keys(kernel_strategies):
    # small exponents: products, gcd, coefficients in a variable and the
    # views, with rational substitution values
    hypothesis = pytest.importorskip("hypothesis")
    st, operands = kernel_strategies
    # dense integer operands in (x, s, t) with 27 * 27 = 729 term pairs
    cube = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    dense_a = MPoly(XST, {e: (-1) ** sum(e) * (10 ** 6 * sum(e) ** 3 + 1) for e in cube})
    dense_b = MPoly(XST, {e: 7 * e[0] - 5 * e[1] + 3 * e[2] + 11 for e in cube})

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(operands(st.integers(0, 3), st.fractions(-3, 3, max_denominator=3)),
                      st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4), max_size=3))
    @hypothesis.example((XST, dense_a, dense_b, {"s": Fraction(1, 2)}), {(1, 0, 1): 2, (0, 0, 0): -3})
    def check(operands, shared):
        vars, a, b, point = operands
        R = sympy_ring(vars)
        g = MPoly(vars, {e[:len(vars)]: c for e, c in shared.items()})
        for p in (a, b, g):
            assert_views_match_ring(p, R, point)
        prod = from_ring(to_ring(a, R) * to_ring(b, R), vars)
        assert a * b == prod
        fa, fb = a * g, b * g
        ref = from_ring(to_ring(fa, R).gcd(to_ring(fb, R)), vars).primitive_part()
        assert mpoly_gcd(fa, fb) == ref
        gens = dict(zip(reversed(vars), R.gens))
        for v in vars:
            f = to_ring(a, R)
            assert a.coeffs_in(v) == [from_ring(f.coeff_wrt(gens[v], k), vars) for k in range(a.degree(v) + 1)]

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
