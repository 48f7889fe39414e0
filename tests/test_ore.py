"""Ore operators: products, translation, unrolling, guessing, reduction."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from rookpaths import rookdata
from rookpaths.exactmath import MPoly, PowerSeries, RatFun, poly, ratfun
from rookpaths.hypergeom import HypergeomSpec, symbolic_solution_check
from rookpaths.ore import (DiffOp, IdentityReport, InsufficientTermsError, RecOp, SingularRecurrenceError,
                           diffop_to_rec, guess_rec, prove_rec_reduction, rec_unroll, unrolled_terms)
from rookpaths.telescope import Certificate, verify_key_equation
from rookpaths.walks import ROOK, SeqTable, diagonal_sequence

X = ("x",)
N = ("n",)


def rand_diffop(rng, max_order=2, max_deg=2):
    terms = {}
    for k in range(rng.randrange(1, max_order + 2)):
        p = {(e,): rng.randrange(-4, 5) for e in range(max_deg + 1)}
        mp = MPoly(X, p)
        if not mp.is_zero():
            terms[(k,)] = RatFun(mp)
    return DiffOp(X, X, terms) if terms else DiffOp.identity(X, X)


def rand_recop(rng, max_order=2, max_deg=2):
    terms = {}
    for j in range(rng.randrange(1, max_order + 2)):
        p = {(e,): rng.randrange(-4, 5) for e in range(max_deg + 1)}
        mp = MPoly(N, p)
        if not mp.is_zero():
            terms[j] = mp
    return RecOp(terms) if terms else RecOp({0: 1})


# -- products -------------------------------------------------------------------


def test_dx_times_x_is_leibniz():
    dx = DiffOp.partial(X, X, "x")
    xop = DiffOp(X, X, {(0,): poly("x", X)})
    prod = dx * xop
    assert prod.coeff((0,)) == ratfun("1", X)
    assert prod.coeff((1,)) == ratfun("x", X)


def test_shift_times_n():
    sigma = RecOp({-1: 1})  # forward shift
    n_mult = RecOp({0: poly("n", N)})
    prod = sigma * n_mult
    assert prod.terms == {-1: poly("n+1", N)}


def test_operator_product_associativity():
    rng = random.Random(31)
    for _ in range(8):
        a, b, c = (rand_diffop(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    for _ in range(8):
        a, b, c = (rand_recop(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


# -- application ------------------------------------------------------------------


def test_apply_derivative_to_geometric():
    dx = DiffOp.partial(X, X, "x")
    assert dx.apply_ratfun(ratfun("1/(1-x)", X)) == ratfun("1/((1-x)^2)", X)


def test_stage_a_identity_on_f(rook_f, stage_a_certs):
    p1 = stage_a_certs[0]
    lhs = p1.operator.apply_ratfun(rook_f)
    rhs = (p1.phi * rook_f).derivative("t")
    assert (lhs - rhs).is_zero()


def test_telescoper_annihilates_series(dp40):
    op = rookdata.operator_p2_dx()
    series = PowerSeries("x", [Fraction(t) for t in dp40.terms])
    assert not any(op.apply_series(series).coeffs)


# -- ODE <-> recurrence --------------------------------------------------------------


def test_translate_exponential():
    em = DiffOp(X, X, {(1,): poly("1", X), (0,): poly("-1", X)})
    rec = diffop_to_rec(em)
    assert rec == RecOp({0: poly("n", N), 1: -1})


def test_translate_euler_operator():
    eu = DiffOp(X, X, {(1,): poly("x", X)})
    assert diffop_to_rec(eu) == RecOp({0: poly("n", N)})


def test_translate_telescoper_gives_order4_recurrence():
    rec = diffop_to_rec(rookdata.operator_p2_dx())
    assert rec == rookdata.recurrence_order4().normalized()


def test_translate_apply_consistency():
    # Unrolling the translated recurrence produces a series the ODE kills,
    # and perturbing one term breaks it.
    rng = random.Random(32)
    produced = 0
    while produced < 6:
        op = rand_diffop(rng)
        if op.order() == 0:
            continue
        rec = diffop_to_rec(op)
        values = _solution_for_every_n(rec, rng, 25)
        if values is None or all(v == 0 for v in values):
            continue
        series = PowerSeries("x", values)
        assert not any(op.apply_series(series).coeffs)
        bumped_vals = list(values)
        bumped_vals[12] += 1
        assert any(op.apply_series(PowerSeries("x", bumped_vals)).coeffs)
        produced += 1


def _solution_for_every_n(rec, rng, length):
    """Coefficient sequence satisfying the recurrence for every n >= 0."""
    q0 = rec.coeff(0)
    values = []
    for n in range(length):
        rhs = Fraction(0)
        for j, q in rec.terms.items():
            if j and n - j >= 0:
                rhs += q.eval_full({"n": n}) * values[n - j]
        lead = q0.eval_full({"n": n})
        if lead != 0:
            values.append(-rhs / lead)
        elif rhs == 0:
            values.append(Fraction(rng.randrange(-5, 6)))
        else:
            return None
    return values


def test_rec_unroll_short_recurrence():
    seq = rec_unroll(rookdata.recurrence_order3(), SeqTable("rook", [1, 6, 222], "dp"), 8)
    assert seq.terms == [1, 6, 222, 9918, 486924, 25267236, 1359631776, 75059524392,
                         4223303759148]
    assert seq.provenance == "recurrence"


def test_rec_unroll_order4_matches_dp(dp40):
    seq = rec_unroll(rookdata.recurrence_order4(), SeqTable("rook", dp40.terms[:4], "dp"), 40)
    assert seq.terms == dp40.terms


def test_rec_unroll_reports_singular_index():
    # leading coefficient n-2 vanishes at the first unrolled index
    rec = RecOp({0: poly("n-2", N), 1: 1})
    with pytest.raises(SingularRecurrenceError) as err:
        rec_unroll(rec, SeqTable("t", [1, 1], "dp"), 6)
    assert err.value.index == 2


def test_rec_unroll_reports_non_integer_index():
    # n u_n = u_(n-1) from u_0 = 1 gives 1/n!, first non-integer at n = 2
    rec = RecOp({0: poly("n", N), 1: -1})
    with pytest.raises(ArithmeticError, match="n=2;"):
        rec_unroll(rec, SeqTable("t", [1], "dp"), 6)


def test_rec_unroll_truncates_a_long_initial_table():
    # more initial terms than asked for come back as they are; exactly enough are unrolled
    order3 = rookdata.recurrence_order3()
    seq = rec_unroll(order3, SeqTable("rook", [1, 6, 222, 9918], "dp"), 2)
    assert (seq.terms, seq.provenance) == ([1, 6, 222], "dp")
    seq = rec_unroll(order3, SeqTable("rook", [1, 6, 222], "dp"), 2)
    assert (seq.terms, seq.provenance) == ([1, 6, 222], "recurrence")


@pytest.mark.parametrize("rec, initial, n_max, error, streamed", [
    (rookdata.recurrence_order3(), [1, 6], 0, "need at least 3 initial terms", 0),
    (rookdata.recurrence_order3(), [1, 6, 222], -1, "n_max must be >= 0", 0),
    (rookdata.recurrence_order3(), [1, Fraction(1, 2), 222], 8, "non-integer term at n=1;", 0),
    (RecOp({0: poly("n-2", N), 1: 1}), [1, 1], 6, "vanishes at index 2", 2),
    (RecOp({0: poly("n", N), 1: -1}), [1], 6, "non-integer term at n=2;", 2),
], ids=["short-initial-table", "negative-n", "non-integer-initial-term", "singular", "non-integer-term"])
def test_unrolled_terms_fail_where_rec_unroll_fails(rec, initial, n_max, error, streamed):
    # a short initial table fails before the truncated early return, a bad initial
    # term before any term streams out, and the unroll at the index it reports
    with pytest.raises((ValueError, ArithmeticError), match=error) as whole:
        rec_unroll(rec, SeqTable("t", initial, "dp"), n_max)
    terms = []
    with pytest.raises(type(whole.value), match=error):
        for t in unrolled_terms(rec, SeqTable("t", initial, "dp"), n_max):
            terms.append(t)
    assert len(terms) == streamed


def test_diffop_normalized_strips_polynomial_content_and_fixes_the_sign():
    # every coefficient shares (x-1) and, once cleared of the denominator x+1,
    # the factor 2; the top coefficient comes out negative and is flipped
    op = DiffOp(X, X, {(2,): ratfun("-2*x*(x-1)", X), (1,): ratfun("4*(x-1)", X),
                       (0,): ratfun("6*(x-1)/(x+1)", X)})
    expected = DiffOp(X, X, {(2,): ratfun("x^2+x", X), (1,): ratfun("-2*x-2", X),
                             (0,): ratfun("-3", X)})
    assert op.normalized() == expected
    assert expected.normalized() == expected
    scaled = DiffOp(X, X, {e: c * ratfun("-7/(x+5)", X) for e, c in op.terms.items()})
    assert scaled.normalized() == expected


# -- guessing ----------------------------------------------------------------------


def test_guess_recovers_short_recurrence(dp40):
    found = guess_rec(SeqTable("rook", dp40.terms[:25], "dp"), 3, 4)
    assert len(found) == 1
    assert found[0] == rookdata.recurrence_order3().normalized()


def test_guess_geometric():
    seq = SeqTable("geom", [2 ** n for n in range(10)], "dp")
    found = guess_rec(seq, 1, 0)
    assert found == [RecOp({0: 1, 1: -2})]


def test_guess_no_second_order_recurrence(dp40):
    assert guess_rec(SeqTable("rook", dp40.terms[:20], "dp"), 2, 6) == []


def test_guess_insufficient_terms():
    with pytest.raises(InsufficientTermsError):
        guess_rec(SeqTable("short", [1, 2, 3], "dp"), 3, 2)


def test_guess_degree_is_the_largest_feasible(monkeypatch, dp40):
    # the degree is read off in closed form: a huge bound costs nothing, and
    # each case gets the degree the countdown over max_degree..0 would pick
    from rookpaths import ore
    seq = SeqTable("rook", dp40.terms[:25], "dp")
    assert guess_rec(seq, 3, 10 ** 18) == guess_rec(seq, 3, 4)
    widths = []
    nullspace = ore.linear_nullspace
    monkeypatch.setattr(ore, "linear_nullspace", lambda rows: widths.append(len(rows[0])) or nullspace(rows))
    for length, order, max_degree in itertools.product(range(1, 16), range(4), range(5)):
        seq = SeqTable("geom", [3 ** n for n in range(length)], "dp")
        rows = length - order
        feasible = [d for d in range(max_degree + 1) if (order + 1) * (d + 1) + 2 <= rows]
        if not feasible:
            with pytest.raises(InsufficientTermsError):
                guess_rec(seq, order, max_degree)
            continue
        guess_rec(seq, order, max_degree)
        assert widths[-1] == (order + 1) * (max(feasible) + 1)


def test_guess_validates_beyond_window(dp40):
    found = guess_rec(SeqTable("rook", dp40.terms[:25], "dp"), 3, 4)
    seq = rec_unroll(found[0], SeqTable("rook", dp40.terms[:3], "dp"), 40)
    assert seq.terms[26:] == dp40.terms[26:]


# -- order reduction proof -----------------------------------------------------------


def test_reduction_proof_passes():
    report = prove_rec_reduction(rookdata.recurrence_order4(), rookdata.recurrence_order3(),
                                 rookdata.reduction_multiplier(), rookdata.reduction_cofactor())
    assert report.passed
    assert report.residual.is_zero()
    assert set(report.base_cases) == set(range(3, 11))
    assert all(v == 0 for v in report.base_cases.values())


def test_reduction_proof_reads_only_the_base_case_prefix():
    # a longer table gives the same eight base cases; entries past them are never read
    dp = diagonal_sequence(ROOK, 10).terms
    report = prove_rec_reduction(rookdata.recurrence_order4(), rookdata.recurrence_order3(),
                                 rookdata.reduction_multiplier(), rookdata.reduction_cofactor(),
                                 SeqTable("rook", dp + [None] * 30, "dp"))
    assert report.passed
    assert set(report.base_cases) == set(range(3, 11))


def test_reduction_proof_identity_case():
    rec = rookdata.recurrence_order3()
    report = prove_rec_reduction(rec, rec, poly("1", N), RecOp({0: 1}))
    assert report.passed


def test_reduction_reports_do_not_share_default_base_cases():
    first, second = IdentityReport(True, RecOp({0: 1})), IdentityReport(True, RecOp({0: 1}))
    first.base_cases[3] = Fraction(0)
    assert second.base_cases == {} and IdentityReport(False, RecOp({0: 1})).base_cases == {}


def test_reduction_proof_detects_perturbation():
    bad_terms = dict(rookdata.recurrence_order3().terms)
    bad_terms[1] = bad_terms[1] + 1
    report = prove_rec_reduction(rookdata.recurrence_order4(), RecOp(bad_terms),
                                 rookdata.reduction_multiplier(), rookdata.reduction_cofactor())
    assert not report.passed
    assert not report.residual.is_zero()


def test_identity_checks_report_their_failure(final_certificate, rook_f):
    # the three exact-identity checks, each on one perturbed input, print FAIL and why
    text = json.dumps(final_certificate.to_json_dict())
    assert text.count('+ 296"') == 1
    bad_cert = Certificate.from_json_dict(json.loads(text.replace('+ 296"', '+ 297"')))
    assert str(verify_key_equation(bad_cert, rook_f)) == "FAIL: nonzero residual"
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    symbolic = symbolic_solution_check(rookdata.operator_p2(), rookdata.closed_form_prefactor() * ratfun("1+x", X),
                                       spec, rookdata.closed_form_pullback())
    assert str(symbolic).startswith("FAIL: remainder DiffOp(")
    reduction = prove_rec_reduction(rookdata.recurrence_order4(), rookdata.recurrence_order3(),
                                    rookdata.reduction_multiplier(), RecOp({0: 1, 1: 7}))
    assert str(reduction).startswith("FAIL: operator identity residual NONZERO")


# -- serialization ----------------------------------------------------------------


def test_operator_json_round_trip():
    op = rookdata.operator_p2()
    again = DiffOp.from_json_dict(op.to_json_dict())
    assert again == op
    rec = rookdata.recurrence_order3()
    again_rec = RecOp.from_json_dict(rec.to_json_dict())
    assert again_rec == rec


def test_apply_series_with_rational_coefficients():
    # (1/(1-x)) d/dx applied to exp-like series equals series/(1-x) term checks
    op = DiffOp(X, X, {(1,): ratfun("1/(1-x)", X)})
    geom = PowerSeries.from_ratfun(ratfun("1/(1-x)", X), "x", 12)
    got = op.apply_series(geom)
    expected = PowerSeries.from_ratfun(ratfun("1/((1-x)^3)", X), "x", 11)
    assert got == expected
    pole = DiffOp(X, X, {(1,): ratfun("1/x", X)})
    with pytest.raises(ValueError):
        pole.apply_series(geom)


# -- change of variable and right division -------------------------------------------


@pytest.mark.parametrize("f", ["x/(1-3*x)", "x*(2+5*x)", "closed-form"])
def test_change_variable_kills_the_composed_series(f):
    # y(f(x)) for y = 2F1(a, b; c; z) is killed by the Gauss operator in z = f(x)
    from rookpaths.hypergeom import HypergeomSpec, f21_series, gauss_operator
    f = rookdata.closed_form_pullback() if f == "closed-form" else ratfun(f, X)
    for spec in (HypergeomSpec(Fraction(1, 3), Fraction(2, 3), Fraction(2)),
                 HypergeomSpec(Fraction(1, 4), Fraction(3, 5), Fraction(3, 2))):
        L = gauss_operator(spec).change_variable(f)
        composed = f21_series(spec, 14).compose(f)
        assert not any(L.apply_series(composed).coeffs)


def test_change_variable_shift_round_trip():
    rng = random.Random(53)
    for _ in range(8):
        L = rand_diffop(rng, max_order=3)
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        there = L.change_variable(RatFun(MPoly(X, {(1,): 1, (0,): p})))
        assert there.change_variable(RatFun(MPoly(X, {(1,): 1, (0,): -p}))) == L


def test_change_variable_rejects_bad_input():
    xs = ("x", "s")
    with pytest.raises(ValueError, match="univariate"):
        DiffOp(xs, xs, {(1, 0): RatFun.from_scalar(1, xs)}).change_variable(ratfun("x", xs))
    with pytest.raises(ValueError, match="nonconstant"):
        DiffOp.partial(X, X, "x").change_variable(ratfun("3", X))


def _exponents(n, bound):
    return itertools.product(range(bound + 1), repeat=n)


def _rand_coeff(rng, vars):
    return RatFun(MPoly(vars, {e: rng.randrange(-4, 5) for e in _exponents(len(vars), 2)}))


@pytest.mark.parametrize("vars", [X, ("x", "s")], ids=["univariate", "x-s"])
def test_right_divide_recovers_quotient_and_remainder(vars):
    # A*B + R with no exponent of R dominating B's lead divides back to (A, R)
    from rookpaths.exactmath import monomial_key
    rng = random.Random(59)
    for _ in range(6):
        B = DiffOp(vars, vars, {e: _rand_coeff(rng, vars) for e in _exponents(len(vars), 2)
                                if sum(e) <= 2 and rng.random() < 0.7})
        if B.is_zero():
            continue
        lead = max(B.terms, key=monomial_key)
        A = DiffOp(vars, vars, {e: _rand_coeff(rng, vars) for e in _exponents(len(vars), 1)})
        R = DiffOp(vars, vars, {e: _rand_coeff(rng, vars) for e in _exponents(len(vars), 3)
                                if not all(a >= b for a, b in zip(e, lead))})
        assert (A * B + R).right_divide(B) == (A, R)


def test_recorded_base_combination_is_zero():
    assert rookdata.reduction_base_combination() == 0
