"""Acceptance suite: every criterion with its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion including wall-clock timing.
"""

import time
from fractions import Fraction as Fr

import pytest

from rookpaths import rookdata
from rookpaths.diagonal import expand_diagonal
from rookpaths.exactmath import MPoly, RatFun, poly, ratfun
from rookpaths.hypergeom import (HypergeomSpec, SING_POINTS, asymptotics_check,
                                 closed_form_check, identity_checks, local_exponents,
                                 pullback_search, symbolic_solution_check)
from rookpaths.numerics import decimal_str
from rookpaths.ore import diffop_to_rec, guess_rec, prove_rec_reduction, rec_unroll
from rookpaths.telescope import (Ansatz, lipshitz_bounds, stage_a_search, stage_b_search,
                                 stage_c_reconstruct, verify_key_equation)
from rookpaths.walks import QUEEN, ROOK, SeqTable, diagonal_sequence, queens_dominant_root, step_generating_function

X = ("x",)
XS = ("x", "s")
XST = ("x", "s", "t")

ROOK_TERMS = [1, 6, 222, 9918, 486924, 25267236, 1359631776, 75059524392, 4223303759148]
QUEEN_TERMS = [1, 13, 638, 41476, 3015296, 232878412, 18691183682, 1540840801552]


class _Stopwatch:
    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        limit = f", budget {self.budget:.0f}s" if self.budget else ""
        print(f"criterion {self.number:2d} {status}: {self.label} ({elapsed:.1f}s{limit})")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


def test_criterion_01_sequence_reproduction():
    with _Stopwatch(1, "rook and queen diagonal sequences", budget=5):
        assert diagonal_sequence(ROOK, 8).terms == ROOK_TERMS
        assert diagonal_sequence(QUEEN, 7).terms == QUEEN_TERMS


def test_criterion_02_oracle_equivalence():
    with _Stopwatch(2, "series diagonal equals DP oracle to n=12", budget=30):
        gf = step_generating_function(ROOK)
        assert expand_diagonal(gf, 12).terms == diagonal_sequence(ROOK, 12).terms


def test_criterion_03_stage_a(rook_f):
    with _Stopwatch(3, "stage A reproduces both reference certificates", budget=10):
        certs = stage_a_search(rook_f, 1)
        certs += stage_a_search(rook_f, 2, Ansatz(support=((0, 0), (1, 0), (2, 0))))
        assert len(certs) == 2
        op1, op2 = certs[0].operator, certs[1].operator
        assert op1.coeff((0, 0)) == RatFun(poly("2*(s-1)*(3*s^2-6*s+2)", XS))
        assert op1.coeff((1, 0)) == RatFun(poly(
            "6*x*s^3-2*s^3-10*x*s^2+s^2-4*x^2*s+10*x*s+3*x^2-4*x", XS))
        assert op1.coeff((0, 1)) == RatFun(poly("2*s*(3*s-2)*(s-1)^2", XS))
        assert certs[0].phi == ratfun(
            "(0-1)*t*(s-1)*(-6*x*s^2+6*s^2*t-s^2+11*x*s-9*s*t-4*x-x*t+4*t)/(t-x)", XST)
        assert op2.coeff((0, 0)).is_zero()
        assert op2.coeff((1, 0)) == RatFun(poly(
            "-2*(-19*s^2-9*x+13*s^3+7*s-16*x*s^2+24*x*s)", XS))
        assert op2.coeff((2, 0)) == RatFun(rookdata.disc_t_q1().aligned(XS))
        assert certs[1].phi == ratfun(
            f"(0-1)*t*(3*s-2)*(s-1)*(2*s^2-4*s*t-s+3*t)*(s-t)^2/((t-x)*({rookdata.Q1_TEXT}))",
            XST)
        assert all(c.verify(rook_f).passed for c in certs)


def test_criterion_04_stage_b(stage_a_certs):
    with _Stopwatch(4, "stage B: none below order 3, reference values at order 3", budget=15):
        P1, P2 = stage_a_certs[0].operator, stage_a_certs[1].operator
        assert stage_b_search(P1, P2, 1) is None
        assert stage_b_search(P1, P2, 2) is None
        result = stage_b_search(P1, P2, 3)
        assert result is not None
        P, Q = result
        assert P.coeff((0,)).is_zero()
        assert P.coeff((1,)) == RatFun(poly("4*(576*x^3-801*x^2-108*x+74)", X))
        assert P.coeff((2,)) == RatFun(poly("4608*x^4+813*x^2-6372*x^3+514*x-4", X))
        assert P.coeff((3,)) == RatFun(poly("x*(x-1)*(64*x-1)*(3*x-2)*(6*x+1)", X))
        gamma = Q.coeff((1, 0)).num
        assert (gamma.degree("x"), gamma.degree("s")) == (5, 7)


def test_criterion_05_stage_c_and_key_equation(stage_a_certs, stage_b_result, rook_f):
    with _Stopwatch(5, "stage C shapes and exact key equation", budget=600):
        P, Q = stage_b_result
        cert = stage_c_reconstruct(P, Q, stage_a_certs, rook_f)
        q1, disc = rookdata.q1(), rookdata.disc_t_q1()
        s_den = poly("2*s*t", XST) * q1 ** 2 * disc
        assert cert.S.den in (s_den, -s_den)
        U = cert.S.num.try_divide(poly("s-t", XST))
        assert U is not None and tuple(U.degree(v) for v in XST) == (5, 8, 3)
        t_den = poly("2*s^2", XST) * q1 ** 3 * disc ** 2
        assert cert.T.den in (t_den, -t_den)
        V = cert.T.num.try_divide(poly("s-t", XST))
        assert V is not None and tuple(V.degree(v) for v in XST) == (8, 14, 5)
        report = verify_key_equation(cert, rook_f)
        assert report.passed and report.residual.is_zero()


def test_criterion_06_order4_recurrence(final_certificate, dp40):
    with _Stopwatch(6, "telescoper translates to the reference order-4 recurrence"):
        rec = diffop_to_rec(final_certificate.P)
        target = rookdata.recurrence_order4().normalized()
        assert rec.terms.keys() == target.terms.keys()
        for j in rec.terms:
            assert rec.terms[j] == target.terms[j]
        unrolled = rec_unroll(rec, SeqTable("rook", dp40.terms[:4], "dp"), 40)
        assert unrolled.terms == dp40.terms


def test_criterion_07_order3_recurrence(dp40):
    with _Stopwatch(7, "order-3 recurrence guessed and proved"):
        found = guess_rec(SeqTable("rook", dp40.terms[:25], "dp"), 3, 4)
        assert len(found) == 1
        assert found[0] == rookdata.recurrence_order3().normalized()
        report = prove_rec_reduction(
            rookdata.recurrence_order4(), rookdata.recurrence_order3(),
            rookdata.reduction_multiplier(), rookdata.reduction_cofactor())
        assert report.passed and report.residual.is_zero()
        assert set(report.base_cases) == set(range(3, 11))
        assert all(v == 0 for v in report.base_cases.values())


def test_criterion_08_closed_form():
    with _Stopwatch(8, "closed form: symbolic proof and series check to n=30", budget=5):
        spec = HypergeomSpec(*rookdata.closed_form_parameters())
        symbolic = symbolic_solution_check(
            rookdata.operator_p2(), rookdata.closed_form_prefactor(), spec,
            rookdata.closed_form_pullback())
        assert symbolic.passed
        assert closed_form_check(30).passed


def test_criterion_09_pullback_discovery():
    with _Stopwatch(9, "pullback search finds the reference map", budget=3):
        candidates = pullback_search(SING_POINTS, (Fr(0), Fr(0), Fr(1, 3)), 6)
        match = [c for c in candidates if c.constant == Fr(-81, 64)]
        assert len(match) == 1
        cand = match[0]
        assert cand.exponents == {Fr(0): 1, Fr(1): -2, Fr(1, 64): -1, Fr(2, 3): 1}
        assert cand.simplified_map() == rookdata.closed_form_pullback()


def test_criterion_10_singularity_analysis():
    with _Stopwatch(10, "singular points of the closed-form operator"):
        report = local_exponents(rookdata.operator_p2())
        non_removable = set(map(str, report.non_removable()))
        assert non_removable == {"0", "1", "1/64", "2/3", "inf"}
        for loc in report.non_removable():
            assert report.at(loc).klass == "logarithmic"
        assert report.at(Fr(-1, 6)).klass == "removable"


def test_criterion_11_counting_bounds():
    with _Stopwatch(11, "counting-argument sizes"):
        report = lipshitz_bounds()
        assert report.raw_N == 425
        assert report.raw_unknowns == 1_391_641_251
        assert report.refined_N == 36
        assert (report.refined_rows, report.refined_cols) == (8917, 9139)


def test_criterion_12_asymptotics():
    with _Stopwatch(12, "asymptotic constant via recurrence unrolling", budget=5):
        report = asymptotics_check(2000, Fr(1, 100))
        assert report.gauss_digits_ok and "[>=10 digits]" in report.lines()[0]
        assert report.ratio_error < Fr(1, 100)
        assert report.growth_ratio_ok


def test_criterion_13_identity_suite():
    with _Stopwatch(13, "series identities at orders 30/30/25", budget=5):
        reports = identity_checks(order=30, beukers_order=25)
        by_name = {r.check: r for r in reports}
        assert by_name["contiguity"].passed and by_name["contiguity"].order == 30
        assert by_name["quartic-pullback"].passed and by_name["quartic-pullback"].order == 30
        assert by_name["alternative-form"].passed and by_name["alternative-form"].order == 25


def test_excluded_scale_substitute_queens_root():
    # the stated desk-scale substitute for the queens guessing computation
    report = queens_dominant_root()
    assert decimal_str(report.normalized_root, 4) == "0.2185"
    assert decimal_str(report.normalized_root_cubed, 4) == "0.0104"
