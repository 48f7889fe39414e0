"""The proof engine: parametrized solving, three stages, key equation."""

import hashlib
import inspect
from fractions import Fraction

import pytest

from rookpaths import rookdata, telescope
from rookpaths.cli import _dump_json
from rookpaths.diagonal import residue_embedding
from rookpaths.exactmath import MPoly, RatFun, poly, ratfun
from rookpaths.ore import DiffOp, diffop_to_rec, rec_unroll
from rookpaths.telescope import (Ansatz, Certificate, DivisionRemainderError, ParamSolution, ParamSystem,
                                 TelescopeError, _check_param_solution, _fix_gauge, _stage_b_solution_to_ops,
                                 lipshitz_bounds, solve_parametrized_system, stage_a_pair, stage_a_search,
                                 stage_b_search, stage_c_reconstruct, verify_key_equation)
from rookpaths.walks import ROOK, DirectionSet, SeqTable, diagonal_sequence, step_generating_function

X = ("x",)
XS = ("x", "s")
XST = ("x", "s", "t")


# -- parametrized solver -----------------------------------------------------------


def test_param_solver_trivial_system():
    zero = RatFun.from_scalar(0, X)
    sols = solve_parametrized_system(ParamSystem([[zero]], [[zero]], [MPoly.const(X, 1)], "x"), [0])
    # free parameter with y = 0, plus the constant homogeneous solution
    assert any(sol.y[0].is_zero() and not sol.e[0].is_zero() for sol in sols)
    for sol in sols:
        residual = sol.y[0].derivative("x")
        assert residual.is_zero()


def test_param_solver_verifies_solutions(rook_f):
    # first-iteration system at total order 1 keeps exactly one certificate
    F = rook_f
    f_t = F.derivative("t")
    A = [[f_t / F]]
    B = [[F / F, F.derivative("x") / F, F.derivative("s") / F]]
    dc = poly("t-x", XST)
    sols = solve_parametrized_system(ParamSystem(A, B, [dc], "t"), [3])
    assert sols  # verified internally; failure raises


def test_param_solver_rejects_a_non_solution(monkeypatch):
    # y' = e over Q(x): a solution (y, e) with e != 0 passes the exact re-check, the
    # same y with e doubled fails it, and the solver raises when it reads that pair back
    zero, one = (RatFun.from_scalar(c, X) for c in (0, 1))
    system = ParamSystem([[zero]], [[one]], [MPoly.const(X, 1)], "x")
    sol = next(s for s in solve_parametrized_system(system, [1]) if not s.e[0].is_zero())
    bad = ParamSolution(sol.z, sol.u, [sol.e[0] + sol.e[0]])
    assert _check_param_solution(system.A, system.B, sol, "x")
    assert not _check_param_solution(system.A, system.B, bad, "x")
    monkeypatch.setattr(telescope, "_solution_from_vector", lambda *args: bad)
    with pytest.raises(TelescopeError, match="parametrized solver produced a non-solution"):
        solve_parametrized_system(system, [1])


def _frozen(r: RatFun, point: dict) -> RatFun:
    e = r.eval_at(point)
    return RatFun(e.num.aligned(("s",)), e.den.aligned(("s",)))


@pytest.mark.parametrize("frozen", [False, True], ids=["exact", "screen"])
def test_param_solver_recovers_planted_solution(frozen):
    # lower-triangular 2x2 system in s with a coupling term A[1][0], two distinct
    # moving denominators, and B built from the planted y with e = (1, 2)
    u = [poly("s-x", XS), poly("s^2+x+1", XS)]
    y = [ratfun("(x*s+1)/(s-x)", XS), ratfun("(s^2-x)/(s^2+x+1)", XS)]
    A = [[ratfun("1/(s+1)", XS), RatFun.from_scalar(0, XS)],
         [ratfun("x/(s-x)", XS), RatFun(poly("s", XS))]]
    b0 = [ratfun("x/(s+1)", XS), RatFun(poly("s", XS))]
    rhs = [y[i].derivative("s") + A[i][0] * y[0] + A[i][1] * y[1] for i in range(2)]
    B = [[b0[i], (rhs[i] - b0[i]) / 2] for i in range(2)]
    if frozen:  # the screen's path: x at its first screening value, no exact re-check
        point = {"x": Fraction(7, 13)}
        A = [[_frozen(r, point) for r in row] for row in A]
        B = [[_frozen(r, point) for r in row] for row in B]
        u = [p.eval_at(point).aligned(("s",)) for p in u]
    sols = solve_parametrized_system(ParamSystem(A, B, u, "s"), [2, 2], verify=not frozen)
    assert any(not all(e.is_zero() for e in sol.e) for sol in sols)
    vars = A[0][0].vars
    for sol in sols:
        for i in range(2):
            acc = sol.y[i].derivative("s") + A[i][0] * sol.y[0] + A[i][1] * sol.y[1]
            for b, e in zip(B[i], sol.e):
                acc = acc - b * RatFun(e.with_vars(vars))
            assert acc.is_zero()


# -- stage A -----------------------------------------------------------------------


def test_stage_a_order1_matches_reference_values(stage_a_certs, rook_f):
    op = stage_a_certs[0].operator
    assert op.coeff((0, 0)) == RatFun(poly("2*(s-1)*(3*s^2-6*s+2)", XS))
    assert op.coeff((1, 0)) == RatFun(poly(
        "6*x*s^3-2*s^3-10*x*s^2+s^2-4*x^2*s+10*x*s+3*x^2-4*x", XS))
    assert op.coeff((0, 1)) == RatFun(poly("2*s*(3*s-2)*(s-1)^2", XS))
    phi = ratfun("(0-1)*t*(s-1)*(-6*x*s^2+6*s^2*t-s^2+11*x*s-9*s*t-4*x-x*t+4*t)/(t-x)", XST)
    assert stage_a_certs[0].phi == phi
    assert stage_a_certs[0].verify(rook_f).passed


def test_stage_a_order2_matches_reference_values(stage_a_certs, rook_f):
    op = stage_a_certs[1].operator
    assert op.coeff((0, 0)).is_zero()
    assert op.coeff((1, 0)) == RatFun(poly(
        "-2*(-19*s^2-9*x+13*s^3+7*s-16*x*s^2+24*x*s)", XS))
    assert op.coeff((2, 0)) == RatFun(rookdata.disc_t_q1().aligned(XS))
    phi = ratfun(
        f"(0-1)*t*(3*s-2)*(s-1)*(2*s^2-4*s*t-s+3*t)*(s-t)^2/((t-x)*({rookdata.Q1_TEXT}))", XST)
    assert stage_a_certs[1].phi == phi
    assert stage_a_certs[1].verify(rook_f).passed


def test_stage_a_order0_is_empty(rook_f):
    assert stage_a_search(rook_f, 0) == []


def test_stage_a_search_reads_no_reference_data(rook_f, stage_a_certs, monkeypatch):
    def forbidden():
        raise AssertionError("stage A read a reference transcription")

    monkeypatch.setattr(rookdata, "q1", forbidden)
    monkeypatch.setattr(rookdata, "disc_t_q1", forbidden)
    assert stage_a_search(rook_f, 0) == []
    certs = stage_a_search(rook_f, 1)
    assert len(certs) == 1
    assert certs[0].operator == stage_a_certs[0].operator
    assert certs[0].phi == stage_a_certs[0].phi


# -- stage B ------------------------------------------------------------------------


def test_stage_b_no_solution_below_order3(stage_a_certs):
    from rookpaths.telescope import stage_b_search
    assert stage_b_search(stage_a_certs[0].operator, stage_a_certs[1].operator, 2) is None


def test_stage_b_order3_matches_reference_values(stage_b_result):
    P, Q = stage_b_result
    assert P.coeff((0,)).is_zero()
    assert P.coeff((1,)) == RatFun(poly("4*(576*x^3-801*x^2-108*x+74)", X))
    assert P.coeff((2,)) == RatFun(poly("4608*x^4+813*x^2-6372*x^3+514*x-4", X))
    assert P.coeff((3,)) == RatFun(poly("x*(x-1)*(64*x-1)*(3*x-2)*(6*x+1)", X))
    assert Q.coeff((0, 0)) == ratfun("(53+108*x)*(3*s-2)*s/(s-1)", XS)
    phi1 = Q.coeff((1, 0))
    den_expected = poly("2*(s-1)^2", XS) * rookdata.disc_t_q1().aligned(XS)
    assert phi1.den in (den_expected, den_expected.primitive_part())
    # gamma has no closed reference form; its degrees do
    assert (phi1.num.degree("x"), phi1.num.degree("s")) == (5, 7)


def test_stage_b_rejects_non_triangular_system(stage_a_certs):
    from rookpaths.telescope import TelescopeError, stage_b_search
    # with P2 = d_x^2 + 1 the reduced system has A[0][1] = p0_x - p1 != 0
    p2 = DiffOp(XS, XS, {(2, 0): RatFun.from_scalar(1, XS), (0, 0): RatFun.from_scalar(1, XS)})
    with pytest.raises(TelescopeError, match="stage B"):
        stage_b_search(stage_a_certs[0].operator, p2, 2)


def test_stage_b_input_validation(stage_a_certs):
    from rookpaths.telescope import stage_b_search
    no_ds = DiffOp(XS, XS, {(1, 0): RatFun.from_scalar(1, XS)})
    with pytest.raises(ValueError):
        stage_b_search(no_ds, stage_a_certs[1].operator, 3)
    with pytest.raises(ValueError):
        stage_b_search(stage_a_certs[0].operator, stage_a_certs[0].operator, 3)


def test_stage_b_rejects_pair_outside_basis(stage_a_certs):
    # P1 + d_x^2 leads with d_x^2, so d_s survives the division by the pair
    P1, P2 = stage_a_certs[0].operator, stage_a_certs[1].operator
    dxx = DiffOp(XS, XS, {(2, 0): RatFun.from_scalar(1, XS)})
    with pytest.raises(ValueError, match=r"basis \(1, d_x\)"):
        stage_b_search(P1 + dxx, P2, 3)


@pytest.mark.parametrize("factor", ["-3/5*(x-2)", "-3/5"])
def test_canonical_block_strips_a_planted_factor(factor):
    # the block carries factor times a primitive block whose top coefficient is
    # positive, with a zero coefficient on the largest support exponent: P comes
    # out as the primitive block and Q as y/factor
    g = poly(factor, X)
    block = [poly("x^2+1", X), poly("-3*x", X), poly("2", X), MPoly.zero(X)]
    y = [ratfun("(x*s+1)/(s-x)", XS), ratfun("s/(x+3)", XS)]
    P, Q = _stage_b_solution_to_ops(ParamSolution([r.num for r in y], [RatFun(r.den) for r in y],
                                                  [g * p for p in block]), 3)
    assert P == DiffOp(X, X, {(i,): RatFun(p) for i, p in enumerate(block)})
    assert P.order() == 2
    gxs = RatFun(g.with_vars(XS))
    assert Q == DiffOp(XS, XS, {(0, 0): y[0] / gxs, (1, 0): y[1] / gxs})


@pytest.mark.parametrize("phi_text, fixed_text", [
    ("(t-x+(x+s)*(t-s))/(t-x)", "1"),  # 1 + (x+s)/F: the shift by x+s at t = x
    ("1/(t-s)^2", "1/(t-s)^2"),  # nothing to shift at t = x: phi comes back
], ids=["shifted-at-the-next-factor", "unchanged"])
def test_fix_gauge_tries_the_next_factor_past_a_pole(monkeypatch, phi_text, fixed_text):
    # F = (t-x)/(t-s): the t-linear factors come as t - s, then t - x.  phi*F
    # has a pole at t = s, so the first substitution raises and the next factor
    # is tried; the stage-A pairs never reach this branch
    F = ratfun("(t-x)/(t-s)", XST)
    outcomes = []
    subs = RatFun.subs

    def spy(self, name, value):
        try:
            out = subs(self, name, value)
        except ZeroDivisionError:
            outcomes.append((value, None))
            raise
        outcomes.append((value, out))
        return out
    monkeypatch.setattr(RatFun, "subs", spy)
    assert _fix_gauge(ratfun(phi_text, XST), F) == ratfun(fixed_text, XST)
    assert [value for value, _ in outcomes] == [ratfun("s", XST), ratfun("x", XST)]
    assert outcomes[0][1] is None and outcomes[1][1] is not None


# -- stage C ------------------------------------------------------------------------


def test_stage_c_division_quotient_constant_part(stage_b_result, stage_a_certs):
    P, Q = stage_b_result
    ds = DiffOp.partial(XS, XS, "s")
    R = DiffOp(XS, XS, {(i, 0): c.extend_vars(XS) for (i,), c in P.terms.items()}) - ds * Q
    A1, R1 = R.right_divide(stage_a_certs[0].operator)
    A2, R2 = R1.right_divide(stage_a_certs[1].operator)
    assert R2.is_zero()
    assert A1.coeff((0, 0)) == ratfun("(0-(108*x+53))/(2*(s-1)^3)", XS)
    # division invariant: A1 P1 + A2 P2 = P - ds Q exactly
    recombined = A1 * stage_a_certs[0].operator + A2 * stage_a_certs[1].operator
    assert recombined == R
    # quotient numerator degree claims
    g1 = A1.coeff((1, 0))
    assert (g1.num.degree("x"), g1.num.degree("s")) == (5, 7)
    g2 = A2.coeff((0, 0))
    assert (g2.num.degree("x"), g2.num.degree("s")) == (7, 10)


def test_certificate_shapes(final_certificate):
    cert = final_certificate
    q1 = rookdata.q1()
    disc = rookdata.disc_t_q1()
    s_den = poly("2*s*t", XST) * q1 ** 2 * disc
    assert cert.S.den in (s_den, -s_den)
    U = cert.S.num.try_divide(poly("s-t", XST))
    assert U is not None
    assert tuple(U.degree(v) for v in XST) == (5, 8, 3)
    t_den = poly("2*s^2", XST) * q1 ** 3 * disc ** 2
    assert cert.T.den in (t_den, -t_den)
    V = cert.T.num.try_divide(poly("s-t", XST))
    assert V is not None
    assert tuple(V.degree(v) for v in XST) == (8, 14, 5)


def test_certificate_telescoper_is_composition(stage_b_result):
    P, _ = stage_b_result
    assert P == rookdata.operator_p2_dx()


def test_verify_key_equation_passes(final_certificate, rook_f):
    report = verify_key_equation(final_certificate, rook_f)
    assert report.passed
    assert report.residual.is_zero()


def test_checks_leave_what_they_check_unchanged(final_certificate, stage_a_certs, rook_f):
    # a certificate not yet marked verified keeps its canonical text through two checks
    cert = Certificate(final_certificate.P, final_certificate.S, final_certificate.T,
                       stage_log=final_certificate.stage_log)

    def digest():
        return hashlib.sha256(_dump_json(cert.to_json_dict()).encode()).hexdigest()

    before = digest()
    for _ in range(2):
        assert verify_key_equation(cert, rook_f).passed
        assert digest() == before and not cert.verified
    assert all(c.verify(rook_f).passed and not hasattr(c, "verified") for c in stage_a_certs)


def test_verify_key_equation_detects_perturbation(final_certificate, rook_f):
    bad = Certificate(
        P=final_certificate.P,
        S=final_certificate.S,
        T=RatFun(final_certificate.T.num + 1, final_certificate.T.den),
        verified=False,
    )
    report = verify_key_equation(bad, rook_f)
    assert not report.passed
    assert not report.residual.is_zero()


def test_verify_simple_exact_case():
    # P = ds, S = s, T = 0 for F = s: P(F) = 1 = dS/ds
    F = ratfun("s", XST)
    cert = Certificate(
        P=DiffOp(XS, XS, {(0, 1): RatFun.from_scalar(1, XS)}),
        S=ratfun("s", XST),
        T=ratfun("0", XST),
    )
    assert verify_key_equation(cert, F).passed


def test_certificates_do_not_share_a_default_stage_log():
    P = DiffOp(XS, XS, {(0, 1): RatFun.from_scalar(1, XS)})
    first, second = (Certificate(P, ratfun("s", XST), ratfun("0", XST)) for _ in range(2))
    assert first.stage_log == second.stage_log == ()  # a tuple: nothing can append to it


def test_ansatz_rejects_an_empty_support():
    with pytest.raises(ValueError, match="empty operator support"):
        Ansatz(())
    assert Ansatz(support=((1, 0),)).support == ((1, 0),)


def test_stage_c_rejects_false_congruence(stage_a_certs, rook_f):
    bogus_p = DiffOp(X, X, {(0,): RatFun(poly("x", X))})
    bogus_q = DiffOp(XS, XS, {(0, 0): RatFun.from_scalar(0, XS)})
    with pytest.raises((DivisionRemainderError, Exception)):
        stage_c_reconstruct(bogus_p, bogus_q, stage_a_certs, rook_f)


def test_telescoper_recurrence_annihilates_dp_terms(final_certificate, dp40):
    rec = diffop_to_rec(final_certificate.P)
    for n, value in rec.apply(dp40.terms):
        assert value == 0


# -- certificate file ------------------------------------------------------------------


def test_certificate_json_round_trip(final_certificate):
    import json
    data = final_certificate.to_json_dict()
    text = json.dumps(data, indent=2, sort_keys=True)
    again = Certificate.from_json_dict(json.loads(text))
    assert again.P == final_certificate.P
    assert again.S == final_certificate.S
    assert again.T == final_certificate.T
    assert json.dumps(again.to_json_dict(), indent=2, sort_keys=True) == text


# -- other walks -------------------------------------------------------------------------


SIMPLE = DirectionSet(ROOK.directions, repeat=False, name="simple")
DELANNOY = DirectionSet(ROOK.directions + ((1, 1, 1),), repeat=False, name="delannoy")


@pytest.mark.parametrize("walk", [SIMPLE, DELANNOY], ids=lambda w: w.name)
def test_stage_c_is_instance_generic(walk, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the proof engine read a reference transcription")

    for name, fn in inspect.getmembers(rookdata, inspect.isfunction):
        if fn.__module__ == rookdata.__name__ and not name.startswith("_"):
            monkeypatch.setattr(rookdata, name, forbidden)
    F = residue_embedding(step_generating_function(walk))
    certs = stage_a_pair(F)
    P1, P2 = certs[0].operator, certs[1].operator
    P, Q = next(r for r in (stage_b_search(P1, P2, d) for d in range(1, 5)) if r is not None)
    cert = stage_c_reconstruct(P, Q, certs, F)
    assert cert.verified
    if walk is SIMPLE:
        assert P == DiffOp(X, X, {(2,): RatFun(poly("x*(27*x-1)", X)),
                                  (1,): RatFun(poly("54*x-1", X)), (0,): RatFun.from_scalar(6, X)})
        # the representative modulo trivial certificates, not just some solution
        assert {e: c.text() for e, c in Q.terms.items()} == {
            (0, 0): "6*s^1", (1, 0): "(-12*s^4 + 27*s^3 + -17*s^2 + 30*x^1*s^1 + 2*s^1)/(2)"}
    rec = diffop_to_rec(P)
    dp = diagonal_sequence(walk, 40)
    unrolled = rec_unroll(rec, SeqTable(walk.name, dp.terms[:rec.order()], "dp"), 40)
    assert unrolled.terms == dp.terms


# -- counting bounds -----------------------------------------------------------------------


def test_lipshitz_bounds_report():
    report = lipshitz_bounds()
    assert list(report.to_json_dict()) == ["raw_N", "raw_unknowns", "raw_equations", "refined_N", "refined_rows",
                                           "refined_cols"]
    assert report.raw_N == 425
    assert report.raw_unknowns == 1_391_641_251
    assert report.raw_equations == 1_391_557_968
    assert report.refined_N == 36
    assert (report.refined_rows, report.refined_cols) == (8917, 9139)


def test_lipshitz_inequality_start():
    # C(4,4) = 1 is not greater than 18, so the scan starts correctly at N=0
    import math
    assert not math.comb(4, 4) > 18


# -- local-analysis bounds ------------------------------------------------------------


def test_universal_denominator_branches():
    from rookpaths.telescope import universal_denominator
    x = poly("x", X)
    # simple pole with positive integer residue m: admits y = x^-m
    a = ratfun("2/x", X)
    assert universal_denominator(a, [], "x") == x ** 2
    # negative residue: homogeneous solution is polynomial, no pole allowed
    a = ratfun("(0-2)/x", X)
    assert universal_denominator(a, [], "x").is_constant()
    # higher-order pole of a: exponent is ord(rhs) - ord(a)
    a = ratfun("1/(x^2)", X)
    assert universal_denominator(a, [poly("x^5", X)], "x") == x ** 3
    # ordinary point of a with a right-side pole: exponent is ord(rhs) - 1
    a = ratfun("0", X)
    assert universal_denominator(a, [poly("x^2", X)], "x") == x


def test_degree_bound_branches():
    from rookpaths.telescope import degree_bound
    one = MPoly.const(X, 1)
    # z' = b with deg b = 3: solutions up to degree 4
    assert degree_bound(ratfun("0", X), one, [3], "x") == 4
    # residue -3 at infinity: homogeneous x^3 must be admitted
    assert degree_bound(ratfun("(0-3)/x", X), one, [None], "x") >= 3
    # da >= 0 dominates: deg(a y) = deg(b)
    assert degree_bound(ratfun("x", X), one, [5], "x") == 4


def test_cascade_scalar_integration():
    from rookpaths.telescope import rational_solve_cascade
    zero = RatFun.from_scalar(0, X)
    one = RatFun.from_scalar(1, X)
    sols = rational_solve_cascade([[zero]], [[one]], "x")
    # after quotienting the parameter-free constants: y' = e alone
    assert len(sols) == 1
    sol = sols[0]
    assert not sol.e[0].is_zero()
    assert sol.y[0].derivative("x").constant_value() == sol.e[0].constant_value()


def test_cascade_returns_the_reduced_representative():
    from rookpaths.telescope import rational_solve_cascade
    # y' - y/(1+t) = e (t^2+2t-1)/(1+t): the level carrying e also carries the
    # trivial y = 1+t, and the cascade returns the representative vanishing on
    # that solution's lowest coordinate (the constant one), not y = t^2 + 1
    T = ("t",)
    sols = rational_solve_cascade([[ratfun("(0-1)/(1+t)", T)]], [[ratfun("(t^2+2*t-1)/(1+t)", T)]], "t")
    assert len(sols) == 1
    assert sols[0].y == [ratfun("t-t^2", T)]
    assert sols[0].e == [MPoly.const((), -1)]


def test_cascade_unlucky_screening_points():
    from rookpaths.telescope import rational_solve_cascade
    # a has a pole at both screening values of x (7/13 and -5/7), so the screen
    # cannot freeze the system and must leave every level to the exact solve
    XT = ("x", "t")
    a = ratfun("1/((13*x-7)*(7*x+5))", XT)
    y = RatFun(poly("t", XT))
    sols = rational_solve_cascade([[a]], [[y.derivative("t") + a * y]], "t")
    assert len(sols) == 1
    sol = sols[0]
    assert not sol.e[0].is_zero()
    assert sol.y[0] == y * RatFun(sol.e[0].with_vars(XT))


def test_cascade_clears_each_equation_once(rook_f, monkeypatch):
    # each system is cleared once, not once per degree level: at most one
    # clearing per equation for every live screening point and the exact system
    from rookpaths import telescope
    cleared, solved = [], []
    clear, solve = telescope.clear_denominators, telescope.solve_parametrized_system
    monkeypatch.setattr(telescope, "clear_denominators",
                        lambda *args: cleared.append(args) or clear(*args))
    monkeypatch.setattr(telescope, "solve_parametrized_system",
                        lambda *args, **kwargs: solved.append(args) or solve(*args, **kwargs))
    assert len(stage_a_search(rook_f, 1)) == 1
    equations = 1
    assert len(solved) > (1 + len(telescope._SCREEN_POINTS)) * equations  # several levels ran
    assert len(cleared) <= (1 + len(telescope._SCREEN_POINTS)) * equations


def test_solver_verify_flag_is_keyword_only():
    # the benchmark's tracer counts screen calls by reading verify from the keywords
    verify = inspect.signature(solve_parametrized_system).parameters["verify"]
    assert verify.kind is inspect.Parameter.KEYWORD_ONLY
    assert verify.default is True


# -- the cascade's level search ------------------------------------------------------


def _cascade_systems(run) -> list[tuple]:
    """The (A, B, main_var) of every rational_solve_cascade call that run() makes."""
    from rookpaths import telescope
    systems, cascade = [], telescope.rational_solve_cascade
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(telescope, "rational_solve_cascade", lambda *args: systems.append(args) or cascade(*args))
        run()
    return systems


def _screens(A, B, main_var):
    """The screen as a function of the numerator degree level, and the top level."""
    from rookpaths import telescope
    dens, caps = telescope._cascade_bounds(A, B, main_var)
    frozen = [telescope._freeze(A, B, dens, p, main_var) for p in telescope._SCREEN_POINTS]
    return (lambda level: telescope._screen(frozen, [min(level, c) for c in caps])), max(caps)


def _linear_cascade(A, B, main_var):
    """The cascade as a linear scan, the oracle for its bisection: screen every level
    from 0 up and solve each passing one exactly.  Returns the exactly solved levels
    and the solutions."""
    from rookpaths import telescope
    dens, caps = telescope._cascade_bounds(A, B, main_var)
    frozen = [telescope._freeze(A, B, dens, p, main_var) for p in telescope._SCREEN_POINTS]
    exact, levels = ParamSystem(A, B, dens, main_var), []
    for level in range(max(caps) + 1):
        bounds = [min(level, c) for c in caps]
        if telescope._screen(frozen, bounds):
            levels.append(level)
            particular = [s for s in solve_parametrized_system(exact, bounds) if telescope._has_parameter(s)]
            if particular:
                return levels, particular
    return levels, []


@pytest.fixture(scope="module")
def rook_systems(rook_f, stage_a_certs):
    P1, P2 = stage_a_certs[0].operator, stage_a_certs[1].operator
    searches = {"A0": lambda: stage_a_search(rook_f, 0), "A1": lambda: stage_a_search(rook_f, 1),
                "A2": lambda: stage_a_search(rook_f, 2, Ansatz(support=((0, 0), (1, 0), (2, 0)))),
                "B2": lambda: stage_b_search(P1, P2, 2), "B3": lambda: stage_b_search(P1, P2, 3)}
    return {name: _cascade_systems(run)[0] for name, run in searches.items()}


def test_solutions_divide_y_only_when_read(rook_systems, monkeypatch):
    # y_i = z_i/u_i is divided on first read and kept: an exact solve's y equals the
    # quotient, and the screens, which read only e, divide no y at all
    from rookpaths import telescope
    A, B, main_var = rook_systems["A1"]
    dens, caps = telescope._cascade_bounds(A, B, main_var)
    sols = solve_parametrized_system(ParamSystem(A, B, dens, main_var), caps, verify=False)
    assert sols and all(s._y is None for s in sols)
    for s in sols:
        assert s.y == [RatFun(z) / u for z, u in zip(s.z, s.u)] and s.y is s.y
    assert solve_parametrized_system(ParamSystem(A, B, dens, main_var), caps) == sols

    frozen = [telescope._freeze(A, B, dens, p, main_var) for p in telescope._SCREEN_POINTS]
    screened, solve = [], telescope.solve_parametrized_system

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        screened.extend(result)
        return result

    def no_division(self, other):
        raise AssertionError("a screen divided a RatFun")
    monkeypatch.setattr(telescope, "solve_parametrized_system", recorded)
    monkeypatch.setattr(RatFun, "__truediv__", no_division)
    assert telescope._screen(frozen, caps)
    assert screened and all(s._y is None for s in screened)


def test_screen_is_monotone_in_the_level(rook_systems):
    # the bisection's premise: over levels 0..top the screen reads False...False,
    # True...True (a frozen solution space only grows with its bounds)
    first = {}
    for name, system in rook_systems.items():
        passes, top = _screens(*system)
        flags = [passes(level) for level in range(top + 1)]
        assert flags == sorted(flags), name
        first[name] = flags.index(True) if True in flags else None
    assert first == {"A0": None, "A1": 2, "A2": 4, "B2": None, "B3": 8}


def test_screen_reads_the_first_parameter():
    # y' = x*t*e0 + e1/t: 1/t has no rational antiderivative, so each frozen
    # solution at the passing level 2 carries exactly one nonzero parameter, e[0]
    from rookpaths import telescope
    XT = ("x", "t")
    A, B = [[RatFun.from_scalar(0, XT)]], [[ratfun("x*t", XT), ratfun("1/t", XT)]]
    passes, top = _screens(A, B, "t")
    assert [passes(level) for level in range(top + 1)] == [False, False, True]
    (sol,) = telescope.rational_solve_cascade(A, B, "t")
    assert sol.y == [RatFun(poly("x*t^2", XT))] and [e.is_zero() for e in sol.e] == [False, True]


def test_screen_on_numbers_matches_a_sympy_kernel(rook_systems):
    # a frozen system has no passive variables, so its split holds plain rationals,
    # not MPolys; at each screening point and every level, the screen passes exactly
    # when the frozen rows have a kernel vector with a nonzero parameter block
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    from rookpaths import telescope
    for name, (A, B, main_var) in rook_systems.items():
        dens, caps = telescope._cascade_bounds(A, B, main_var)
        for point in telescope._SCREEN_POINTS:
            system = telescope._freeze(A, B, dens, point, main_var)
            assert system.kvars == ()
            assert not any(isinstance(c, MPoly) for split in system.split for part in split for c in part), name
            for level in range(max(caps) + 1):
                bounds = [min(level, c) for c in caps]
                rows = [row for i, split in enumerate(system.split)
                        for row in telescope._equation_rows(split, i, bounds, system.zero)]
                kernel = DomainMatrix([[QQ(c.numerator, c.denominator) for c in row] for row in rows],
                                      (len(rows), len(rows[0])), QQ).nullspace().to_list()
                with_parameter = any(any(vec[-len(B[0]):]) for vec in kernel)
                assert telescope._screen([system], bounds) == with_parameter, (name, point, level)


def test_refuting_searches_screen_only_the_ends(rook_f, stage_a_certs, monkeypatch):
    # a search that must fail screens level 0 and the top level (caps 3, and 2 and 5)
    from rookpaths import telescope
    screened, screen = [], telescope._screen
    monkeypatch.setattr(telescope, "_screen",
                        lambda frozen, bounds: screened.append(list(bounds)) or screen(frozen, bounds))
    assert stage_a_search(rook_f, 0) == []
    assert stage_b_search(stage_a_certs[0].operator, stage_a_certs[1].operator, 2) is None
    assert screened == [[0], [3], [0, 0], [2, 5]]


def test_bisection_matches_a_linear_scan(rook_systems):
    # the same exactly solved levels and the same solutions as screening every
    # level, on the rook's searches, the simple-step walk's, one system whose
    # least passing level is the top one (y' = x*t*e, y = x*t^2/2) and one whose
    # screening points are both unlucky (every level passes the screen)
    from rookpaths import telescope
    XT = ("x", "t")
    a, y = ratfun("1/((13*x-7)*(7*x+5))", XT), RatFun(poly("t", XT))
    hand = [([[RatFun.from_scalar(0, XT)]], [[ratfun("x*t", XT)]], "t"),
            ([[a]], [[y.derivative("t") + a * y]], "t")]
    F = residue_embedding(step_generating_function(SIMPLE))
    certs = []
    simple = _cascade_systems(lambda: certs.extend(stage_a_pair(F)))
    simple += _cascade_systems(lambda: next(d for d in range(1, 5) if stage_b_search(
        certs[0].operator, certs[1].operator, d) is not None))
    assert len(simple) == 4  # the stage-A pair, then stage B at orders 1 and 2
    solve = telescope.solve_parametrized_system
    for system in list(rook_systems.values()) + simple + hand:
        solved = []

        def exact_levels(s, bounds, **kwargs):
            if not kwargs:  # an exact solve, not a screen
                solved.append(max(bounds))
            return solve(s, bounds, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(telescope, "solve_parametrized_system", exact_levels)
            sols = telescope.rational_solve_cascade(*system)
        assert (solved, sols) == _linear_cascade(*system)


def test_universal_denominator_mixed_multiplicities():
    from rookpaths.telescope import universal_denominator
    # a = 1/(x^2 (x-1)): double pole at 0 (no contribution), residue 1 at 1
    a = RatFun(poly("1", X), poly("x^2*(x-1)", X))
    assert universal_denominator(a, [], "x") == poly("x-1", X)
    # right side raises the order at the double pole: ord 5 - ord 2 = 3
    assert universal_denominator(a, [poly("x^5*(x-1)", X)], "x") == poly("x^3*(x-1)", X)


@pytest.mark.parametrize("pi1, u_text", [
    ("t-x", "1*t^2 + -2*x^1*t^1 + 1*x^2"),
    # a pole factor whose leading coefficient in t depends on x
    ("(13*x-7)*t-1", "169*x^2*t^2 + -182*x^1*t^2 + 49*t^2 + -26*x^1*t^1 + 14*t^1 + 1"),
])
def test_universal_denominator_screens_integer_residues(monkeypatch, pi1, u_text):
    from rookpaths import telescope
    # pi = pi1 * pi2 is one squarefree factor; a has residue 2 along pi1 and
    # 1/2 along pi2, so u = pi1^2 and pi2 drops out
    XT = ("x", "t")
    pi1, pi2 = poly(pi1, XT), poly("t^2+x*t+3", XT)
    a = RatFun(pi1.derivative("t") * 2, pi1) + RatFun(pi2.derivative("t"), pi2 * 2)
    exact = []
    gcd = telescope.mpoly_gcd
    monkeypatch.setattr(telescope, "mpoly_gcd", lambda p, q: exact.append(p.vars == XT) or gcd(p, q))
    basis = telescope._gcd_free_basis(telescope._squarefree_decomposition(a.den, "t"), "t")
    setup = sum(exact)  # the exact gcds that build the one simple-pole factor
    exact.clear()
    assert telescope.universal_denominator(a, [], "t").text() == u_text
    # the residue step probes only the integer values of num/slope at the roots of
    # pi: at most deg_t pi exact gcds
    assert len(basis) == 1 and 1 <= sum(exact) - setup <= basis[0].degree("t")


def test_universal_denominator_reads_any_integer_residue():
    # a = m/(t-x) has residue m at t = x, so y = (t-x)^-m solves y' + a y = 0 for every m
    from rookpaths.telescope import universal_denominator
    XT = ("x", "t")
    pi = poly("t-x", XT)
    for m in (30, 31, 100):
        assert universal_denominator(RatFun(MPoly.const(XT, m), pi), [], "t") == pi ** m


@pytest.mark.parametrize("vars, pole_texts, residues", [
    # lc_t(pi) = x - 1 vanishes at the walk's first point x = 1
    (("x", "t"), ["(x-1)*t-1"], [3]),
    # lc_t(pi) = x - s vanishes at (1, 1), the first point of the boxes of side 1 and 2
    (("x", "s", "t"), ["(x-s)*t-1"], [2]),
    # at x = 1 the factor t - x meets the other pole t - 1: pi is not prime to slope there
    (("x", "t"), ["t-x", "t-1"], [2, 3]),
], ids=["lead-vanishes", "lead-vanishes-in-two-passives", "meets-another-pole"])
def test_universal_denominator_walks_past_unusable_points(vars, pole_texts, residues):
    from rookpaths.telescope import universal_denominator
    poles = [poly(text, vars) for text in pole_texts]
    a = RatFun.from_scalar(0, vars)
    u = MPoly.const(vars, 1)
    for pi, m in zip(poles, residues):
        a = a + RatFun(pi.derivative("t") * m, pi)
        u = u * pi ** m
    assert universal_denominator(a, [], "t") == u.primitive_part()
