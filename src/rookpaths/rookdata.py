"""Reference data for the 3D rook instance.

Everything here is a transcription of the target identities the pipeline
discovers and proves: the embedded rational function and its denominator
factors, the second-order operator behind the closed form, the order-four
and order-three recurrences, and the hypergeometric closed-form pieces.
The toolkit recomputes all of it; these transcriptions are the comparison
targets and the inputs for the verification-only entry points.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import MPoly, RatFun, poly, ratfun
from .ore import DiffOp, RecOp

XST = ("x", "s", "t")
X = ("x",)
N = ("n",)

Q1_TEXT = "-s*t+2*s^2*t+2*t^2+2*x*s-3*s*t^2-3*x*t-3*x*s^2+4*x*s*t"
DISC_TEXT = "(x-s)*(16*x*s^2-4*s^3-24*x*s+4*s^2+9*x-s)"
F_TEXT = f"(s-t)*(s-1)*(t-x)/(s*t*({Q1_TEXT}))"


def q1() -> MPoly:
    return poly(Q1_TEXT, XST)


def disc_t_q1() -> MPoly:
    """Discriminant b^2 - 4ac of q1 = a t^2 + b t + c, stored in its factored
    reference form; the computed value must equal that form exactly."""
    reference = poly(DISC_TEXT, XST)
    c, b, a = q1().coeffs_in("t")
    if b * b - a * c * 4 != reference:
        raise AssertionError("discriminant does not match its reference form")
    return reference


def embedded_f() -> RatFun:
    """The residue-embedded rook generating function over (x, s, t)."""
    return ratfun(F_TEXT, XST)


def operator_p2() -> DiffOp:
    """x(x-1)(64x-1)(3x-2)(6x+1) d^2 + (...) d + 4(576x^3-801x^2-108x+74)."""
    return DiffOp(X, X, {
        (2,): poly("x*(x-1)*(64*x-1)*(3*x-2)*(6*x+1)", X),
        (1,): poly("4608*x^4-6372*x^3+813*x^2+514*x-4", X),
        (0,): poly("4*(576*x^3-801*x^2-108*x+74)", X),
    })


def operator_p2_dx() -> DiffOp:
    """The full telescoper: operator_p2 composed with d/dx on the right."""
    p2 = operator_p2()
    dx = DiffOp.partial(X, X, "x")
    return p2 * dx


def recurrence_order4() -> RecOp:
    """2n^2(n-1) a_n - (n-1)(121n^2-91n-6) a_{n-1} - ... = 0 (n >= 4)."""
    return RecOp({
        0: poly("2*n^2*(n-1)", N),
        1: -poly("(n-1)*(121*n^2-91*n-6)", N),
        2: -poly("(n-2)*(475*n^2-2512*n+2829)", N),
        3: poly("18*(n-3)*(97*n^2-519*n+702)", N),
        4: -poly("1152*(n-3)*(n-4)^2", N),
    })


def recurrence_order3() -> RecOp:
    """2(n-1)(35n-52)n^2 a_n - ... = 0 (n >= 3), the shorter recurrence."""
    return RecOp({
        0: poly("2*(n-1)*(35*n-52)*n^2", N),
        1: -poly("(n-1)*(4655*n^3-11781*n^2+8494*n-1776)", N),
        2: poly("(n-2)*(11305*n^3-41856*n^2+46487*n-13128)", N),
        3: -poly("192*(n-3)^2*(35*n-17)*(n-2)", N),
    })


def reduction_multiplier() -> MPoly:
    return poly("35*n-52", N)


def reduction_cofactor() -> RecOp:
    """1 + 6 sigma^{-1}: the left cofactor in the order-reduction identity."""
    return RecOp({0: 1, 1: 6})


def reduction_base_combination() -> int:
    """Recorded initial-condition combination for the order reduction.

    The combination -54864*6 + 2*43362*222 - 2*2*53*3^2*9918 evaluates to
    zero; it equals (up to sign) the short form's value at its first valid
    index, but the proof report checks the base cases index by index rather
    than interpreting this constant.
    """
    return -54864 * 6 + 2 * 43362 * 222 - 2 * 2 * 53 * 3 ** 2 * 9918


CLOSED_FORM_PREFACTOR_TEXT = "6/((1-4*x)*(1-64*x))"
CLOSED_FORM_PULLBACK_TEXT = "27*x*(2-3*x)/((1-4*x)^3)"


def closed_form_prefactor() -> RatFun:
    return ratfun(CLOSED_FORM_PREFACTOR_TEXT, X)


def closed_form_pullback() -> RatFun:
    return ratfun(CLOSED_FORM_PULLBACK_TEXT, X)


def closed_form_parameters() -> tuple[Fraction, Fraction, Fraction]:
    return (Fraction(1, 3), Fraction(2, 3), Fraction(2))


# Alternative hypergeometric route (series identity checks).
G2_TEXT = "(1-4*x)*(1-60*x+120*x^2-64*x^3)"
J_INVERSE_NUM_TEXT = "1728*(1-x)^2*x^3*(2-3*x)^3*(1-64*x)"
GOURSAT_PULLBACK_TEXT = "64*x^3*(1-x)/((9-8*x)^3)"
