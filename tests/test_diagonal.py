"""Series diagonals and the residue embedding."""

from math import factorial

import pytest

from rookpaths import rookdata
from rookpaths.diagonal import expand_diagonal, residue_embedding
from rookpaths.exactmath import poly, ratfun
from rookpaths.walks import QUEEN, ROOK, DirectionSet, diagonal_sequence, step_generating_function

STU = ("s", "t", "u")
XST = ("x", "s", "t")


def test_rook_oracle_equivalence():
    gf = step_generating_function(ROOK)
    assert expand_diagonal(gf, 12).terms == diagonal_sequence(ROOK, 12).terms


def test_queen_oracle_equivalence():
    gf = step_generating_function(QUEEN)
    assert expand_diagonal(gf, 12).terms == diagonal_sequence(QUEEN, 12).terms


def test_multinomial_diagonal():
    # oracle: central coefficients of 1/(1-s-t-u) are (3n)!/n!^3
    expected = [factorial(3 * n) // factorial(n) ** 3 for n in range(13)]
    got = expand_diagonal(ratfun("1/(1-s-t-u)", STU), 12)
    assert got.terms == expected
    assert got.terms[:4] == [1, 6, 90, 1680]


def test_constant_diagonal():
    assert expand_diagonal(ratfun("1", STU), 4).terms == [1, 0, 0, 0, 0]


def test_non_integer_diagonal_raises():
    # 1/(2-s-t-u) has constant coefficient 1/2
    with pytest.raises(ArithmeticError, match="n=0"):
        expand_diagonal(ratfun("1/(2-s-t-u)", STU), 4)


def test_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        expand_diagonal(ratfun("1/(s+t+u)", STU), 3)


def test_residue_embedding_matches_reference_form():
    gf = step_generating_function(ROOK)
    F = residue_embedding(gf)
    assert F == rookdata.embedded_f()
    # denominator is s*t*q1 up to the sign normalization
    stq1 = poly("s*t", XST) * rookdata.q1()
    assert F.den in (stq1, -stq1)


EMBEDDING_SETS = [ROOK, QUEEN,
                  DirectionSet(ROOK.directions, repeat=False, name="simple"),
                  DirectionSet(ROOK.directions + ((1, 1, 1),), repeat=False, name="delannoy"),
                  DirectionSet(QUEEN.directions, repeat=False, name="plain-queen"),
                  DirectionSet(ROOK.directions + ((1, 1, 1),), name="rook-plus-diagonal"),
                  DirectionSet(ROOK.directions + ((2, 1, 1),), name="rook-plus-211")]


@pytest.mark.parametrize("dirs", EMBEDDING_SETS, ids=lambda d: d.name)
def test_residue_embedding_matches_sympy(dirs):
    # oracle: sympy builds the step generating function from the directions and
    # cancels f(s, t/s, x/t)/(s*t) itself; the two must agree cross-multiplied.
    sympy = pytest.importorskip("sympy")
    x, s, t = gens = sympy.symbols("x s t")
    steps = [s ** i * (t / s) ** j * (x / t) ** k for i, j, k in dirs.directions]
    f = 1 / (1 - sum(m / (1 - m) if dirs.repeat else m for m in steps))
    num, den = sympy.fraction(sympy.cancel(f / (s * t)))
    F = residue_embedding(step_generating_function(dirs))
    got_num, got_den = (sympy.Poly(sympy.sympify(p.text()), *gens, domain=sympy.QQ) for p in (F.num, F.den))
    assert F.vars == XST
    assert (got_num * sympy.Poly(den, *gens, domain=sympy.QQ)
            - got_den * sympy.Poly(num, *gens, domain=sympy.QQ)).is_zero


def test_residue_embedding_constant():
    assert residue_embedding(ratfun("1", STU)) == ratfun("1/(s*t)", XST)


def test_embedded_denominator_degrees():
    F = rookdata.embedded_f()
    cleared = F.den.divide_exact(poly("s*t", XST))
    assert (cleared.degree("x"), cleared.degree("s"), cleared.degree("t")) == (1, 2, 2)
