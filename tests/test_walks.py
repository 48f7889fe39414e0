"""Walk counting oracle, step generating functions, queens root."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from rookpaths.diagonal import expand_diagonal
from rookpaths.exactmath import ratfun
from rookpaths.numerics import decimal_str
from rookpaths.walks import (DirectionSet, QUEEN, ROOK, ROOK_GF_TEXT, SeqTable, count_paths,
                             diagonal_sequence, queens_dominant_root, step_generating_function)

ROOK_TERMS = [1, 6, 222, 9918, 486924, 25267236, 1359631776, 75059524392, 4223303759148]
QUEEN_TERMS = [1, 13, 638, 41476, 3015296, 232878412, 18691183682, 1540840801552]


def brute_force_count(dirs, target):
    """Independent oracle: depth-first enumeration of all multi-step walks."""
    total = 0
    stack = [(0, 0, 0)]
    while stack:
        pos = stack.pop()
        if pos == target:
            total += 1
            continue
        for d in dirs.directions:
            m = 1
            while True:
                nxt = tuple(p + m * c for p, c in zip(pos, d))
                if any(a > b for a, b in zip(nxt, target)):
                    break
                stack.append(nxt)
                m += 1
    return total


def test_origin_counts_one():
    assert count_paths(ROOK, (0, 0, 0))[(0, 0, 0)] == 1


def test_rook_small_cells_against_brute_force():
    table = count_paths(ROOK, (2, 2, 2))
    assert table[(1, 1, 0)] == 2
    assert table[(1, 1, 1)] == 6
    for cell in [(1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 2, 1), (2, 2, 2)]:
        assert table[cell] == brute_force_count(ROOK, cell)


def test_queen_small_cells_against_brute_force():
    table = count_paths(QUEEN, (2, 2, 2))
    for cell in [(1, 1, 0), (1, 1, 1), (2, 2, 2)]:
        assert table[cell] == brute_force_count(QUEEN, cell)


def test_rook_diagonal_terms():
    assert diagonal_sequence(ROOK, 8).terms == ROOK_TERMS


def test_queen_diagonal_terms():
    assert diagonal_sequence(QUEEN, 7).terms == QUEEN_TERMS


def test_diagonal_at_origin_only():
    assert diagonal_sequence(ROOK, 0).terms == [1]


def test_count_table_permutation_symmetry():
    for dirs in (ROOK, QUEEN):
        table = count_paths(dirs, (3, 3, 3))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    vals = {table[p] for p in permutations((i, j, k))}
                    assert len(vals) == 1


def test_diagonal_monotonicity():
    terms = diagonal_sequence(ROOK, 12).terms
    assert all(b > a for a, b in zip(terms, terms[1:]))


def test_rook_step_gf_matches_reference_form():
    gf = step_generating_function(ROOK)
    assert gf == ratfun(ROOK_GF_TEXT, ("s", "t", "u"))


def test_queen_step_gf_matches_displayed_sum():
    gf = step_generating_function(QUEEN)
    one = ratfun("1", ("s", "t", "u"))
    total = ratfun("0", ("s", "t", "u"))
    for mono in ("s", "t", "u", "s*t", "t*u", "u*s", "s*t*u"):
        m = ratfun(mono, ("s", "t", "u"))
        total = total + m / (one - m)
    assert gf == one / (one - total)


def test_single_direction_gf():
    single = DirectionSet(((1, 0, 0),), name="e1")
    assert step_generating_function(single) == ratfun("(1-s)/(1-2*s)", ("s", "t", "u"))


def test_simple_step_diagonal_is_multinomial():
    # unit steps only: the diagonal counts the words in n x's, n y's, n z's
    simple = DirectionSet(ROOK.directions, repeat=False, name="simple")
    multinomials = [factorial(3 * n) // factorial(n) ** 3 for n in range(11)]
    assert diagonal_sequence(simple, 10).terms == multinomials
    assert expand_diagonal(step_generating_function(simple), 10).terms == multinomials


def test_direction_set_validation():
    with pytest.raises(ValueError):
        DirectionSet(())
    with pytest.raises(ValueError):
        DirectionSet(((2, 0, 0),))  # not primitive
    with pytest.raises(ValueError):
        DirectionSet(((0, 0, 0),))


def test_seqtable_json_round_trip():
    seq = SeqTable("rook-diagonal", ROOK_TERMS, "dp")
    again = SeqTable.from_json(seq.to_json())
    assert again.name == seq.name
    assert again.terms == seq.terms
    assert again.provenance == "dp"


def test_queens_dominant_root():
    report = queens_dominant_root()
    # verbatim transcription has no sign change; both readings reported
    assert report.verbatim_root is None
    assert "normalized" in report.note
    assert decimal_str(report.normalized_root, 4) == "0.2185"
    assert decimal_str(report.normalized_root_cubed, 4) == "0.0104"
    assert report.residual_bound < Fraction(1, 10 ** 12)
