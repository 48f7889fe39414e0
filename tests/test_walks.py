"""Walk counting oracle, step generating functions, queens root."""

import copy
import json
import pickle
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd

import pytest

from rookpaths import rookdata
from rookpaths.diagonal import expand_diagonal
from rookpaths.exactmath import ratfun
from rookpaths.hypergeom import HypergeomSpec
from rookpaths.numerics import bisect_root, decimal_str
from rookpaths.walks import (DirectionSet, QUEEN, ROOK, ROOK_GF_TEXT, SeqTable, _find_bracket, _planes, count_paths,
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


def recursive_table(dirs, bound):
    """Independent oracle: r(p) = [p = 0] + sum over d, m >= 1 of r(p - m*d), memoized."""

    @lru_cache(maxsize=None)
    def r(p):
        total = int(p == (0, 0, 0))
        for d in dirs.directions:
            m = 1
            while all(a >= m * b for a, b in zip(p, d)) and (m == 1 or dirs.repeat):
                total += r(tuple(a - m * b for a, b in zip(p, d)))
                m += 1
        return total

    I, J, K = bound
    return [[[r((i, j, k)) for k in range(K + 1)] for j in range(J + 1)] for i in range(I + 1)]


ORACLE_SETS = [ROOK.directions, QUEEN.directions, ((1, 2, 0), (0, 0, 1), (2, 1, 3)), ((1, 1, 1),),
               ((0, 0, 1),), ((1, 0, 0), (0, 1, 1)), ((0, 1, 2), (1, 0, 0)),
               ((2, 1, 1), (1, 2, 1), (0, 0, 1)), ((1, 0, 2), (0, 1, 2), (1, 1, 1))]
ORACLE_BOUNDS = [(0, 0, 0), (0, 0, 6), (6, 2, 0), (4, 6, 9), (3, 3, 3), (5, 5, 5)]


def assert_table_matches_oracle(dirs, bound):
    values = count_paths(dirs, bound).values
    assert values == recursive_table(dirs, bound)
    rows = [row for plane in values for row in plane]
    assert len({id(row) for row in rows}) == len(rows)


@pytest.mark.parametrize("repeat", [True, False])
@pytest.mark.parametrize("directions", ORACLE_SETS)
def test_count_table_matches_recursive_oracle(directions, repeat):
    dirs = DirectionSet(directions, repeat)
    for bound in ORACLE_BOUNDS:
        assert_table_matches_oracle(dirs, bound)


def test_count_table_matches_recursive_oracle_on_random_sets():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primitive = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda d: gcd(*d) == 1)
    bounds = st.tuples(*[st.integers(0, 5)] * 3)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(primitive, min_size=1, max_size=5, unique=True), st.booleans(), bounds)
    def check(directions, repeat, bound):
        assert_table_matches_oracle(DirectionSet(tuple(directions), repeat), bound)

    check()


@pytest.mark.parametrize("dirs", [DirectionSet(((2, 1, 1), (0, 1, 0), (1, 0, 2)), name="window-2"),
                                  DirectionSet(QUEEN.directions, repeat=False, name="plain-queen"),
                                  DirectionSet(((2, 1, 1), (1, 2, 1), (0, 0, 1)), name="mirrored-window-2")],
                         ids=["window-2", "repeat-false", "mirrored-window-2"])
def test_diagonal_sequence_matches_the_count_table(dirs):
    # diagonal_sequence keeps only the planes the DP still reads: (2, 1, 1)
    # reads two planes back, and repeat=False has no running sums; the mirrored
    # set reads rows (a, b) with b > a at (b, a) in those planes
    table = count_paths(dirs, (9, 9, 9))
    assert diagonal_sequence(dirs, 9).terms == [table[(n, n, n)] for n in range(10)]
    assert any(diagonal_sequence(dirs, 9).terms[1:])


@pytest.mark.parametrize("directions, bound, mirrored", [
    (ROOK.directions, (5, 5, 5), True),
    (QUEEN.directions, (4, 4, 0), True),
    (ROOK.directions, (5, 4, 5), False),
    (ROOK.directions + ((1, 2, 0),), (5, 5, 5), False),
], ids=["rook", "queen", "rook-off-cube", "rook-plus-one"])
def test_only_swap_closed_sets_on_square_bounds_build_half_planes(directions, bound, mirrored):
    # a set closed under swapping the first two axes with I = J builds the rows
    # j <= i of plane i; any other input builds every row and still matches the oracle
    for repeat in (True, False):
        dirs = DirectionSet(directions, repeat)
        for i, plane in enumerate(_planes(dirs, bound)):
            assert all((row is None) == (mirrored and j > i) for j, row in enumerate(plane))
        assert_table_matches_oracle(dirs, bound)


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
    with pytest.raises(ValueError, match="direction set must be nonempty"):
        DirectionSet(())
    with pytest.raises(ValueError, match=r"direction \(2, 0, 0\) is not primitive"):
        DirectionSet(((2, 0, 0),))
    with pytest.raises(ValueError, match=r"bad direction \(0, 0, 0\)"):
        DirectionSet(((0, 0, 0),))
    with pytest.raises(ValueError, match=r"bad direction \(1, -1, 0\)"):
        DirectionSet(((1, -1, 0),))


@pytest.mark.parametrize("record, rebuilt, other", [
    (ROOK, DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="rook"),
     DirectionSet(ROOK.directions, repeat=False, name="rook")),
    (HypergeomSpec(*rookdata.closed_form_parameters()), HypergeomSpec(Fraction(1, 3), Fraction(2, 3), 2),
     HypergeomSpec(Fraction(2, 3), Fraction(1, 3), Fraction(2)))], ids=["direction-set", "hypergeom-spec"])
def test_frozen_records_are_values(record, rebuilt, other):
    # a rebuilt record equals and hashes like the first, one field apart it differs,
    # copies and pickles are equal, and no field can be assigned or deleted
    assert record == rebuilt and hash(record) == hash(rebuilt) and len({record, rebuilt}) == 1
    assert record != other
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    field = type(record).__slots__[-1]
    with pytest.raises(AttributeError, match=f"field {field!r}"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"field {field!r}"):
        delattr(record, field)
    assert record == rebuilt


def test_direction_set_rejects_repeated_direction():
    # a repeated direction would double its walks; the row kernel counts (0,0,1) once
    with pytest.raises(ValueError, match=r"direction \(0, 0, 1\) repeats"):
        DirectionSet(((0, 0, 1), (0, 0, 1)))
    with pytest.raises(ValueError, match="repeats"):
        DirectionSet(((1, 0, 0), (0, 1, 0), (1, 0, 0)), repeat=False)


def test_seqtable_json_round_trip():
    seq = SeqTable("rook-diagonal", ROOK_TERMS, "dp")
    again = SeqTable.from_json_dict(json.loads(seq.to_json()))
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


def test_queens_root_reports_a_verbatim_root(monkeypatch, capsys, tmp_path):
    # the verbatim reading changes sign between 19/10 and 191/100, outside (0, 1); a scan
    # that returns that bracket first puts a verbatim root in the report and in queens-root
    from rookpaths import walks
    from rookpaths.cli import main
    scan, calls = walks._find_bracket, []

    def outside_first(fn):
        calls.append(fn)
        return (Fraction(19, 10), Fraction(191, 100)) if len(calls) == 1 else scan(fn)

    monkeypatch.setattr(walks, "_find_bracket", outside_first)
    report = queens_dominant_root()
    assert Fraction(19, 10) < report.verbatim_root < Fraction(191, 100)
    assert report.note == "both readings admit roots in (0,1)"
    assert decimal_str(report.normalized_root, 4) == "0.2185"
    calls.clear()
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "queens-root"]) == 0
    assert f"verbatim reading root: {decimal_str(report.verbatim_root, 12)}\n" in capsys.readouterr().out
    data = json.loads((tmp_path / "queens-root.json").read_text())
    assert data["verbatim_root"] == decimal_str(report.verbatim_root, 14)
    assert data["verbatim_root"].startswith("1.9")


def test_exact_roots_end_the_search():
    # a root on the low end, the high end or the first midpoint is returned as is;
    # the bracket scan stops at a grid root approached from below or from above,
    # and at one the function touches without changing sign
    half, eps = Fraction(1, 2), Fraction(1, 10 ** 6)

    def f(v):
        return v - half

    assert bisect_root(f, half, Fraction(1), eps) == half
    assert bisect_root(f, Fraction(0), half, eps) == half
    assert bisect_root(f, Fraction(0), Fraction(1), eps) == half
    assert _find_bracket(f) == (Fraction(127, 256), half)
    assert _find_bracket(lambda v: -f(v)) == (half, half)
    assert _find_bracket(lambda v: (v - Fraction(5, 256)) ** 2) == (Fraction(5, 256), Fraction(5, 256))
