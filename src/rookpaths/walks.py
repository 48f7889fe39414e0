"""Brute-force lattice walk counting and step generating functions.

The dynamic program counts walks from the origin whose steps are positive
integer multiples of a direction set's primitive vectors.  It builds the
table a row r[i][j][0..K] at a time from whole-row big-integer additions on
earlier rows; a full table costs O(|dirs| * I*J*K) additions, and half that
when the set is closed under swapping the first two axes and I = J (the rook,
the queen, the simple-step walk, 3D Delannoy): then only rows j <= i are built.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add

from .exactmath import MPoly, RatFun
from .numerics import bisect_root

GF_VARS = ("s", "t", "u")


class FrozenRecord:
    """A record whose __init__ sets each slot once; read-only after that, equal and hashed by value."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (all(getattr(self, k) == getattr(other, k) for k in self.__slots__)
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash(tuple(getattr(self, k) for k in self.__slots__))

    def __reduce__(self):  # copy and pickle through __init__, which alone may set the slots
        return type(self), tuple(getattr(self, k) for k in self.__slots__)


class DirectionSet(FrozenRecord):
    """Primitive step directions; repeat=True allows all positive multiples."""

    __slots__ = ("directions", "repeat", "name")

    def __init__(self, directions: tuple[tuple[int, int, int], ...], repeat: bool = True, name: str = ""):
        if not directions:
            raise ValueError("direction set must be nonempty")
        for n, d in enumerate(directions):
            if len(d) != 3 or any(e < 0 for e in d) or all(e == 0 for e in d):
                raise ValueError(f"bad direction {d}")
            if gcd(*d) != 1:
                raise ValueError(f"direction {d} is not primitive")
            if d in directions[:n]:
                raise ValueError(f"direction {d} repeats")
        for k, v in zip(self.__slots__, (directions, repeat, name)):
            object.__setattr__(self, k, v)


ROOK = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="rook")
QUEEN = DirectionSet(
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
    name="queen",
)


class CountTable:
    """Exact walk counts r[i][j][k] up to a componentwise bound."""

    __slots__ = ("bound", "values")

    def __init__(self, bound: tuple[int, int, int], values: list[list[list[int]]]):
        self.bound, self.values = bound, values

    def __getitem__(self, idx: tuple[int, int, int]) -> int:
        i, j, k = idx
        return self.values[i][j][k]


class SeqTable:
    """An exact integer sequence with provenance metadata."""

    __slots__ = ("name", "terms", "provenance")

    def __init__(self, name: str, terms: list[int], provenance: str):  # provenance: "dp" | "recurrence" | "series"
        self.name, self.terms, self.provenance = name, terms, provenance

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, n: int) -> int:
        return self.terms[n]

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "terms": [str(t) for t in self.terms], "provenance": self.provenance},
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json_dict(data) -> SeqTable:
        try:
            return SeqTable(data["name"], [_integer_term(n, t) for n, t in enumerate(data["terms"])],
                            data["provenance"])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed sequence JSON: {type(exc).__name__}: {exc}") from None


def _integer_term(n: int, t) -> int:
    """Term n of a sequence, given as an integer or as its decimal text."""
    if isinstance(t, (int, str)) and not isinstance(t, bool):
        try:
            return int(t)
        except ValueError:
            if isinstance(t, str) and t.strip().lstrip("+-").isdecimal():
                raise ValueError(f"malformed sequence JSON: term {n} is longer than the "
                                 f"{sys.get_int_max_str_digits()}-digit limit for integer text") from None
    raise ValueError(f"malformed sequence JSON: terms must hold integer literals, got {t!r}")


def count_paths(dirs: DirectionSet, bound: tuple[int, int, int]) -> CountTable:
    """Count walks to every cell within the bound (origin counts 1)."""
    planes = list(_planes(dirs, bound))
    # a mirrored DP leaves the rows j > i unbuilt; they copy r[j][i]
    for i, plane in enumerate(planes):
        for j in range(i + 1, len(plane)):
            if plane[j] is None:
                plane[j] = list(planes[j][i])
    return CountTable(bound, planes)


def _planes(dirs: DirectionSet, bound: tuple[int, int, int]):
    """Yield the DP planes r[i] for i = 0..I, holding only the planes still read;
    a set closed under (di, dj, dk) -> (dj, di, dk) with I = J is mirrored, and
    plane i builds only its rows j <= i, half the work, leaving the rest None."""
    I, J, K = bound
    if I < 0 or J < 0 or K < 0:
        raise ValueError("bound must be componentwise >= 0")
    repeat = dirs.repeat
    # each direction but (0,0,1) adds the row (i-di, j-dj) shifted by dk along
    # k, plus with repeat its running sum there, cum_d(i,j)[k] = sum over m >= 1
    # of r at (i,j,k) - m*d; planes older than i - max(di) are not read again
    across = [d for d in dirs.directions if d[:2] != (0, 0)]
    along = len(across) < len(dirs.directions)
    # mirrored, r[a][b] = r[b][a] and cum_d(a,b) = cum_(swap d)(b,a): a row (a, b)
    # with b > a is read at (b, a), which the window holds (b > a >= i - max(di))
    swap = [(dj, di, dk) for di, dj, dk in across]
    mirror = [across.index(d) for d in swap] if I == J and sorted(swap) == sorted(across) else None
    r = [None] * (I + 1)
    cum = [[[[0] * (K + 1)] * (J + 1) for _ in range(I + 1)] for _ in across] if repeat else ()
    top = max((d[0] for d in across), default=0)
    for i in range(I + 1):
        if i > top:
            for planes in (r, *cum):
                planes[i - top - 1] = None
        r[i] = [None] * (J + 1)
        for j in range(i + 1 if mirror else J + 1):
            x = None
            for n, (di, dj, dk) in enumerate(across):
                if i < di or j < dj:
                    continue
                a, b, m = i - di, j - dj, n
                if mirror and b > a:
                    a, b, m = b, a, mirror[n]
                c = r[a][b]
                if repeat:
                    c = cum[n][i][j] = ([0] * dk + list(map(add, c, cum[m][a][b])))[:K + 1]
                else:
                    c = ([0] * dk + c)[:K + 1]
                x = c if x is None else list(map(add, x, c))
            if x is None:
                x = [0] * (K + 1)
            if i == j == 0:
                x[0] = 1
            if along and repeat:
                # r[k] = x[k] + (r[0] + ... + r[k-1])
                row, s = [], 0
                for v in x:
                    v += s
                    row.append(v)
                    s += v
                x = row
            elif along:
                x = list(accumulate(x))
            r[i][j] = x
        yield r[i]


def diagonal_sequence(dirs: DirectionSet, n_max: int) -> SeqTable:
    """The diagonal counts r[n][n][n] for n = 0..n_max, from the DP oracle."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = [plane[n][n] for n, plane in enumerate(_planes(dirs, (n_max, n_max, n_max)))]
    label = dirs.name or "walks"
    return SeqTable(f"{label}-diagonal", terms, "dp")


def step_generating_function(dirs: DirectionSet) -> RatFun:
    """1 / (1 - sum of step monomial series), normalized.

    With repeat=True each direction contributes the geometric series
    m/(1-m) of its monomial m; a plain finite set contributes m itself.
    """
    one = RatFun.from_scalar(1, GF_VARS)
    total = RatFun.from_scalar(0, GF_VARS)
    for d in dirs.directions:
        m = RatFun(_monomial(d))
        total = total + (m / (one - m) if dirs.repeat else m)
    return one / (one - total)


def _monomial(d: tuple[int, int, int]) -> MPoly:
    exp_map = dict(zip(("s", "t", "u"), d))
    exp = tuple(exp_map[v] for v in GF_VARS)
    return MPoly(GF_VARS, {exp: 1})


ROOK_GF_TEXT = "(1-s)*(1-t)*(1-u)/(1-2*(s+t+u)+3*(s*t+t*u+u*s)-4*s*t*u)"
ROOT_EPS = Fraction(1, 10 ** 16)  # the queens roots are bisected to this width, 14 digits and two to spare
BRACKET_PIECES = 256  # the sign-change scan steps through (0, 1) in this many equal pieces


class QueensRootReport:
    """Root report for the dominant-singularity equation of queen walks.

    The verbatim transcription 1 - 3x/(x-1) - 3x^2/(1-x^2) - x^3/(1-x^3)
    mixes sign conventions and has no root in (0,1); both that reading and
    the sign-normalized one (all terms x^k/(1-x^k)) are reported rather
    than silently choosing.
    """

    __slots__ = ("verbatim_root", "normalized_root", "normalized_root_cubed", "residual_bound", "note")

    def __init__(self, verbatim_root: Fraction | None, normalized_root: Fraction,
                 normalized_root_cubed: Fraction, residual_bound: Fraction, note: str):
        self.verbatim_root, self.normalized_root = verbatim_root, normalized_root
        self.normalized_root_cubed, self.residual_bound, self.note = normalized_root_cubed, residual_bound, note


def queens_dominant_root() -> QueensRootReport:
    """Smallest positive root data for the queens dominant-singularity equation."""

    def verbatim(v: Fraction) -> Fraction:
        return (1 - 3 * v / (v - 1) - 3 * v * v / (1 - v * v) - v ** 3 / (1 - v ** 3))

    def normalized(v: Fraction) -> Fraction:
        return (1 - 3 * v / (1 - v) - 3 * v * v / (1 - v * v) - v ** 3 / (1 - v ** 3))

    verbatim_root = None
    scan = _find_bracket(verbatim)
    if scan is not None:
        verbatim_root = bisect_root(verbatim, scan[0], scan[1], ROOT_EPS)
    bracket = _find_bracket(normalized)
    if bracket is None:
        raise ArithmeticError("no sign change for the normalized reading in (0,1)")
    root = bisect_root(normalized, bracket[0], bracket[1], ROOT_EPS)
    note = (
        "verbatim reading has no sign change in (0,1); normalized reading "
        "(all terms x^k/(1-x^k)) used for the root"
        if verbatim_root is None
        else "both readings admit roots in (0,1)"
    )
    return QueensRootReport(
        verbatim_root=verbatim_root,
        normalized_root=root,
        normalized_root_cubed=root ** 3,
        residual_bound=abs(normalized(root)),
        note=note,
    )


def _find_bracket(fn) -> tuple[Fraction, Fraction] | None:
    lo = Fraction(1, BRACKET_PIECES)
    flo = fn(lo)
    for i in range(2, BRACKET_PIECES):
        hi = Fraction(i, BRACKET_PIECES)
        fhi = fn(hi)
        if flo == 0:
            return (lo, lo)
        if (flo < 0) != (fhi < 0):
            return (lo, hi)
        lo, flo = hi, fhi
    return None
