"""Brute-force lattice walk counting and step generating functions.

The dynamic program counts walks from the origin whose steps are positive
integer multiples of a direction set's primitive vectors.  Each direction
keeps a running prefix accumulator along its own ray, so a cell costs O(1)
big-integer additions per direction and a full table is O(|dirs| * I*J*K).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


from .exactmath import MPoly, RatFun
from .numerics import bisect_root

GF_VARS = ("s", "t", "u")


@dataclass(frozen=True)
class DirectionSet:
    """Primitive step directions; repeat=True allows all positive multiples."""

    directions: tuple[tuple[int, int, int], ...]
    repeat: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.directions:
            raise ValueError("direction set must be nonempty")
        for d in self.directions:
            if len(d) != 3 or any(e < 0 for e in d) or all(e == 0 for e in d):
                raise ValueError(f"bad direction {d}")
            from math import gcd
            g = 0
            for e in d:
                g = gcd(g, e)
            if g != 1:
                raise ValueError(f"direction {d} is not primitive")


ROOK = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="rook")
QUEEN = DirectionSet(
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
    name="queen",
)


@dataclass
class CountTable:
    """Exact walk counts r[i][j][k] up to a componentwise bound."""

    bound: tuple[int, int, int]
    values: list[list[list[int]]]

    def __getitem__(self, idx: tuple[int, int, int]) -> int:
        i, j, k = idx
        return self.values[i][j][k]


@dataclass
class SeqTable:
    """An exact integer sequence with provenance metadata."""

    name: str
    terms: list[int]
    provenance: str  # "dp" | "recurrence" | "series"

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
    def from_json(text: str) -> SeqTable:
        data = json.loads(text)
        try:
            return SeqTable(data["name"], [_integer_term(t) for t in data["terms"]], data["provenance"])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed sequence JSON: {type(exc).__name__}: {exc}") from None


def _integer_term(t) -> int:
    """One sequence term, given as an integer or as its decimal text."""
    if isinstance(t, (int, str)) and not isinstance(t, bool):
        try:
            return int(t)
        except ValueError:
            pass
    raise ValueError(f"malformed sequence JSON: terms must hold integer literals, got {t!r}")


def count_paths(dirs: DirectionSet, bound: tuple[int, int, int]) -> CountTable:
    """Count walks to every cell within the bound (origin counts 1)."""
    I, J, K = bound
    if I < 0 or J < 0 or K < 0:
        raise ValueError("bound must be componentwise >= 0")
    r = [[[0] * (K + 1) for _ in range(J + 1)] for _ in range(I + 1)]
    # cum[d][i][j][k] = sum over m >= 1 of r at (i,j,k) - m*d; it stays zero
    # without repeat, so each direction then adds only the single step
    cum = [[[[0] * (K + 1) for _ in range(J + 1)] for _ in range(I + 1)] for _ in dirs.directions]
    repeat = dirs.repeat
    for i in range(I + 1):
        for j in range(J + 1):
            for k in range(K + 1):
                if i == j == k == 0:
                    r[0][0][0] = 1
                else:
                    total = 0
                    for d, (di, dj, dk) in enumerate(dirs.directions):
                        pi, pj, pk = i - di, j - dj, k - dk
                        if pi >= 0 and pj >= 0 and pk >= 0:
                            c = r[pi][pj][pk] + cum[d][pi][pj][pk]
                            if repeat:
                                cum[d][i][j][k] = c
                            total += c
                    r[i][j][k] = total
    return CountTable(bound, r)


def diagonal_sequence(dirs: DirectionSet, n_max: int) -> SeqTable:
    """The diagonal counts r[n][n][n] for n = 0..n_max, from the DP oracle."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    table = count_paths(dirs, (n_max, n_max, n_max))
    terms = [table[(n, n, n)] for n in range(n_max + 1)]
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


@dataclass
class QueensRootReport:
    """Root report for the dominant-singularity equation of queen walks.

    The verbatim transcription 1 - 3x/(x-1) - 3x^2/(1-x^2) - x^3/(1-x^3)
    mixes sign conventions and has no root in (0,1); both that reading and
    the sign-normalized one (all terms x^k/(1-x^k)) are reported rather
    than silently choosing.
    """

    verbatim_root: Fraction | None
    normalized_root: Fraction
    normalized_root_cubed: Fraction
    residual_bound: Fraction
    note: str


def queens_dominant_root(digits: int = 14) -> QueensRootReport:
    """Smallest positive root data for the queens dominant-singularity equation."""

    def verbatim(v: Fraction) -> Fraction:
        return (1 - 3 * v / (v - 1) - 3 * v * v / (1 - v * v) - v ** 3 / (1 - v ** 3))

    def normalized(v: Fraction) -> Fraction:
        return (1 - 3 * v / (1 - v) - 3 * v * v / (1 - v * v) - v ** 3 / (1 - v ** 3))

    eps = Fraction(1, 10 ** (digits + 2))
    verbatim_root = None
    scan = _find_bracket(verbatim)
    if scan is not None:
        verbatim_root = bisect_root(verbatim, scan[0], scan[1], eps)
    bracket = _find_bracket(normalized)
    if bracket is None:
        raise ArithmeticError("no sign change for the normalized reading in (0,1)")
    root = bisect_root(normalized, bracket[0], bracket[1], eps)
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


def _find_bracket(fn, pieces: int = 256) -> tuple[Fraction, Fraction] | None:
    lo = Fraction(1, pieces)
    flo = fn(lo)
    for i in range(2, pieces):
        hi = Fraction(i, pieces)
        fhi = fn(hi)
        if flo == 0:
            return (lo, lo)
        if (flo < 0) != (fhi < 0):
            return (lo, hi)
        lo, flo = hi, fhi
    return None
