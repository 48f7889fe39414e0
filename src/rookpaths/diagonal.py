"""Diagonals of trivariate rational series and the residue embedding.

expand_diagonal expands f(s,t,u) as a truncated power series on the cube
[0..n_max]^3 (denominator must be a unit at the origin) and reads off the
coefficients c_{n,n,n}.  residue_embedding performs the substitution
F = (1/(s*t)) * f(s, t/s, x/t), whose coefficient of s^-1 t^-1 encodes the
diagonal; it is exact rational-function plumbing, no series involved.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import MPoly, RatFun
from .walks import GF_VARS, SeqTable

EMBED_VARS = ("x", "s", "t")


def expand_diagonal(f: RatFun, n_max: int, name: str = "diagonal") -> SeqTable:
    """Diagonal coefficients c_{n,n,n} for n <= n_max by boxed expansion."""
    if f.vars != GF_VARS:
        raise ValueError(f"expected a rational function in {GF_VARS}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # A RatFun's num and den have integer coefficients.  With D the constant
    # term of den, the table h[p] = D^(|p|+1) g[p] of the series coefficients g
    # obeys the division-free h[p] = D^|p| num[p] - sum_e c_e D^(|e|-1) h[p-e]
    # over the terms c_e s^e of den with e != 0 (|p| = total degree).
    D = f.den.terms.get((0, 0, 0), 0)
    if D == 0:
        raise ValueError("denominator has zero constant term; not expandable at the origin")

    bound = n_max
    size = bound + 1
    powers = [1]
    for _ in range(3 * bound + 1):
        powers.append(powers[-1] * D)
    num = {exp: c for exp, c in f.num.terms.items() if max(exp) <= bound}
    den = [(exp, c * powers[sum(exp) - 1]) for exp, c in f.den.terms.items()
           if max(exp) <= bound and any(exp)]

    h = [[[0] * size for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                acc = num.get((i, j, k), 0) * powers[i + j + k]
                for (ei, ej, ek), c in den:
                    if ei <= i and ej <= j and ek <= k:
                        acc -= c * h[i - ei][j - ej][k - ek]
                h[i][j][k] = acc

    terms = []
    for n in range(size):
        c, rem = divmod(h[n][n][n], powers[3 * n + 1])
        if rem:
            raise ArithmeticError(f"non-integer diagonal coefficient at n={n}")
        terms.append(c)
    return SeqTable(name, terms, "series")


def residue_embedding(f: RatFun) -> RatFun:
    """The rational function (1/(s*t)) * f(s, t/s, x/t) over (x, s, t)."""
    if f.vars != GF_VARS:
        raise ValueError(f"expected a rational function in {GF_VARS}")
    num = _substitute_laurent(f.num)
    den = _substitute_laurent(f.den)
    # Multiply the denominator by s*t for the residue normalization.
    den = {(ex, es + 1, et + 1): c for (ex, es, et), c in den.items()}
    shift_s = -min(min(e[1] for e in num), min(e[1] for e in den), 0)
    shift_t = -min(min(e[2] for e in num), min(e[2] for e in den), 0)
    num_poly = MPoly(EMBED_VARS, {(ex, es + shift_s, et + shift_t): c
                                  for (ex, es, et), c in num.items()})
    den_poly = MPoly(EMBED_VARS, {(ex, es + shift_s, et + shift_t): c
                                  for (ex, es, et), c in den.items()})
    return RatFun(num_poly, den_poly)


def _substitute_laurent(p: MPoly) -> dict[tuple[int, int, int], Fraction]:
    """Monomial map s^i t^j u^k -> x^k s^(i-j) t^(j-k), as a Laurent dict."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in p.terms.items():
        key = (k, i - j, j - k)
        out[key] = out.get(key, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}
