"""Diagonals of trivariate rational series and the residue embedding.

expand_diagonal expands f(s,t,u) as a truncated power series on the cube
[0..n_max]^3 (denominator must be a unit at the origin) and reads off the
coefficients c_{n,n,n}.  residue_embedding performs the substitution
F = (1/(s*t)) * f(s, t/s, x/t), whose coefficient of s^-1 t^-1 encodes the
diagonal, by two RatFun.subs calls (one MPoly.subs per side each); it is
exact rational-function plumbing, no series involved.
"""

from __future__ import annotations

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
    """The rational function (1/(s*t)) * f(s, t/s, x/t) over (x, s, t): f over (x, s, t, u)
    at t = t/s, then at u = x/t, so the t that x/t brings in is not substituted again."""
    if f.vars != GF_VARS:
        raise ValueError(f"expected a rational function in {GF_VARS}")
    xstu = EMBED_VARS + ("u",)
    x, s, t = (RatFun(MPoly.var(xstu, v)) for v in EMBED_VARS)
    F = f.extend_vars(xstu).subs("t", t / s).subs("u", x / t) / (s * t)
    return RatFun(F.num.restricted(EMBED_VARS), F.den.restricted(EMBED_VARS), _reduced=True)
