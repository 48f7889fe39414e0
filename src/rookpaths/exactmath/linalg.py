"""Exact linear algebra over polynomial fraction fields.

The solver is fraction-free: it takes polynomial rows, and elimination uses
cross-multiplication followed by a full content strip of every updated row
(rational content and polynomial gcd across the row).  By
Sylvester's identity the stripped content always contains the Bareiss pivot
factor, so growth is no worse than classical fraction-free elimination while
the representation never leaves the polynomial ring.  Back-substitution
stays in the ring too: each solved coordinate scales the vector by its
pivot's cofactor.  A matrix of plain numbers runs the same elimination on
Python ints, cleared row by row, with math.gcd content strips.

Kernel vectors are canonical: for each free column the unique solution with
that coordinate 1 and the other free coordinates 0, cleared to polynomials
of content 1 with the first nonzero coordinate's leading coefficient positive.
Pivot-row selection therefore affects speed only, never the output.  Column
order does choose the basis: the vector of free column f is zero after f, so
listing a subspace's coordinates last-first makes its echelon pivots free
columns and the other basis vectors come out reduced modulo it (this is how
the telescoping solver quotients out trivial certificates).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .mpoly import MPoly, _rational_roots, frac_gcd, mpoly_gcd, mpoly_lcm
from .ratfun import RatFun


def linear_nullspace(matrix: Sequence[Sequence[MPoly | int | Fraction]]) -> list[list]:
    """Basis of the right kernel of a nonempty matrix, cleared to content-1 vectors.

    The cells are MPolys over one nonempty variable tuple, or plain ints and
    Fractions, which run the elimination on Python ints and get int vectors back."""
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be nonempty")
    ncols = len(matrix[0])
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    kinds = {e.vars if isinstance(e, MPoly) else None for row in matrix for e in row}
    if len(kinds) > 1:
        raise ValueError("mixed variable tuples in matrix")
    (vars,) = kinds
    if vars is None:
        return _integer_kernel(matrix, ncols)
    if not vars:
        raise ValueError("MPolys over no variables: pass plain numbers")
    return _kernel([{j: p for j, p in enumerate(row) if p} for row in matrix], ncols,
                   MPoly.const(vars, 1), mpoly_gcd, MPoly.divide_exact, strip_content,
                   lambda e: (len(e.terms), e.total_degree()), MPoly.leading_coeff)


def root_values(a: MPoly, b: MPoly, G: MPoly) -> list[Fraction]:
    """The rational values of a/b at the roots of a univariate G prime to b, sorted.

    They are the rational roots of mu, the least-degree polynomial with
    mu(a/b) = 0 in Q[x]/(G).  With M = max(deg a, deg b), a relation of degree d
    cleared by b^d reads sum_(i <= d) mu_i a^i b^(d-i) = G * W, deg W = d*M - deg G:
    one integer system per d, from the least d with d*M >= deg G (1 when M = 0)
    to deg G at most, where it has more unknowns than rows.  Below that d the sum
    would vanish identically, which only a constant a/b allows, and then the first
    kernel vector is x - a/b.  a and b lose their rational contents, which scale
    the roots back, and each power is built once, when d first needs it.
    """
    (var,) = G.vars
    g = G.degree(var)
    ca, cb = a.rational_content() or Fraction(1), b.rational_content()
    a, b = a * (1 / ca), b * (1 / cb)
    M = max(a.degree(var), b.degree(var))
    g_coeffs = {e: c for (e,), c in G.primitive_part().terms.items()}
    a_pows, b_pows = [MPoly.const(G.vars, 1)], [MPoly.const(G.vars, 1)]
    for d in range(-(-g // M) if M else 1, g + 1):
        while len(a_pows) <= d:
            a_pows.append(a_pows[-1] * a)
            b_pows.append(b_pows[-1] * b)
        columns = [{e: c for (e,), c in (a_pows[i] * b_pows[d - i]).terms.items()} for i in range(d + 1)]
        columns += [{e + j: -c for e, c in g_coeffs.items()} for j in range(d * M - g + 1)]
        kernel = linear_nullspace([[col.get(row, 0) for col in columns] for row in range(d * M + 1)])
        if kernel:
            break
    mu = MPoly(G.vars, {(i,): m for i, m in enumerate(kernel[0][:d + 1])})
    return [r * ca / cb for r, _mult in _rational_roots(mu)[0]]


def _integer_kernel(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> list[list[int]]:
    """The kernel of a matrix of numbers, each row first cleared of its denominators."""
    rows = []
    for row in matrix:
        den = math.lcm(*(c.denominator for c in row))
        rows.append({j: c.numerator * (den // c.denominator) for j, c in enumerate(row) if c})
    return _kernel(rows, ncols, 1, math.gcd, operator.floordiv, _strip_integers, abs, int)


def _kernel(rows: list[dict], ncols: int, one, gcd, quo, strip, size, lead) -> list[list]:
    """Canonical kernel basis of sparse rows over one ring, given its unit, gcd, exact
    quotient, content strip, pivot cost and the coefficient that carries an entry's sign."""
    rows = [strip(r) for r in rows if r]
    pivots: list[tuple[int, dict]] = []
    for col in range(ncols):
        pivot = None
        best = None
        for r in rows:
            e = r.get(col)
            if e is None:
                continue
            score = (size(e), min(r.keys()), len(r))
            if best is None or score < best:
                best = score
                pivot = r
        if pivot is None:
            continue
        rows.remove(pivot)
        pe = pivot[col]
        new_rows = []
        for r in rows:
            e = r.pop(col, None)
            if e is None:
                new_rows.append(r)
                continue
            g = gcd(pe, e)
            f_keep = quo(pe, g)
            f_sub = quo(e, g)
            updated = {}
            for j in set(r) | set(pivot):
                if j == col:
                    continue
                a = r.get(j)
                b = pivot.get(j)
                if a is None:
                    val = -(f_sub * b)
                elif b is None:
                    val = f_keep * a
                else:
                    val = f_keep * a - f_sub * b
                if val:
                    updated[j] = val
            if updated:
                new_rows.append(strip(updated))
        rows = new_rows
        pivots.append((col, pivot))

    pivot_cols = {c for c, _ in pivots}
    zero = one * 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        vec = {f: one}
        for col, prow in reversed(pivots):
            acc = zero
            for j, e in prow.items():
                if j != col and j in vec:
                    acc = acc + e * vec[j]
            if acc:
                g = gcd(prow[col], acc)
                scale = quo(prow[col], g)
                vec = {j: a * scale for j, a in vec.items()}
                vec[col] = -quo(acc, g)
        vec = strip(vec)
        sign = -1 if lead(vec[min(vec)]) < 0 else 1
        basis.append([vec[j] * sign if j in vec else zero for j in range(ncols)])
    return basis


def _strip_integers(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return row if g == 1 else {j: e // g for j, e in row.items()}


def strip_content(row: dict) -> dict:
    """Nonzero MPoly values (under any keys) divided by their content: the primitive
    gcd of the polynomials, then the positive gcd of the rational contents left."""
    entries = iter(row.values())
    g = next(entries)
    for e in entries:
        if g.is_constant():
            break
        g = mpoly_gcd(g, e)
    if not g.is_constant():
        g = g.primitive_part()
        row = {j: e.divide_exact(g) for j, e in row.items()}
    c = reduce(frac_gcd, (e.rational_content() for e in row.values()))
    if c == 1:
        return row
    inv = 1 / c
    return {j: e * inv for j, e in row.items()}


def clear_denominators(entries: Sequence[RatFun], vars: tuple[str, ...]) -> list[MPoly]:
    """The entries times the lcm of their denominators (primitive, positive
    lead); zero entries stay zero."""
    common = MPoly.const(vars, 1)
    for e in entries:
        if not e.den.is_constant():  # a constant factor leaves the primitive lcm unchanged
            common = mpoly_lcm(common, e.den) if not common.is_constant() else e.den.primitive_part()
    return [e.num * common.divide_exact(e.den) if not e.is_zero() else MPoly.zero(vars)
            for e in entries]
