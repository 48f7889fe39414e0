"""Exact linear algebra over polynomial fraction fields.

Polynomial rows are solved as mpoly._heu_gcd finds a gcd: through integer images,
read back from their digits and checked exactly.  Failing that, elimination is
fraction-free: cross-multiplication followed by a full content strip of every
updated row (rational content and polynomial gcd across the row).  By Sylvester's
identity the stripped content always contains the Bareiss pivot factor, so growth
is no worse than classical fraction-free elimination while the representation
never leaves the polynomial ring.  Back-substitution stays in the ring too: each
solved coordinate scales the vector by its pivot's cofactor.  Plain numbers run
the same elimination on Python ints, cleared row by row, with math.gcd strips.

Kernel vectors are canonical: for each free column the unique solution with
that coordinate 1 and the other free coordinates 0, cleared to polynomials
of content 1 with the first nonzero coordinate's leading coefficient positive.
Pivot rows and evaluation points therefore affect speed only, never the output.
Column order does choose the basis: the vector of free column f is zero after f,
so listing a subspace's coordinates last-first makes its echelon pivots free
columns and the other basis vectors come out reduced modulo it (this is how the
telescoping solver quotients out trivial certificates).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .mpoly import FIELD_BITS, MPoly, _eval_var, _interpolate, _rational_roots, frac_gcd, mpoly_gcd, mpoly_lcm
from .ratfun import RatFun

_KERNEL_TRIES = 3
_IMAGE_BITS = 4096


def linear_nullspace(matrix: Sequence[Sequence[MPoly | int | Fraction]]) -> list[list]:
    """Basis of the right kernel of a nonempty matrix, cleared to content-1 vectors.

    The cells are MPolys over one nonempty variable tuple, or plain ints and
    Fractions, which run the elimination on Python ints and get int vectors back.
    MPoly rows are solved through integer images (_image_kernel), and by the
    elimination over MPoly when that gives up.  Both give the same basis: an image
    kernel is at least as large as the generic one; read-back vectors with M v = 0
    lie in the generic kernel and are independent, each nonzero at its own free
    column of the image and zero at the others, so the dimensions agree; a kernel's
    free columns are the last nonzero coordinates of its vectors, and each read-back
    vector is zero after its own, so the free columns agree too.  Each is then its
    column's canonical vector up to a factor, which strip_content and the sign remove."""
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
    rows = [{j: p for j, p in enumerate(row) if p} for row in matrix]
    basis = _image_kernel([r if (d := math.lcm(*(c.denominator for e in r.values() for c in e.packed.values()))) == 1
                           else {j: e * d for j, e in r.items()} for r in rows if r], ncols, vars)
    if basis is not None:
        return [[vec.get(j, MPoly.zero(vars)) for j in range(ncols)] for vec in basis]
    return _kernel(rows, ncols, MPoly.const(vars, 1), mpoly_gcd, MPoly.divide_exact, strip_content,
                   lambda e: (len(e.packed), e.total_degree()), MPoly.leading_coeff)


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


def _image_kernel(rows: list[dict[int, MPoly]], ncols: int,
                  vars: tuple[str, ...]) -> list[dict[int, MPoly]] | None:
    """The canonical kernel of integer-coefficient rows, or None: as in _heu_gcd, the
    last live variable is evaluated at an integer xi and the image solved again,
    down to _integer_kernel.  An image vector is v(xi)/lam for the canonical v and
    an integer lam; _read_back recovers both.  xi is odd, so that it rarely shares
    a factor with lam, and starts at the square of GCDHEU's 2|M| + 1, since kernel
    coefficients can outgrow the matrix's.  A failed read-back or M v != 0 moves on
    to xi^2, for _KERNEL_TRIES points; rows past _IMAGE_BITS bits are not solved."""
    norm = max((abs(c) for r in rows for e in r.values() for c in e.packed.values()), default=0)
    if norm.bit_length() > _IMAGE_BITS:
        return None
    live = reduce(operator.or_, (k for r in rows for e in r.values() for k in e.packed), 0)
    live &= (1 << (FIELD_BITS * len(vars))) - 1
    if not live:
        dense = [[r[j].packed[0] if j in r else 0 for j in range(ncols)] for r in rows]
        return [{j: MPoly._of(vars, {0: c}) for j, c in enumerate(vec) if c}
                for vec in _integer_kernel(dense, ncols)]
    i = (live.bit_length() - 1) // FIELD_BITS  # the last live variable
    xi = (2 * norm + 1) ** 2
    for _ in range(_KERNEL_TRIES):
        image = [{j: p for j, e in r.items() if (p := _eval_var(e, i, xi))} for r in rows]
        basis = _image_kernel([r for r in image if r], ncols, vars)
        if not basis:
            return basis  # None, or no image kernel and so no kernel
        basis = [_read_back(vec, i, xi) for vec in basis]
        if None not in basis and not any(sum((e * vec[j] for j, e in r.items() if j in vec), MPoly.zero(vars))
                                         for r in rows for vec in basis):
            return basis
        xi *= xi
    return None


def _read_back(vec: dict[int, MPoly], i: int, xi: int) -> dict[int, MPoly] | None:
    """The content-1, sign-fixed vector with the symmetric base-xi digits of lam*vec in variable
    i, or None.  A digit of lam*vec that is not small is rationally reconstructed (extended
    Euclid, numerator up to xi/(2D), denominator up to D = xi^(1/4)), and lam takes on its denominator."""
    bound = math.isqrt(math.isqrt(xi))
    lam = 1
    for c in (c for e in vec.values() for c in e.packed.values()):
        c *= lam
        while c:
            r0, r1, t0, t1 = xi, c % xi, 0, 1
            while r1 > xi // (2 * bound):
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(t1) > bound:
                return None
            lam, c = lam * abs(t1), (c * abs(t1) + xi // 2) // xi  # drop the digit, now small
    vec = strip_content({j: _interpolate(e * lam, i, xi) for j, e in vec.items()})
    return {j: -e for j, e in vec.items()} if vec[min(vec)].leading_coeff() < 0 else vec


def _kernel(rows: list[dict], ncols: int, one, gcd, quo, strip, size, lead) -> list[list]:
    """Canonical kernel basis of sparse rows over one ring, given its unit, gcd, exact
    quotient, content strip, pivot cost and the coefficient that carries an entry's sign."""
    rows = [strip(r) for r in rows if r]
    pivots: list[tuple[int, dict]] = []
    for col in range(ncols):
        candidates = [r for r in rows if col in r]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda r: (size(r[col]), min(r), len(r)))
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
    lead); zero entries stay zero.  A constant denominator, or one that
    divides the running lcm, leaves it unchanged, so mpoly_lcm runs only for
    a denominator that brings a new factor."""
    common = MPoly.const(vars, 1)
    for e in entries:
        if not e.den.is_constant() and common.try_divide(e.den) is None:
            common = mpoly_lcm(common, e.den) if not common.is_constant() else e.den.primitive_part()
    return [e.num * common.divide_exact(e.den) if not e.is_zero() else MPoly.zero(vars)
            for e in entries]
