"""Exact-rational numerics: constants, bisection, series extrapolation.

Everything here computes with Fractions until the final decimal rendering,
so results are reproducible bit for bit.  The constants pi and sqrt(3) are
delivered as rational enclosures good to CONSTANT_DIGITS digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod
from typing import Callable, Sequence

CONSTANT_DIGITS = 30  # the accuracy of the rational enclosures of pi and sqrt


def decimal_str(value: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering, truncated (not rounded)."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole = value.numerator // value.denominator
    rem = value - whole
    scaled = (rem.numerator * 10 ** digits) // rem.denominator
    return f"{sign}{whole}.{scaled:0{digits}d}" if digits else f"{sign}{whole}"


def bisect_root(fn: Callable[[Fraction], Fraction], lo: Fraction, hi: Fraction,
                eps: Fraction) -> Fraction:
    """Bisection on an exact sign change; returns a point within eps of a root."""
    flo = fn(lo)
    if flo == 0:
        return lo
    fhi = fn(hi)
    if fhi == 0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise ArithmeticError("no sign change in the bracket")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        fm = fn(mid)
        if fm == 0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def sqrt_rational(value: Fraction) -> Fraction:
    """sqrt(value) truncated to CONSTANT_DIGITS + 4 decimals, by an integer square root."""
    if value < 0:
        raise ValueError("negative radicand")
    scale = 10 ** (CONSTANT_DIGITS + 4)
    return Fraction(isqrt(value.numerator * scale ** 2 // value.denominator), scale)


def pi_rational() -> Fraction:
    """Machin's formula with exact arctan series, to CONSTANT_DIGITS digits."""

    def arctan_inv(k: int, terms: int) -> Fraction:
        acc = Fraction(0)
        power = Fraction(1, k)
        k2 = k * k
        for m in range(terms):
            term = power / (2 * m + 1)
            acc += term if m % 2 == 0 else -term
            power /= k2
        return acc

    # pi/4 = 4*arctan(1/5) - arctan(1/239); term counts from the geometric tails.
    pi = 4 * (4 * arctan_inv(5, CONSTANT_DIGITS + 8) - arctan_inv(239, CONSTANT_DIGITS // 4 + 6))
    scale = 10 ** (CONSTANT_DIGITS + 4)
    return Fraction(int(pi * scale), scale)


def extrapolate_partial_sums(partial_sum: Callable[[int], Fraction],
                             nodes: Sequence[int]) -> Fraction:
    """Extrapolate S(n) to n = infinity assuming an expansion in 1/n.

    The polynomial through the points (1/n_i, S(n_i)) takes at 0 the value
    sum_i S(n_i) prod_{j != i} n_i / (n_i - n_j) (Lagrange form), whose
    weights are ratios of small integers; the nodes must be distinct and nonzero.
    """
    if not nodes:
        raise ValueError("need at least one node")
    return sum((partial_sum(n) * Fraction(n ** (len(nodes) - 1),
                                          prod(n - m for j, m in enumerate(nodes) if j != i))
                for i, n in enumerate(nodes)), Fraction(0))
