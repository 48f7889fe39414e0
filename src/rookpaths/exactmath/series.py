"""Truncated univariate power series with exact rational coefficients.

A PowerSeries stores coefficients c_0..c_N; N is the truncation order (the
series is known through the coefficient of var^N).  Binary operations carry
the minimum of the two operand orders.  The one series division, inside
`from_ratfun` and `compose`, needs a divisor with nonzero constant term and
runs in integers; composition takes a rational map N/D with N(0) = 0 and
D(0) != 0, runs in the map's own scale x = D(0)*y, where the divisor has
constant term 1, and keeps the outer order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Sequence, Union

from .mpoly import MPoly
from .ratfun import RatFun

Scalar = Union[int, Fraction]


class PowerSeries:
    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence[Scalar]):
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        self.var = var
        self.coeffs = [Fraction(c) for c in coeffs]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_ratfun(f: RatFun, var: str, order: int) -> PowerSeries:
        """Expand a univariate rational function (denominator unit at 0)."""
        if f.vars != (var,):
            raise ValueError(f"expected univariate rational function in {var!r}")
        return _quotient(var, _dense(f.num, order), _dense(f.den, order), Fraction(1))

    # -- basic data ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.var == other.var and self.coeffs[: n + 1] == other.coeffs[: n + 1]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> PowerSeries:
        if isinstance(other, PowerSeries):
            if other.var != self.var:
                raise ValueError("series variable mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return PowerSeries(self.var, [other] + [0] * self.order)
        raise TypeError(f"cannot combine PowerSeries with {type(other)!r}")

    def __add__(self, other) -> PowerSeries:
        o = self._coerce(other)
        n = min(self.order, o.order)
        return PowerSeries(self.var, [self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> PowerSeries:
        return PowerSeries(self.var, [-c for c in self.coeffs])

    def __sub__(self, other) -> PowerSeries:
        return self + (-self._coerce(other))

    def __mul__(self, other) -> PowerSeries:
        if isinstance(other, (int, Fraction)):
            return PowerSeries(self.var, [c * other for c in self.coeffs])
        o = self._coerce(other)
        n = min(self.order, o.order)
        (a, da), (b, db) = self._cleared(n), o._cleared(n)
        d = da * db
        return PowerSeries(self.var, [Fraction(c, d) for c in _times(a, _pairs(b))])

    __rmul__ = __mul__

    def _cleared(self, n: int) -> tuple[list[int], int]:
        """(a, d): c_0..c_n as integers a_i = c_i * d over their common denominator d."""
        coeffs = self.coeffs[: n + 1]
        d = lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (d // c.denominator) for c in coeffs], d

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> PowerSeries:
        if self.order == 0:
            return PowerSeries(self.var, [0])
        return PowerSeries(self.var, [self.coeffs[i] * i for i in range(1, self.order + 1)])

    # -- composition & powers ---------------------------------------------------

    def compose(self, f: RatFun) -> PowerSeries:
        """self(f(var)) for a rational map f = N/D in var with N(0) = 0 and D(0) != 0.

        With x = d0*y and d0 = D(0), f = N'/D' for the integer polynomials
        N'(y) = N(d0*y)/d0 and D'(y) = D(d0*y)/d0, and D'(0) = 1.  Only c_k with
        k <= K = n // v(N) reach y^n.  With c_k = C_k / L over one denominator,
        Horner in integers, acc <- acc*N' + C_k*D'^(K-k) mod y^(n+1), builds
        L * D'^K * self(f); one division by D'^K and L, and by d0^i at y^i, ends it.
        """
        if f.vars != (self.var,):
            raise ValueError(f"composition needs a rational map in {self.var!r} alone")
        if (0,) in f.num.terms or (0,) not in f.den.terms:
            raise ValueError("composition needs a map f = N/D with N(0) = 0 and D(0) != 0")
        n, d0 = self.order, f.den.terms[(0,)]
        powers = list(accumulate([1] + [d0] * n, mul))  # d0^i
        num, den = (_pairs([c * w // d0 for c, w in zip(_dense(p, n), powers)]) for p in (f.num, f.den))
        C, L = self._cleared(n // num[0][0] if num else 0)
        acc = [C[-1]] + [0] * n
        den_power = [1] + [0] * n  # D'^(K-k)
        for c in reversed(C[:-1]):
            acc, den_power = _times(acc, num), _times(den_power, den)
            if c:
                acc = [a + c * p for a, p in zip(acc, den_power)]
        return _quotient(self.var, acc, den_power, Fraction(1, L), d0)

    def power(self, alpha: Scalar) -> PowerSeries:
        """self^alpha for a rational alpha, by J.C.P. Miller's recurrence.

        Comparing coefficients in f * g' = alpha * f' * g gives
        n f_0 g_n = sum_{k=1..n} ((alpha+1)k - n) f_k g_(n-k) (Knuth, TAOCP
        Vol. 2, 4.7), one pass that costs O(N) per nonzero f_k.  The constant
        term must be nonzero, and 1 when alpha is fractional (which fixes the
        branch).
        """
        alpha = Fraction(alpha)
        f0 = self.coeffs[0]
        if f0 == 0:
            raise ValueError("a power of a series needs a nonzero constant term")
        if alpha.denominator != 1 and f0 != 1:
            raise ValueError("a fractional power needs constant term 1 (branch ambiguity otherwise)")
        # (alpha+1)k - n = (p*k - q*n)/q keeps the weights integral
        p, q = (alpha + 1).numerator, (alpha + 1).denominator
        nonzero = [(k, c) for k, c in enumerate(self.coeffs) if k and c]
        g = [f0 ** alpha.numerator if alpha.denominator == 1 else Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k, c in nonzero:
                if k > n:
                    break
                acc += (p * k - q * n) * c * g[n - k]
            g.append(acc / (q * n * f0))
        return PowerSeries(self.var, g)

    # -- display -----------------------------------------------------------------

    def __repr__(self) -> str:
        shown = []
        for i, c in enumerate(self.coeffs[:8]):
            if c:
                shown.append(f"{c}*{self.var}^{i}")
        body = " + ".join(shown) if shown else "0"
        return f"PowerSeries({body} + O({self.var}^{self.order + 1}))"


def _dense(p: MPoly, n: int) -> list[int]:
    """Coefficients 0..n of a univariate polynomial with integer coefficients."""
    return [p.terms.get((i,), 0) for i in range(n + 1)]


def _pairs(a: list[int]) -> list[tuple[int, int]]:
    """The (exponent, coefficient) pairs of the nonzero entries of a, lowest first."""
    return [(e, c) for e, c in enumerate(a) if c]


def _times(a: list[int], factor: list[tuple[int, int]]) -> list[int]:
    """a * factor mod x^len(a), for the (exponent, coefficient) pairs of a polynomial."""
    out = [0] * len(a)
    for e, c in factor:
        out[e:] = [o + c * x for o, x in zip(out[e:], a)]
    return out


def _quotient(var: str, a: list[int], b: list[int], scale: Fraction, step: int = 1) -> PowerSeries:
    """scale * (a / b)(x / step) through x^(len(a)-1), for integer coefficient lists with b[0] != 0.

    h_i = b_0^(i+1) q_i of the quotient q = a / b obeys the division-free
    h_i = b_0^i a_i - sum_{j>=1} b_j b_0^(j-1) h_(i-j), as in expand_diagonal;
    coefficient i is then one Fraction, scale * h_i / (b_0 (b_0 step)^i).
    """
    if not b[0]:
        raise ValueError("division needs a divisor with nonzero constant term")
    powers = list(accumulate([1] + [b[0]] * len(a), mul))
    tail = [c * p for c, p in zip(b[1:len(a)], powers)]  # b_j b_0^(j-1)
    while tail and not tail[-1]:
        tail.pop()
    h: list[int] = []
    for x, w in zip(a, powers):
        h.append(x * w - sum(map(mul, tail, reversed(h))))
    dens = accumulate([scale.denominator * b[0]] + [b[0] * step] * len(a), mul)
    return PowerSeries(var, [Fraction(x * scale.numerator, d) for x, d in zip(h, dens)])
