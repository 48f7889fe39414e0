"""Truncated univariate power series with exact rational coefficients.

A PowerSeries stores coefficients c_0..c_N; N is the truncation order (the
series is known through the coefficient of var^N).  Binary operations carry
the minimum of the two operand orders.  Division requires an invertible
(nonzero constant term) divisor; composition requires the inner series to
have valuation >= 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    def zero(var: str, order: int) -> PowerSeries:
        return PowerSeries(var, [0] * (order + 1))

    @staticmethod
    def one(var: str, order: int) -> PowerSeries:
        return PowerSeries(var, [1] + [0] * order)

    @staticmethod
    def identity(var: str, order: int) -> PowerSeries:
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return PowerSeries(var, c)

    @staticmethod
    def from_mpoly(p: MPoly, var: str, order: int) -> PowerSeries:
        if p.vars != (var,):
            raise ValueError(f"expected univariate polynomial in {var!r}")
        c = [Fraction(0)] * (order + 1)
        for (e,), coef in p.terms.items():
            if e <= order:
                c[e] = Fraction(coef)
        return PowerSeries(var, c)

    @staticmethod
    def from_ratfun(f: RatFun, var: str, order: int) -> PowerSeries:
        """Expand a univariate rational function (denominator unit at 0)."""
        num = PowerSeries.from_mpoly(f.num, var, order)
        den = PowerSeries.from_mpoly(f.den, var, order)
        return num / den

    # -- basic data ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> PowerSeries:
        if order >= self.order:
            return self
        return PowerSeries(self.var, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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

    def __rsub__(self, other) -> PowerSeries:
        return (-self) + other

    def __mul__(self, other) -> PowerSeries:
        if isinstance(other, (int, Fraction)):
            return PowerSeries(self.var, [c * other for c in self.coeffs])
        o = self._coerce(other)
        n = min(self.order, o.order)
        a, da = self._cleared(n)
        b, db = o._cleared(n)
        prod = (a * b).terms
        d = da * db
        return PowerSeries(self.var, [Fraction(prod.get((i,), 0), d) for i in range(n + 1)])

    __rmul__ = __mul__

    def _cleared(self, n: int) -> tuple[MPoly, int]:
        """(p, d): c_0..c_n as an integer polynomial p in var, with c_i = p_i / d.

        Products then run in integers over the common denominator, so dense
        ones take MPoly's Kronecker-packed multiplication.
        """
        coeffs = self.coeffs[: n + 1]
        d = lcm(*(c.denominator for c in coeffs))
        return MPoly((self.var,), {(i,): c.numerator * (d // c.denominator)
                                   for i, c in enumerate(coeffs) if c}), d

    def __truediv__(self, other) -> PowerSeries:
        return self * self._coerce(other).power(-1)

    def __pow__(self, k: int) -> PowerSeries:
        if k < 0:
            return self.power(-1) ** (-k)
        result = PowerSeries.one(self.var, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> PowerSeries:
        if self.order == 0:
            return PowerSeries(self.var, [0])
        return PowerSeries(self.var, [self.coeffs[i] * i for i in range(1, self.order + 1)])

    # -- composition & powers ---------------------------------------------------

    def compose(self, inner: PowerSeries) -> PowerSeries:
        """self(inner(var)); requires valuation(inner) >= 1."""
        if inner.var != self.var:
            raise ValueError("series variable mismatch")
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires inner series of valuation >= 1")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        acc = PowerSeries.zero(self.var, n)
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * inner
            if c:
                acc = acc + c
        return acc

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
