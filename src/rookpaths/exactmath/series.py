"""Truncated univariate power series with exact rational coefficients.

A PowerSeries stores coefficients c_0..c_N; N is the truncation order (the
series is known through the coefficient of var^N).  Binary operations carry
the minimum of the two operand orders.  Division requires an invertible
(nonzero constant term) divisor; composition requires the inner series to
have valuation >= 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .mpoly import MPoly
from .ratfun import RatFun

Scalar = Union[int, Fraction]

DEFAULT_ORDER = 64


class PowerSeries:
    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence[Scalar]):
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        self.var = var
        self.coeffs = [Fraction(c) for c in coeffs]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(var: str, order: int = DEFAULT_ORDER) -> PowerSeries:
        return PowerSeries(var, [0] * (order + 1))

    @staticmethod
    def one(var: str, order: int = DEFAULT_ORDER) -> PowerSeries:
        return PowerSeries(var, [1] + [0] * order)

    @staticmethod
    def identity(var: str, order: int = DEFAULT_ORDER) -> PowerSeries:
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return PowerSeries(var, c)

    @staticmethod
    def from_mpoly(p: MPoly, var: str, order: int = DEFAULT_ORDER) -> PowerSeries:
        if p.vars != (var,):
            raise ValueError(f"expected univariate polynomial in {var!r}")
        c = [Fraction(0)] * (order + 1)
        for (e,), coef in p.terms.items():
            if e <= order:
                c[e] = Fraction(coef)
        return PowerSeries(var, c)

    @staticmethod
    def from_ratfun(f: RatFun, var: str, order: int = DEFAULT_ORDER) -> PowerSeries:
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
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    b = o.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeries(self.var, out)

    __rmul__ = __mul__

    def inverse(self) -> PowerSeries:
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        n = self.order
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / c0
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * inv[k - i]
            inv[k] = -acc / c0
        return PowerSeries(self.var, inv)

    def __truediv__(self, other) -> PowerSeries:
        o = self._coerce(other)
        if o.coeffs[0] == 0:
            raise ValueError("division by a series of positive valuation is not supported")
        return self * o.inverse()

    def __pow__(self, k: int) -> PowerSeries:
        if k < 0:
            return self.inverse() ** (-k)
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

    def integral(self) -> PowerSeries:
        """Term-by-term antiderivative with constant 0; order grows by one."""
        return PowerSeries(self.var, [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    # -- composition & roots ---------------------------------------------------

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

    def log(self) -> PowerSeries:
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        return (self.derivative() / self.truncate(self.order - 1)).integral() if self.order >= 1 \
            else PowerSeries(self.var, [0])

    def exp(self) -> PowerSeries:
        """exp of a series with constant term 0 (solves e' = f' e)."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant term 0")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        # k*out[k] = sum_{i=1..k} i*self[i]*out[k-i]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += i * self.coeffs[i] * out[k - i]
            out[k] = acc / k
        return PowerSeries(self.var, out)

    def nth_root(self, k: int) -> PowerSeries:
        """The series q with q^k = self; requires constant term 1, k >= 1."""
        if k < 1:
            raise ValueError("root index must be >= 1")
        if self.coeffs[0] != 1:
            raise ValueError("nth_root requires constant term 1 (branch ambiguity otherwise)")
        if k == 1:
            return self
        log = self.log()
        return PowerSeries(self.var, [c / k for c in log.coeffs]).exp()

    # -- display -----------------------------------------------------------------

    def __repr__(self) -> str:
        shown = []
        for i, c in enumerate(self.coeffs[:8]):
            if c:
                shown.append(f"{c}*{self.var}^{i}")
        body = " + ".join(shown) if shown else "0"
        return f"PowerSeries({body} + O({self.var}^{self.order + 1}))"
