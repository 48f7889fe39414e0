"""Normalized rational functions: quotients of sparse polynomials.

The representation is always reduced: numerator and denominator are coprime,
the pair carries integer coefficients of joint content 1, and the denominator
has a positive leading coefficient in the graded-lex monomial order.  With
that convention two RatFun are equal as rational functions iff their stored
parts are identical, so equality is a dict comparison.  `RatFun.subs` puts a
RatFun for one variable by one `MPoly.subs` per side and one normalization.  The
gcd runs only where a factor can cancel: not when one side is constant, and in
`derivative` only against gcd(d, d_v), which holds every factor that can.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .mpoly import MPoly, _expr, _poly_of, frac_gcd, mpoly_gcd

Scalar = Union[int, Fraction]


class RatFun:
    """Immutable reduced fraction of two MPoly over the same variables."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None, *, _reduced: bool = False):
        if den is None:
            den = MPoly.const(num.vars, 1)
        if num.vars != den.vars:
            raise ValueError(f"variable mismatch: {num.vars} vs {den.vars}")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = MPoly.const(num.vars, 1)
            return
        if not _reduced:
            num, den = _cross_reduce(num, den)
        # Joint scaling: integer coefficients, content 1, positive lead in den.
        scale = 1 / frac_gcd(num.rational_content(), den.rational_content())
        if den.leading_coeff() < 0:
            scale = -scale
        if scale != 1:
            num, den = num * scale, den * scale
        self.num, self.den = num, den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_scalar(value: Scalar, vars: Sequence[str]) -> RatFun:
        return RatFun(MPoly.const(vars, value))

    # -- predicates --------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_mpoly(self) -> MPoly:
        if not self.den.is_constant():
            raise ValueError("not a polynomial")
        return self.num * (1 / self.den.constant_value())

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value() / self.den.constant_value()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> RatFun:
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.from_scalar(other, self.vars)
        raise TypeError(f"cannot combine RatFun with {type(other)!r}")

    def __add__(self, other) -> RatFun:
        o = self._coerce(other)
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            return RatFun(self.num + o.num, self.den)
        # Henrici addition: any common factor of the sum divides gcd(d1, d2),
        # so the final reduction works on small operands.
        g = mpoly_gcd(self.den, o.den)
        if g.is_constant():
            return RatFun(self.num * o.den + o.num * self.den,
                          self.den * o.den, _reduced=True)
        d1r = self.den.divide_exact(g)
        d2r = o.den.divide_exact(g)
        num = self.num * d2r + o.num * d1r
        h = mpoly_gcd(num, g)
        if h.is_constant():
            return RatFun(num, d1r * o.den, _reduced=True)
        return RatFun(num.divide_exact(h), d1r * o.den.divide_exact(h), _reduced=True)

    __radd__ = __add__

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den, _reduced=True)

    def __sub__(self, other) -> RatFun:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> RatFun:
        return (-self) + other

    def __mul__(self, other) -> RatFun:
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return RatFun.from_scalar(0, self.vars)
        # Cross-reduce before multiplying to keep intermediates small.
        n1, d2 = _cross_reduce(self.num, o.den)
        n2, d1 = _cross_reduce(o.num, self.den)
        return RatFun(n1 * n2, d1 * d2, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFun:
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFun(o.den, o.num, _reduced=True)

    def __rtruediv__(self, other) -> RatFun:
        return self._coerce(other) / self

    # -- calculus & substitution ---------------------------------------------

    def derivative(self, name: str) -> RatFun:
        """d/dv (n/d) = N/(d*(d/g)), g = gcd(d, d_v), N = n_v*(d/g) - n*(d_v/g), reduced by h = gcd(N, g).

        Write d = c*e with c the v-content of d; then g = c*gcd(e, e_v).  An irreducible
        p | e of multiplicity k divides d_v exactly k-1 times, so p | d/g, p does not
        divide d_v/g nor n, and p does not divide N.  Only v-free factors, which all
        divide c, can cancel: gcd(N, d*(d/g)) = gcd(N, c) = gcd(N, g).  For d/dt of
        (t+s)/(s*t): g = s, N = -s, h = s and the result is -1/t^2.
        """
        dn = self.num.derivative(name)
        dd = self.den.derivative(name)
        if dd.is_zero():
            return RatFun(dn, self.den)
        g = mpoly_gcd(self.den, dd)
        d_red, den = self.den.divide_exact(g), self.den
        num = dn * d_red - self.num * dd.divide_exact(g)
        if not g.is_constant() and not (h := mpoly_gcd(num, g)).is_constant():
            num, den = num.divide_exact(h), den.divide_exact(h)
        return RatFun(num, d_red * den, _reduced=True)

    def extend_vars(self, newvars: Sequence[str]) -> RatFun:
        return RatFun(self.num.with_vars(newvars), self.den.with_vars(newvars), _reduced=True)

    def subs(self, name: str, value: RatFun) -> RatFun:
        """The function at name = value = a/b, both over the same variables: MPoly.subs per
        side, the side of lower degree in name times the missing power of b, and one
        normalization.  A denominator that vanishes there raises ZeroDivisionError."""
        a, b = value.num, value.den
        gap = self.num.degree(name) - self.den.degree(name)
        num = self.num.subs(name, a, b) * b ** max(-gap, 0)
        return RatFun(num, self.den.subs(name, a, b) * b ** max(gap, 0))

    def eval_at(self, values: Mapping[str, Scalar]) -> RatFun:
        den = self.den.eval_at(values)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return RatFun(self.num.eval_at(values), den)

    # -- text form -------------------------------------------------------------

    def text(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self) -> str:
        return f"RatFun({self.text()!r})"

    @staticmethod
    def parse_sides(text: str, vars: Sequence[str]) -> tuple[MPoly, MPoly]:
        """The numerator and denominator as written, before any gcd reduces them."""
        text = text.strip()
        if text.startswith("(") and ")/(" in text and text.endswith(")"):
            ntext, _, dtext = text[1:-1].partition(")/(")
            return MPoly.parse(ntext, vars), MPoly.parse(dtext, vars)
        return MPoly.parse(text, vars), MPoly.const(vars, 1)


def _cross_reduce(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """num and den divided by their gcd; a constant side shares nothing."""
    if num.is_constant() or den.is_constant():
        return num, den
    g = mpoly_gcd(num, den)
    return (num, den) if g.is_constant() else (num.divide_exact(g), den.divide_exact(g))


def ratfun(text: str, vars: Sequence[str]) -> RatFun:
    """Build a RatFun from a poly() expression or a quotient a/b of two at the top level."""
    vars, node = tuple(vars), _expr(text)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return RatFun(_poly_of(node.left, vars, text), _poly_of(node.right, vars, text))
    return RatFun(_poly_of(node, vars, text))
