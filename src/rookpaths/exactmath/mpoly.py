"""Sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and one dict from
packed exponent vectors (Monagan and Pearce, CASC 2007) to nonzero rational
coefficients.  A key holds e_0 in its lowest FIELD_BITS-bit field, e_1 in the
next, ..., e_{n-1}, and the total degree in the top field:

    x^2*s - 3/2  over ("x", "s")  ->  {2 + (1 << 32) + (3 << 64): 1, 0: Fraction(-3, 2)}

The top bit of an exponent field is a guard bit, so exponents are capped at
EXPONENT_CAP = 2^31 - 1: construction, parse, poly and products past it raise
ValueError naming the cap.  Int order is then graded lexicographic order
(total degree, then the exponents of the last variable down; the toolkit lists
variables as x, s, t, ...), which all normal forms refer to; a monomial
product is one int addition and the constant monomial is key 0.
`MPoly.terms` is a read-only view of the same dict under exponent tuples: its
length is the dict's, a lookup packs the tuple and iteration unpacks the keys.

Coefficients are Fraction, demoted to int whenever the denominator is 1
(int arithmetic is markedly faster and mixes freely with Fraction); scaling
by a rational constant makes a Fraction only for a coefficient that stays
fractional.  The zero polynomial has an empty dict.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as _int_gcd
from math import isqrt, lcm
from operator import or_
from typing import Iterator, Mapping, Sequence, Union

Coeff = Union[int, Fraction]

FIELD_BITS = 32
EXPONENT_CAP = (1 << (FIELD_BITS - 1)) - 1
_MASK = (1 << FIELD_BITS) - 1


def _weight(i: int, n: int) -> int:
    """The key of variable i among n."""
    return (1 << (FIELD_BITS * i)) + (1 << (FIELD_BITS * n))


def _guard(n: int) -> int:
    """The guard bits of n exponent fields."""
    return ((1 << (FIELD_BITS * n)) - 1) // _MASK << (FIELD_BITS - 1)


def _pack(exp: Sequence[int]) -> int:
    """The key of an exponent vector with entries in 0..EXPONENT_CAP."""
    return sum(e << (FIELD_BITS * i) for i, e in enumerate(exp)) + (sum(exp) << (FIELD_BITS * len(exp)))


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple(key >> s & _MASK for s in range(0, FIELD_BITS * n, FIELD_BITS))


def _cap_error(what: str) -> ValueError:
    return ValueError(f"{what} has an exponent outside 0..{EXPONENT_CAP}, the cap of a packed field")


def _demote(c: Coeff) -> Coeff:
    """Return c as int when exact, else as Fraction."""
    return c.numerator if c.denominator == 1 else c


def _nonzero(terms: dict[int, Coeff]) -> dict[int, Coeff]:
    """The nonzero terms, demoted, in the same order."""
    return {k: c if c.__class__ is int else _demote(c) for k, c in terms.items() if c}


def _as_fraction(c: Coeff) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _content(terms: Mapping[int, Coeff]) -> tuple[int, int]:
    """gcd of the numerators and lcm of the denominators of nonzero terms."""
    try:
        return _int_gcd(*terms.values()), 1
    except TypeError:  # a Fraction among them
        return _int_gcd(*(c.numerator for c in terms.values())), lcm(*(c.denominator for c in terms.values()))


def _scaled(terms: Mapping[int, Coeff], p: int, q: int) -> dict[int, Coeff]:
    """Every coefficient times p/q (p, q nonzero), demoted, in the same order."""
    out = {}
    for exp, c in terms.items():
        n, d = c.numerator * p, c.denominator * q
        out[exp] = n // d if n % d == 0 else Fraction(n, d)
    return out


def monomial_key(exp: tuple[int, ...]) -> tuple:
    """Sort key realizing graded lex (total degree, then highest variable)."""
    return (sum(exp), tuple(reversed(exp)))


class _Terms(Mapping):
    """Read-only view of a packed term dict under exponent-tuple keys."""

    def __init__(self, packed: dict[int, Coeff], n: int):
        self._packed, self._n = packed, n

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, exp: tuple[int, ...]) -> Coeff:
        if len(exp) == self._n and all(0 <= e <= EXPONENT_CAP for e in exp):
            return self._packed[_pack(exp)]
        raise KeyError(exp)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (_unpack(k, self._n) for k in self._packed)

    def items(self):
        return [(_unpack(k, self._n), c) for k, c in self._packed.items()]

    def values(self):
        return self._packed.values()


class MPoly:
    """Immutable sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("vars", "packed")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Coeff]):
        self.vars = tuple(vars)
        packed: dict[int, Coeff] = {}
        n = len(self.vars)
        for exp, c in terms.items():
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has wrong length for vars {self.vars}")
            if not all(0 <= e <= EXPONENT_CAP for e in exp):
                raise _cap_error(f"the monomial {tuple(exp)}")
            c = _demote(c)
            if c != 0:
                packed[_pack(exp)] = c
        self.packed = packed

    @staticmethod
    def _of(vars: tuple[str, ...], packed: dict[int, Coeff]) -> MPoly:
        """Wrap packed terms that are already nonzero and demoted."""
        p = object.__new__(MPoly)
        p.vars, p.packed = vars, packed
        return p

    @property
    def terms(self) -> Mapping[tuple[int, ...], Coeff]:
        """The terms under exponent tuples, a read-only view of `packed`."""
        return _Terms(self.packed, len(self.vars))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> MPoly:
        return MPoly._of(tuple(vars), {})

    @staticmethod
    def const(vars: Sequence[str], value: Coeff) -> MPoly:
        value = _demote(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        return MPoly._of(tuple(vars), {0: value} if value else {})

    @staticmethod
    def var(vars: Sequence[str], name: str) -> MPoly:
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"{name!r} not among {vars}")
        return MPoly._of(vars, {_weight(vars.index(name), len(vars)): 1})

    def with_vars(self, newvars: Sequence[str]) -> MPoly:
        """Re-embed into a superset variable tuple (same canonical order)."""
        newvars = tuple(newvars)
        if newvars == self.vars:
            return self
        for v in self.vars:
            if v not in newvars:
                raise ValueError(f"cannot drop variable {v!r}")
        return self._repacked(newvars)

    def restricted(self, newvars: Sequence[str]) -> MPoly:
        """Project onto fewer variables; the dropped ones must have degree 0."""
        newvars = tuple(newvars)
        for v in self.vars:
            if v not in newvars and self.degree(v) != 0:
                raise ValueError(f"cannot drop live variable {v!r}")
        if tuple(v for v in self.vars if v in newvars) != newvars:
            raise ValueError("restricted variables must keep canonical order")
        return self._repacked(newvars)

    def _repacked(self, newvars: tuple[str, ...]) -> MPoly:
        """The keys moved to newvars, which hold every live variable in the same order."""
        weights = [_weight(newvars.index(v), len(newvars)) if v in newvars else 0 for v in self.vars]
        return MPoly._of(newvars, {sum(e * w for e, w in zip(_unpack(k, len(self.vars)), weights)): c
                                   for k, c in self.packed.items()})

    def aligned(self, newvars: Sequence[str]) -> MPoly:
        """Re-express over another variable tuple, dropping only dead variables."""
        newvars = tuple(newvars)
        live = tuple(v for v in self.vars if v in newvars)
        return self.restricted(live).with_vars(newvars)

    # -- predicates & basic data --------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return not any(self.packed)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial (0 if absent)."""
        return _as_fraction(self.packed.get(0, 0))

    def total_degree(self) -> int:
        return max(self.packed, default=0) >> (FIELD_BITS * len(self.vars))

    def degree(self, name: str) -> int:
        """Degree in one variable; 0 for the zero polynomial."""
        s = FIELD_BITS * self.vars.index(name)
        return max((k >> s & _MASK for k in self.packed), default=0)

    def leading_coeff(self) -> Coeff:
        """Coefficient of the largest monomial; ValueError for zero."""
        return self.packed[max(self.packed)]

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.packed == other.packed

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: MPoly) -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        self._check(other)
        out = dict(self.packed)
        get = out.get
        for k, c in other.packed.items():
            out[k] = get(k, 0) + c
        return MPoly._of(self.vars, _nonzero(out))

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._of(self.vars, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other) -> MPoly:
        return self + (-other)

    def __mul__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MPoly.zero(self.vars)
            return MPoly._of(self.vars, _scaled(self.packed, other.numerator, other.denominator))
        self._check(other)
        a, b = self.packed, other.packed
        if not a or not b:
            return MPoly.zero(self.vars)
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, Coeff] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if reduce(or_, out) & _guard(len(self.vars)):  # a field overflowed into its guard bit
            raise _cap_error("a product")
        return MPoly._of(self.vars, _nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MPoly:
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- content, normalization ----------------------------------------

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient and primitive."""
        if not self.packed:
            return Fraction(0)
        return Fraction(*_content(self.packed))

    def primitive_part(self) -> MPoly:
        """self / rational_content, sign-fixed to positive leading coefficient."""
        if not self.packed:
            return self
        num, den = _content(self.packed)
        if self.leading_coeff() < 0:
            num = -num
        if num == den == 1:
            return self
        return MPoly._of(self.vars, _scaled(self.packed, den, num))

    # -- calculus & substitution ---------------------------------------

    def derivative(self, name: str) -> MPoly:
        i = self.vars.index(name)
        s, w = FIELD_BITS * i, _weight(i, len(self.vars))
        out = {}
        for k, c in self.packed.items():
            e = k >> s & _MASK
            if e:
                out[k - w] = c * e
        return MPoly._of(self.vars, _nonzero(out))

    def eval_at(self, values: Mapping[str, Coeff]) -> MPoly:
        """Substitute rational values for a subset of the variables: a value p/q for a
        variable of degree D tabulates p^e * q^(D-e) at the exponents e that occur, so
        every term is an integer over one denominator and each output one Fraction."""
        keep = [v for v in self.vars if v not in values]
        lcd = den = lcm(*(c.denominator for c in self.packed.values()))
        tables, moves = [], []
        for i, v in enumerate(self.vars):
            s = FIELD_BITS * i
            if v in values:
                p, q = _as_fraction(values[v]).as_integer_ratio()
                exps = {k >> s & _MASK for k in self.packed}
                top = max(exps, default=0)
                tables.append((s, {e: p ** e * q ** (top - e) for e in exps}))
                den *= q ** top
            else:
                moves.append((s, _weight(len(moves), len(keep))))
        out: dict[int, int] = {}
        for k, c in self.packed.items():
            num = c.numerator * (lcd // c.denominator)
            for s, table in tables:
                num *= table[k >> s & _MASK]
            key = 0
            for s, w in moves:
                key += (k >> s & _MASK) * w
            out[key] = out.get(key, 0) + num
        return MPoly._of(tuple(keep), {k: _demote(Fraction(c, den)) for k, c in out.items() if c})

    def eval_full(self, values: Mapping[str, Coeff]) -> Fraction:
        res = self.eval_at(values)
        if res.vars:
            raise ValueError("not all variables substituted")
        return res.constant_value()

    def subs(self, name: str, num: MPoly, den: MPoly | Coeff) -> MPoly:
        """den^D * self(name = num/den), D = deg_name self, by homogenized Horner:
        acc = acc*num + c_e*den^(D-e) over the coefficients c_e in name, top down."""
        coeffs = self.coeffs_in(name)
        acc, power = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            power = den * power
            acc = acc * num + c * power
        return acc

    # -- division ------------------------------------------------------

    def try_divide(self, divisor: MPoly) -> MPoly | None:
        """Exact quotient self/divisor, or None when division is inexact.

        With both contents split off, Gauss's lemma gives an exact quotient by
        the primitive divisor integer coefficients: a divmod remainder means None.
        A quotient monomial is a key difference; a field's guard bit is set in
        it exactly where an exponent went negative.  Every field of a key met
        stays below 2^FIELD_BITS (a checked quotient monomial plus a divisor
        monomial), so no field carries into the next.  A lazy max-heap of keys
        yields each leading term once; the content ratio scales the quotient
        at the end.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        if divisor.total_degree() > self.total_degree():
            return None
        na, da = _content(self.packed)
        nb, db = _content(divisor.packed)
        rem = dict(self.packed) if na == da == 1 else _scaled(self.packed, da, na)
        rest = dict(divisor.packed) if nb == db == 1 else _scaled(divisor.packed, db, nb)
        guard = _guard(len(self.vars))
        lead = max(rest)
        lead_c = rest.pop(lead)
        heap = [-k for k in rem]
        heapify(heap)
        quo: dict[int, int] = {}
        while heap:
            k = -heappop(heap)
            c = rem.pop(k, None)
            if c is None:
                continue
            diff = k - lead
            qc, r = divmod(c, lead_c)
            if diff < 0 or diff & guard or r:
                return None
            quo[diff] = qc
            for dk, dc in rest.items():
                tgt = diff + dk
                cur = rem.get(tgt)
                if cur is None:
                    heappush(heap, -tgt)
                val = (cur or 0) - qc * dc
                if val:
                    rem[tgt] = val
                else:
                    del rem[tgt]
        if na * db != da * nb:
            quo = _scaled(quo, na * db, da * nb)
        return MPoly._of(self.vars, quo)

    def divide_exact(self, divisor: MPoly) -> MPoly:
        q = self.try_divide(divisor)
        if q is None:
            raise ValueError("inexact polynomial division")
        return q

    # -- univariate views ----------------------------------------------

    def coeffs_in(self, name: str) -> list[MPoly]:
        """Coefficients of powers of one variable, low to high, same vars."""
        i = self.vars.index(name)
        s, w = FIELD_BITS * i, _weight(i, len(self.vars))
        out = [{} for _ in range(self.degree(name) + 1)]
        for k, c in self.packed.items():
            e = k >> s & _MASK
            out[e][k - e * w] = c
        return [MPoly._of(self.vars, t) for t in out]

    # -- text form -------------------------------------------------------

    def text(self) -> str:
        """Canonical sparse text: terms in descending monomial order."""
        if not self.packed:
            return "0"
        parts = []
        for k in sorted(self.packed, reverse=True):
            c = _as_fraction(self.packed[k])
            piece = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for v, e in zip(self.vars, _unpack(k, len(self.vars))):
                if e:
                    piece += f"*{v}^{e}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self.text()!r})"

    @staticmethod
    def parse(text: str, vars: Sequence[str]) -> MPoly:
        """Parse the canonical text form produced by text()."""
        vars = tuple(vars)
        text = text.strip()
        if text == "0":
            return MPoly.zero(vars)
        terms: dict[tuple[int, ...], Coeff] = {}
        for chunk in text.split(" + "):
            factors = chunk.strip().split("*")
            try:
                coeff = Fraction(factors[0])
                powers = [(name, int(power) if power else 1)
                          for name, _, power in (f.partition("^") for f in factors[1:])]
            except ValueError:
                raise ValueError(f"cannot read polynomial {text!r}: expected the canonical "
                                 "form, e.g. '3/2*x^2 + -1'") from None
            exp = [0] * len(vars)
            for name, power in powers:
                if power < 0:
                    raise ValueError(f"negative power of {name!r} in {chunk!r}")
                if name not in vars:
                    raise ValueError(f"unknown variable {name!r} in {chunk!r}")
                exp[vars.index(name)] += power
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + coeff
        return MPoly(vars, terms)


# -- expression helper ---------------------------------------------------


def poly(text: str, vars: Sequence[str]) -> MPoly:
    """Build an MPoly from a ``+``/``-``/``*``/``^`` expression, ``/`` only by a constant.

    Accepts parenthesized products like ``(s-1)*(3*s-2)^2`` and coefficients
    like ``3/2*x``, handy for transcribing reference polynomials exactly.
    """
    return _poly_of(_expr(text), tuple(vars), text)


def _expr(text: str) -> ast.expr:
    """The Python syntax tree of text, with ^ read as a power."""
    try:
        return ast.parse(text.replace("^", "**").strip(), mode="eval").body
    except (SyntaxError, ValueError):
        raise ValueError(f"cannot read {text!r}: not an expression") from None


_ARITHMETIC = {ast.Add: MPoly.__add__, ast.Sub: MPoly.__sub__, ast.Mult: MPoly.__mul__}


def _poly_of(node: ast.expr, vars: tuple[str, ...], text: str) -> MPoly:
    """The MPoly of a tree of int literals, names in vars, unary + and -, +, -, *,
    / by a nonzero constant and ** by an int literal; any other node raises."""
    match node:
        case ast.Constant(value=int(c)) if type(c) is int:
            return MPoly.const(vars, c)
        case ast.Name(id=name) if name in vars:
            return MPoly.var(vars, name)
        case ast.UnaryOp(op=ast.UAdd() | ast.USub() as op, operand=a):
            p = _poly_of(a, vars, text)
            return -p if isinstance(op, ast.USub) else p
        case ast.BinOp(left=a, op=ast.Pow(), right=ast.Constant(value=int(k))) if type(k) is int:
            return _poly_of(a, vars, text) ** k
        case ast.BinOp(left=a, op=op, right=b) if type(op) in _ARITHMETIC:
            return _ARITHMETIC[type(op)](_poly_of(a, vars, text), _poly_of(b, vars, text))
        case ast.BinOp(left=a, op=ast.Div(), right=b):
            den = _poly_of(b, vars, text)
            if den.is_constant() and den:
                return _poly_of(a, vars, text) * (1 / den.constant_value())
    raise ValueError(f"cannot read {text!r} as a polynomial over {vars}: {ast.unparse(node)!r}")


# -- gcd ------------------------------------------------------------------


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Nonnegative generator of the Z-module aZ + bZ; frac_gcd(0, b) = |b|."""
    g = _int_gcd(a.denominator, b.denominator)
    return Fraction(_int_gcd(a.numerator * (b.denominator // g), b.numerator * (a.denominator // g)),
                    (a.denominator * b.denominator) // g)


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, primitive with positive leading coefficient.

    After the rational content is split off, the heuristic gcd (_heu_gcd)
    runs on the integer-coefficient operands; only when it gives up does the
    recursive primitive pseudo-remainder sequence (_gcd_core) run.  Both
    return the gcd up to a unit, so the normalized result is the same either
    way.  gcd(p, 0) = normalized p.
    """
    if a.vars != b.vars:
        raise ValueError(f"variable mismatch: {a.vars} vs {b.vars}")
    if a.is_zero():
        return b.primitive_part()
    if b.is_zero():
        return a.primitive_part()
    a = a.primitive_part()
    b = b.primitive_part()
    g = _heu_gcd(a, b)
    if g is None:
        g = _gcd_core(a, b)
    return g.primitive_part()


_HEU_TRIES = 6


def _heu_gcd(a: MPoly, b: MPoly) -> MPoly | None:
    """Heuristic gcd of nonzero integer-coefficient polynomials, or None.

    GCDHEU (Char, Geddes and Gonnet, JSC 1989): evaluate the last live
    variable at an integer xi, take the gcd of the images recursively
    (math.gcd once no variable is left) and read the candidate back from its
    symmetric base-xi digits.  A candidate is accepted only when it divides
    both operands exactly; since every level starts from
    xi = 2*min(|f|, |g|) + 2 in its own max norms, an accepted candidate is
    the gcd, not just a divisor.  The result is the gcd times the gcd of the
    integer contents, up to sign; None means six points failed at some level.
    """
    cf, f = _split_content(a)
    cg, g = _split_content(b)
    c = _int_gcd(cf, cg)
    if f.is_constant() or g.is_constant():
        return MPoly.const(a.vars, c)
    live = reduce(or_, chain(f.packed, g.packed)) & ((1 << (FIELD_BITS * len(a.vars))) - 1)
    i = (live.bit_length() - 1) // FIELD_BITS  # the last live variable
    xi = 2 * min(max(map(abs, f.packed.values())), max(map(abs, g.packed.values()))) + 2
    for _ in range(_HEU_TRIES):
        ff = _eval_var(f, i, xi)
        gg = _eval_var(g, i, xi)
        if ff and gg:
            image = _heu_gcd(ff, gg)
            if image is None:
                return None
            h = _interpolate(image, i, xi)
            if h.is_constant():
                return MPoly.const(a.vars, c)  # a constant divides both
            h = _split_content(h)[1]
            if f.try_divide(h) is not None and g.try_divide(h) is not None:
                return MPoly._of(a.vars, {k: v * c for k, v in h.packed.items()})
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _split_content(p: MPoly) -> tuple[int, MPoly]:
    """Integer content of a nonzero integer-coefficient p, and p divided by it."""
    c = _int_gcd(*p.packed.values())
    return c, p if c == 1 else MPoly._of(p.vars, {k: v // c for k, v in p.packed.items()})


def _eval_var(p: MPoly, i: int, xi: int) -> MPoly:
    """Substitute the integer xi for variable i; the exponent field becomes 0."""
    s, w = FIELD_BITS * i, _weight(i, len(p.vars))
    powers = [1]
    out: dict[int, int] = {}
    for k, v in p.packed.items():
        e = k >> s & _MASK
        if e:
            while len(powers) <= e:
                powers.append(powers[-1] * xi)
            v *= powers[e]
            k -= e * w
        out[k] = out.get(k, 0) + v
    return MPoly._of(p.vars, {k: v for k, v in out.items() if v})


def _interpolate(image: MPoly, i: int, xi: int) -> MPoly:
    """Spread each integer coefficient into symmetric base-xi digits in variable i."""
    half = xi // 2
    w = _weight(i, len(image.vars))
    out: dict[int, int] = {}
    for k, v in image.packed.items():
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                out[k] = d
            v = (v - d) // xi
            k += w
    return MPoly._of(image.vars, out)


def _gcd_core(a: MPoly, b: MPoly) -> MPoly:
    active = [v for v in a.vars if a.degree(v) > 0 or b.degree(v) > 0]
    if not active:
        return MPoly.const(a.vars, 1)
    for v in active:
        da, db = a.degree(v), b.degree(v)
        if da == 0 or db == 0:
            # One side is free of v, so the gcd is too; only the content
            # of the other side in v can contribute.
            lives, free = (a, b) if da > 0 else (b, a)
            cont = _content_primitive(lives, v)[0]
            return mpoly_gcd(cont, free)
    # Shortest pseudo-remainder chain: smallest-degree variable first.
    v = min(active, key=lambda u: (min(a.degree(u), b.degree(u)),
                                   a.degree(u) + b.degree(u)))
    return _gcd_in(a, b, v)


def _gcd_in(a: MPoly, b: MPoly, v: str) -> MPoly:
    ca, pa = _content_primitive(a, v)
    cb, pb = _content_primitive(b, v)
    cont = mpoly_gcd(ca, cb)
    if pa.degree(v) < pb.degree(v):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _prem(pa, pb, v)
        pa = pb
        if r.is_zero():
            pb = r
        else:
            pb = _content_primitive(r, v)[1]
    return (cont * pa).primitive_part()


def _content_primitive(p: MPoly, v: str) -> tuple[MPoly, MPoly]:
    """Split off the content in v; the primitive part is integer-primitive too.

    The rational scale between p and content*primitive is irrelevant to gcd
    computations, which are only defined up to units anyway.
    """
    coeffs = [c for c in p.coeffs_in(v) if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = mpoly_gcd(cont, c)
    cont = cont.primitive_part()
    if cont.is_constant():
        return MPoly.const(p.vars, 1), p.primitive_part()
    return cont, p.divide_exact(cont).primitive_part()


def _prem(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Pseudo-remainder of a by b in variable v: lc(b)^(da-db+1) * a mod b."""
    da, db = a.degree(v), b.degree(v)
    if da < db:
        return a
    bc = b.coeffs_in(v)
    lead_b = bc[db]
    vpoly = MPoly.var(a.vars, v)
    r = a
    for _ in range(da - db + 2):
        dr = r.degree(v)
        if r.is_zero() or dr < db:
            break
        lead_r = r.coeffs_in(v)[dr]
        r = lead_b * r - lead_r * (vpoly ** (dr - db)) * b
    return r


def mpoly_lcm(a: MPoly, b: MPoly) -> MPoly:
    """The primitive lcm a*(b/g), g = gcd(a, b): the exact division is of b, not of a*b."""
    if a.is_zero() or b.is_zero():
        return MPoly.zero(a.vars)
    return (a * b.divide_exact(mpoly_gcd(a, b))).primitive_part()


# -- rational roots -------------------------------------------------------


def multiplicity(p: MPoly, f: MPoly) -> tuple[int, MPoly]:
    """The multiplicity k of a nonconstant f in a nonzero p, and p / f^k."""
    k = 0
    while (q := p.try_divide(f)) is not None:
        p, k = q, k + 1
    return k, p


def _rational_roots(p: MPoly) -> tuple[list[tuple[Fraction, int]], MPoly]:
    """Rational roots of a nonzero univariate p, and the cofactor without them.

    Returns the sorted (root, multiplicity) pairs and the primitive part of
    p with every (x - root)^multiplicity divided out; the cofactor has no
    rational root, and it is constant exactly when p splits over Q.
    """
    work = p.primitive_part()
    roots: list[tuple[Fraction, int]] = []
    while not work.is_constant() and (root := _find_rational_root(work)) is not None:
        mult, work = multiplicity(work, MPoly(p.vars, {(1,): root.denominator, (0,): -root.numerator}))
        roots.append((root, mult))
    return sorted(roots), work


def _find_rational_root(p: MPoly) -> Fraction | None:
    """A rational root of a primitive univariate p, or None.

    With q its squarefree part, L the lead and d the degree of q, y = L*x
    turns q into the monic integer polynomial m(y) = L^(d-1) q(y/L), whose
    rational roots are integers below B = 1 + max|coefficient of m|.  Modulo
    a prime at which every root of m is simple, each integer root reduces to
    one of those roots, and Newton (Hensel) lifting recovers it modulo a
    power of the prime above 2B.  No coefficient is factored, so huge
    coefficients cost only their length.
    """
    (var,) = p.vars
    q = p.divide_exact(mpoly_gcd(p, p.derivative(var)))
    d = q.degree(var)
    lead = int(q.terms[(d,)])
    m = [int(q.terms.get((i,), 0)) * lead ** (d - 1 - i) for i in range(d)] + [1]
    dm = [i * c for i, c in enumerate(m)][1:]
    bound = 1 + max(abs(c) for c in m[:-1])

    def value(coeffs: list[int], y: int, modulus: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * y + c) % modulus
        return acc

    prime = 1
    while True:
        prime += 1
        if any(prime % k == 0 for k in range(2, prime)):
            continue
        residues = [r for r in range(prime) if value(m, r, prime) == 0]
        if all(value(dm, r, prime) for r in residues):
            break
    for r in residues:
        modulus = prime
        while modulus <= 2 * bound:
            modulus *= modulus
            r = (r - value(m, r, modulus) * pow(value(dm, r, modulus), -1, modulus)) % modulus
        root = Fraction(r if 2 * r < modulus else r - modulus, lead)
        if q.eval_full({var: root}) == 0:
            return root
    return None
