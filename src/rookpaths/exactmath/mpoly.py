"""Sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a dict mapping
exponent tuples to nonzero rational coefficients:

    x^2*s - 3/2  over ("x", "s")  ->  {(2, 1): 1, (0, 0): Fraction(-3, 2)}

Coefficients are Fraction, demoted to int whenever the denominator is 1
(int arithmetic is markedly faster and mixes freely with Fraction).
The zero polynomial has an empty term dict.

The monomial order is graded lexicographic, ranking variables by their
position in the tuple (the toolkit lists them as x, s, t, ...): compare total
degree first, then exponents of the last variable down.  All normal forms
(leading coefficients, sign conventions, canonical text) refer to this order.

Exact division (try_divide) runs on the primitive integer parts with packed
exponents (Monagan and Pearce, CASC 2007): one int per exponent vector, the
total degree in the top field and e_{n-1} ... e_0 below it, each field with a
guard bit, so int order is graded-lex order and a monomial product is one
addition.  Scaling by a rational constant divides integers exactly and makes
a Fraction only for a coefficient that stays fractional.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as _int_gcd
from math import isqrt, lcm
from operator import mul
from typing import Mapping, Sequence, Union

Coeff = Union[int, Fraction]


def _demote(c: Coeff) -> Coeff:
    """Return c as int when exact, else as Fraction."""
    if isinstance(c, int):
        return c
    if c.denominator == 1:
        return c.numerator
    return c


def _as_fraction(c: Coeff) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _all_int(terms: Mapping[tuple[int, ...], Coeff]) -> bool:
    return all(isinstance(c, int) for c in terms.values())


def _content(terms: Mapping[tuple[int, ...], Coeff]) -> tuple[int, int]:
    """gcd of the numerators and lcm of the denominators of nonzero terms."""
    if _all_int(terms):
        return _int_gcd(*terms.values()), 1
    return _int_gcd(*(c.numerator for c in terms.values())), lcm(*(c.denominator for c in terms.values()))


def _scaled(terms: Mapping[tuple[int, ...], Coeff], p: int, q: int) -> dict[tuple[int, ...], Coeff]:
    """Every coefficient times p/q (p, q nonzero), demoted, in the same order."""
    out = {}
    for exp, c in terms.items():
        n, d = c.numerator * p, c.denominator * q
        out[exp] = n // d if n % d == 0 else Fraction(n, d)
    return out


def monomial_key(exp: tuple[int, ...]) -> tuple:
    """Sort key realizing graded lex (total degree, then highest variable)."""
    return (sum(exp), tuple(reversed(exp)))


class MPoly:
    """Immutable sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Coeff]):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], Coeff] = {}
        n = len(self.vars)
        for exp, c in terms.items():
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has wrong length for vars {self.vars}")
            c = _demote(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    @staticmethod
    def _of(vars: tuple[str, ...], terms: dict[tuple[int, ...], Coeff]) -> MPoly:
        """Wrap terms that are already nonzero, demoted and of the right length."""
        p = object.__new__(MPoly)
        p.vars, p.terms, p._hash = vars, terms, None
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> MPoly:
        return MPoly(vars, {})

    @staticmethod
    def const(vars: Sequence[str], value: Coeff) -> MPoly:
        value = _demote(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        if value == 0:
            return MPoly.zero(vars)
        return MPoly(vars, {(0,) * len(vars): value})

    @staticmethod
    def var(vars: Sequence[str], name: str) -> MPoly:
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"{name!r} not among {vars}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return MPoly(vars, {exp: 1})

    def with_vars(self, newvars: Sequence[str]) -> MPoly:
        """Re-embed into a superset variable tuple (same canonical order)."""
        newvars = tuple(newvars)
        if newvars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in newvars:
                raise ValueError(f"cannot drop variable {v!r}")
            pos.append(newvars.index(v))
        terms: dict[tuple[int, ...], Coeff] = {}
        for exp, c in self.terms.items():
            new = [0] * len(newvars)
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = c
        return MPoly(newvars, terms)

    def restricted(self, newvars: Sequence[str]) -> MPoly:
        """Project onto fewer variables; the dropped ones must have degree 0."""
        newvars = tuple(newvars)
        keep = []
        for v in self.vars:
            if v in newvars:
                keep.append(self.vars.index(v))
            elif self.degree(v) != 0:
                raise ValueError(f"cannot drop live variable {v!r}")
        if tuple(self.vars[i] for i in keep) != newvars:
            raise ValueError("restricted variables must keep canonical order")
        terms = {tuple(exp[i] for i in keep): c for exp, c in self.terms.items()}
        return MPoly(newvars, terms)

    def aligned(self, newvars: Sequence[str]) -> MPoly:
        """Re-express over another variable tuple, dropping only dead variables."""
        newvars = tuple(newvars)
        live = tuple(v for v in self.vars if v in newvars)
        return self.restricted(live).with_vars(newvars)

    # -- predicates & basic data --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial (0 if absent)."""
        zero = (0,) * len(self.vars)
        return _as_fraction(self.terms.get(zero, 0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def degree(self, name: str) -> int:
        """Degree in one variable; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        i = self.vars.index(name)
        return max(exp[i] for exp in self.terms)

    def leading_coeff(self) -> Coeff:
        """Coefficient of the largest monomial; ValueError for zero."""
        return self.terms[max(self.terms, key=monomial_key)]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: MPoly) -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> MPoly:
        return (-self) + other

    def __mul__(self, other) -> MPoly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MPoly.zero(self.vars)
            return MPoly._of(self.vars, _scaled(self.terms, other.numerator, other.denominator))
        self._check(other)
        if not self.terms or not other.terms:
            return MPoly.zero(self.vars)
        work = len(self.terms) * len(other.terms)
        if work > 256 and _all_int(self.terms) and _all_int(other.terms):
            box = 1
            for v in self.vars:
                box *= self.degree(v) + other.degree(v) + 1
            if box <= 2 * work:  # dense enough that the box walk pays off
                return self._mul_packed(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], Coeff] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(i + j for i, j in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def _mul_packed(self, other: MPoly) -> MPoly:
        """Kronecker-packed product via one native bigint multiplication.

        Both operands must have integer coefficients.  Exponents flatten to a
        mixed-radix index over the product degree box; each convolution
        coefficient fits a byte-aligned field, so packing and unpacking are
        linear byte-array passes and the multiply itself is Python's
        subquadratic bigint product.  Operands split into positive and
        negative parts so fields never interact while packing.
        """
        nv = len(self.vars)
        dims = [self.degree(v) + other.degree(v) + 1 for v in self.vars]
        strides = [1] * nv
        for i in range(nv - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        total = strides[0] * dims[0]
        max_a = max(abs(c) for c in self.terms.values())
        max_b = max(abs(c) for c in other.terms.values())
        pairs = min(len(self.terms), len(other.terms))
        nbytes = ((pairs * max_a * max_b).bit_length() + 2 + 7) // 8
        width = nbytes * 8

        def pack(terms) -> int:
            pos = bytearray(total * nbytes)
            neg = bytearray(total * nbytes)
            for exp, c in terms.items():
                slot = sum(e * s for e, s in zip(exp, strides)) * nbytes
                buf, val = (pos, c) if c > 0 else (neg, -c)
                buf[slot:slot + nbytes] = val.to_bytes(nbytes, "little")
            return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

        prod = pack(self.terms) * pack(other.terms)
        sign = 1
        if prod < 0:
            sign = -1
            prod = -prod
        data = prod.to_bytes(total * nbytes + nbytes, "little")
        half = 1 << (width - 1)
        modulus = 1 << width
        out: dict[tuple[int, ...], Coeff] = {}
        carry = 0
        for idx in range(total):
            raw = int.from_bytes(data[idx * nbytes:(idx + 1) * nbytes], "little") + carry
            if raw >= half:
                digit = raw - modulus
                carry = 1
            else:
                digit = raw
                carry = 0
            if digit:
                rem = idx
                exp = []
                for s_ in strides:
                    exp.append(rem // s_)
                    rem %= s_
                out[tuple(exp)] = sign * digit
        return MPoly._of(self.vars, out)

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
        if not self.terms:
            return Fraction(0)
        return Fraction(*_content(self.terms))

    def primitive_part(self) -> MPoly:
        """self / rational_content, sign-fixed to positive leading coefficient."""
        if not self.terms:
            return self
        num, den = _content(self.terms)
        if self.leading_coeff() < 0:
            num = -num
        if num == den == 1:
            return self
        return MPoly._of(self.vars, _scaled(self.terms, den, num))

    # -- calculus & substitution ---------------------------------------

    def derivative(self, name: str) -> MPoly:
        i = self.vars.index(name)
        out: dict[tuple[int, ...], Coeff] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                new = exp[:i] + (e - 1,) + exp[i + 1:]
                out[new] = out.get(new, 0) + c * e
        return MPoly(self.vars, out)

    def eval_at(self, values: Mapping[str, Coeff]) -> MPoly:
        """Substitute rational values for a subset of the variables."""
        keep = [v for v in self.vars if v not in values]
        idx_keep = [self.vars.index(v) for v in keep]
        idx_sub = [(i, _as_fraction(values[v])) for i, v in enumerate(self.vars) if v in values]
        out: dict[tuple[int, ...], Coeff] = {}
        for exp, c in self.terms.items():
            coef = _as_fraction(c)
            for i, val in idx_sub:
                if exp[i]:
                    coef *= val ** exp[i]
            key = tuple(exp[i] for i in idx_keep)
            out[key] = out.get(key, 0) + coef
        return MPoly(tuple(keep), out)

    def eval_full(self, values: Mapping[str, Coeff]) -> Fraction:
        res = self.eval_at(values)
        if res.vars:
            raise ValueError("not all variables substituted")
        return res.constant_value()

    def subs_poly(self, name: str, repl: MPoly) -> MPoly:
        """Substitute a polynomial (same vars) for one variable, by Horner."""
        if repl.vars != self.vars:
            raise ValueError("replacement must share the variable tuple")
        i = self.vars.index(name)
        buckets: dict[int, dict[tuple[int, ...], Coeff]] = {}
        for exp, c in self.terms.items():
            stripped = exp[:i] + (0,) + exp[i + 1:]
            buckets.setdefault(exp[i], {})[stripped] = c
        if not buckets:
            return MPoly.zero(self.vars)
        top = max(buckets)
        acc = MPoly.zero(self.vars)
        for e in range(top, -1, -1):
            acc = acc * repl
            if e in buckets:
                acc = acc + MPoly(self.vars, buckets[e])
        return acc

    # -- division ------------------------------------------------------

    def try_divide(self, divisor: MPoly) -> MPoly | None:
        """Exact quotient self/divisor, or None when division is inexact.

        With both contents split off, Gauss's lemma gives an exact quotient by
        the primitive divisor integer coefficients: a divmod remainder means None.
        Every monomial met sorts below a dividend term, so fields of
        D.bit_length() + 1 bits hold it, D the dividend's total degree; the
        top bit of a field is its guard, set in a difference only where an
        exponent went negative.  A lazy max-heap of packed keys yields each
        leading term once; the content ratio scales the quotient at the end.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        deg = max(map(sum, self.terms))
        if max(map(sum, divisor.terms)) > deg:
            return None
        na, da = _content(self.terms)
        nb, db = _content(divisor.terms)
        a = self.terms if na == da == 1 else _scaled(self.terms, da, na)
        b = divisor.terms if nb == db == 1 else _scaled(divisor.terms, db, nb)
        n = len(self.vars)
        width = deg.bit_length() + 1
        shifts = range(0, n * width, width)
        weights = [(1 << s) + (1 << (n * width)) for s in shifts]  # field i plus the degree field
        guard = sum(1 << (s + width - 1) for s in shifts)
        rem = {sum(map(mul, e, weights)): c for e, c in a.items()}
        rest = {sum(map(mul, e, weights)): c for e, c in b.items()}
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
        mask = (1 << width) - 1
        out = {tuple((k >> s) & mask for s in shifts): c for k, c in quo.items()}
        if na * db != da * nb:
            out = _scaled(out, na * db, da * nb)
        return MPoly._of(self.vars, out)

    def divide_exact(self, divisor: MPoly) -> MPoly:
        q = self.try_divide(divisor)
        if q is None:
            raise ValueError("inexact polynomial division")
        return q

    # -- univariate views ----------------------------------------------

    def coeffs_in(self, name: str) -> list[MPoly]:
        """Coefficients of powers of one variable, low to high, same vars."""
        i = self.vars.index(name)
        d = self.degree(name)
        out = [dict() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            stripped = exp[:i] + (0,) + exp[i + 1:]
            out[exp[i]][stripped] = c
        return [MPoly(self.vars, t) for t in out]

    # -- text form -------------------------------------------------------

    def text(self) -> str:
        """Canonical sparse text: terms in descending monomial order."""
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=monomial_key, reverse=True):
            c = _as_fraction(self.terms[exp])
            piece = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for v, e in zip(self.vars, exp):
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
    """Build an MPoly from a small ``+``/``-``/``*``/``^`` expression.

    Accepts parenthesized products like ``(s-1)*(3*s-2)^2``, handy for
    transcribing reference polynomials exactly.
    """
    return _ExprParser(text, tuple(vars)).parse()


class _ExprParser:
    def __init__(self, text: str, vars: tuple[str, ...]):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.vars = vars

    def parse(self) -> MPoly:
        node = self._sum()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at {self.text[self.pos:]!r}")
        return node

    def _sum(self) -> MPoly:
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._next() == "-" else 1
        node = self._product() * sign
        while self._peek() in ("+", "-"):
            op = self._next()
            term = self._product()
            node = node + (term if op == "+" else -term)
        return node

    def _product(self) -> MPoly:
        node = self._power()
        while self._peek() == "*":
            self._next()
            node = node * self._power()
        return node

    def _power(self) -> MPoly:
        node = self._atom()
        if self._peek() == "^":
            self._next()
            digits = self._take_digits()
            node = node ** int(digits)
        return node

    def _atom(self) -> MPoly:
        ch = self._peek()
        if ch == "(":
            self._next()
            node = self._sum()
            if self._next() != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if ch.isdigit():
            num = self._take_digits()
            if self._peek() == "/":
                self._next()
                den = self._take_digits()
                return MPoly.const(self.vars, Fraction(int(num), int(den)))
            return MPoly.const(self.vars, int(num))
        if ch.isalpha():
            name = self._next()
            return MPoly.var(self.vars, name)
        raise ValueError(f"unexpected character {ch!r}")

    def _take_digits(self) -> str:
        start = self.pos
        while self._peek().isdigit():
            self._next()
        if start == self.pos:
            raise ValueError("expected digits")
        return self.text[start:self.pos]

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _next(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch


# -- gcd / resultant ------------------------------------------------------


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Nonnegative generator of the Z-module aZ + bZ; frac_gcd(0, b) = |b|."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    g = _int_gcd(a.denominator, b.denominator)
    return Fraction(_int_gcd(a.numerator * (b.denominator // g), b.numerator * (a.denominator // g)),
                    (a.denominator * b.denominator) // g)


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, primitive with positive leading coefficient.

    After the rational content and the shared monomial are split off, the
    heuristic gcd (_heu_gcd) runs on the integer-coefficient operands; only
    when it gives up does the recursive primitive pseudo-remainder sequence
    (_gcd_core) run.  Both return the gcd up to a unit, so the normalized
    result is the same either way.  gcd(p, 0) = normalized p.
    """
    if a.vars != b.vars:
        raise ValueError(f"variable mismatch: {a.vars} vs {b.vars}")
    if a.is_zero():
        return b.primitive_part()
    if b.is_zero():
        return a.primitive_part()
    a = a.primitive_part()
    b = b.primitive_part()
    ea = _monomial_content(a)
    eb = _monomial_content(b)
    shared = tuple(min(i, j) for i, j in zip(ea, eb))
    if any(shared):
        a = _shift_down(a, ea)
        b = _shift_down(b, eb)
    g = _heu_gcd(a, b)
    if g is None:
        g = _gcd_core(a, b)
    if any(shared):
        g = MPoly(a.vars, {tuple(e + s for e, s in zip(exp, shared)): c
                           for exp, c in g.terms.items()})
    return g.primitive_part()


def _monomial_content(p: MPoly) -> tuple[int, ...]:
    it = iter(p.terms)
    first = next(it)
    mins = list(first)
    for exp in it:
        for i, e in enumerate(exp):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _shift_down(p: MPoly, mins: tuple[int, ...]) -> MPoly:
    if not any(mins):
        return p
    return MPoly._of(p.vars, {tuple(e - m for e, m in zip(exp, mins)): c
                              for exp, c in p.terms.items()})


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
    i = max(j for exp in chain(f.terms, g.terms) for j, e in enumerate(exp) if e)
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 2
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
                return MPoly(a.vars, {e: v * c for e, v in h.terms.items()})
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _split_content(p: MPoly) -> tuple[int, MPoly]:
    """Integer content of a nonzero integer-coefficient p, and p divided by it."""
    c = _int_gcd(*p.terms.values())
    return c, p if c == 1 else MPoly._of(p.vars, {e: v // c for e, v in p.terms.items()})


def _eval_var(p: MPoly, i: int, xi: int) -> MPoly:
    """Substitute the integer xi for variable i; the exponent slot becomes 0."""
    powers = [1]
    out: dict[tuple[int, ...], int] = {}
    for exp, v in p.terms.items():
        k = exp[i]
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * xi)
            v *= powers[k]
            exp = exp[:i] + (0,) + exp[i + 1:]
        out[exp] = out.get(exp, 0) + v
    return MPoly(p.vars, out)


def _interpolate(image: MPoly, i: int, xi: int) -> MPoly:
    """Spread each integer coefficient into symmetric base-xi digits in variable i."""
    half = xi // 2
    out: dict[tuple[int, ...], int] = {}
    for exp, v in image.terms.items():
        k = 0
        while v:
            d = v % xi
            if d > half:
                d -= xi
            out[exp[:i] + (k,) + exp[i + 1:]] = d
            v = (v - d) // xi
            k += 1
    return MPoly(image.vars, out)


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
    if a.is_zero() or b.is_zero():
        return MPoly.zero(a.vars)
    g = mpoly_gcd(a, b)
    return (a * b).divide_exact(g).primitive_part()


def resultant(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Resultant with respect to v, via fraction-free Sylvester determinant."""
    if a.vars != b.vars:
        raise ValueError("variable mismatch")
    da, db = a.degree(v), b.degree(v)
    if da == 0 or db == 0:
        base = a if da == 0 else b
        other_deg = db if da == 0 else da
        return base ** other_deg
    ac = a.coeffs_in(v)
    bc = b.coeffs_in(v)
    size = da + db
    zero = MPoly.zero(a.vars)
    rows: list[list[MPoly]] = []
    for i in range(db):
        row = [zero] * size
        for j, cf in enumerate(reversed(ac)):
            row[i + j] = cf
        rows.append(row)
    for i in range(da):
        row = [zero] * size
        for j, cf in enumerate(reversed(bc)):
            row[i + j] = cf
        rows.append(row)
    return _det_bareiss(rows)


def _det_bareiss(m: list[list[MPoly]]) -> MPoly:
    """Determinant by fraction-free Bareiss elimination (exact divisions)."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    vars = m[0][0].vars
    m = [row[:] for row in m]
    prev = MPoly.const(vars, 1)
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(vars)
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (piv * m[i][j] - m[i][k] * m[k][j]).divide_exact(prev)
            m[i][k] = MPoly.zero(vars)
        prev = piv
    return m[n - 1][n - 1] * sign
