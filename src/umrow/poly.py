"""Sparse multivariate polynomials with exact coefficients.

A monomial is an exponent tuple whose length equals the ambient ring's
variable count.  Term maps never store zero coefficients, so structural
equality of the term dictionaries is semantic equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add as _add, itemgetter, le as _le, sub as _sub
from typing import Sequence

from .errors import DuplicateVariable, ParseError, RingMismatch
from .fields import FieldConfig, Scalar

Monomial = tuple  # tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(_add, a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_support(m: Monomial) -> frozenset:
    """The indices of the variables that occur in ``m``."""
    return frozenset(i for i, e in enumerate(m) if e)


def _rescale(acc: dict, den: int, d: int) -> int:
    """Bring the int sum ``acc`` over ``den`` to the lcm of ``den`` and
    ``d``, in place, and return that lcm; both integral loops call this when
    a new denominator ``d`` does not divide the running one."""
    k = lcm(den, d) // den
    for m in acc:
        acc[m] *= k
    return den * k


def _sum_of_products(pairs, field: FieldConfig) -> dict:
    """sum(p_i * q_i) over ``pairs`` of term dicts, as a term dict with no
    zero.  The one multiply-accumulate loop: products, scaling, sums of
    products and cofactor rows all go through it.  ``field.integral`` writes
    each operand as ints over one denominator; the products add up as plain
    ints over the common denominator of all pairs, and ``field.normalize``
    turns the sum back into field elements once.  A constant factor adds
    the other factor's terms under their own monomial tuples, so a scaled
    polynomial shares its monomials with the original."""
    integral = field.integral
    acc: dict = {}
    get = acc.get
    den = 1
    for p, q in pairs:
        if not (p and q):
            continue  # a zero operand adds nothing; cofactor rows hold many
        p, dp = integral(p)
        q, dq = integral(q)
        d = dp * dq
        if d != den:
            # Bring the sum so far and this pair to one denominator.
            if den % d:
                den = _rescale(acc, den, d)
            if den != d:
                k = den // d
                if len(q) < len(p):
                    p, q = q, p  # scale the smaller operand
                p = {m: c * k for m, c in p.items()}
        if len(p) == 1 and not any(next(iter(p))):
            p, q = q, p  # the constant goes last, where the branch below finds it
        if len(q) == 1 and not any(next(iter(q))):
            (c2,) = q.values()
            for m, c1 in p.items():
                acc[m] = get(m, 0) + c1 * c2
            continue
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = tuple(map(_add, m1, m2))
                acc[m] = get(m, 0) + c1 * c2
    return field.normalize(acc, den)


def _split_lead(d: Polynomial, order: MonomialOrder):
    """(lead monomial, inverse of the lead coefficient, other terms negated
    as ints, their denominator) of a divisor, the form ``_reduce`` takes; a
    basis computes this once, not per reduction, so no reduction step
    inverts, negates or converts a divisor coefficient."""
    lm, lc = d.lead(order)
    field = d.ring.field
    tail, dt = field.integral({m: c for m, c in d.terms.items() if m != lm})
    return lm, field.inv(lc), tuple((m, -n) for m, n in tail.items()), dt


def _reduce(f: Polynomial, leads, order: MonomialOrder):
    """Core reduction loop shared by division, Buchberger and normal forms.

    ``leads`` are the divisors split by ``_split_lead``.  The remainder-to-be
    ``p`` holds plain ints over one common denominator ``D`` (from
    ``field.integral``; over F_p, unreduced residues over 1), and its
    monomials sit in a min-heap of ``order.desc_key``, so each step pops the
    leading term instead of rescanning ``p``, and each monomial is keyed
    once, when it first enters.  A step makes one field value of the popped
    int over ``D`` and skips it if zero (cancelled, or over F_p a multiple
    of p).  The quotient term is that value times the stored lead inverse.
    Each negated tail term is then added times the quotient's numerator as
    a plain int, with no field call; first, if the quotient's denominator
    times the tail's does not divide ``D``, all of ``p`` is rescaled to the
    lcm.  A cancelled monomial keeps its zero entry until popped, so a
    monomial not in ``p`` has never entered it: every new term is below the
    popped one, so popped monomials never return, and a divisor never gets
    the same quotient monomial twice.  Terms leave in descending order and
    the first divisor in list order whose lead divides is used, so quotients
    and remainder are those of plain multivariate division."""
    ring = f.ring
    field = ring.field
    dkey = order.desc_key
    mul, value = field.mul, field.value

    p, D = field.integral(f.terms)
    p = dict(p)  # over F_p, integral hands back f's own terms
    heap = [(dkey(m), m) for m in p]
    heapify(heap)
    rem: dict = {}
    quots = [dict() for _ in leads]
    while heap:
        m = heappop(heap)[1]
        c = value(p.pop(m), D)
        if not c:
            continue
        for idx, (dm, inv_lc, tail, dt) in enumerate(leads):
            if all(map(_le, dm, m)):
                t = tuple(map(_sub, m, dm))
                q = quots[idx][t] = mul(c, inv_lc)
                d = q.denominator * dt
                if D % d:
                    D = _rescale(p, D, d)
                s = q.numerator * (D // d)
                for m2, c2 in tail:
                    mm = tuple(map(_add, m2, t))
                    if mm in p:
                        p[mm] += s * c2
                    else:
                        p[mm] = s * c2
                        heappush(heap, (dkey(mm), mm))
                break
        else:
            rem[m] = c
    return [Polynomial(ring, q) for q in quots], Polynomial(ring, rem)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(_le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(_sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order, with a precedence permutation listing variable
    indices from most to least significant.  Each subclass defines one sort
    key, ``desc_key``: a smaller key means a larger monomial, so sorting by
    it lists monomials in descending order and a min-heap of these keys
    pops the largest first."""

    precedence: tuple

    def __post_init__(self):
        if sorted(self.precedence) != list(range(len(self.precedence))):
            raise ValueError("precedence must be a permutation of variable indices")


class Lex(MonomialOrder):
    def desc_key(self, m: Monomial):
        return tuple(-m[i] for i in self.precedence)


class Grevlex(MonomialOrder):
    def __post_init__(self):
        super().__post_init__()
        # itemgetter needs an index and returns a bare value for one; below
        # two variables the reversed precedence is the identity anyway.
        rev = self.precedence[::-1]
        object.__setattr__(self, "_ranked", itemgetter(*rev) if len(rev) > 1 else tuple)

    def desc_key(self, m: Monomial):
        return (-sum(m),) + self._ranked(m)


def lex(nvars: int, precedence: Sequence[int] | None = None) -> Lex:
    return Lex(tuple(precedence) if precedence else tuple(range(nvars)))


def grevlex(nvars: int, precedence: Sequence[int] | None = None) -> Grevlex:
    return Grevlex(tuple(precedence) if precedence else tuple(range(nvars)))


# Each order's name and its constructor, for rings and the command line.
ORDERS = {"lex": lex, "grevlex": grevlex}


class PolyRing:
    """A polynomial ring: coefficient field, named variables, default order."""

    __slots__ = ("field", "vars", "order", "_index")

    def __init__(self, field: FieldConfig, variables: Sequence[str], order="grevlex"):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise DuplicateVariable(f"repeated variable name in {names}")
        self.field = field
        self.vars = names
        self.order = ORDERS[order](len(names)) if isinstance(order, str) else order
        self._index = {name: i for i, name in enumerate(names)}
        self.check_order(self.order)

    def check_order(self, order: MonomialOrder) -> MonomialOrder:
        """``order``, if it ranks exactly this ring's variables; an order of
        another width would tie distinct monomials, and division by such
        ties never ends."""
        if len(order.precedence) != len(self.vars):
            raise RingMismatch(
                f"order on {len(order.precedence)} variables for a ring with {len(self.vars)}"
            )
        return order

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"PolyRing({self.field}, {list(self.vars)})"

    # -- constructors --------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.term((0,) * self.nvars, self.field.one())

    def const(self, value) -> "Polynomial":
        return self.term((0,) * self.nvars, self.field.scalar(value).value)

    def term(self, mono: Monomial, raw) -> "Polynomial":
        """The polynomial ``raw * x^mono`` for a raw field element."""
        return Polynomial(self, {mono: raw} if raw else {})

    def var(self, name_or_index) -> "Polynomial":
        i = self._index.get(name_or_index) if isinstance(name_or_index, str) else name_or_index
        if i not in range(self.nvars):
            raise RingMismatch(f"no variable {name_or_index!r} in {self.vars}")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.term(mono, self.field.one())

    def gens(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def dot(self, ps, qs) -> "Polynomial":
        """sum(p_i * q_i), summed into one term dict."""
        pairs = []
        for p, q in zip(ps, qs, strict=True):
            if p.ring != self or q.ring != self:
                raise RingMismatch("dot product outside the ring")
            pairs.append((p.terms, q.terms))
        return Polynomial(self, _sum_of_products(pairs, self.field))

    def from_terms(self, terms: dict) -> "Polynomial":
        """The polynomial with these terms.  Each coefficient goes through
        ``field.scalar``, so it is stored canonically, a zero is dropped and
        a value outside the field raises ``ConfigError``."""
        clean = {}
        width = self.nvars
        scalar = self.field.scalar
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != width:
                raise RingMismatch(f"monomial width {len(mono)} != {width}")
            raw = scalar(coeff).value
            if raw:
                clean[mono] = raw
        return Polynomial(self, clean)

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps monomials to nonzero
    raw coefficients and must never be mutated after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def constant_value(self):
        """Raw coefficient if the polynomial is a constant, else None."""
        if not self.terms:
            return self.ring.field.zero()
        if len(self.terms) == 1:
            (mono, coeff), = self.terms.items()
            if not any(mono):
                return coeff
        return None

    def lead(self, order: MonomialOrder | None = None):
        """Leading (monomial, coefficient) under ``order``; None when zero."""
        if not self.terms:
            return None
        m = min(self.terms, key=(order or self.ring.order).desc_key)
        return m, self.terms[m]

    def coeff(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.ring.field.zero())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring} != {self.ring}")
            return other
        if isinstance(other, (int, Scalar)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        add = self.ring.field.add
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = add(out[m], c) if m in out else c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _sum_of_products(((self.terms, other.terms),), self.ring.field))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return result

    def scale(self, raw) -> "Polynomial":
        """Multiply by a raw field element."""
        return self * self.ring.term((0,) * self.ring.nvars, raw)

    def mul_term(self, mono: Monomial, raw) -> "Polynomial":
        """Multiply by ``raw * x^mono``."""
        return self * self.ring.term(mono, raw)

    def extend(self, new_ring: PolyRing) -> "Polynomial":
        """Reinterpret in a ring whose variables extend this ring's list."""
        if new_ring.field != self.ring.field or new_ring.vars[: self.ring.nvars] != self.ring.vars:
            raise RingMismatch("target ring does not extend the source ring")
        pad = (0,) * (new_ring.nvars - self.ring.nvars)
        return Polynomial(new_ring, {m + pad: c for m, c in self.terms.items()})

    # -- equality & text ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Scalar)):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def sorted_terms(self):
        key = self.ring.order.desc_key
        return sorted(self.terms.items(), key=lambda mc: key(mc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.vars
        chunks = []
        for mono, coeff in self.sorted_terms():
            parts = []
            for i, e in enumerate(mono):
                if e == 1:
                    parts.append(names[i])
                elif e > 1:
                    parts.append(f"{names[i]}^{e}")
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if not parts:
                body = str(mag)
            elif mag == field.one():
                body = "*".join(parts)
            else:
                body = str(mag) + "*" + "*".join(parts)
            if not chunks:
                chunks.append(("-" if negative else "") + body)
            else:
                chunks.append(("- " if negative else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self}>"


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            sign = -1 if text == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                nxt = self.term()
                result = result - nxt if text == "-" else result + nxt
            elif kind == "end" or (kind == "op" and text == ")"):
                return result
            else:
                raise ParseError(f"expected operator, found {text!r}", off)

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.take()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.take()
            kind, text, off = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", off)
            return base ** int(text)
        return base

    def atom(self) -> Polynomial:
        kind, text, off = self.take()
        if kind == "int":
            kind2, text2, _ = self.peek()
            if kind2 == "op" and text2 == "/":
                self.take()
                kind3, text3, off3 = self.take()
                if kind3 != "int":
                    raise ParseError("denominator must be an integer", off3)
                text += "/" + text3
            return self.ring.const(text)
        if kind == "name":
            if text not in self.ring._index:
                raise ParseError(f"unknown variable {text!r}", off)
            return self.ring.var(text)
        if kind == "op" and text == "(":
            inner = self.expr()
            kind2, text2, off2 = self.take()
            if not (kind2 == "op" and text2 == ")"):
                raise ParseError("expected ')'", off2)
            return inner
        raise ParseError(f"unexpected token {text!r}", off)


def _parse(ring: PolyRing, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result = parser.expr()
    kind, text_, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", off)
    return result
