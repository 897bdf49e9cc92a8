"""Sparse multivariate polynomials with exact coefficients.

A polynomial stores each monomial as one packed int, as in Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors" (CASC 2007).  In a ring of n variables, the exponent of
variable i fills bits [16i, 16i + 16) and the total degree fills the field
above them.  The top bit of each field is a guard bit, clear in every
stored monomial.  So a product of monomials is one ``+``, a quotient one
``-``, and ``d`` divides ``m`` exactly when ``(m - d) & guards`` is zero: a
field that would go negative borrows into its guard bit.  The degree sits
on top, so packed ints compare by degree first, and ``m ^ low`` (the
variable fields complemented) ranks monomials in graded reverse lex, the
first declared variable most significant.  A stored monomial has total
degree at most ``MAX_DEGREE``; an operation whose result would go beyond it
raises ``ExponentOverflow``, so no field ever carries into the next.  The
layout depends only on the variable count.

The coefficients are stored in integral form: plain ints over one positive
denominator per polynomial, with the gcd of the denominator and every
numerator 1 (over F_p the denominator is 1 and the ints are residues in
[0, p)).  So the two loops, ``_sum_of_products`` and ``_reduce``, read their
operands as stored and hand back the same form: a sum of products is
normalized once, by one gcd, and a reduction step forms its quotient with
one int gcd and makes no field value.  Term maps never store zero, and the
form is canonical, so structural equality of (terms, denominator) is
semantic equality.

Exponent tuples and field values appear only at the edges: ``from_terms``
(exponent tuples), printing, and the ``terms``, ``lead``, ``coeff``,
``constant_value``, ``mul_term`` and ``sorted_terms`` of a polynomial.
Coefficients given to ``const``, ``term``, ``from_terms`` and parsing enter
through ``field.pair``, and a ring map goes through ``_substitute``; neither
makes a field value.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import lcm
from typing import Sequence

from .errors import (
    ConfigError,
    DuplicateVariable,
    ExponentOverflow,
    ParseError,
    RingMismatch,
    ShapeError,
)
from .fields import _COEFFICIENTS, FieldConfig, _scalar, pair_hash

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # the largest total degree a monomial may have
MAX_NESTING = 100  # the deepest parentheses ``PolyRing.parse`` accepts


class Packing:
    """The packed monomials of rings with ``nvars`` variables, and the
    operations ``groebner`` needs on them."""

    __slots__ = ("top", "low", "guards", "limit", "_repunit", "_fields")

    def __init__(self, nvars: int):
        self.top = nvars * FIELD_BITS  # the lowest bit of the degree field
        self.low = (1 << self.top) - 1  # the variable fields
        self.guards = sum(1 << (FIELD_BITS * (i + 1) - 1) for i in range(nvars))
        self.limit = (MAX_DEGREE + 1) << self.top  # every stored monomial is below it
        # A 1 in every field, the degree field included: multiplied by the
        # variable fields, it sums them all into the degree field.
        self._repunit = sum(1 << (FIELD_BITS * i) for i in range(nvars + 1))
        self._fields = struct.Struct(f"<{nvars + 1}H")

    def pack(self, exps) -> int:
        """The packed form of a tuple of non-negative int exponents."""
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise ExponentOverflow(f"total degree {degree} exceeds {MAX_DEGREE}")
        return int.from_bytes(self._fields.pack(*exps, degree), "little")

    def unpack(self, m: int) -> tuple:
        return self._fields.unpack(m.to_bytes(self._fields.size, "little"))[:-1]

    def degree(self, m: int) -> int:
        return m >> self.top

    def divides(self, a: int, b: int) -> bool:
        """Whether ``a`` divides ``b``."""
        return not (b - a) & self.guards

    def lcm(self, a: int, b: int) -> int:
        """The lcm, whose degree may exceed ``MAX_DEGREE``: it is compared,
        divided and measured, never stored.  It is computed on the packed
        ints, all fields at once.  With the guard bits set in ``a``, each
        field of ``(a | guards) - b`` keeps its guard exactly where a's
        exponent is at least b's (no field borrows from the next), and
        ``ge - (ge >> 15)`` widens each kept guard into a mask of its field's
        exponent bits, which picks the larger exponent of each field.  One
        multiply by the repunit then sums the variable fields into the
        degree field; no partial sum of at most 2 * ``MAX_DEGREE`` = 65 534
        carries out of its 16 bits, so the degree is exact."""
        ge = ((a | self.guards) - b) & self.guards
        mask = ge - (ge >> (FIELD_BITS - 1))
        v = (a & mask) | (b & (self.low ^ mask))
        return v | (v * self._repunit >> self.top & 0xFFFF) << self.top

    def support(self, m: int) -> frozenset:
        """The indices of the variables that occur in ``m``."""
        return frozenset(i for i, e in enumerate(self.unpack(m)) if e)


@lru_cache(maxsize=128)
def _packing(nvars: int) -> Packing:
    return Packing(nvars)


def _rescale(den: int, d: int, *accs) -> int:
    """Bring each int sum in ``accs`` over ``den`` to the lcm of ``den`` and
    ``d``, in place, and return that lcm; both integral loops call this when
    a new denominator ``d`` does not divide the running one."""
    k = lcm(den, d) // den
    for acc in accs:
        for m in acc:
            acc[m] *= k
    return den * k


def _sum_of_products(pairs, ring: PolyRing) -> Polynomial:
    """sum(p_i * q_i) over ``pairs`` of polynomials of ``ring``.  The one
    multiply-accumulate loop: products, scaling, sums of products and
    cofactor rows all go through it.  Each operand is already ints over its
    own denominator; the products add up as plain ints over the common
    denominator of all pairs, and ``field.normalize`` brings the sum to the
    canonical form once.  A constant factor adds the other factor's terms
    under their own monomial ints, so a scaled polynomial shares its
    monomials with the original.  Two stored monomials sum without a carry
    between fields, so a product beyond ``MAX_DEGREE`` is still exact; it is
    caught once, on the result."""
    acc: dict = {}
    get = acc.get
    den = 1
    for p, q in pairs:
        d = p._den * q._den
        p, q = p._terms, q._terms
        if not (p and q):
            continue  # a zero operand adds nothing; cofactor rows hold many
        if d != den:
            # Bring the sum so far and this pair to one denominator.
            if den % d:
                den = _rescale(den, d, acc)
            if den != d:
                k = den // d
                if len(q) < len(p):
                    p, q = q, p  # scale the smaller operand
                p = {m: c * k for m, c in p.items()}
        if len(p) == 1 and 0 in p:
            p, q = q, p  # the constant goes last, where the branch below finds it
        if len(q) == 1 and 0 in q:
            c2 = q[0]
            for m, c1 in p.items():
                acc[m] = get(m, 0) + c1 * c2
            continue
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    out, den = ring.field.normalize(acc, den)
    if out and max(out) >= ring.packing.limit:
        raise ExponentOverflow(f"a product has total degree above {MAX_DEGREE}")
    return Polynomial(ring, out, den)


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _listed(value, kinds, what: str):
    """``value``, if it is a list or tuple of ``kinds``, else ``ConfigError``:
    a string would pass as a sequence of strings, and ``"xy"`` is not the
    variables x and y.  With ``kinds`` ``object`` no element is looked at,
    so a list every caller takes whole costs one ``isinstance``."""
    if not isinstance(value, (list, tuple)) or (
        kinds is not object and not all(isinstance(v, kinds) for v in value)
    ):
        raise ConfigError(f"expected a list of {what}, got {value!r}")
    return value


def _power(base, exp, one):
    """``base ** exp`` by square and multiply, for polynomials and algebra
    elements alike; ``one()`` makes the result of exponent 0.  The result
    starts as the first power of two it needs, not as 1, so ``base ** 1``
    is ``base`` and no product by 1 is formed."""
    if not _is_int(exp) or exp < 0:
        raise ConfigError(f"exponent {exp!r} is not a non-negative integer")
    result = None
    while exp:
        if exp & 1:
            result = base if result is None else result * base
        exp >>= 1
        if exp:
            base = base * base
    return one() if result is None else result


def _lead_inverse(d: Polynomial):
    """(lead monomial, numerator and denominator of the lead coefficient's
    inverse) of a nonzero polynomial, from the stored ints through the
    field's ``ratio`` and ``inv_pair``, with no field value made."""
    terms = d._terms
    lm = d.ring.order.largest(terms)
    field = d.ring.field
    return (lm, *field.inv_pair(*field.ratio(terms[lm], d._den)))


def _split_lead(d: Polynomial):
    """(lead monomial, numerator and denominator of the lead coefficient's
    inverse, other terms negated, their denominator) of a divisor, the form
    ``_reduce`` takes; a basis computes this once, not per reduction, so no
    reduction step inverts, negates or converts a divisor coefficient.  The
    inverse comes from ``_lead_inverse``.  The order is graded, so no tail
    term has a larger degree than the lead, and a reduction step never
    makes a term of larger degree than the one it removes."""
    terms, den = d._terms, d._den
    lm, inv_num, inv_den = _lead_inverse(d)
    return lm, inv_num, inv_den, tuple((m, -n) for m, n in terms.items() if m != lm), den


def _is_reduced(f: Polynomial, leads) -> bool:
    """Whether no lead of ``leads`` (split by ``_split_lead``) divides a term
    of ``f``, by ``_reduce``'s guard-mask test.  Then ``f`` is its own
    remainder, with every quotient zero."""
    guards = f.ring.packing.guards
    for m in f._terms:
        for lead in leads:
            if not (m - lead[0]) & guards:
                return False
    return True


def _reduce(f: Polynomial, leads, signature: tuple | None = None):
    """Core reduction loop shared by division, Buchberger and normal forms.

    ``leads`` are the divisors split by ``_split_lead``.  The remainder-to-be
    ``p`` holds plain ints over one common denominator ``D`` (at first
    ``f``'s own numerators and denominator; over F_p, unreduced residues
    over 1), and its monomials sit in a min-heap of bare ints, so each step
    pops the leading term instead of rescanning ``p``, and each monomial is
    keyed once, when it first enters: the entry is ``-(m ^ low)``, its
    graded reverse lex rank negated, and one ``^`` recovers ``m``.  A step
    reads the popped int as a stored numerator (``field.residue``) and
    skips it if zero (cancelled, or over F_p a multiple of p).  The quotient
    term is n * inv_num / (D * inv_den), reduced by ``field.ratio`` to a pair
    of ints with no field value made.  Each negated tail term is then added
    times the quotient's numerator as a plain int; first, if the quotient's
    denominator times the tail's does not divide ``D``, all of ``p`` and of
    the remainder so far is rescaled to the lcm.  A cancelled monomial keeps
    its zero entry until popped, so a monomial not in ``p`` has never
    entered it: every new term is below the popped one, so popped monomials
    never return, and a divisor never gets the same quotient monomial twice.
    The order is graded, so no new term has a larger degree than the popped
    one, and no step goes beyond ``MAX_DEGREE``.
    Terms leave in descending order and the first divisor in list order
    whose lead divides is used, so quotients and remainder are those of
    plain multivariate division.  Each quotient is kept as ints over the lcm
    of its reduced terms' denominators, rescaled as ``p`` is, and that form
    is canonical already: a prime to its full power in the lcm divides some
    term's denominator fully, and so not that term's scaled numerator.  The
    remainder is normalized once.

    ``signature`` is the rule of a signature-based basis, (first, sigs,
    sigma): ``f`` has signature ``sigma`` and ``leads[first + j]`` has
    signature ``sigs[j]``, all packed monomials.  A term that no lead of
    ``leads[:first]`` divides is then reduced by the first later divisor
    whose shifted signature (the term over its lead, times its signature)
    is below ``sigma``, so the signature stays ``sigma``; a term that no
    such divisor reduces stays in the remainder."""
    ring = f.ring
    field = ring.field
    low, guards = ring.packing.low, ring.packing.guards
    residue, ratio = field.residue, field.ratio
    dms = [lead[0] for lead in leads]
    nleads = len(dms)
    first = nleads
    if signature is not None:
        first, sigs, sigma = signature
        sigma_rank = sigma ^ low

        def regular_divisor(m):
            """The index of the first later lead that reduces m in a smaller
            signature, else ``nleads``."""
            for j in range(first, nleads):
                if not (m - dms[j]) & guards and (m - dms[j] + sigs[j - first]) ^ low < sigma_rank:
                    return j
            return nleads

    p, D = dict(f._terms), f._den
    heap = [-(m ^ low) for m in p]
    heapify(heap)
    rem: dict = {}
    quots = [dict() for _ in leads]
    qdens = [1] * len(leads)  # quots[i] holds ints over qdens[i]
    while heap:
        m = -heappop(heap) ^ low
        n = residue(p.pop(m))
        if not n:
            continue
        idx = 0
        while idx < first and (m - dms[idx]) & guards:
            idx += 1
        if idx == first != nleads:
            idx = regular_divisor(m)
        if idx == nleads:
            rem[m] = n
            continue
        dm, inv_num, inv_den, tail, dt = leads[idx]
        t = m - dm
        qn, qd = ratio(n * inv_num, D * inv_den)
        qden = qdens[idx]
        if qden % qd:
            qden = qdens[idx] = _rescale(qden, qd, quots[idx])
        quots[idx][t] = qn * (qden // qd)
        d = qd * dt
        if D % d:
            D = _rescale(D, d, p, rem)
        s = qn * (D // d)
        for m2, c2 in tail:
            mm = m2 + t
            if mm in p:
                p[mm] += s * c2
            else:
                p[mm] = s * c2
                heappush(heap, -(mm ^ low))
    quots = [Polynomial(ring, q, qden) for q, qden in zip(quots, qdens)]
    # Each remainder int is a nonzero stored numerator, so over 1 (always,
    # over F_p) the remainder is canonical as it stands.
    return quots, Polynomial(ring, rem) if D == 1 else Polynomial(ring, *field.normalize(rem, D))


@dataclass(frozen=True)
class Grevlex:
    """Graded reverse lex, the one term order, on the packed monomials whose
    variable fields are ``low``: ``m ^ low`` (the variable fields
    complemented) is a monomial's rank, a larger int a larger monomial, the
    first declared variable most significant.  ``PolyRing`` builds it as
    ``ring.order``; orders of rings with as many variables are equal."""

    low: int

    def largest(self, monos: dict | list) -> int:
        return max(monos, key=self.low.__xor__)

    def descending(self, monos) -> list:
        return sorted(monos, key=self.low.__xor__, reverse=True)


class PolyRing:
    """A polynomial ring: coefficient field, named variables and the packing
    of its monomials.  Its ``order``, graded reverse lex, is the one term
    order: it ranks printed terms, leads, divisions and Groebner bases.  A
    field that is not a ``FieldConfig`` raises ``ConfigError``, and so do
    variables that are not a list or tuple of identifiers."""

    __slots__ = ("field", "vars", "order", "packing", "_index")

    def __init__(self, field: FieldConfig, variables: Sequence[str]):
        if not isinstance(field, FieldConfig):
            raise ConfigError(f"field must be a FieldConfig, got {field!r}")
        names = tuple(_listed(variables, str, "variable names"))
        for name in names:
            if not _NAME.fullmatch(name):
                raise ConfigError(f"variable name {name!r} is not an identifier")
        if len(set(names)) != len(names):
            raise DuplicateVariable(f"repeated variable name in {names}")
        self.field = field
        self.vars = names
        self.packing = _packing(len(names))
        self.order = Grevlex(self.packing.low)
        self._index = {name: i for i, name in enumerate(names)}

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

    def pack(self, exps) -> int:
        """The packed monomial of an exponent tuple.  An exponent that is not
        a non-negative int raises ``ConfigError``, a tuple of another width
        ``RingMismatch``, and a total degree above ``MAX_DEGREE``
        ``ExponentOverflow``."""
        try:
            exps = tuple(exps)
        except TypeError:
            raise ConfigError(f"monomial {exps!r} is not a tuple of exponents") from None
        if len(exps) != self.nvars:
            raise RingMismatch(f"monomial width {len(exps)} != {self.nvars}")
        for e in exps:
            if not _is_int(e) or e < 0:
                raise ConfigError(f"exponent {e!r} in {exps} is not a non-negative integer")
        return self.packing.pack(exps)

    # -- constructors --------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: 1})

    def const(self, value) -> "Polynomial":
        return self.term(0, value)

    def term(self, mono: int, value) -> "Polynomial":
        """The polynomial ``value * x^mono`` for a packed monomial (0 is the
        monomial 1) and a coefficient read as ``const`` reads it."""
        n, den = self.field.pair(value)
        return Polynomial(self, {mono: n} if n else {}, den)

    def var(self, name_or_index) -> "Polynomial":
        i = self._index.get(name_or_index) if isinstance(name_or_index, str) else name_or_index
        if not _is_int(i) or i not in range(self.nvars):
            raise RingMismatch(f"no variable {name_or_index!r} in {self.vars}")
        return Polynomial(self, {1 << FIELD_BITS * i | 1 << self.packing.top: 1})

    def gens(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def dot(self, ps, qs) -> "Polynomial":
        """sum(p_i * q_i), summed into one term dict.  ``ps`` and ``qs`` are
        lists or tuples of polynomials; another shape or element raises
        ``ConfigError``, lists of different lengths ``ShapeError``, and a
        polynomial of another ring ``RingMismatch``."""
        ps, qs = _listed(ps, object, "polynomials"), _listed(qs, object, "polynomials")
        if len(ps) != len(qs):
            raise ShapeError(f"dot product of {len(ps)} and {len(qs)} polynomials")
        pairs = list(zip(ps, qs))
        for p, q in pairs:
            if not (isinstance(p, Polynomial) and isinstance(q, Polynomial)):
                raise ConfigError(f"dot product of {p!r} and {q!r}, which are not both polynomials")
            if p.ring != self or q.ring != self:
                raise RingMismatch("dot product outside the ring")
        return _sum_of_products(pairs, self)

    def from_terms(self, terms: dict) -> "Polynomial":
        """The polynomial with these terms, keyed by exponent tuples.  Each
        monomial goes through ``pack`` and each coefficient through
        ``field.pair``, so it is stored canonically, a zero is dropped and
        a value outside the field raises ``ConfigError``."""
        clean = {}
        pack = self.pack
        pair = self.field.pair
        for mono, coeff in terms.items():
            mono = pack(mono)
            n, d = pair(coeff)
            if n:
                clean[mono] = n, d
        # Over the lcm of reduced denominators the form is canonical, as for
        # the quotients of ``_reduce``.
        den = lcm(*[d for _, d in clean.values()])
        return Polynomial(self, {m: n * (den // d) for m, (n, d) in clean.items()}, den)

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)


class Polynomial:
    """Immutable sparse polynomial in integral form.  ``_terms`` maps packed
    monomials to nonzero ints and ``_den`` is one positive int, the
    coefficient at ``m`` being ``_terms[m] / _den``.  The form is canonical:
    over Q the gcd of ``_den`` and every numerator is 1, and over F_p
    ``_den`` is 1 and the ints are residues in [0, p).  Neither field may be
    mutated after construction.  ``terms`` is the map from exponent tuples
    to field values, built on each read."""

    __slots__ = ("ring", "_terms", "_den")

    def __init__(self, ring: PolyRing, terms: dict, den: int = 1):
        self.ring = ring
        self._terms = terms
        self._den = den

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        unpack = self.ring.packing.unpack
        value, den = self.ring.field.value, self._den
        return {unpack(m): value(n, den) for m, n in self._terms.items()}

    def _substitute(self, ring: PolyRing, image) -> "Polynomial":
        """sum(c * image(m)) over the terms c * x^m, for an ``image`` of each
        exponent tuple in ``ring`` (of the same field); each c enters the
        product loop as its stored int over this polynomial's denominator."""
        unpack, den = self.ring.packing.unpack, self._den
        return _sum_of_products(
            ((Polynomial(ring, {0: n}, den), image(unpack(m))) for m, n in self._terms.items()), ring
        )

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return self.ring.packing.degree(max(self._terms))

    def constant_value(self):
        """Raw coefficient if the polynomial is a constant, else None."""
        value = self._constant()
        return None if value is None else value.value

    def _constant(self):
        """The ``Scalar`` a constant polynomial equals, read from its stored
        pair with no field value made; None when it is not constant."""
        terms = self._terms
        if terms and (len(terms) > 1 or 0 not in terms):
            return None
        return _scalar(self.ring.field, terms.get(0, 0), self._den)

    def lead(self, order: Grevlex | None = None):
        """Leading (exponent tuple, coefficient) under the ring's order; None
        when zero.  ``order`` may name that order (a basis's ``order``, say)
        and nothing else, so callers that pass it keep working; any other
        value raises ``ConfigError``."""
        if order is not None and order != self.ring.order:
            raise ConfigError(f"term order must be the ring's own, got {order!r}")
        if not self._terms:
            return None
        m = self.ring.order.largest(self._terms)
        return self.ring.packing.unpack(m), self.ring.field.value(self._terms[m], self._den)

    def coeff(self, mono):
        """The coefficient of an exponent tuple, checked as ``PolyRing.pack``
        checks it; zero for a degree no stored monomial reaches."""
        field = self.ring.field
        try:
            n = self._terms.get(self.ring.pack(mono))
        except ExponentOverflow:
            n = None
        return field.zero() if n is None else field.value(n, self._den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring} != {self.ring}")
            return other
        if isinstance(other, _COEFFICIENTS):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        out, den, k = dict(self._terms), self._den, 1
        if other._den != den:
            if den % other._den:
                den = _rescale(den, other._den, out)
            k = den // other._den
        add = field.add  # on stored ints: over Q their sum, over F_p mod p
        for m, n in other._terms.items():
            n *= k
            v = add(out[m], n) if m in out else n
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        if den == 1:
            return Polynomial(self.ring, out)  # nonzero ints over 1 are canonical
        return Polynomial(self.ring, *field.normalize(out, den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        neg = self.ring.field.neg  # over Q it negates the int numerator
        return Polynomial(self.ring, {m: neg(n) for m, n in self._terms.items()}, self._den)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_of_products(((self, other),), self.ring)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        return _power(self, exp, self.ring.one)

    def scale(self, value) -> "Polynomial":
        """Multiply by a field element: a raw value or a ``Scalar``, read as
        ``PolyRing.const`` reads it."""
        return self * self.ring.const(value)

    def mul_term(self, mono, value) -> "Polynomial":
        """Multiply by ``value * x^mono`` for an exponent tuple ``mono``."""
        return self * self.ring.term(self.ring.pack(mono), value)

    def extend(self, new_ring: PolyRing) -> "Polynomial":
        """Reinterpret in a ring whose variables extend this ring's list."""
        if new_ring.field != self.ring.field or new_ring.vars[: self.ring.nvars] != self.ring.vars:
            raise RingMismatch("target ring does not extend the source ring")
        # The variable fields keep their bits; the degree field moves up.
        old, new = self.ring.packing, new_ring.packing
        low = old.low
        terms = {(m & low) | (old.degree(m) << new.top): n for m, n in self._terms.items()}
        return Polynomial(new_ring, terms, self._den)

    # -- equality & text ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self._den == other._den and self._terms == other._terms
        if isinstance(other, _COEFFICIENTS):
            value = self._constant()  # a Scalar of another field is never equal
            return value is not None and value == other
        return NotImplemented

    def __hash__(self):
        terms = self._terms
        if not terms or (len(terms) == 1 and 0 in terms):
            return pair_hash(terms.get(0, 0), self._den)  # as the equal Scalar
        return hash((self.ring, self._den, frozenset(terms.items())))

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs, largest monomial first under
        the ring's order."""
        unpack = self.ring.packing.unpack
        value, den = self.ring.field.value, self._den
        terms = self._terms
        return [(unpack(m), value(terms[m], den)) for m in self.ring.order.descending(terms)]

    def __str__(self):
        if not self._terms:
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

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a variable name, as parsed and as declared
_TOKEN = re.compile(rf"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>{_NAME.pattern})|(?P<op>[-+*/^()])")


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
        self.depth = 0  # open parentheses; each costs a few stack frames

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
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", off)
            self.depth += 1
            inner = self.expr()
            kind2, text2, off2 = self.take()
            if not (kind2 == "op" and text2 == ")"):
                raise ParseError("expected ')'", off2)
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {text!r}", off)


def _parse(ring: PolyRing, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result = parser.expr()
    kind, text_, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", off)
    return result
