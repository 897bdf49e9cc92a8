"""Exact scalar arithmetic over the rationals and over prime fields.

A field is an instance of one of two subclasses of :class:`FieldConfig`:
:class:`Rationals` (the single instance ``RATIONALS``), whose values are
``fractions.Fraction`` objects (always reduced, positive denominator), and
:class:`PrimeField`, whose values are residues in ``[0, p)``.  Each class
binds its arithmetic once, so no operation asks which field it is in.  Both
representations are canonical, so equal values compare bit-identical.

Neither polynomials nor scalars store field values; both store ints.  A
:class:`Scalar` is the canonical pair: over Q a numerator over a positive
denominator with gcd 1, over F_p a residue over 1.  ``Scalar.value`` makes
its field value (a ``Fraction`` over Q, an int over F_p) only when it is
read.  ``poly`` keeps each polynomial's coefficients as ints over one
positive denominator, the integral form.  ``pair`` turns
an int, a ``Fraction``, a scalar literal or a ``Scalar`` into the canonical
pair; ``add_pair``, ``mul_pair`` and ``inv_pair`` act on pairs, over Q by
Henrici's rule of taking the gcds before multiplying, over F_p by one
``% p``.  ``normalize`` turns an int sum over a denominator into the
canonical form: over Q the numerators and the denominator divided by their
gcd, over F_p the residues over 1.  ``residue`` reads one int as a stored
numerator (over F_p, mod p), and ``ratio`` writes a/b as the canonical
pair; ``value`` makes the field value of n/den, for the edges where a
caller reads a coefficient.  ``add`` and ``neg`` act on stored ints too:
over Q they are the int operations, over F_p the residue ones.  Both raw
value types are rationals in Python's sense, so ``c.numerator`` and
``c.denominator`` read any single value as an int over a denominator (a
residue over 1).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import ConfigError, DivisionByZero, FieldMismatch

MAX_MODULUS_BITS = 63

RawScalar = Union[Fraction, int]

_SCALAR_RE = re.compile(r"^\s*([+-]?)\s*(\d+)\s*(?:/\s*(\d+)\s*)?$")


# The first 12 primes as Miller-Rabin bases decide primality exactly for
# every n < 3.1e23 (Sorenson and Webster, Math. Comp. 2017), which covers
# every modulus below 2^MAX_MODULUS_BITS.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < 3.1e23."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldConfig:
    """A coefficient field.  Each subclass binds ``characteristic``,
    ``from_int``, ``add``, ``sub``, ``mul``, ``neg`` and ``inv`` on raw
    values, ``add_pair``, ``mul_pair`` and ``inv_pair`` on canonical pairs,
    ``normalize`` on int term dicts over a denominator, and ``residue``,
    ``ratio`` and ``value`` on single ints; the methods below, ``pair`` and
    ``raw`` among them, are written once in terms of those."""

    characteristic: int

    def zero(self) -> RawScalar:
        return self.from_int(0)

    def one(self) -> RawScalar:
        return self.from_int(1)

    def div(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return self.mul(a, self.inv(b))

    @staticmethod
    def is_zero(a: RawScalar) -> bool:
        return not a

    def pair(self, value) -> tuple:
        """The canonical (numerator, denominator) of an int, a ``Fraction``,
        a scalar literal or a ``Scalar`` of this field, with no field value
        made."""
        if isinstance(value, int):
            return self.residue(value), 1
        if isinstance(value, Scalar):
            if value._config != self:
                raise FieldMismatch(f"scalar belongs to {value._config}, not {self}")
            return value._n, value._d
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
        elif isinstance(value, str):
            m = _SCALAR_RE.match(value)
            if m is None:
                raise ConfigError(f"bad scalar literal {value!r}")
            sign, num, den = m.groups()
            num, den = int(sign + num), int(den or 1)
        else:
            raise ConfigError(f"cannot coerce {value!r} into {self}")
        return self.mul_pair(self.residue(num), 1, *self.inv_pair(self.residue(den), 1))

    def raw(self, value) -> RawScalar:
        """The raw value of an int, a ``Fraction``, a scalar literal or a
        ``Scalar`` of this field, with no ``Scalar`` made."""
        return self.value(*self.pair(value))

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar) and value._config == self:
            return value
        return _scalar(self, *self.pair(value))


@dataclass(frozen=True)
class Rationals(FieldConfig):
    """Q, with values as reduced ``Fraction`` objects."""

    characteristic = 0
    from_int = Fraction
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg

    def inv(self, a: Fraction) -> Fraction:
        if not a:
            raise DivisionByZero("no inverse of zero")
        return Fraction(1) / a

    # A stored numerator is the int itself; only F_p reduces it.
    residue = operator.pos

    @staticmethod
    def add_pair(an: int, ad: int, bn: int, bd: int) -> tuple:
        """an/ad + bn/bd for reduced pairs: a common factor of the
        denominators is split off first, and only it can cancel."""
        g = gcd(ad, bd)
        if g == 1:
            return an * bd + ad * bn, ad * bd
        s = ad // g
        t = an * (bd // g) + bn * s
        g2 = gcd(t, g)
        return t // g2, s * (bd // g2)

    @staticmethod
    def mul_pair(an: int, ad: int, bn: int, bd: int) -> tuple:
        """an/ad * bn/bd for reduced pairs: each numerator is divided by
        its gcd with the other denominator before the products."""
        g1 = gcd(an, bd)
        g2 = gcd(bn, ad)
        if g1 == g2 == 1:
            return an * bn, ad * bd
        return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)

    @staticmethod
    def inv_pair(n: int, d: int) -> tuple:
        if not n:
            raise DivisionByZero("no inverse of zero")
        return (d, n) if n > 0 else (-d, -n)

    @staticmethod
    def normalize(acc: dict, den: int) -> tuple:
        """(terms, den): the nonzero ints of ``acc`` over ``den`` > 0, both
        divided by their gcd."""
        terms = {m: n for m, n in acc.items() if n}
        if den == 1:
            return terms, 1
        g = gcd(den, *terms.values())
        if g == 1:
            return terms, den
        return {m: n // g for m, n in terms.items()}, den // g

    @staticmethod
    def ratio(a: int, b: int) -> tuple:
        """a/b for b > 0, as a reduced (numerator, denominator)."""
        if b == 1:
            return a, 1
        g = gcd(a, b)
        return a // g, b // g

    @staticmethod
    def value(n: int, den: int) -> Fraction:
        """The reduced ``Fraction`` n/den."""
        return Fraction(n, den) if den != 1 else Fraction(n)

    def __str__(self) -> str:
        return "q"


@dataclass(frozen=True)
class PrimeField(FieldConfig):
    """F_p for a prime p below 2^MAX_MODULUS_BITS, with values in [0, p)."""

    modulus: int

    def __post_init__(self):
        p = self.modulus
        if not isinstance(p, int) or p <= 1:
            raise ConfigError(f"modulus must be a positive prime, got {p!r}")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise ConfigError(f"modulus must fit in {MAX_MODULUS_BITS} bits")
        if not _is_prime(p):
            raise ConfigError(f"modulus {p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.modulus

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def neg(self, a: int) -> int:
        return -a % self.modulus

    def inv(self, a: int) -> int:
        if not a:
            raise DivisionByZero("no inverse of zero")
        return pow(a, self.modulus - 2, self.modulus)

    def residue(self, n: int) -> int:
        return n % self.modulus

    # On pairs the denominators are 1 and go unread.

    def add_pair(self, an: int, ad: int, bn: int, bd: int) -> tuple:
        return (an + bn) % self.modulus, 1

    def mul_pair(self, an: int, ad: int, bn: int, bd: int) -> tuple:
        return an * bn % self.modulus, 1

    def inv_pair(self, n: int, d: int) -> tuple:
        if not n:
            raise DivisionByZero("no inverse of zero")
        return pow(n, self.modulus - 2, self.modulus), 1

    def normalize(self, acc: dict, den: int) -> tuple:
        """(terms, 1): each nonzero residue of ``acc`` mod p; ``den`` is
        always 1, since a residue is its own numerator."""
        p = self.modulus
        return {m: r for m, n in acc.items() if (r := n % p)}, 1

    def ratio(self, a: int, b: int) -> tuple:
        """(a mod p, 1); ``b`` is a denominator of the integral form, so 1."""
        return a % self.modulus, 1

    def value(self, n: int, den: int) -> int:
        """The residue of n; ``den`` is always 1, as in ``normalize``."""
        return n % self.modulus

    def __str__(self) -> str:
        return f"fp:{self.modulus}"


RATIONALS = Rationals()


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_text(text: str) -> FieldConfig:
    """Parse a field spec: ``q`` or ``fp:<prime>``."""
    t = text.strip().lower()
    if t == "q":
        return RATIONALS
    if t.startswith("fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise ConfigError(f"bad prime in field spec {text!r}") from None
        return prime_field(p)
    raise ConfigError(f"unknown field spec {text!r} (expected q or fp:<p>)")


_new = object.__new__


def pair_hash(n: int, d: int) -> int:
    """The hash of the canonical pair n/d: that of the int n when d is 1,
    so a ``Scalar`` hashes as an int it equals, and a constant polynomial
    or algebra element as its ``Scalar``."""
    return hash(n) if d == 1 else hash((n, d))


class Scalar:
    """An immutable field element tied to its :class:`FieldConfig`, stored
    as its canonical pair of ints: ``config`` and ``value`` are read-only,
    and nothing writes the private slots after construction.  Arithmetic
    acts on the pairs through the field's pair operations; ``value`` makes
    the ``Fraction`` (over Q) or returns the residue (over F_p) on each
    read.  A scalar equals an int it coerces to, and a scalar of another
    field is never equal."""

    __slots__ = ("_config", "_n", "_d")

    def __init__(self, config: FieldConfig, value):
        self._config = config
        self._n, self._d = config.pair(value)

    @property
    def config(self) -> FieldConfig:
        return self._config

    @property
    def value(self) -> RawScalar:
        return self._config.value(self._n, self._d)

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, (Scalar, int)):
            return self._config.scalar(other)
        return NotImplemented

    # The three binary operations test for a scalar of the same field and
    # build their result in line: over F_p a call to ``_coerce`` and one to
    # ``_scalar`` cost a third of the operation.

    def __add__(self, other):
        config = self._config
        if type(other) is not Scalar or other._config is not config:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n, d = config.add_pair(self._n, self._d, other._n, other._d)
        s = _new(Scalar)
        s._config, s._n, s._d = config, n, d
        return s

    __radd__ = __add__

    def __sub__(self, other):
        config = self._config
        if type(other) is not Scalar or other._config is not config:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n, d = config.add_pair(self._n, self._d, -other._n, other._d)
        s = _new(Scalar)
        s._config, s._n, s._d = config, n, d
        return s

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        config = self._config
        if type(other) is not Scalar or other._config is not config:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n, d = config.mul_pair(self._n, self._d, other._n, other._d)
        s = _new(Scalar)
        s._config, s._n, s._d = config, n, d
        return s

    __rmul__ = __mul__

    def __neg__(self):
        config = self._config
        return _scalar(config, config.residue(-self._n), self._d)

    def inverse(self) -> "Scalar":
        config = self._config
        return _scalar(config, *config.inv_pair(self._n, self._d))

    def is_zero(self) -> bool:
        return not self._n

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._n == other._n and self._d == other._d and self._config == other._config
        if isinstance(other, int):
            return self._d == 1 and self._n == self._config.residue(other)
        return NotImplemented

    def __hash__(self):
        return pair_hash(self._n, self._d)

    # Immutable, so a copy is the scalar itself; a pickle rebuilds it from
    # its field and value.

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return Scalar, (self._config, self.value)

    def __str__(self) -> str:
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __repr__(self) -> str:
        return f"Scalar(config={self._config!r}, value={self.value!r})"


def _scalar(config: FieldConfig, n: int, d: int) -> Scalar:
    """The scalar with the canonical pair n/d, built without coercion."""
    s = _new(Scalar)
    s._config, s._n, s._d = config, n, d
    return s
