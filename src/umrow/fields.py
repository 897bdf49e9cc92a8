"""Exact scalar arithmetic over the rationals and over prime fields.

A field is an instance of one of two subclasses of :class:`FieldConfig`:
:class:`Rationals` (the single instance ``RATIONALS``), whose values are
``fractions.Fraction`` objects (always reduced, positive denominator), and
:class:`PrimeField`, whose values are residues in ``[0, p)``.  Each class
binds its arithmetic once, so no operation asks which field it is in.  Both
representations are canonical, so equal values compare bit-identical.

Polynomials store no field values: ``poly`` keeps each polynomial's
coefficients as ints over one positive denominator, the integral form, and
each field supplies what that form needs.  ``normalize`` turns an int sum
over a denominator into the canonical form: over Q the numerators and the
denominator divided by their gcd, over F_p the residues over 1.
``residue`` reads one int as a stored numerator (over F_p, mod p), and
``ratio`` writes a/b as the canonical pair; ``value`` makes the field value
of n/den, for the edges where a caller reads a coefficient.  ``add`` and
``neg`` act on stored ints too: over Q they are the int operations, over
F_p the residue ones.  Both raw value types are rationals in Python's
sense, so ``c.numerator`` and ``c.denominator`` read any single value as an
int over a denominator (a residue over 1).
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
    ``from_int``, ``from_fraction``, ``add``, ``sub``, ``mul``, ``neg`` and
    ``inv`` on raw values, ``normalize`` on int term dicts over a
    denominator, and ``residue``, ``ratio`` and ``value`` on single ints;
    the methods below, ``raw`` among them, are written once in terms of
    those."""

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

    def parse_raw(self, text: str) -> RawScalar:
        m = _SCALAR_RE.match(text)
        if m is None:
            raise ConfigError(f"bad scalar literal {text!r}")
        sign, num, den = m.groups()
        value = self.from_int(int(num))
        if den:
            value = self.div(value, self.from_int(int(den)))
        return self.neg(value) if sign == "-" else value

    def raw(self, value) -> RawScalar:
        """The raw value of an int, a ``Fraction``, a scalar literal or a
        ``Scalar`` of this field, with no ``Scalar`` made."""
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        if isinstance(value, str):
            return self.parse_raw(value)
        if isinstance(value, Scalar):
            if value.config != self:
                raise FieldMismatch(f"scalar belongs to {value.config}, not {self}")
            return value.value
        raise ConfigError(f"cannot coerce {value!r} into {self}")

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar) and value.config == self:
            return value
        return Scalar(self, self.raw(value))


@dataclass(frozen=True)
class Rationals(FieldConfig):
    """Q, with values as reduced ``Fraction`` objects."""

    characteristic = 0
    from_int = Fraction
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg

    @staticmethod
    def from_fraction(f: Fraction) -> Fraction:
        return f

    def inv(self, a: Fraction) -> Fraction:
        if not a:
            raise DivisionByZero("no inverse of zero")
        return Fraction(1) / a

    # A stored numerator is the int itself; only F_p reduces it.
    residue = operator.pos

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

    def from_fraction(self, f: Fraction) -> int:
        return self.div(self.from_int(f.numerator), self.from_int(f.denominator))

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


@dataclass(frozen=True)
class Scalar:
    """An immutable field element tied to its :class:`FieldConfig`."""

    config: FieldConfig
    value: RawScalar

    def _coerce(self, other) -> "Scalar":
        if type(other) is Scalar and other.config is self.config:
            return other
        if isinstance(other, (Scalar, int)):
            return self.config.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.config, self.config.add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.config, self.config.sub(self.value, other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.config, self.config.sub(other.value, self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.config, self.config.mul(self.value, other.value))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.config, self.config.neg(self.value))

    def inverse(self) -> "Scalar":
        return Scalar(self.config, self.config.inv(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __str__(self) -> str:
        return str(self.value)
