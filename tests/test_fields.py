from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from umrow.errors import ConfigError, DivisionByZero, FieldMismatch
from umrow.fields import RATIONALS, Scalar, _is_prime, field_from_text, prime_field
from umrow.poly import PolyRing
from umrow.quadrics import degree_action

F5 = prime_field(5)
F7 = prime_field(7)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
).map(lambda f: Scalar(RATIONALS, f))
f7_scalars = st.integers(min_value=0, max_value=6).map(lambda v: Scalar(F7, v))


def test_rational_examples():
    half = RATIONALS.scalar("1/2")
    third = RATIONALS.scalar("1/3")
    assert str(half + third) == "5/6"
    assert RATIONALS.scalar("2/4") == RATIONALS.scalar("1/2")
    assert str(RATIONALS.scalar("3/7").inverse()) == "7/3"
    assert RATIONALS.scalar(1).inverse() == RATIONALS.scalar(1)


def test_prime_field_examples():
    three, four = F5.scalar(3), F5.scalar(4)
    assert (three * four) == F5.scalar(2)
    assert F7.scalar(3).inverse() == F7.scalar(5)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        RATIONALS.scalar(0).inverse()
    with pytest.raises(DivisionByZero):
        F5.scalar(0).inverse()


@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
def test_zero_denominator_is_typed(field):
    with pytest.raises(DivisionByZero):
        field.scalar("1/0")
    with pytest.raises(DivisionByZero):
        field.scalar("-3/ 0")
    with pytest.raises(DivisionByZero):
        PolyRing(field, ["x"]).const("1/0")
    with pytest.raises(DivisionByZero):
        degree_action("1/0", 2, field)


@pytest.mark.parametrize("field", [RATIONALS, F5, F7], ids=str)
def test_fractions_coerce_like_their_literals(field):
    for text in ["1/2", "-3/4", "-2/3", "0/3"]:
        value = field.scalar(Fraction(text))
        assert value == field.scalar(text)
        assert type(value.value) is type(field.zero())


def test_fraction_with_denominator_divisible_by_p_is_typed():
    with pytest.raises(DivisionByZero):
        F5.scalar(Fraction(1, 10))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        RATIONALS.scalar(1) + F5.scalar(1)


def test_modulus_validation():
    with pytest.raises(ConfigError):
        prime_field(4)
    with pytest.raises(ConfigError):
        prime_field(1)
    with pytest.raises(ConfigError):
        prime_field(2**63 + 9)
    assert prime_field(2).characteristic == 2


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 - 25])
def test_large_prime_moduli_accepted(p):
    assert prime_field(p).characteristic == p


@pytest.mark.parametrize(
    "n",
    [561, 41041, 3215031751],  # two Carmichael numbers; a strong pseudoprime to bases 2, 3, 5, 7
)
def test_pseudoprime_moduli_rejected(n):
    with pytest.raises(ConfigError, match="not prime"):
        prime_field(n)


@given(st.integers(min_value=0, max_value=3000))
def test_primality_matches_trial_division(n):
    expected = n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))
    assert _is_prime(n) == expected


def test_field_spec_parsing():
    assert field_from_text("q") == RATIONALS
    assert field_from_text("fp:11") == prime_field(11)
    with pytest.raises(ConfigError):
        field_from_text("fp:10")
    with pytest.raises(ConfigError):
        field_from_text("r")


def test_scalar_parse_syntax():
    assert RATIONALS.scalar("-3") == RATIONALS.scalar(-3)
    assert F5.scalar("7") == F5.scalar(2)
    with pytest.raises(ConfigError):
        RATIONALS.scalar("1.5")


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(a=f7_scalars, b=f7_scalars, c=f7_scalars)
def test_prime_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=rationals)
def test_rational_inverse_contract(a):
    assume(not a.is_zero())
    assert a * a.inverse() == RATIONALS.scalar(1)


@given(a=f7_scalars)
def test_prime_inverse_contract(a):
    assume(not a.is_zero())
    assert a * a.inverse() == F7.scalar(1)


@given(num=st.integers(-40, 40), den=st.integers(1, 24))
def test_canonical_representation(num, den):
    # Equal values have identical stored fractions regardless of the input.
    a = RATIONALS.scalar(Fraction(num, den))
    b = RATIONALS.scalar(Fraction(2 * num, 2 * den))
    assert a == b
    assert hash(a) == hash(b)
    assert a.value.denominator >= 1
