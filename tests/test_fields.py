from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from umrow.algebra import make_algebra
from umrow.errors import ConfigError, DivisionByZero, FieldMismatch
from umrow.fields import RATIONALS, PrimeField, Rationals, Scalar, _is_prime, field_from_text, prime_field
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


M61 = prime_field(2**61 - 1)
SCALAR_FIELDS = [RATIONALS, F7, M61]


def field_values(field):
    """Raw inputs: over Q fractions whose denominators share factors often,
    over F_p ints on either side of [0, p)."""
    p = field.characteristic
    if not p:
        dens = st.sampled_from([1, 2, 6, 12, 35, 2**64, 3**40]) | st.integers(1, 10**9)
        return st.builds(Fraction, st.integers(-(10**20), 10**20), dens)
    return st.integers(-2 * p, 2 * p)


@seed(19)
@settings(max_examples=60, database=None)
@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@given(data=st.data())
def test_scalar_ops_match_reference_arithmetic(field, data):
    # Every operator against Fraction arithmetic over Q and residue
    # arithmetic over F_p; each result must hold the canonical pair and
    # hand out a value of the field's raw type.
    p = field.characteristic
    norm = Fraction if not p else (lambda v: v % p)
    a = data.draw(field_values(field))
    b = data.draw(field_values(field) | st.sampled_from([a, -a]))  # also equal and opposite
    k = data.draw(st.integers(-(10**6), 10**6))
    x, y = field.scalar(a), field.scalar(b)
    A, B = norm(a), norm(b)

    def check(s, expected):
        assert type(s) is Scalar and s.config is field
        assert field.pair(s) == (expected.numerator, expected.denominator)
        assert type(s.value) is (Fraction if not p else int) and s.value == expected

    check(x, A)
    check(x + y, norm(A + B))
    check(x - y, norm(A - B))
    check(x * y, norm(A * B))
    check(-x, norm(-A))
    check(x + k, norm(A + k))
    check(k + x, norm(k + A))
    check(x - k, norm(A - k))
    check(k - x, norm(k - A))
    check(x * k, norm(A * k))
    check(k * x, norm(k * A))
    assert (x == y) == (A == B) and (x == k) == (A == norm(k)) and (k == x) == (x == k)
    assert x.is_zero() == (A == 0)
    if A:
        check(x.inverse(), Fraction(1) / A if not p else pow(A, -1, p))
    else:
        with pytest.raises(DivisionByZero):
            x.inverse()


def test_scalar_attributes_cannot_be_assigned():
    half = RATIONALS.scalar("1/2")
    for name, value in (("config", F7), ("value", Fraction(1)), ("numerator", 1)):
        with pytest.raises(AttributeError):
            setattr(half, name, value)
    with pytest.raises(AttributeError):
        del half.config
    assert half == RATIONALS.scalar("1/2") and half.config is RATIONALS


def test_scalar_repr_is_unchanged():
    assert repr(RATIONALS.scalar("-1/2")) == "Scalar(config=Rationals(), value=Fraction(-1, 2))"
    assert repr(F7.scalar(10)) == "Scalar(config=PrimeField(modulus=7), value=3)"
    assert str(RATIONALS.scalar("-2/4")) == "-1/2" and str(F7.scalar(-1)) == "6"


@pytest.mark.parametrize(
    "value", [RATIONALS.scalar("-3/8"), RATIONALS.scalar(0), F7.scalar(5), M61.scalar(-1)], ids=repr
)
def test_scalar_copies_and_pickles(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is Scalar and twin == value and hash(twin) == hash(value)
        assert twin.config == value.config and twin.value == value.value
    assert copy.deepcopy([value, value]) == [value, value]


def test_scalar_arithmetic_makes_no_field_value(monkeypatch):
    # Scalars act on their stored pairs: with every field value made to
    # raise, arithmetic, tests and comparisons still answer.
    cases = [(field, field.scalar(a), field.scalar(b)) for field, a, b in (
        (RATIONALS, Fraction(-3, 8), Fraction(5, 12)), (F7, 3, 5), (M61, 2**60, 3))]

    def refuse(*args):
        raise AssertionError("a field value was made")

    for cls in (Rationals, PrimeField):
        monkeypatch.setattr(cls, "value", refuse)
    for field, a, b in cases:
        results = [a + b, a - b, a * b, -a, a.inverse(), 2 + a, 2 - a, a * 2, a - 1]
        assert [r.is_zero() for r in results] == [False] * len(results)
        assert a * a.inverse() == 1 and a + -a == 0 and a != b and a != 0
        assert (a - b) + b == a and hash(a * 1) == hash(a)


@pytest.mark.parametrize("field", [RATIONALS, F7], ids=str)
def test_constant_polynomials_and_elements_are_equal_in_either_order(field):
    ring = PolyRing(field, ["x"])
    alg = make_algebra(field, ["x", "y"], ["x*y - 1"])
    one = field.scalar(1)
    assert ring.one() == alg.one() and alg.one() == ring.one()
    # A set's size no longer depends on the order its members arrive in.
    assert len({ring.one(), one, alg.one()}) == len({one, ring.one(), alg.one()}) == 1
    assert len({alg.one(), ring.one()}) == len({ring.zero(), alg.zero()}) == 1
    for text in ("0", "-3", "1/2"):
        assert ring.const(text) == alg.element(text) and alg.element(text) == ring.const(text)
    assert ring.const(2) != alg.one() and alg.one() != ring.const(2)
    assert ring.var("x") != alg.var("x") and alg.var("x") != ring.var("x")  # not constants
    other = PolyRing(prime_field(5) if field is RATIONALS else RATIONALS, ["x"])
    assert other.one() != alg.one() and alg.one() != other.one()  # another field


@pytest.mark.parametrize("field", [RATIONALS, F7], ids=str)
def test_scalars_equal_ints_and_constants_and_hash_alike(field):
    ring = PolyRing(field, ["x"])
    alg = make_algebra(field, ["x", "y"], ["x*y - 1"])
    one = field.scalar(1)
    assert one == 1 and 1 == one and one != 2 and field.scalar(0) == 0
    assert len({ring.one(), one}) == len({alg.one(), one}) == 1
    for text in ("0", "1", "-3", "1/2", "-5/6"):
        value = field.scalar(text)
        const, element = ring.const(text), alg.element(text)
        assert const == value and element == value
        assert hash(const) == hash(value) == hash(element)
        assert Fraction(text) == value == Fraction(text) and const == Fraction(text) == element
    if field is RATIONALS:
        assert len({1, one, ring.one()}) == 1 and hash(field.scalar(-7)) == hash(-7)
        for text in ("1/2", "-5/6", "4"):
            assert len({Fraction(text), field.scalar(text), ring.const(text), alg.element(text)}) == 1
    else:
        assert field.scalar(3) == 10  # 10 is 3 in F_7
        # The documented exception: an int outside [0, p) equals its residue
        # but hashes as itself, so a set keeps both.
        assert ring.const(3) == 10 == alg.element(3) and hash(field.scalar(3)) != hash(10)
        assert len({10, field.scalar(3)}) == 2
        # So does a Fraction: 1/2 is 4 in F_7, and 1/7 is no residue at all.
        assert field.scalar(4) == Fraction(1, 2) == ring.const(4) and alg.element(4) == Fraction(1, 2)
        assert len({Fraction(1, 2), field.scalar(4)}) == 2
        assert field.scalar(0) != Fraction(1, 7) != ring.const(0)
