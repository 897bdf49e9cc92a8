from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from umrow.algebra import make_algebra
from umrow.errors import ConfigError, ParseError, RingMismatch
from umrow.fields import RATIONALS, prime_field
from umrow.poly import PolyRing, grevlex, lex

R2 = PolyRing(RATIONALS, ["x", "y"])
R3 = PolyRing(RATIONALS, ["x", "y", "z"])


def poly_strategy(ring, maxdeg=3, maxterms=4):
    mono = st.tuples(*([st.integers(0, maxdeg)] * ring.nvars))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.dictionaries(mono, coeff, max_size=maxterms).map(ring.from_terms)


@pytest.mark.parametrize("bad", [3, -1, "w"])
def test_var_outside_the_ring_raises(bad):
    with pytest.raises(RingMismatch):
        R3.var(bad)
    with pytest.raises(RingMismatch):
        make_algebra(RATIONALS, R3.vars, []).var(bad)


def test_dot_is_the_sum_of_products():
    for field in [RATIONALS, prime_field(2), prime_field(5), prime_field(32003), prime_field(2**61 - 1)]:
        check_dot_in(field)
    with pytest.raises(RingMismatch):
        R2.dot([R2.one()], [R3.one()])


def check_dot_in(field):
    # Denominators are coprime to every p tested, so each rational answer
    # maps to F_p; a coefficient that vanishes there must not be stored.
    ring = PolyRing(field, ["x", "y"])
    x, y, one = ring.var("x"), ring.var("y"), ring.one()

    def c(value):
        return ring.const(Fraction(value))

    def expect(poly, rational_terms):
        expected = {m: field.scalar(Fraction(v)).value for m, v in rational_terms.items()}
        assert poly.terms == {m: v for m, v in expected.items() if v}
        for coeff in poly.terms.values():
            if field.characteristic:
                assert type(coeff) is int and 0 < coeff < field.characteristic
            else:
                assert type(coeff) is Fraction and coeff

    ps = [x + y, x, ring.zero()]
    qs = [x - y, y * y, y]
    expect(ring.dot(ps, qs), {(2, 0): 1, (0, 2): -1, (1, 2): 1})
    expect(ring.dot([], []), {})
    expect(ring.dot([x - 1], [x + 1]), {(2, 0): 1, (0, 0): -1})
    expect(-x * -y, {(1, 1): 1})
    # Integer-valued coefficients, and denominators that cancel exactly.
    expect(ring.dot([c(3) * x, c(2) * y], [c(2) * y, c(-3) * x]), {})
    expect(ring.dot([c("1/3") * x, c("1/7") * y], [c("1/7") * y, c("-1/3") * x]), {})
    # Each pair has its own denominator (3, 91, 9, 33), so the sum is
    # brought to a new common denominator three times.
    ps = [c("1/3") * x, c("1/7") * y, c("2/9") * x, c("1/11") * one]
    qs = [y, c("1/13") * x + 1, -x, c("1/3") * y]
    expect(ring.dot(ps, qs), {(1, 1): "94/273", (0, 1): "40/231", (2, 0): "-2/9"})
    # A fraction pair, then an integer pair on the same monomial.
    expect(ring.dot([c("1/3") * x, c(3) * x], [one, c(2) * one]), {(1, 0): "19/3"})
    expect(ring.dot([c("1/3") * x + y, -y], [c("1/7") * x, c("1/7") * x - 1]), {(2, 0): "1/21", (0, 1): 1})


def test_product_example():
    f = R2.parse("x + y") * R2.parse("x - y")
    assert f == R2.parse("x^2 - y^2")


def test_additive_identity():
    f = R3.parse("x*y - 3*z")
    assert f + R3.zero() == f


def test_characteristic_two_square():
    ring = PolyRing(prime_field(2), ["x", "y"])
    f = ring.parse("x + y")
    assert f * f == ring.parse("x^2 + y^2")


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        R2.parse("x") + R3.parse("x")


def test_order_leading_terms():
    ring = PolyRing(RATIONALS, ["x", "y", "z"])
    f = ring.parse("x^2 + x*y^2 + z^3")
    lm_grevlex, _ = f.lead(grevlex(3))
    lm_lex, _ = f.lead(lex(3))
    assert lm_grevlex in ((1, 2, 0), (0, 0, 3))
    assert lm_grevlex == (1, 2, 0)  # ties on degree break toward early variables
    assert lm_lex == (2, 0, 0)


@given(
    m1=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    m2=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    shift=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)
def test_orders_are_multiplicative_total_orders(m1, m2, shift):
    # A smaller desc_key means a larger monomial.
    for order in (lex(3), grevlex(3)):
        k1, k2 = order.desc_key(m1), order.desc_key(m2)
        assert (k1 == k2) == (m1 == m2)
        if k1 < k2:
            shifted1 = tuple(a + s for a, s in zip(m1, shift))
            shifted2 = tuple(a + s for a, s in zip(m2, shift))
            assert order.desc_key(shifted1) < order.desc_key(shifted2)
        assert order.desc_key(m1) <= order.desc_key((0, 0, 0))


@given(f=poly_strategy(R2), g=poly_strategy(R2), h=poly_strategy(R2))
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f + g) + h == f + (g + h)
    assert f - f == R2.zero()


@given(f=poly_strategy(R3))
def test_str_parse_roundtrip(f):
    assert R3.parse(str(f)) == f


def test_powers():
    f = R2.parse("x + 1")
    assert f ** 0 == R2.one()
    assert f ** 3 == R2.parse("x^3 + 3*x^2 + 3*x + 1")


def test_parse_rational_coefficients():
    f = R2.parse("1/2*x - 3/4")
    assert f.coeff((1, 0)) == RATIONALS.scalar("1/2").value


def test_from_terms_stores_canonical_coefficients():
    f5 = PolyRing(prime_field(5), ["x"])
    assert f5.from_terms({(1,): 5}).is_zero()
    assert f5.from_terms({(1,): 7}) == f5.parse("7*x")
    assert str(f5.from_terms({(1,): 7})) == "2*x"
    assert f5.from_terms({(1,): Fraction(1, 2)}) == f5.parse("3*x")
    (c,) = R2.from_terms({(1, 0): 2}).terms.values()
    assert type(c) is Fraction
    for bad in (0.5, None, [1]):
        with pytest.raises(ConfigError):
            R2.from_terms({(1, 0): bad})


def test_parse_error_offsets():
    with pytest.raises(ParseError) as info:
        R2.parse("x+*y")
    assert info.value.offset == 2
    with pytest.raises(ParseError) as info:
        R2.parse("2x")  # implicit multiplication is rejected
    assert info.value.offset == 1
    with pytest.raises(ParseError) as info:
        R2.parse("x + w")
    assert info.value.offset == 4


def test_parse_power_and_parens():
    assert R2.parse("(x + y)^2") == R2.parse("x^2 + 2*x*y + y^2")
    with pytest.raises(ParseError):
        R2.parse("x^y")


def test_extend():
    big = PolyRing(RATIONALS, ["x", "y", "z"])
    f = R2.parse("x*y + 1").extend(big)
    assert f == big.parse("x*y + 1")
    with pytest.raises(RingMismatch):
        R3.parse("z").extend(PolyRing(RATIONALS, ["x", "y", "w"]))
