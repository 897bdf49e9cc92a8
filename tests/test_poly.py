from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from umrow.algebra import make_algebra
from umrow.errors import (
    ConfigError,
    ExponentOverflow,
    FieldMismatch,
    ParseError,
    RingMismatch,
    ShapeError,
)
from umrow.fields import RATIONALS, prime_field
from umrow.groebner import Ideal, buchberger, divide_with_remainder
from umrow.poly import FIELD_BITS, MAX_DEGREE, MAX_NESTING, PolyRing

R2 = PolyRing(RATIONALS, ["x", "y"])
R3 = PolyRing(RATIONALS, ["x", "y", "z"])


def poly_strategy(ring, maxdeg=3, maxterms=4):
    mono = st.tuples(*([st.integers(0, maxdeg)] * ring.nvars))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.dictionaries(mono, coeff, max_size=maxterms).map(ring.from_terms)


@pytest.mark.parametrize("bad", [3, -1, "w", True])
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


@pytest.mark.parametrize(
    "ps, qs",
    [(["x"], []), ([], ["x"]), (("x", "y"), ["x"]), (["x"], ("x", "y"))],
    ids=["1-0", "0-1", "2-1", "1-2"],
)
def test_dot_of_different_lengths_is_a_shape_error(ps, qs):
    # Through the ring and, lifted element by element, through an algebra.
    alg = make_algebra(RATIONALS, R2.vars, [])
    for dot, lift in ((R2.dot, R2.var), (alg.dot, alg.var)):
        with pytest.raises(ShapeError, match=f"dot product of {len(ps)} and {len(qs)}"):
            dot(type(ps)(map(lift, ps)), type(qs)(map(lift, qs)))


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


@pytest.mark.parametrize("field", [RATIONALS, prime_field(32003)], ids=["q", "fp"])
def test_constant_factor_keeps_the_monomials(field):
    # A product by a constant, however it is asked for, is the per-term
    # product and keys its terms by the polynomial's own packed monomials.
    ring = PolyRing(field, ["x", "y", "z"])
    p = ring.parse("3*x^2*y - 1/5*y*z^3 + 7*z - 2/3")
    own = {m: m for m in p._terms}
    for value in [Fraction(-3, 4), Fraction(5), 1]:
        c = ring.const(value)
        raw = c.terms[(0, 0, 0)]
        expected = {m: field.mul(coeff, raw) for m, coeff in p.terms.items()}
        for product in [p * c, c * p, p.scale(raw), ring.dot([c], [p]), ring.dot([p], [c])]:
            assert product.terms == expected
            assert all(m is own[m] for m in product._terms)
    assert (p * ring.const(0)).is_zero() and p.scale(field.zero()).is_zero()


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
    lm, _ = f.lead()
    assert lm == (1, 2, 0)  # ties on degree break toward early variables
    assert f.lead(ring.order) == f.lead()


@given(
    m1=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    m2=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    shift=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)
def test_orders_are_multiplicative_total_orders(m1, m2, shift):
    # The rank m ^ low of a packed monomial is larger for the larger monomial.
    def rank(m):
        return R3.pack(m) ^ R3.packing.low

    r1, r2 = rank(m1), rank(m2)
    assert (r1 == r2) == (m1 == m2)
    if r1 > r2:
        shifted1 = tuple(a + s for a, s in zip(m1, shift))
        shifted2 = tuple(a + s for a, s in zip(m2, shift))
        assert rank(shifted1) > rank(shifted2)
    assert rank(m1) >= rank((0, 0, 0))
    assert R3.order.largest([R3.pack(m1), R3.pack(m2)]) == R3.pack(max(m1, m2, key=rank))


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
    with pytest.raises(FieldMismatch):
        R2.from_terms({(1, 0): prime_field(5).scalar(1)})


def test_term_stores_canonical_coefficients():
    # ``term`` and ``mul_term`` take a coefficient as ``const`` does.
    f5 = prime_field(5)
    ring = PolyRing(f5, ["x"])
    x = ring.var("x")
    assert ring.term(0, 7) == ring.const(2)
    assert x.mul_term((1,), Fraction(1, 2)) == ring.parse("3*x^2")
    assert ring.term(0, f5.scalar(2)) == ring.const(2)
    assert ring.term(0, 5).is_zero() and R2.term(0, "-2/4") == R2.const(Fraction(-1, 2))
    with pytest.raises(FieldMismatch):
        ring.term(0, prime_field(7).scalar(2))


# -- integral storage: ints over one denominator, one canonical form ----------


def assert_integral(poly):
    """``poly`` is stored canonically: over Q nonzero ints over a positive
    denominator sharing no factor with all of them, over F_p residues over 1."""
    field = poly.ring.field
    numerators = list(poly._terms.values())
    assert all(type(n) is int and n for n in numerators)
    if field.characteristic:
        assert poly._den == 1 and all(0 < n < field.characteristic for n in numerators)
    else:
        assert type(poly._den) is int and poly._den > 0
        assert gcd(poly._den, *numerators) == 1


def ways_to_build(ring, text, a, b):
    """Polynomials equal to ``text``, built in every way the ring offers; the
    caller passes rationals ``a`` and ``b`` with a * b = 1."""
    f = ring.parse(text)
    x, y = ring.var("x"), ring.var("y")
    yield f
    yield ring.from_terms(f.terms)
    yield f.scale(ring.field.scalar(a).value).scale(ring.field.scalar(b).value)
    yield (f * ring.const(a)) * ring.const(b)
    yield ring.const(b) * (ring.const(a) * f)
    yield (f + x * y) - x * y
    yield -(-f)
    yield ring.dot([f * ring.const(a), f * ring.const(b), x], [ring.const(b), ring.const(a), y]) - f - x * y
    # f = q * d + r with q = r = f, where d = a * y^2 leads every term it divides.
    d = ring.const(a) * y**2
    quots, rem = divide_with_remainder(f * d + f, [d])
    yield quots[0]
    yield rem


@pytest.mark.parametrize("field", [RATIONALS, prime_field(7), prime_field(32003)], ids=["q", "fp7", "fp"])
@pytest.mark.parametrize("text", ["3*x + 2", "1/2*x + 1/3", "-6/5*x^2 + 4/15*x - 2", "7*x", "0", "-1/22"])
def test_every_construction_stores_the_same_integral_form(field, text):
    ring = PolyRing(field, ["x", "y"])
    target = ring.parse(text)
    assert_integral(target)
    for poly in ways_to_build(ring, text, Fraction(2, 3), Fraction(3, 2)):
        assert_integral(poly)
        assert poly == target and hash(poly) == hash(target)
        assert (poly._terms, poly._den) == (target._terms, target._den)


def test_integral_form_examples():
    x = R2.var("x")
    six = R2.const(6)
    p = (R2.parse("1/2*x + 1/3")) * six
    assert p == R2.parse("3*x + 2") and p._den == 1 and p._terms == R2.parse("3*x + 2")._terms
    q = R2.parse("1/2*x + 1/3")
    assert q._den == 6 and sorted(q._terms.values()) == [2, 3]
    # Numerators that share a factor the denominator does not: 2/3 x + 4/3.
    r = R2.parse("2/3*x + 4/3")
    assert r._den == 3 and sorted(r._terms.values()) == [2, 4]
    # A sum whose denominators cancel comes back over 1, a difference to zero over 1.
    assert (q + R2.parse("1/2*x + 2/3"))._den == 1
    assert (q - q)._terms == {} and (q - q)._den == 1 and q - q == R2.zero()
    # The edges hand out reduced Fractions, whatever the stored form.
    assert q.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 3)}
    assert q.lead() == ((1, 0), Fraction(1, 2)) and q.coeff((0, 0)) == Fraction(1, 3)
    assert q.sorted_terms() == [((1, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 3))]
    assert R2.parse("-4/6").constant_value() == Fraction(-2, 3) and str(q) == "1/2*x + 1/3"
    assert all(type(c) is Fraction for c in (x * six).terms.values())


@pytest.mark.parametrize(
    "bad",
    [
        lambda: R2.var("x").lead(R3.order),
        lambda: R2.var("x") ** -1,
        lambda: R2.var("x") ** True,
        lambda: make_algebra(RATIONALS, ["x", "y"], ["x*y - 1"]).var("x") ** -1,
    ],
    ids=["order-of-another-ring", "polynomial-negative-power", "polynomial-bool-power", "element-negative-power"],
)
def test_bad_orders_and_exponents_raise_config_error(bad):
    with pytest.raises(ConfigError):
        bad()


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


def test_parse_limits_nesting():
    assert R2.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == R2.var("x")
    # Deeper input ran out of stack (a RecursionError from 300 levels on).
    for depth in (MAX_NESTING + 1, 300, 3000):
        with pytest.raises(ParseError) as info:
            R2.parse("(" * depth + "x" + ")" * depth)
        assert info.value.offset == MAX_NESTING


@pytest.mark.parametrize("name", ["1x", "", "x y", "x-1", 1, None], ids=repr)
def test_variable_names_must_be_identifiers(name):
    # A name the parser cannot read as one name token could never appear in
    # a relation.
    with pytest.raises(ConfigError):
        PolyRing(RATIONALS, [name, "y"])
    with pytest.raises(ConfigError):
        make_algebra(RATIONALS, ["y", name], [])


@pytest.mark.parametrize("field", [RATIONALS, prime_field(5), prime_field(32003)], ids=["q", "f5", "f32003"])
def test_one_and_var_store_their_parsed_form(field):
    ring = PolyRing(field, ["x", "y", "z"])
    built = [ring.one()] + [ring.var(i) for i in range(3)] + [ring.var("z")]
    parsed = [ring.parse(text) for text in ("1", "x", "y", "z", "z")]
    for b, q in zip(built, parsed, strict=True):
        assert b == q and hash(b) == hash(q)
        assert (b._terms, b._den) == (q._terms, q._den)
        assert_integral(b)
    assert PolyRing(field, []).one() == PolyRing(field, []).parse("1")


def test_extend():
    big = PolyRing(RATIONALS, ["x", "y", "z"])
    f = R2.parse("x*y + 1").extend(big)
    assert f == big.parse("x*y + 1")
    with pytest.raises(RingMismatch):
        R3.parse("z").extend(PolyRing(RATIONALS, ["x", "y", "w"]))


# -- packed monomials: input checks, the degree limit, and a tuple reference --


@pytest.mark.parametrize("mono", [(1, -1), (1.5, 0), ("a", 0), 5, (True, 0)])
def test_from_terms_rejects_bad_exponents(mono):
    # A negative exponent would borrow from the next field of the packed
    # form; a float, a string or a bool is no exponent at all.
    with pytest.raises(ConfigError):
        R2.from_terms({mono: 2})


def test_coeff_checks_its_monomial():
    f = R2.parse("x + 3")
    assert f.coeff((1, 0)) == 1 and f.coeff((0, 0)) == 3 and f.coeff((0, 1)) == 0
    with pytest.raises(RingMismatch):
        f.coeff((1,))
    with pytest.raises(ConfigError):
        f.coeff((1, -1))
    assert f.coeff((MAX_DEGREE + 1, 0)) == 0  # beyond the limit, so never stored


def test_product_at_the_field_limit():
    top = 2 ** (FIELD_BITS - 1) - 1
    assert top == MAX_DEGREE
    x, y = R2.var("x"), R2.var("y")
    # x^(2^15 - 2) * x fills the field exactly and leaves y alone.
    assert (R2.from_terms({(top - 1, 0): 1}) * x).terms == {(top, 0): 1}
    assert (R2.from_terms({(top - 1, 0): 2}) * (x - y)).terms == {(top, 0): 2, (top - 1, 1): -2}
    # One more x, and the packed sum would set the guard bit of x's field.
    for lhs, rhs in [(x**top, x), (y**top, x), (x, x**top), (R2.from_terms({(top - 3, 3): 1}), y)]:
        with pytest.raises(ExponentOverflow):
            lhs * rhs
        with pytest.raises(ExponentOverflow):
            R2.dot([R2.one(), lhs], [R2.one(), rhs])
    # A product whose top term cancels is exact.
    assert (x**top + 1) * 1 == x**top + 1


def test_parsed_exponent_at_the_limit():
    assert R2.parse(f"x^{MAX_DEGREE}").terms == {(MAX_DEGREE, 0): 1}
    assert R2.parse(f"3*y^{MAX_DEGREE} + x").lead() == ((0, MAX_DEGREE), 3)
    assert str(R2.parse(f"y^{MAX_DEGREE}")) == f"y^{MAX_DEGREE}"
    assert R2.from_terms({(MAX_DEGREE - 1, 1): 1}).total_degree() == MAX_DEGREE
    with pytest.raises(ExponentOverflow):
        R2.parse(f"x^{MAX_DEGREE + 1}")
    with pytest.raises(ExponentOverflow):
        R2.parse(f"x*y^{MAX_DEGREE}")
    with pytest.raises(ExponentOverflow):
        R2.from_terms({(MAX_DEGREE, 1): 1})
    with pytest.raises(ExponentOverflow):
        R2.from_terms({(2**FIELD_BITS, 0): 1})


def test_lex_reduction_past_the_field():
    # Under lex, x would lead x - y^MAX_DEGREE although its tail has the
    # larger degree, so each step by it would raise the degree past the
    # field.  The one order is graded: y^MAX_DEGREE leads, no tail term
    # outweighs its lead, and a division at MAX_DEGREE never overflows.
    d = R2.parse(f"x - y^{MAX_DEGREE}")
    quots, rem = divide_with_remainder(R2.parse(f"x^2 - y^{MAX_DEGREE}"), [d])
    assert rem == R2.parse("x^2 - x") and quots == [R2.one()]
    quots, rem = divide_with_remainder(R2.parse(f"y^{MAX_DEGREE} + y"), [d])
    assert rem == R2.parse("x + y") and quots == [-R2.one()]


def test_ring_without_variables():
    ring = PolyRing(RATIONALS, [])
    c = ring.parse("3/4")
    assert c.terms == {(): Fraction(3, 4)} and c.lead() == ((), Fraction(3, 4))
    assert c.constant_value() == Fraction(3, 4) and c.total_degree() == 0
    assert (c * c).terms == {(): Fraction(9, 16)} and str(c * c - c) == "-3/16"
    assert ring.from_terms({(): 2}) == ring.const(2) and ring.one().coeff(()) == 1
    assert (c**5).coeff(()) == Fraction(243, 1024)
    quots, rem = divide_with_remainder(ring.const(5), [c])
    assert quots == [ring.const(Fraction(20, 3))] and rem.is_zero()
    assert buchberger(Ideal.of(ring, [ring.zero(), c])).is_unit_ideal()
    with pytest.raises(RingMismatch):
        ring.from_terms({(1,): 1})


def test_ring_with_one_variable():
    ring = PolyRing(prime_field(32003), ["t"])
    t = ring.var("t")
    assert t.terms == {(1,): 1} and (t**MAX_DEGREE).total_degree() == MAX_DEGREE
    with pytest.raises(ExponentOverflow):
        t**MAX_DEGREE * t
    gb = buchberger(Ideal.of(ring, [t**3 - 1, t**2 - 1]))
    assert [str(g) for g in gb.basis] == ["t + 32002"]
    assert gb.normal_form(t**MAX_DEGREE + 5) == ring.const(6)
    assert str(t**4 - 2 * t) == "t^4 + 32001*t"


def ref_mul(p: dict, q: dict, field) -> dict:
    """The product of two tuple-keyed term dicts, one field operation at a
    time."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2, strict=True))
            out[m] = field.add(out.get(m, field.zero()), field.mul(c1, c2))
    return {m: c for m, c in out.items() if c}


def ref_add(p: dict, q: dict, field) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = field.add(out.get(m, field.zero()), c)
    return {m: c for m, c in out.items() if c}


def ref_key(m):
    """Larger for the larger monomial under graded reverse lex."""
    return sum(m), [-e for e in reversed(m)]


def ref_divide(f: dict, divisors: list, field):
    """Multivariate division on tuple-keyed term dicts: the largest term of
    what is left goes to the first divisor whose lead divides it, else to
    the remainder."""
    leads = [max(d, key=ref_key) for d in divisors]
    p, rem, quots = dict(f), {}, [{} for _ in divisors]
    while p:
        m = max(p, key=ref_key)
        for q, d, lm in zip(quots, divisors, leads):
            if all(a <= b for a, b in zip(lm, m)):
                t = tuple(b - a for a, b in zip(lm, m))
                q[t] = field.div(p[m], d[lm])
                p = ref_add(p, ref_mul({t: field.neg(q[t])}, d, field), field)
                break
        else:
            rem[m] = p.pop(m)
    return quots, rem


def matches(poly, ref: dict) -> bool:
    """``poly`` is stored canonically and its ``terms`` equal the reference
    term dict value for value, as ``Fraction``s over Q and ints over F_p."""
    assert_integral(poly)
    kind = int if poly.ring.field.characteristic else Fraction
    terms = poly.terms
    return terms == ref and all(type(c) is kind for c in terms.values())


def random_terms(rng, nvars, field, count, degree):
    terms = {}
    for _ in range(count):
        mono = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4))).value
    return {m: c for m, c in terms.items() if c}


@pytest.mark.parametrize("nvars", range(1, 8))
@pytest.mark.parametrize("field", [RATIONALS, prime_field(32003)], ids=["grevlex-q", "grevlex-fp"])
def test_packed_kernels_match_a_tuple_reference(nvars, field):
    rng = random.Random(f"{nvars} {field} grevlex")
    names = [f"v{i}" for i in range(nvars)]
    steps = 0  # quotient terms, so that the divisions are seen to divide
    ring = PolyRing(field, names)

    def draw(count, degree):
        terms = random_terms(rng, nvars, field, count, degree)
        return terms, ring.from_terms(terms)

    for _ in range(8):
        (pt, p), (qt, q) = draw(6, 3), draw(5, 3)
        assert matches(p, pt) and matches(q, qt)
        assert matches(p * q, ref_mul(pt, qt, field))
        assert matches(p + q, ref_add(pt, qt, field))
        assert matches(-p, {m: field.neg(c) for m, c in pt.items()})
        pairs = [draw(rng.randint(0, 4), 2) for _ in range(6)]
        expected: dict = {}
        for (at, _), (bt, _) in zip(pairs[::2], pairs[1::2]):
            expected = ref_add(expected, ref_mul(at, bt, field), field)
        assert matches(ring.dot([a for _, a in pairs[::2]], [b for _, b in pairs[1::2]]), expected)

        divisors = [draw(3, 2) for _ in range(rng.randint(1, 3))]
        divisors = [(t, d) for t, d in divisors if t]
        if not divisors:
            continue
        ft, f = draw(8, 4)
        quots, rem = divide_with_remainder(f, [d for _, d in divisors])
        ref_quots, ref_rem = ref_divide(ft, [t for t, _ in divisors], field)
        assert all(matches(qq, ref) for qq, ref in zip(quots, ref_quots, strict=True))
        assert matches(rem, ref_rem)
        descending = sorted(ft, key=ref_key, reverse=True)
        assert f.sorted_terms() == [(m, ft[m]) for m in descending]
        assert f.lead() == ((descending[0], ft[descending[0]]) if ft else None)

        # A normal form reduces by the basis elements in basis order.
        gb = buchberger(Ideal.of(ring, [d for _, d in divisors[:2]]))
        quots, nf = gb.normal_form_with_quotients(f)
        ref_quots, ref_nf = ref_divide(ft, [b.terms for b in gb.basis], field)
        assert all(matches(qq, ref) for qq, ref in zip(quots, ref_quots, strict=True))
        assert matches(nf, ref_nf)
        steps += sum(map(len, ref_quots))
    assert steps > 8


def ref_pack(exps) -> int:
    """A monomial packed field by field, with its total degree on top."""
    m = sum(e << (FIELD_BITS * i) for i, e in enumerate(exps))
    return m | sum(exps) << (FIELD_BITS * len(exps))


def random_exponents(rng, nvars):
    """Exponents of total degree at most ``MAX_DEGREE``, often at it, and
    often all in one or two variables."""
    total = rng.choice([MAX_DEGREE, rng.randint(0, MAX_DEGREE), rng.randint(0, 9)])
    exps = [0] * nvars
    for _ in range(rng.randint(1, 3) if nvars else 0):
        i = rng.randrange(nvars)
        exps[i] += rng.randint(0, total - sum(exps))
    return exps


@pytest.mark.parametrize("nvars", [0, 1, 2, 6, 30])
def test_packing_lcm_is_the_fieldwise_max(nvars):
    packing = PolyRing(RATIONALS, [f"v{i}" for i in range(nvars)]).packing
    rng = random.Random(f"lcm {nvars}")
    draws = [[0] * nvars] + [random_exponents(rng, nvars) for _ in range(300)]
    if nvars:
        draws += [[MAX_DEGREE] + [0] * (nvars - 1), [0] * (nvars - 1) + [MAX_DEGREE]]
    highest = 0
    for a in draws:
        for b in rng.sample(draws, 8) + [a, draws[-1]]:
            expected = ref_pack([max(x, y) for x, y in zip(a, b)])
            lcm = packing.lcm(ref_pack(a), ref_pack(b))
            assert lcm == expected
            assert packing.divides(ref_pack(a), lcm) and packing.divides(ref_pack(b), lcm)
            highest = max(highest, packing.degree(lcm))
    # Two pure powers of different variables reach the largest lcm degree.
    assert highest == (2 * MAX_DEGREE if nvars > 1 else MAX_DEGREE if nvars else 0)
