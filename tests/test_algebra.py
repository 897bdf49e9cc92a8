from __future__ import annotations

from fractions import Fraction

import pytest

from umrow import poly
from umrow.algebra import RingHom, adjoin_unit_variable, hom_compose, make_algebra
from umrow.errors import (
    ConfigError,
    DuplicateVariable,
    FieldMismatch,
    NotWellDefined,
    RingMismatch,
    ZeroRing,
)
from umrow.fields import RATIONALS, prime_field
from umrow.groebner import Ideal, divide_with_remainder
from umrow.poly import PolyRing


def laurent():
    return make_algebra(RATIONALS, ["x1", "y1"], ["x1*y1 - 1"])


def even_quadric_2():
    return make_algebra(RATIONALS, ["x1", "y1", "z"], ["x1*y1 - z + z^2"])


def test_make_algebra_examples():
    laurent()
    even_quadric_2()
    with pytest.raises(ZeroRing):
        make_algebra(RATIONALS, ["x"], ["x", "1 - x"])


@pytest.mark.parametrize(
    "variables, relations, error",
    [
        (["x"], [1], ConfigError),
        ("xy", [], ConfigError),
        (["x"], "x^2", ConfigError),
        (["x", 2], [], ConfigError),
        (["x"], None, ConfigError),
        (("x",), ("x^2", None), ConfigError),
        (["x"], [PolyRing(RATIONALS, ["y"]).var("y")], RingMismatch),
    ],
    ids=["int-relation", "string-variables", "string-relations", "int-variable",
         "no-relations", "none-relation", "foreign-polynomial"],
)
def test_argument_shapes_are_checked(variables, relations, error):
    with pytest.raises(error):
        make_algebra(RATIONALS, variables, relations)


LIST_READERS = {
    "PolyRing": lambda alg, value: PolyRing(RATIONALS, value),
    "Ideal.of": lambda alg, value: Ideal.of(alg.ring, value),
    "divide": lambda alg, value: divide_with_remainder(alg.ring.var("x"), value),
    "dot": lambda alg, value: alg.dot(value, value),
    "ideal_with": lambda alg, value: alg.ideal_with(value),
    "RingHom": lambda alg, value: RingHom(alg, alg, value),
}


@pytest.mark.parametrize("reader", LIST_READERS)
@pytest.mark.parametrize("value", ["yx", None], ids=["string", "none"])
def test_list_arguments_are_lists_or_tuples(reader, value):
    # "yx" would read as the names, or the elements, y and x: the ring
    # k[y, x], the dot product 2xy, the ideal <x, y> or the swap x -> y.
    alg = make_algebra(RATIONALS, ["x", "y"], [])
    with pytest.raises(ConfigError, match="expected a list of"):
        LIST_READERS[reader](alg, value)


def test_sums_of_normal_forms_are_not_reduced_again(monkeypatch):
    alg = even_quadric_2()
    a = alg.element("x1^2*y1 + 3*z^3 - x1")
    b = alg.element("2*x1*y1 - z^2 + y1")
    calls = []
    normal_form = alg.gb.normal_form
    monkeypatch.setattr(alg.gb, "normal_form", lambda f: calls.append(f) or normal_form(f))
    total, difference = a + b, a - b
    assert calls == []
    assert total == alg.element(a.rep + b.rep)
    assert difference == alg.element(a.rep - b.rep)


def test_dot_reduces_once_to_the_sum_of_reduced_products(monkeypatch):
    alg = even_quadric_2()
    xs = [alg.element("x1^2*y1 + z"), alg.element("z^2"), alg.zero(), alg.one()]
    ys = [alg.element("y1 - 2*z"), alg.element("3*z - x1"), alg.element("y1^2"), alg.element("-z")]
    expected = alg.zero()
    for x, y in zip(xs, ys):
        expected = expected + x * y
    calls = []
    normal_form = alg.gb.normal_form
    monkeypatch.setattr(alg.gb, "normal_form", lambda f: calls.append(f) or normal_form(f))
    assert alg.dot(xs, ys) == expected
    assert len(calls) == 1
    assert alg.dot([], []) == alg.zero()


def test_element_equality_under_relations():
    alg = even_quadric_2()
    lhs = alg.var("x1") * alg.var("y1")
    rhs = alg.var("z") - alg.var("z") * alg.var("z")
    assert lhs == rhs
    assert lhs == lhs
    lau = laurent()
    assert lau.var("x1") != lau.var("y1")


def test_element_equal_requires_same_parent():
    a, b = laurent().var("x1"), even_quadric_2().var("x1")
    assert a != b
    with pytest.raises(RingMismatch):
        a + b


def test_equality_with_a_scalar_of_another_field_is_false():
    # As for a polynomial or an element of another ring: unequal, not an error.
    f5 = prime_field(5)
    alg, alg5 = laurent(), make_algebra(f5, ["x"], [])
    for one, own, other in ((alg.one(), RATIONALS, f5.scalar(1)), (alg5.one(), f5, RATIONALS.scalar(1))):
        for value in (one, one.rep):
            assert value == own.scalar(1) and value == 1
            assert not value == other and value != other and other != value
            assert other not in [value]
    assert alg.var("x1") != f5.scalar(1)


def test_element_takes_the_coefficients_polynomials_hand_out():
    # ``terms``, ``lead`` and ``coeff`` hand out Fractions over Q; ``element``
    # reads one as ``PolyRing.const`` does, and refuses another field's scalar.
    f5 = prime_field(5)
    alg, alg5 = laurent(), make_algebra(f5, ["x"], [])
    assert alg.element(Fraction(1, 2)) == alg.element("1/2")
    assert alg5.element(Fraction(1, 2)) == alg5.element("1/2") == 3
    (coeff,) = alg.element("3/4").rep.terms.values()
    assert alg.element(coeff) == alg.element("3/4")
    with pytest.raises(FieldMismatch):
        alg.element(f5.scalar(1))


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda alg: alg.ring.var("x1") ** 1.5, ConfigError),
        (lambda alg: alg.ring.var("x1") ** 2.0, ConfigError),
        (lambda alg: alg.var("x1") ** 1.5, ConfigError),
        (lambda alg: alg.var("x1") ** 2.0, ConfigError),
        (lambda alg: alg.ring.var(1.0), RingMismatch),
        (lambda alg: alg.element(1.5), ConfigError),
        (lambda alg: alg.element(None), ConfigError),
        (lambda alg: alg.var("x1") + 1.5, TypeError),  # operators still decline
    ],
    ids=["poly-pow-1.5", "poly-pow-2.0", "element-pow-1.5", "element-pow-2.0",
         "var-index-1.0", "element-1.5", "element-none", "element-plus-float"],
)
def test_non_int_exponents_indices_and_values_are_typed(make, error):
    with pytest.raises(error):
        make(laurent())


@pytest.mark.parametrize("field", [RATIONALS, prime_field(5)], ids=str)
def test_subtraction_and_negation_match_plain_arithmetic(field):
    # Scalars, polynomials and elements against Fraction arithmetic, read
    # mod 5 over F_5.
    if field == RATIONALS:
        plain = Fraction
    else:
        def plain(v):
            v = Fraction(v)
            return v.numerator * pow(v.denominator, -1, 5) % 5
    a, b = Fraction(7), Fraction(1, 2)
    sa, sb = field.scalar(a), field.scalar(b)
    assert (sa - sb).value == plain(a - b) and (sa - 3).value == plain(a - 3)
    assert (3 - sb).value == plain(3 - b) and (-sb).value == plain(-b)
    # A Fraction is an operand wherever an int is, in either order.
    assert (sa - b).value == plain(a - b) and (b + sa).value == plain(b + a)
    assert (sa * b).value == plain(a * b) and (b - sa).value == plain(b - a)
    alg = make_algebra(field, ["x"], ["x^2 - 2"])
    x = alg.var("x")
    for diff, const, linear in (
        ((3 - x.rep), 3, -1),  # Polynomial.__rsub__
        ((sb - x.rep), b, -1),
        ((b - x.rep), b, -1),
        ((x.rep + b), b, 1),
        ((x - b).rep, -b, 1),
        ((b * x).rep, 0, b),
        ((x * x - Fraction(1, 3)).rep, 2 - Fraction(1, 3), 0),
        ((3 - x).rep, 3, -1),  # AlgebraElement.__rsub__
        ((sb - x * x).rep, b - 2, 0),
        ((3 - -x).rep, 3, 1),
    ):
        assert diff.coeff((0,)) == plain(const) and diff.coeff((1,)) == plain(linear)
    # A float is declined before anything is formed, and the error names ``-``.
    for elt in (x.rep, x):
        with pytest.raises(TypeError, match="for -: 'float'"):
            1.5 - elt


@pytest.mark.parametrize("field", [RATIONALS, prime_field(5)], ids=str)
def test_powers_are_repeated_products(monkeypatch, field):
    alg = make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
    elements = [alg.element(t) for t in ("x + 2*y - 1/2", "x*y*z", "x", "3", "0")]
    cases = [(e, alg.one()) for e in elements] + [(e.rep, alg.ring.one()) for e in elements]
    for base, want in cases:
        for k in range(6):
            assert base ** k == want
            want = want * base
    # The first power is the base itself, and the second one product.
    products = []
    real = poly._sum_of_products

    def counted(*args):
        products.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "_sum_of_products", counted)
    for base, _ in cases:
        assert base ** 1 is base and not products
        base ** 2
        assert len(products) == 1
        products.clear()


def test_equal_algebras_built_apart_hash_alike():
    # The hash is computed once per algebra, so two equal algebras built
    # separately, one from text and one from parsed relations, must still
    # agree on it, and their elements must too.
    first = even_quadric_2()
    ring = first.ring
    second = make_algebra(RATIONALS, ["x1", "y1", "z"], [ring.parse("x1*y1 - z + z^2"), ring.zero()])
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(first) == hash(first) == hash((ring, first.relations))
    x, y = first.element("x1*y1 + z^3"), second.element("x1*y1 + z^3")
    assert x == y and hash(x) == hash(y)
    assert len({first, second, laurent()}) == 2


def test_canonical_normal_forms():
    alg = even_quadric_2()
    a = alg.element("x1*y1")
    b = alg.element("z - z^2")
    assert a.rep == b.rep  # identical stored representation, not just equality
    assert hash(a) == hash(b)


def test_is_unit_in_quotient():
    # Quotient of the 5-dimensional odd quadric ring by x1, x2: there the
    # last coordinate is invertible with inverse y3.
    alg = make_algebra(
        RATIONALS,
        ["x1", "x2", "x3", "y1", "y2", "y3"],
        ["x1*y1 + x2*y2 + x3*y3 - 1", "x1", "x2"],
    )
    inv = alg.var("x3").is_unit()
    assert inv is not None
    assert inv == alg.var("y3")
    assert alg.var("x3") * inv == alg.one()


def test_is_unit_nilpotent_perturbation():
    alg = make_algebra(RATIONALS, ["x"], ["x^2"])
    inv = (alg.one() + alg.var("x")).is_unit()
    assert inv == alg.one() - alg.var("x")


def test_is_unit_absent():
    alg = make_algebra(RATIONALS, ["x"], [])
    assert alg.var("x").is_unit() is None


def test_hom_well_definedness_failure():
    lau = laurent()
    target = make_algebra(RATIONALS, ["x"], [])
    with pytest.raises(NotWellDefined) as info:
        RingHom(lau, target, [target.var("x"), target.var("x")])
    assert info.value.index == 0
    assert not info.value.residue.is_zero()


def test_identity_hom_and_compose():
    alg = even_quadric_2()
    ident = RingHom(alg, alg, alg.gens())
    f = RingHom(alg, alg, [alg.var("y1"), alg.var("x1"), alg.var("z")])
    assert hom_compose(f, ident) == f
    assert hom_compose(ident, f) == f
    g = RingHom(alg, alg, [alg.var("x1"), alg.var("y1"), alg.one() - alg.var("z")])
    assert hom_compose(hom_compose(f, g), f) == hom_compose(f, hom_compose(g, f))


def test_hom_application_is_substitution():
    alg = even_quadric_2()
    swap = RingHom(alg, alg, [alg.var("y1"), alg.var("x1"), alg.var("z")])
    value = swap(alg.element("x1^2 + 2*z"))
    assert value == alg.element("y1^2 + 2*z")


def test_hom_compose_direction():
    lau = laurent()
    target = adjoin_unit_variable(make_algebra(RATIONALS, [], []), "t")
    to_t = RingHom(lau, target, [target.var("t"), target.var("t_inv")])
    square = RingHom(lau, lau, [lau.element("x1^2"), lau.element("y1^2")])
    composite = hom_compose(to_t, square)
    assert composite.images[0] == target.element("t^2")


def test_adjoin_unit_variable():
    base = make_algebra(RATIONALS, [], [])
    gm = adjoin_unit_variable(base, "t")
    assert gm.variables == ("t", "t_inv")
    assert gm.var("t") * gm.var("t_inv") == gm.one()
    double = adjoin_unit_variable(gm, "u")
    assert len(double.variables) == 4
    assert len(double.relations) == 2
    with pytest.raises(DuplicateVariable):
        adjoin_unit_variable(gm, "t")


def test_adjoin_over_prime_field():
    base = make_algebra(prime_field(5), ["x"], [])
    gm = adjoin_unit_variable(base, "t")
    assert gm.var("t") * gm.var("t_inv") == gm.one()


def test_hom_requires_matching_fields():
    a = make_algebra(RATIONALS, ["x"], [])
    b = make_algebra(prime_field(5), ["x"], [])
    with pytest.raises(RingMismatch):
        RingHom(a, b, [b.var("x")])
