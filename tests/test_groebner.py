from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from umrow import groebner
from umrow.errors import DimensionOfZeroRing, InvalidDivisor, NotInIdeal, RingMismatch
from umrow.fields import RATIONALS, prime_field
from umrow.groebner import (
    BASIS_CACHE_SIZE,
    Ideal,
    _cached_basis,
    buchberger,
    divide_with_remainder,
    groebner_basis,
    ideal_equal,
    krull_dimension,
)
from umrow.poly import Grevlex, PolyRing, grevlex, lex, mono_divides, mono_lcm, mono_mul
from umrow.quadrics import vtilde_ring

R2 = PolyRing(RATIONALS, ["x", "y"])
R3 = PolyRing(RATIONALS, ["x", "y", "z"], "lex")


def ideal_of(ring, *gens):
    return Ideal.of(ring, [ring.parse(g) for g in gens])


# -- division -----------------------------------------------------------------


def test_divide_simple():
    ring = PolyRing(RATIONALS, ["x", "y"], "lex")
    quots, rem = divide_with_remainder(ring.parse("x^2*y"), [ring.parse("x")])
    assert quots[0] == ring.parse("x*y") and rem.is_zero()


def test_divide_remainder_untouched():
    ring = PolyRing(RATIONALS, ["x", "y"], "lex")
    quots, rem = divide_with_remainder(ring.parse("y"), [ring.parse("x")])
    assert quots[0].is_zero() and rem == ring.parse("y")


def test_divide_constant_remainder():
    ring = PolyRing(RATIONALS, ["x", "y"], "lex")
    quots, rem = divide_with_remainder(
        ring.parse("x^2 + y^2"), [ring.parse("x^2 + y^2 - 1")]
    )
    assert quots[0] == ring.one() and rem == ring.one()


def test_divide_rejects_zero_divisor():
    with pytest.raises(InvalidDivisor):
        divide_with_remainder(R2.parse("x"), [R2.zero()])


def test_order_of_another_width_is_rejected():
    # lex(2) ignores z, so z and z^2 tie and a division by z - z^2 would
    # never end; every entry point refuses the order instead.
    ring = PolyRing(RATIONALS, ["x", "y", "z"])
    narrow = lex(2)
    with pytest.raises(RingMismatch):
        divide_with_remainder(ring.parse("z^3"), [ring.parse("z - z^2")], narrow)
    ideal = ideal_of(ring, "z - z^2", "x*z")
    with pytest.raises(RingMismatch):
        buchberger(ideal, narrow)
    with pytest.raises(RingMismatch):
        groebner_basis(ideal, narrow)
    with pytest.raises(RingMismatch):
        PolyRing(RATIONALS, ["x", "y", "z"], order=narrow)
    with pytest.raises(RingMismatch):
        PolyRing(RATIONALS, ["x"], order=grevlex(2))


@given(seed=st.integers(0, 10_000))
def test_division_identity_random(seed):
    rng = random.Random(seed)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = (rng.randint(0, 3), rng.randint(0, 3))
            terms[mono] = Fraction(rng.randint(-5, 5))
        return R2.from_terms(terms)

    f = rand_poly()
    divisors = [d for d in (rand_poly(), rand_poly()) if not d.is_zero()]
    if not divisors:
        return
    quots, rem = divide_with_remainder(f, divisors)
    recombined = rem
    for q, d in zip(quots, divisors):
        recombined = recombined + q * d
    assert recombined == f
    # no term of the remainder is divisible by any leading monomial
    for m in rem.terms:
        for d in divisors:
            assert not mono_divides(d.lead()[0], m)


class CountingOrder(Grevlex):
    """Graded reverse lex, recording every monomial it is asked to key."""

    keyed = []

    def desc_key(self, m):
        self.keyed.append(m)
        return super().desc_key(m)


def test_normal_form_keys_each_monomial_once():
    # A rescanning reducer keys the whole remainder after every step, so its
    # key count grows with the square of the term count; this bound does not.
    alg = vtilde_ring(2, RATIONALS).algebra
    ring = alg.ring
    order = CountingOrder(ring.order.precedence)
    gb = buchberger(alg.relations_ideal, order)
    # The relations' tails bring in y2, u2, v2 and s2, so reduction creates
    # monomials that f does not have, and the multiple of two relations makes
    # terms cancel and come back while they are still queued.
    p = sum((ring.var(v) for v in ("x1", "y1", "u1", "v1", "x2", "r2")), ring.one())
    f = p**3 * (alg.relations[0] * alg.relations[1] + p**2)
    assert len(f.terms) > 900
    CountingOrder.keyed.clear()
    gb.normal_form(f)
    keyed = list(CountingOrder.keyed)
    # Every monomial that enters the remainder is a term of f or a tail term
    # of a basis element times a quotient term.
    quots, _ = gb.normal_form_with_quotients(f)
    entered = set(f.terms)
    for q, g in zip(quots, gb.basis):
        lm = g.lead(order)[0]
        entered.update(mono_mul(t, m) for t in q.terms for m in g.terms if m != lm)
    assert len(entered) > len(f.terms)
    assert len(keyed) == len(set(keyed)) <= len(entered)


# -- Buchberger ----------------------------------------------------------------


def test_two_variables():
    gb = buchberger(ideal_of(R3, "x", "y"))
    assert {str(g) for g in gb.basis} == {"x", "y"}


def test_single_generator_is_its_own_basis():
    gb = buchberger(ideal_of(R3, "x^2 + y^2 + z^2 - 1"))
    assert [str(g) for g in gb.basis] == ["x^2 + y^2 + z^2 - 1"]


def test_twisted_cubic_by_substitution_oracle():
    # Oracle: the ideal vanishes on the curve (t, t^2, t^3); every basis
    # element must vanish under that substitution, and the known element
    # y^3 - z^2 must reduce to zero.
    ideal = ideal_of(R3, "x^2 - y", "x^3 - z")
    gb = groebner_basis(ideal)
    t_ring = PolyRing(RATIONALS, ["t"])
    t = t_ring.var("t")
    subs = [t, t**2, t**3]

    def substitute(poly):
        acc = t_ring.zero()
        for mono, coeff in poly.terms.items():
            prod = t_ring.from_terms({(0,): coeff})
            for var, exp in enumerate(mono):
                for _ in range(exp):
                    prod = prod * subs[var]
            acc = acc + prod
        return acc

    assert any(str(g) == "y^3 - z^2" for g in gb.basis)
    for g in gb.basis:
        assert substitute(g).is_zero()
    assert gb.contains(R3.parse("y^3 - z^2"))


def _katsura4_fp():
    ring = PolyRing(prime_field(32003), ["u0", "u1", "u2", "u3", "u4"])
    u = ring.gens()

    def at(m):
        return u[abs(m)] if abs(m) <= 4 else ring.zero()

    gens = [sum((at(l) * at(m - l) for l in range(-4, 5)), -at(m)) for m in range(4)]
    return Ideal.of(ring, gens + [u[0] + 2 * (u[1] + u[2] + u[3] + u[4]) - 1])


@pytest.mark.parametrize(
    "ideal",
    [_katsura4_fp(), ideal_of(R2, "x^2*y - 1", "x*y^2 - x", "0"), ideal_of(R2, "x", "2")],
    ids=["katsura-4", "unit-by-s-pair", "unit-generator"],
)
def test_each_lead_is_split_once(monkeypatch, ideal):
    # Each element is split when it enters the basis and once more after its
    # tail reduction; building the GroebnerBasis splits nothing.
    split, nonzero_remainders = [], []

    def split_lead(d, order):
        split.append(d)
        return real_split(d, order)

    def reduce(f, leads, order):
        quots, rem = real_reduce(f, leads, order)
        if not rem.is_zero():
            nonzero_remainders.append(rem)
        return quots, rem

    real_split, real_reduce = groebner._split_lead, groebner._reduce
    monkeypatch.setattr(groebner, "_split_lead", split_lead)
    monkeypatch.setattr(groebner, "_reduce", reduce)
    gb = buchberger(ideal)
    # Elements enter as the nonzero generators (the constant 2 comes last, so
    # all of them enter) and as the nonzero remainders of S-pairs; each tail
    # reduction leaves a nonzero remainder too.  Each is split once, and
    # nothing else is.
    generators = [g for g in ideal.generators if not g.is_zero()]
    assert len(split) == len(generators) + len(nonzero_remainders)
    assert len({id(d) for d in split}) == len(split)
    # The last splits are of the basis itself: the tail-reduced elements, or
    # the constant of the unit ideal.
    assert {id(d) for d in split[-len(gb.basis):]} == {id(g) for g in gb.basis}


def test_empty_ideal_conventions():
    gb = buchberger(Ideal.of(R3, []))
    assert gb.basis == ()
    f = R3.parse("x + y")
    assert gb.normal_form(f) == f
    assert not gb.contains(R3.one())


def test_spolynomials_of_output_reduce_to_zero():
    fixtures = [
        ideal_of(R3, "x^2 - y", "x^3 - z"),
        ideal_of(R2, "x^2 + y^2 - 1", "x*y - 1"),
        ideal_of(R3, "x*y - z", "y*z - x", "x*z - y"),
    ]
    for ideal in fixtures:
        for order in (grevlex(ideal.ring.nvars), lex(ideal.ring.nvars)):
            gb = buchberger(ideal, order)
            basis = list(gb.basis)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    mi, ci = basis[i].lead(order)
                    mj, cj = basis[j].lead(order)
                    lcm = mono_lcm(mi, mj)
                    field = ideal.ring.field
                    s = basis[i].mul_term(
                        tuple(a - b for a, b in zip(lcm, mi)), field.inv(ci)
                    ) - basis[j].mul_term(
                        tuple(a - b for a, b in zip(lcm, mj)), field.inv(cj)
                    )
                    _, rem = divide_with_remainder(s, basis, order)
                    assert rem.is_zero()


def test_cofactor_exactness():
    for ideal in (
        ideal_of(R3, "x^2 - y", "x^3 - z"),
        ideal_of(R2, "x^2 + y^2 - 1", "x*y - 1"),
    ):
        gb = groebner_basis(ideal)
        for g, row in zip(gb.basis, gb.cofactors):
            acc = ideal.ring.zero()
            for c, gen in zip(row, ideal.generators):
                acc = acc + c * gen
            assert acc == g


def test_normal_form_idempotent():
    gb = groebner_basis(ideal_of(R3, "x^2 - y", "x^3 - z"))
    f = R3.parse("x^4 + x*y - z + 2")
    nf = gb.normal_form(f)
    assert gb.normal_form(nf) == nf


# -- membership, lifts, equality -------------------------------------------------


def test_membership_examples():
    assert groebner_basis(ideal_of(R2, "x")).contains(R2.parse("x^2"))
    assert groebner_basis(ideal_of(R2, "x", "1 - x")).contains(R2.one())
    assert not groebner_basis(ideal_of(R2, "x", "y")).contains(R2.one())


def test_membership_order_independent():
    queries = [
        (R3.parse("y^3 - z^2"), ideal_of(R3, "x^2 - y", "x^3 - z")),
        (R3.parse("x + 1"), ideal_of(R3, "x^2 - y", "x^3 - z")),
        (R2.parse("x*y + y^2"), ideal_of(R2, "x^2", "x*y", "y^2")),
    ]
    for f, ideal in queries:
        n = ideal.ring.nvars
        by_lex = groebner_basis(ideal, lex(n)).contains(f)
        assert by_lex == groebner_basis(ideal, grevlex(n)).contains(f)


@given(seed=st.integers(0, 5000))
def test_membership_closure_under_combination(seed):
    rng = random.Random(seed)
    ideal = ideal_of(R2, "x^2 - y", "x*y")
    gb = groebner_basis(ideal)
    f = ideal.generators[0] * R2.parse("y") + ideal.generators[1]
    g = ideal.generators[1] * R2.parse("x + 1")
    h = R2.from_terms({(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(1, 5))})
    assert gb.contains(f + g)
    assert gb.contains(h * f)


def test_bezout_lift_unit_examples():
    coeffs = groebner_basis(ideal_of(R2, "x", "1 - x")).lift(R2.one())
    assert [str(c) for c in coeffs] == ["1", "1"]
    coeffs = groebner_basis(ideal_of(R2, "3", "7")).lift(R2.parse("6"))
    acc = R2.zero()
    for c, g in zip(coeffs, [R2.parse("3"), R2.parse("7")]):
        acc = acc + c * g
    assert acc == R2.parse("6")


def test_bezout_lift_twisted_cubic():
    ideal = ideal_of(R3, "x^2 - y", "x^3 - z")
    f = R3.parse("y^3 - z^2")
    coeffs = groebner_basis(ideal).lift(f)
    acc = R3.zero()
    for c, g in zip(coeffs, ideal.generators):
        acc = acc + c * g
    assert acc == f


def test_bezout_lift_rejects_non_members():
    with pytest.raises(NotInIdeal):
        groebner_basis(ideal_of(R2, "x")).lift(R2.parse("y"))


def test_basis_cache_is_bounded():
    assert _cached_basis.cache_info().maxsize == BASIS_CACHE_SIZE
    ring = PolyRing(RATIONALS, ["x"])
    for k in range(1, BASIS_CACHE_SIZE + 20):
        groebner_basis(Ideal.of(ring, [ring.from_terms({(k,): Fraction(1)})]))
        assert _cached_basis.cache_info().currsize <= BASIS_CACHE_SIZE
    assert _cached_basis.cache_info().currsize == BASIS_CACHE_SIZE
    latest = Ideal.of(ring, [ring.from_terms({(BASIS_CACHE_SIZE + 19,): Fraction(1)})])
    hits = _cached_basis.cache_info().hits
    groebner_basis(latest)
    assert _cached_basis.cache_info().hits == hits + 1


def test_ideal_equal():
    assert ideal_equal(ideal_of(R2, "x"), ideal_of(R2, "2*x"))
    assert not ideal_equal(ideal_of(R2, "x"), ideal_of(R2, "x^2"))


# -- dimension ---------------------------------------------------------------------


def test_dimension_zero_ideal():
    ring = PolyRing(RATIONALS, ["x"])
    assert krull_dimension(Ideal.of(ring, [])) == 1


def test_dimension_sphere():
    assert krull_dimension(ideal_of(R3, "x^2 + y^2 + z^2 - 1")) == 2


def test_dimension_even_quadric():
    ring = PolyRing(RATIONALS, ["x1", "x2", "y1", "y2", "z"])
    ideal = Ideal.of(ring, [ring.parse("x1*y1 + x2*y2 - z + z^2")])
    assert krull_dimension(ideal) == 4


def test_dimension_of_zero_ring():
    with pytest.raises(DimensionOfZeroRing):
        krull_dimension(ideal_of(R2, "x", "1 - x"))


def test_dimension_monomial_ideal():
    assert krull_dimension(ideal_of(R3, "x*y", "y*z")) == 2


def test_normal_form_trivial_examples():
    gb = groebner_basis(ideal_of(R3, "x^2 + y^2 + z^2 - 1"))
    assert gb.normal_form(R3.parse("x^2 + y^2 + z^2 - 1")).is_zero()
    gb2 = groebner_basis(ideal_of(R2, "x"))
    assert gb2.normal_form(R2.one()) == R2.one()
