"""Cross-check the production basis engine against a deliberately naive
Buchberger loop with no pair pruning and no cofactor tracking.

Both computations must present the same ideal: the minimal leading-term
sets must coincide and each basis must reduce the other to zero.  This
exercises the pair-selection strategy and both pruning criteria against an
implementation that cannot share their bugs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from umrow.fields import RATIONALS, prime_field
from umrow.groebner import Ideal, buchberger, divide_with_remainder
from umrow.poly import (
    PolyRing,
    grevlex,
    lex,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def naive_groebner(ideal, order):
    ring = ideal.ring
    field = ring.field
    basis = []
    for g in ideal.generators:
        if g.is_zero():
            continue
        basis.append(g.scale(field.inv(g.lead(order)[1])))
    while True:
        appended = False
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                mi, _ = basis[i].lead(order)
                mj, _ = basis[j].lead(order)
                lcm = mono_lcm(mi, mj)
                one = field.one()
                s = basis[i].mul_term(mono_div(lcm, mi), one) - basis[j].mul_term(
                    mono_div(lcm, mj), one
                )
                _, rem = divide_with_remainder(s, basis, order) if basis else ([], s)
                if not rem.is_zero():
                    basis.append(rem.scale(field.inv(rem.lead(order)[1])))
                    appended = True
                    break
            if appended:
                break
        if not appended:
            return basis


def naive_division(f, divisors, order):
    """Plain multivariate division that rescans the whole remainder for its
    largest monomial at every step: slow, but with no ordering state that a
    faster reducer could get wrong."""
    field = f.ring.field
    leads = [d.lead(order) for d in divisors]
    p = dict(f.terms)
    rem = {}
    quots = [{} for _ in divisors]
    while p:
        m = max(p, key=order.key)
        c = p[m]
        for idx, (dm, dc) in enumerate(leads):
            if mono_divides(dm, m):
                t = mono_div(m, dm)
                q = field.div(c, dc)
                quots[idx][t] = field.add(quots[idx].get(t, field.zero()), q)
                for m2, c2 in divisors[idx].terms.items():
                    mm = mono_mul(m2, t)
                    v = field.sub(p.get(mm, field.zero()), field.mul(q, c2))
                    if v:
                        p[mm] = v
                    else:
                        p.pop(mm, None)
                break
        else:
            rem[m] = p.pop(m)
    return [{t: c for t, c in q.items() if c} for q in quots], rem


def minimal_lead_monomials(basis, order):
    leads = [g.lead(order)[0] for g in basis]
    return {
        m
        for m in leads
        if not any(other != m and mono_divides(other, m) for other in leads)
    }


def random_ideal(ring, rng, ngens, maxdeg=3, maxterms=3):
    gens = []
    for _ in range(ngens):
        terms = {}
        for _ in range(rng.randint(1, maxterms)):
            mono = tuple(rng.randint(0, maxdeg) for _ in range(ring.nvars))
            if sum(mono) > maxdeg:
                mono = tuple(min(e, 1) for e in mono)
            coeff = rng.randint(-4, 4)
            if coeff:
                terms[mono] = ring.field.from_int(coeff)
        poly = ring.from_terms(terms)
        if not poly.is_zero():
            gens.append(poly)
    return Ideal.of(ring, gens)


@pytest.mark.parametrize("seed", range(12))
def test_engine_agrees_with_naive_buchberger(seed):
    rng = random.Random(seed)
    if seed % 3 == 0:
        ring = PolyRing(RATIONALS, ["x", "y"])
    elif seed % 3 == 1:
        ring = PolyRing(prime_field(5), ["x", "y", "z"])
    else:
        ring = PolyRing(prime_field(7), ["x", "y"])
    ideal = random_ideal(ring, rng, ngens=rng.randint(2, 3))
    if not ideal.generators:
        return
    for order in (grevlex(ring.nvars), lex(ring.nvars)):
        engine = buchberger(ideal, order)
        naive = naive_groebner(ideal, order)
        if not engine.basis:
            assert not naive
            continue
        assert minimal_lead_monomials(engine.basis, order) == minimal_lead_monomials(
            naive, order
        )
        for g in naive:
            _, rem = divide_with_remainder(g, list(engine.basis), order)
            assert rem.is_zero()
        for g in engine.basis:
            _, rem = divide_with_remainder(g, naive, order)
            assert rem.is_zero()


def test_engine_agrees_on_structured_ideals():
    fixtures = [
        (PolyRing(RATIONALS, ["x", "y", "z"]), ["x^2 - y", "x^3 - z"]),
        (PolyRing(RATIONALS, ["x", "y"]), ["x^2 + y^2 - 1", "x*y - 1"]),
        (PolyRing(prime_field(5), ["x", "y", "z"]), ["x*y - z", "y*z - x", "x*z - y"]),
        (
            PolyRing(RATIONALS, ["x", "y", "z"]),
            ["x + y + z", "x*y + y*z + x*z", "x*y*z - 1"],
        ),
    ]
    for ring, gen_strs in fixtures:
        ideal = Ideal.of(ring, [ring.parse(s) for s in gen_strs])
        for order in (grevlex(ring.nvars), lex(ring.nvars)):
            engine = buchberger(ideal, order)
            naive = naive_groebner(ideal, order)
            assert minimal_lead_monomials(engine.basis, order) == minimal_lead_monomials(
                naive, order
            )
            for g in naive:
                _, rem = divide_with_remainder(g, list(engine.basis), order)
                assert rem.is_zero()


@st.composite
def division_problems(draw):
    field = draw(st.sampled_from([RATIONALS, prime_field(32003)]))
    nvars = draw(st.integers(2, 3))
    ring = PolyRing(field, ["x", "y", "z"][:nvars])
    precedence = draw(st.permutations(range(nvars)))
    order = draw(st.sampled_from([lex, grevlex]))(nvars, precedence)
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 4)).map(
        lambda nd: field.div(field.from_int(nd[0]), field.from_int(nd[1]))
    )

    def polys(max_terms):
        return st.dictionaries(monos, coeffs, min_size=1, max_size=max_terms).map(
            ring.from_terms
        )

    divisors = draw(st.lists(polys(3), min_size=1, max_size=3))
    # A multiple of an earlier divisor plus a perturbation, placed anywhere in
    # the list, gives divisors whose leads divide each other.
    if draw(st.booleans()):
        base = draw(st.sampled_from(divisors))
        related = base.mul_term(draw(monos), field.one()) + draw(polys(2))
        if not related.is_zero():
            divisors.insert(draw(st.integers(0, len(divisors))), related)
    dividend = draw(polys(10))
    if draw(st.booleans()):
        dividend = dividend * draw(st.sampled_from(divisors)) + draw(polys(3))
    return dividend, divisors, order


@settings(max_examples=100)
@given(division_problems())
def test_reducer_matches_naive_division(problem):
    f, divisors, order = problem
    quots, rem = divide_with_remainder(f, divisors, order)
    naive_quots, naive_rem = naive_division(f, divisors, order)
    assert [q.terms for q in quots] == naive_quots
    assert rem.terms == naive_rem
    total = rem
    for q, d in zip(quots, divisors):
        total = total + q * d
    assert total == f
    leads = [d.lead(order)[0] for d in divisors]
    assert not any(mono_divides(lm, m) for lm in leads for m in rem.terms)
