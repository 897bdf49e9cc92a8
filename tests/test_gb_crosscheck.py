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

from umrow.fields import RATIONALS, prime_field
from umrow.groebner import Ideal, buchberger, divide_with_remainder
from umrow.poly import PolyRing, grevlex, lex, mono_div, mono_divides, mono_lcm


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
