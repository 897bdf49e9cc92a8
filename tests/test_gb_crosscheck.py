"""Cross-check the production basis engine against a deliberately naive
Buchberger loop with no pair pruning and no cofactor tracking, and against
sympy's reduced bases.

Both computations must present the same ideal: the minimal leading-term
sets must coincide and each basis must reduce the other to zero.  A reduced
basis is unique for the one order, graded reverse lex, so sympy's must equal
the engine's term for term.  This exercises the pair-selection strategy and both pruning
criteria against implementations that cannot share their bugs; the cofactor
rows are checked against the plain sums they stand for.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umrow.fields import RATIONALS, prime_field
from umrow.groebner import Ideal, buchberger, divide_with_remainder
from umrow.poly import PolyRing

# Monomial arithmetic on the exponent tuples of the public ``terms`` and
# ``lead``, written here so that the naive engine shares none of ``poly``'s.


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b, strict=True))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def naive_groebner(ideal):
    ring = ideal.ring
    field = ring.field
    basis = []
    for g in ideal.generators:
        if g.is_zero():
            continue
        basis.append(g.scale(field.inv(g.lead()[1])))
    while True:
        appended = False
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                mi, _ = basis[i].lead()
                mj, _ = basis[j].lead()
                lcm = mono_lcm(mi, mj)
                one = field.one()
                s = basis[i].mul_term(mono_div(lcm, mi), one) - basis[j].mul_term(
                    mono_div(lcm, mj), one
                )
                _, rem = divide_with_remainder(s, basis) if basis else ([], s)
                if not rem.is_zero():
                    basis.append(rem.scale(field.inv(rem.lead()[1])))
                    appended = True
                    break
            if appended:
                break
        if not appended:
            return basis


def reference_key(m):
    """The textbook graded reverse lex comparison, as a key that is larger
    for the larger monomial: total degree, then the smaller exponent at the
    last variable where the two monomials differ."""
    return sum(m), [-e for e in reversed(m)]


def reference_lead(terms):
    return max(terms, key=reference_key)


def naive_division(f, divisors):
    """Plain multivariate division that rescans the whole remainder for its
    largest monomial at every step, under the reference key: slow, but with
    no ordering state or key that a faster reducer could get wrong."""
    field = f.ring.field
    lead_monos = [reference_lead(d.terms) for d in divisors]
    leads = [(m, d.terms[m]) for m, d in zip(lead_monos, divisors)]
    p = dict(f.terms)
    rem = {}
    quots = [{} for _ in divisors]
    while p:
        m = reference_lead(p)
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


def minimal_lead_monomials(basis):
    leads = [g.lead()[0] for g in basis]
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
    engine = buchberger(ideal)
    naive = naive_groebner(ideal)
    if not engine.basis:
        assert not naive
        return
    assert minimal_lead_monomials(engine.basis) == minimal_lead_monomials(naive)
    for g in naive:
        _, rem = divide_with_remainder(g, list(engine.basis))
        assert rem.is_zero()
    for g in engine.basis:
        _, rem = divide_with_remainder(g, naive)
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
        engine = buchberger(ideal)
        naive = naive_groebner(ideal)
        assert minimal_lead_monomials(engine.basis) == minimal_lead_monomials(naive)
        for g in naive:
            _, rem = divide_with_remainder(g, list(engine.basis))
            assert rem.is_zero()


def mixed_coefficients(field):
    """Nonzero coefficients: n/d with d up to 12 over Q (integer-valued
    ones included), any residue over F_p."""
    p = field.characteristic
    if p:
        return st.integers(1, p - 1)
    return st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 12)).map(lambda nd: Fraction(*nd))


def is_canonical(c, p) -> bool:
    """A stored coefficient: a residue in (0, p) over F_p, a nonzero
    ``Fraction`` over Q."""
    return (type(c) is int and 0 < c < p) if p else (type(c) is Fraction and c != 0)


@st.composite
def division_problems(draw):
    """Division over Q with denominators up to 12, so the reducer's common
    denominator must grow within one reduction, or over F_p for small and
    large p, where its unreduced int sums cancel to a multiple of p rather
    than to 0.  Divisor coefficients are random, so leads are rarely 1."""
    field = draw(st.sampled_from([RATIONALS, prime_field(2), prime_field(5), prime_field(32003),
                                  prime_field(2**61 - 1)]))
    nvars = draw(st.integers(2, 3))
    ring = PolyRing(field, ["x", "y", "z"][:nvars])
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = mixed_coefficients(field)

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
    return dividend, divisors


@settings(max_examples=100)
@given(division_problems())
def test_reducer_matches_naive_division(problem):
    f, divisors = problem
    quots, rem = divide_with_remainder(f, divisors)
    naive_quots, naive_rem = naive_division(f, divisors)
    assert [q.terms for q in quots] == naive_quots
    assert rem.terms == naive_rem
    p = f.ring.field.characteristic
    for terms in [*(q.terms for q in quots), rem.terms]:
        assert all(is_canonical(c, p) for c in terms.values())
    total = rem
    for q, d in zip(quots, divisors):
        total = total + q * d
    assert total == f
    leads = [d.lead()[0] for d in divisors]
    assert not any(mono_divides(lm, m) for lm in leads for m in rem.terms)


def fractions_in(field):
    """Nonzero coefficients n/d with small n and d, as raw values of ``field``."""
    return st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 4)).map(
        lambda nd: field.div(field.from_int(nd[0]), field.from_int(nd[1]))
    )


@st.composite
def small_ideals(draw):
    """A small ideal over Q or GF(32003): generators of total degree at most
    3, and sometimes a zero generator, whose cofactor column stays zero."""
    field = draw(st.sampled_from([RATIONALS, prime_field(32003)]))
    nvars = draw(st.integers(2, 3))
    ring = PolyRing(field, ["x", "y", "z"][:nvars])
    monos = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: sum(m) <= 3)
    polys = st.dictionaries(monos, fractions_in(field), min_size=1, max_size=3)
    gens = draw(st.lists(polys.map(ring.from_terms), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), ring.zero())
    return Ideal.of(ring, gens)


@settings(max_examples=60)
@given(small_ideals())
def test_basis_elements_equal_their_cofactor_expansions(ideal):
    gb = buchberger(ideal)
    assert len(gb.cofactors) == len(gb.basis)
    for b, row in zip(gb.basis, gb.cofactors):
        assert len(row) == len(ideal.generators)
        total = ideal.ring.zero()
        for c, g in zip(row, ideal.generators):
            total = total + c * g
        assert total == b
        for c, g in zip(row, ideal.generators):
            if g.is_zero():
                assert c.is_zero()


def plain_dot(ps, qs):
    """sum(p_i * q_i) as a term dict, by one ``field.mul`` and one
    ``field.add`` per term pair, deleting a coefficient that cancels."""
    out = {}
    for p, q in zip(ps, qs, strict=True):
        field = p.ring.field
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = mono_mul(m1, m2)
                v = field.mul(c1, c2)
                if m in out:
                    v = field.add(out[m], v)
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return out


@st.composite
def cofactor_updates(draw):
    """(row, quots, rows) with zero entries, zero quotients and zero rows,
    and sometimes a row that the update cancels exactly."""
    field = draw(st.sampled_from([RATIONALS, prime_field(2), prime_field(5), prime_field(32003),
                                  prime_field(2**61 - 1)]))
    ring = PolyRing(field, ["x", "y"])
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    polys = st.dictionaries(monos, mixed_coefficients(field), max_size=3).map(ring.from_terms)
    width = draw(st.integers(1, 3))
    count = draw(st.integers(0, 3))
    quots = draw(st.lists(polys, min_size=count, max_size=count))
    rows = draw(
        st.lists(
            st.one_of(st.just([ring.zero()] * width), st.lists(polys, min_size=width, max_size=width)),
            min_size=count,
            max_size=count,
        )
    )
    if draw(st.booleans()):
        row = [ring.from_terms(plain_dot(quots, [r[k] for r in rows])) for k in range(width)]
    else:
        row = draw(st.lists(polys, min_size=width, max_size=width))
    return row, quots, rows


@settings(max_examples=100)
@given(cofactor_updates())
def test_dot_matches_plain_sum(update):
    # Each entry of row - sum(quots[t] * rows[t]), as buchberger updates a
    # cofactor row, is one dot product of 1 to 4 pairs, whose denominators
    # differ over Q; it must equal the plain per-pair sum term for term.
    row, quots, rows = update
    ring = row[0].ring
    p = ring.field.characteristic
    mults = [ring.one(), *(-q for q in quots)]
    for k, entry in enumerate(row):
        column = [entry, *(r[k] for r in rows)]
        got = ring.dot(mults, column)
        assert got.terms == plain_dot(mults, column)
        assert all(is_canonical(c, p) for c in got.terms.values())


@settings(max_examples=40)
@given(small_ideals())
def test_reduced_basis_matches_sympy(ideal):
    sympy = pytest.importorskip("sympy")
    ring = ideal.ring
    p = ring.field.characteristic
    # sympy ranks its generators in the order given, most significant first.
    symbols = sympy.symbols(ring.vars)

    def to_sympy(poly):
        return sympy.Add(*(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
            for m, c in poly.terms.items()
        ))

    def from_sympy(poly):
        terms = {}
        for exps, c in poly.terms():
            terms[tuple(exps)] = int(c) % p if p else Fraction(int(c.p), int(c.q))
        return terms

    options = {"modulus": p} if p else {"domain": sympy.QQ}
    theirs = sympy.groebner([to_sympy(g) for g in ideal.generators], *symbols, order="grevlex", **options)
    ours = buchberger(ideal)
    expected = {}
    for poly in theirs.polys:
        terms = from_sympy(poly)
        expected[reference_lead(terms)] = terms
    assert {b.lead()[0]: b.terms for b in ours.basis} == expected
    assert len(ours.basis) == len(theirs.polys)
