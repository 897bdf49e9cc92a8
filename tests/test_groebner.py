from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from umrow import groebner, poly
from umrow.algebra import make_algebra
from umrow.errors import (
    ConfigError,
    DimensionOfZeroRing,
    InvalidDivisor,
    NotInIdeal,
    NotUnimodular,
)
from umrow.fields import RATIONALS, prime_field
from umrow.groebner import (
    BASIS_CACHE_SIZE,
    Ideal,
    buchberger,
    divide_with_remainder,
    groebner_basis,
    ideal_equal,
    krull_dimension,
)
from umrow.poly import PolyRing, _reduce, _split_lead
from umrow.quadrics import vtilde_ring
from umrow.rows import check_unimodular

R2 = PolyRing(RATIONALS, ["x", "y"])
R3 = PolyRing(RATIONALS, ["x", "y", "z"])
FP = prime_field(32003)


# Monomial arithmetic on the exponent tuples of the public ``terms`` and ``lead``.
def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b, strict=True))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def ideal_of(ring, *gens):
    return Ideal.of(ring, [ring.parse(g) for g in gens])


# -- division -----------------------------------------------------------------


def test_divide_simple():
    quots, rem = divide_with_remainder(R2.parse("x^2*y"), [R2.parse("x")])
    assert quots[0] == R2.parse("x*y") and rem.is_zero()


def test_divide_remainder_untouched():
    quots, rem = divide_with_remainder(R2.parse("y"), [R2.parse("x")])
    assert quots[0].is_zero() and rem == R2.parse("y")


def test_divide_constant_remainder():
    quots, rem = divide_with_remainder(R2.parse("x^2 + y^2"), [R2.parse("x^2 + y^2 - 1")])
    assert quots[0] == R2.one() and rem == R2.one()


def test_divide_rejects_zero_divisor():
    with pytest.raises(InvalidDivisor):
        divide_with_remainder(R2.parse("x"), [R2.zero()])


def test_order_of_another_width_is_rejected():
    # The order of a ring with two variables ignores z, so z and z^2 would
    # tie; ``lead`` takes its own ring's order alone.
    ring = PolyRing(RATIONALS, ["x", "y", "z"])
    assert ring.parse("z - z^2").lead(ring.order) == ((0, 0, 2), -1)
    with pytest.raises(ConfigError):
        ring.parse("z - z^2").lead(R2.order)


@pytest.mark.parametrize("order", ["lex", [1]], ids=["name-lead", "list-lead"])
def test_order_that_is_not_a_monomial_order_is_refused(order):
    # ``lead`` keeps its order argument for callers that pass a basis's
    # ``order``; a name or any other value is refused, unhashable or not.
    ring = PolyRing(RATIONALS, ["x", "y"])
    with pytest.raises(ConfigError, match="term order must be the ring's own"):
        ring.var("x").lead(order)


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


def test_normal_form_keys_each_monomial_once(monkeypatch):
    # A rescanning reducer keys the whole remainder after every step, so its
    # key count grows with the square of the term count; this bound does not.
    # The heap entries of ``_reduce`` are its keys, -(m ^ low) for m.
    alg = vtilde_ring(2, RATIONALS).algebra
    ring = alg.ring
    gb = buchberger(alg.relations_ideal)
    low = ring.packing.low
    keyed = []

    def heapify(heap):
        keyed.extend(-entry ^ low for entry in heap)
        real_heapify(heap)

    def heappush(heap, entry):
        keyed.append(-entry ^ low)
        real_heappush(heap, entry)

    real_heapify, real_heappush = poly.heapify, poly.heappush
    # The relations' tails bring in y2, u2, v2 and s2, so reduction creates
    # monomials that f does not have, and the multiple of two relations makes
    # terms cancel and come back while they are still queued.
    p = sum((ring.var(v) for v in ("x1", "y1", "u1", "v1", "x2", "r2")), ring.one())
    f = p**3 * (alg.relations[0] * alg.relations[1] + p**2)
    assert len(f.terms) > 900
    monkeypatch.setattr(poly, "heapify", heapify)
    monkeypatch.setattr(poly, "heappush", heappush)
    gb.normal_form(f)
    monkeypatch.undo()
    # Every monomial that enters the remainder is a term of f or a tail term
    # of a basis element times a quotient term.
    quots, _ = gb.normal_form_with_quotients(f)
    entered = set(f.terms)
    for q, g in zip(quots, gb.basis):
        lm = g.lead()[0]
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
    # element must vanish under that substitution, and the element
    # y^3 - z^2 of sympy's lex basis, which eliminates x, must reduce to zero.
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    lex_basis = sympy.groebner([x**2 - y, x**3 - z], x, y, z, order="lex")
    assert y**3 - z**2 in lex_basis.exprs
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

    for g in gb.basis:
        assert substitute(g).is_zero()
    assert gb.contains(R3.parse("y^3 - z^2"))


def _katsura(n, field):
    ring = PolyRing(field, [f"u{i}" for i in range(n + 1)])
    u = ring.gens()

    def at(m):
        return u[abs(m)] if abs(m) <= n else ring.zero()

    gens = [sum((at(l) * at(m - l) for l in range(-n, n + 1)), -at(m)) for m in range(n)]
    return ring, gens + [sum(u[1:], ring.zero()) * 2 + u[0] - 1]


def _count_reductions(monkeypatch):
    """Every call ``buchberger`` makes to ``_reduce``, as (polynomial, the
    other arguments, result), in call order."""
    results = []
    real = groebner._reduce

    def reduce(f, *args):
        results.append((f, args, real(f, *args)))
        return results[-1][2]

    monkeypatch.setattr(groebner, "_reduce", reduce)
    return results


@pytest.mark.parametrize(
    "ideal",
    [Ideal.of(*_katsura(4, FP)), ideal_of(R2, "x^2*y - 1", "x*y^2 - x", "0"), ideal_of(R2, "x", "2")],
    ids=["katsura-4", "unit-by-s-pair", "unit-generator"],
)
def test_each_lead_is_split_once(monkeypatch, ideal):
    # Each element is split once per version that enters a basis: a
    # generator reduced by the basis before it (the generator itself when it
    # is reduced already), a J-pair's reduction, or a tail reduction.
    # Building the GroebnerBasis splits nothing.
    split, passed = [], []

    def split_lead(d):
        split.append(d)
        return real_split(d)

    def is_reduced(f, leads):
        if real_is_reduced(f, leads):
            passed.append(f)
            return True
        return False

    real_split, real_is_reduced = groebner._split_lead, groebner._is_reduced
    monkeypatch.setattr(groebner, "_split_lead", split_lead)
    monkeypatch.setattr(groebner, "_is_reduced", is_reduced)
    results = _count_reductions(monkeypatch)
    gb = buchberger(ideal)
    # The constant 2 has the least degree, so it enters first and ends the run.
    versions = [r[1] for _, _, r in results if not r[1].is_zero()]
    versions += [g for g in ideal.generators if any(f is g for f in passed)]
    assert len(split) == len(versions)
    assert len({id(d) for d in split}) == len(split)
    # The basis is made of split versions: the reduced elements, or the
    # constant of the unit ideal.
    assert {id(g) for g in gb.basis} <= {id(d) for d in split}


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
        gb = buchberger(ideal)
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                mi, ci = basis[i].lead()
                mj, cj = basis[j].lead()
                lcm = mono_lcm(mi, mj)
                field = ideal.ring.field
                s = basis[i].mul_term(
                    tuple(a - b for a, b in zip(lcm, mi)), field.inv(ci)
                ) - basis[j].mul_term(
                    tuple(a - b for a, b in zip(lcm, mj)), field.inv(cj)
                )
                _, rem = divide_with_remainder(s, basis)
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


def _cyclic(n, field):
    ring = PolyRing(field, [f"x{i}" for i in range(n)])
    x = ring.gens()

    def product(idx):
        t = ring.one()
        for i in idx:
            t = t * x[i % n]
        return t

    gens = [sum((product(range(i, i + k)) for i in range(n)), ring.zero()) for k in range(1, n)]
    return ring, gens + [product(range(n)) - ring.one()]


def test_cyclic5_rows_stay_small():
    # Cyclic-5 is not homogeneous.  A pair loop that popped pairs by lcm
    # degree alone left 14 844 cofactor terms, and by sugar 6559; the
    # signature loop, which reduces nothing to zero on it, leaves 1819.
    ring, gens = _cyclic(5, FP)
    gb = buchberger(Ideal.of(ring, gens))
    assert sum(len(c.terms) for row in gb.cofactors for c in row) <= 2000
    for b, row in zip(gb.basis, gb.cofactors):
        assert ring.dot(row, gens) == b


# The gb-families benchmark's digests (sha256 of the sorted basis strings).
FAMILY_DIGESTS = {
    ("katsura", 5, RATIONALS): "ceaec6371429a13364cb331bbed4706ab00aed1a9c3b3f5baedc71bc2caf4972",
    ("katsura", 5, FP): "4bfdc00e4a96623f52c282a5c0c21e1587501a9ab8c833ffa735c6ca5eb5774d",
    ("cyclic", 5, RATIONALS): "a6f4f581bdccaa8c7075fb716f27e27e244972de2e93a615dc1ac58d56e03699",
    ("cyclic", 5, FP): "3e0ed7e210d3de3b91f82305e263835176593f35603f51dd02011895afba665f",
}
# Cyclic-4 is left out: its ideal has a component of dimension 1, and
# there a signature basis meets syzygies no criterion predicts.
NO_ZERO_REDUCTION = [("katsura", n, field) for n in (4, 5) for field in (RATIONALS, FP)]
NO_ZERO_REDUCTION += [("cyclic", 5, field) for field in (RATIONALS, FP)]


def _family(name, n, field):
    return Ideal.of(*(_katsura if name == "katsura" else _cyclic)(n, field))


@pytest.mark.parametrize("name, n, field", FAMILY_DIGESTS, ids=lambda v: str(v))
def test_family_bases_match_the_recorded_digests(name, n, field):
    gb = buchberger(_family(name, n, field))
    text = "\n".join(sorted(str(b) for b in gb.basis))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[name, n, field]


@pytest.mark.parametrize("name, n, field", NO_ZERO_REDUCTION, ids=lambda v: str(v))
def test_no_reduction_ends_in_zero(monkeypatch, name, n, field):
    # The signature criteria predict every reduction to zero on these
    # systems; the pair loop before them reduced 55 of katsura-5's 73
    # S-pairs to zero.
    results = _count_reductions(monkeypatch)
    buchberger(_family(name, n, field))
    assert results
    assert not any(r[1].is_zero() for _, _, r in results)


def _random_ideals(field):
    """Eight seeded ideals of two or three generators in x, y, z, each of up
    to four terms with every exponent at most 2."""
    rng = random.Random(str(field))
    ring = PolyRing(field, ["x", "y", "z"])
    ideals = []
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(2, 3)):
            monos = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(rng.randint(2, 4))]
            gens.append(ring.from_terms({m: rng.randint(-3, 3) for m in monos}))
        ideals.append(Ideal.of(ring, gens))
    return ideals


RANDOM_FIELDS = (RATIONALS, FP)


@pytest.mark.parametrize(
    "ideals",
    [[_family(*case)] for case in NO_ZERO_REDUCTION] + [_random_ideals(field) for field in RANDOM_FIELDS],
    ids=[str(case) for case in NO_ZERO_REDUCTION] + [f"random-{f}-grevlex" for f in RANDOM_FIELDS],
)
def test_no_jpair_lead_is_left_to_an_equal_signature(monkeypatch, ideals):
    # ``_reduce`` has no give-up for a lead that only a round element of its
    # own signature divides, since the criteria skip every J-pair that would
    # reach one: below the lcm that element rewrites the J-pair, and at the
    # lcm the J-pair's partner, in G or of smaller signature, divides it.
    results = _count_reductions(monkeypatch)
    for ideal in ideals:
        buchberger(ideal)
    jpairs = [(f, args, r) for f, args, r in results if len(args) == 2]
    assert jpairs
    for f, (leads, (first, sigs, sigma)), (_, rem) in jpairs:
        if rem.is_zero():
            continue
        m = f.ring.pack(rem.lead()[0])
        # ``sigs`` grows as the round goes on; zip stops at the leads of the call.
        assert not any(
            f.ring.packing.divides(lead[0], m) and m - lead[0] + sig == sigma
            for lead, sig in zip(leads[first:], sigs)
        )


def test_a_lead_only_an_equal_signature_divides_stays():
    # ``_reduce``'s signature rule: g, in G, reduces every term; d, of
    # signature 1, reduces a term only in a signature below that of f.  A
    # term that only an equal signature divides stays in the remainder,
    # leading or not.
    g, d = (_split_lead(R2.parse(t)) for t in ("y^3 - 1", "x + 1"))
    one, y, y2 = (R2.pack(e) for e in ((0, 0), (0, 1), (0, 2)))
    f = R2.parse("x*y + y")  # x*y is y times d's lead: signature y * 1
    assert _reduce(f, [g, d], (1, [one], y)) == ([R2.zero(), R2.zero()], f)
    quots, rem = _reduce(f, [g, d], (1, [one], y2))
    assert rem.is_zero() and quots[1] == R2.parse("y")
    quots, rem = _reduce(f, [g, d], (1, [one], one))
    assert rem == f and all(q.is_zero() for q in quots)
    # G reduces y^3 away first, and x*y then leads and stays.
    quots, rem = _reduce(R2.parse("y^3 + x*y"), [g, d], (1, [one], y))
    assert (quots, rem) == ([R2.one(), R2.zero()], R2.parse("x*y + 1"))
    # x^3 leads and stays (signature x^2 is above y); x*y is then a tail term.
    f = R2.parse("x^3 + x*y")
    assert _reduce(f, [g, d], (1, [one], y)) == ([R2.zero(), R2.zero()], f)


@pytest.mark.parametrize(
    "ideal",
    [ideal_of(R3, "x^2 - y", "x^3 - z"), Ideal.of(*_katsura(3, FP)), Ideal.of(*_cyclic(4, RATIONALS))],
    ids=["twisted-cubic", "katsura-3", "cyclic-4"],
)
def test_lex_basis_is_the_reduced_basis(ideal):
    # A reduced basis is unique: monic, no lead dividing a term of another
    # element, in the ideal (its rows) and a Groebner basis of it (every
    # generator and S-polynomial reduces to 0).
    ring = ideal.ring
    gb = buchberger(ideal)
    basis = list(gb.basis)
    leads = [b.lead() for b in basis]
    assert all(c == 1 for _, c in leads)
    for k, b in enumerate(basis):
        assert not any(mono_divides(lm, m) for t, (lm, _) in enumerate(leads) if t != k for m in b.terms)
    for b, row in zip(basis, gb.cofactors):
        assert ring.dot(row, ideal.generators) == b
    for f in ideal.generators:
        assert divide_with_remainder(f, basis)[1].is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            lcm = mono_lcm(leads[i][0], leads[j][0])
            shifts = [tuple(a - b for a, b in zip(lcm, lead)) for lead, _ in (leads[i], leads[j])]
            s = basis[i].mul_term(shifts[0], 1) - basis[j].mul_term(shifts[1], 1)
            assert divide_with_remainder(s, basis)[1].is_zero()
    if ring is R3:
        assert basis == [R3.parse(t) for t in ("x^2 - y", "x*y - z", "y^2 - x*z")]


def test_already_reduced_generators_are_single_steps():
    # The unit ideal (x2..x5, u2..u5, the three relations) of the universal
    # ring for n = 5: each variable is reduced modulo the ones before it and
    # is recorded as one step, generator times inverse; each relation is a
    # generator step and its reduction, and the third reduces to -1.
    alg = vtilde_ring(5, RATIONALS).algebra
    ring = alg.ring
    variables = [ring.var(f"{v}{i}") for v in "xu" for i in range(2, 6)]
    gb = buchberger(Ideal.of(ring, variables + list(alg.relations)))
    assert gb.is_unit_ideal()
    steps = gb._steps
    assert [step[0] for step in steps[:8]] == list(range(8)) and all(len(step) == 2 for step in steps[:8])
    assert [len(step) for step in steps[8:]] == [2, 3] * 3
    assert [step[0] for step in steps[8::2]] == [8, 9, 10]
    assert ring.dot(gb.lift(ring.one()), gb.generators) == ring.one()


@pytest.mark.parametrize("field", [RATIONALS, FP], ids=str)
def test_buchberger_and_its_rows_make_no_field_value(monkeypatch, field):
    # Each inverse `buchberger` records is a Scalar formed from the stored
    # ints, so a basis, its cofactor rows and a lift need no raw field value.
    ring = PolyRing(field, ["x", "y", "z"])
    gens = [ring.parse(t) for t in ("2*x^2*y - 3*z", "3*x*y^2 - 5*x", "7/2*z^2 - y")]

    def refuse(*args):
        raise AssertionError("a field value was made")

    for name in ("value", "inv", "from_int"):
        monkeypatch.setattr(type(field), name, refuse)
    gb = buchberger(Ideal.of(ring, gens))
    assert len(gb.basis) > len(gens)
    for b, row in zip(gb.basis, gb.cofactors):
        assert ring.dot(row, gens) == b
    assert ring.dot(gb.lift(gens[0] * gens[1]), gens) == gens[0] * gens[1]


def _count_combine_rows(monkeypatch):
    calls = []
    real = groebner._combine_rows

    def combine_rows(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_combine_rows", combine_rows)
    return calls


@pytest.mark.parametrize(
    "ideal",
    [Ideal.of(*_katsura(4, FP)), Ideal.of(*_cyclic(5, FP)), ideal_of(R2, "x^2*y - 1", "x*y^2 - x", "0")],
    ids=["katsura-4", "cyclic-5", "unit-by-s-pair"],
)
def test_cofactor_rows_are_expanded_on_first_read(monkeypatch, ideal):
    calls = _count_combine_rows(monkeypatch)
    gb = buchberger(ideal)
    assert not calls
    rows = gb.cofactors
    assert calls
    assert len(rows) == len(gb.basis)
    for b, row in zip(gb.basis, rows):
        assert ideal.ring.dot(row, ideal.generators) == b
    expanded = len(calls)
    assert gb.cofactors is rows
    assert len(calls) == expanded


def test_queries_that_read_no_rows_expand_none(monkeypatch):
    groebner_basis.cache_clear()
    calls = _count_combine_rows(monkeypatch)
    alg = make_algebra(RATIONALS, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
    x, y, z = alg.gens()
    check_unimodular(alg, [x, y, z])
    with pytest.raises(NotUnimodular):
        check_unimodular(alg, [x, y])
    assert krull_dimension(alg.relations_ideal) == 2
    assert ideal_equal(ideal_of(R2, "x^2 - y", "x*y"), ideal_of(R2, "x^2 - y", "x^3"))
    assert groebner_basis(ideal_of(R3, "x^2 - y", "x^3 - z")).contains(R3.parse("y^3 - z^2"))
    assert not calls


def test_lift_expands_only_the_ancestors_of_the_constant(monkeypatch):
    # The round of y*z - 1 adds the J-pair element z^2 - y, whose row is a
    # combination of the first two generators.  x^3 + 1 is reduced already,
    # and x^3 then reduces by it to the constant, which descends from
    # neither of the first two generators nor from that element.
    ring = PolyRing(RATIONALS, ["x", "y", "z"])
    ideal = ideal_of(ring, "y^2 - z", "y*z - 1", "x^3 + 1", "x^3")
    gb = buchberger(ideal)
    combinations = [step for step in gb._steps if len(step) == 3]
    assert gb.is_unit_ideal() and len(combinations) == 2
    calls = _count_combine_rows(monkeypatch)
    coeffs = gb.lift(ring.one())
    assert ring.dot(coeffs, ideal.generators) == ring.one()
    # One call expands the constant's row and one is the lift's own.
    assert len(calls) == 2


def test_normal_form_idempotent():
    gb = groebner_basis(ideal_of(R3, "x^2 - y", "x^3 - z"))
    f = R3.parse("x^4 + x*y - z + 2")
    nf = gb.normal_form(f)
    assert gb.normal_form(nf) == nf


def sphere(field):
    return make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])


# Up to four terms, each a coefficient num/den times a product of up to three
# variables (indices taken modulo the ring's variable count).
small_terms = st.lists(
    st.tuples(st.lists(st.integers(0, 9), max_size=3), st.integers(-3, 3), st.sampled_from([1, 2, 3])),
    max_size=4,
)


def poly_of(ring, spec):
    terms: dict = {}
    for variables, num, den in spec:
        exps = [0] * ring.nvars
        for v in variables:
            exps[v % ring.nvars] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + Fraction(num, den)
    return ring.from_terms(terms)


@pytest.mark.parametrize("field", [RATIONALS, prime_field(5)], ids=str)
@pytest.mark.parametrize(
    "make", [lambda field: vtilde_ring(2, field).algebra, sphere], ids=["vtilde-2", "sphere"]
)
@seed(18)
@settings(max_examples=60, database=None)
@given(spec=small_terms)
def test_normal_form_returns_a_reduced_input_itself(field, make, spec):
    # Both queries agree with each other and with f = sum(q_i g_i) + r, and
    # hand back f itself exactly when no lead divides one of its terms.
    alg = make(field)
    gb, ring = alg.gb, alg.ring
    f = poly_of(ring, spec)
    quots, rem = gb.normal_form_with_quotients(f)
    assert gb.normal_form(f) == rem
    assert f - rem == ring.dot(quots, gb.basis)
    leads = [g.lead()[0] for g in gb.basis]
    reduced = not any(mono_divides(lead, mono) for mono in f.terms for lead in leads)
    assert (gb.normal_form(f) is f) == reduced
    assert (rem is f) == reduced
    assert len(quots) == len(gb.basis)
    if reduced:
        assert all(q.is_zero() for q in quots)


@pytest.mark.parametrize("field", [RATIONALS, prime_field(5)], ids=str)
def test_normal_form_short_circuit_examples(field):
    alg = sphere(field)
    gb, ring = alg.gb, alg.ring
    for text, reduced in (("y*z + 1", True), ("x*y^5 - z", True), ("0", True), ("x^2*y", False), ("y + x^3", False)):
        f = ring.parse(text)
        assert (gb.normal_form(f) is f) == reduced
        assert (gb.normal_form_with_quotients(f)[1] is f) == reduced


def test_inter_reduction_reduces_only_what_is_not_reduced(monkeypatch):
    # At a round's end ``_inter_reduce`` checks each element with
    # ``_is_reduced``: one that passes is kept as it stands, neither reduced
    # nor split again, and only one that fails is tail-reduced (or dropped,
    # when a new lead divides its own).
    rounds, current = [], []

    def inter_reduce(*args):
        current.append({"passed": [], "failed": [], "reduced": [], "split": []})
        out = real_inter_reduce(*args)
        rounds.append(dict(current.pop(), basis=out[0]))
        return out

    def is_reduced(f, leads):
        answer = real_is_reduced(f, leads)
        if current:
            current[-1]["passed" if answer else "failed"].append(f)
        return answer

    def reduce(f, *args):
        if current:
            current[-1]["reduced"].append(f)
        return real_reduce(f, *args)

    def split_lead(d):
        if current:
            current[-1]["split"].append(d)
        return real_split(d)

    real_inter_reduce, real_is_reduced = groebner._inter_reduce, groebner._is_reduced
    real_reduce, real_split = groebner._reduce, groebner._split_lead
    for name, spy in (("_inter_reduce", inter_reduce), ("_is_reduced", is_reduced), ("_reduce", reduce),
                      ("_split_lead", split_lead)):
        monkeypatch.setattr(groebner, name, spy)
    gb = buchberger(Ideal.of(*_katsura(4, FP)))
    assert len(gb.basis) == 13
    assert all(r["passed"] for r in rounds) and any(r["reduced"] for r in rounds)
    for r in rounds:
        for f in r["passed"]:
            assert not any(g is f for g in r["reduced"] + r["split"])
            assert any(g is f for g in r["basis"])
        assert all(any(g is f for f in r["failed"]) for g in r["reduced"])


# -- membership, lifts, equality -------------------------------------------------


def test_membership_examples():
    assert groebner_basis(ideal_of(R2, "x")).contains(R2.parse("x^2"))
    assert groebner_basis(ideal_of(R2, "x", "1 - x")).contains(R2.one())
    assert not groebner_basis(ideal_of(R2, "x", "y")).contains(R2.one())


def test_membership_order_independent():
    # Membership does not depend on the order: the engine's grevlex answer
    # must be sympy's lex one.
    sympy = pytest.importorskip("sympy")
    queries = [
        ("y^3 - z^2", ("x^2 - y", "x^3 - z"), R3),
        ("x + 1", ("x^2 - y", "x^3 - z"), R3),
        ("x*y + y^2", ("x^2", "x*y", "y^2"), R2),
        ("x^3 - x", ("x^2 - y", "x*y - x"), R2),
    ]
    for f, gens, ring in queries:
        symbols = sympy.symbols(ring.vars)
        ours = groebner_basis(ideal_of(ring, *gens)).contains(ring.parse(f))
        theirs = sympy.groebner([sympy.sympify(g.replace("^", "**")) for g in gens], *symbols, order="lex")
        assert ours == theirs.contains(sympy.sympify(f.replace("^", "**")))


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
    assert groebner_basis.cache_info().maxsize == BASIS_CACHE_SIZE
    ring = PolyRing(RATIONALS, ["x"])
    for k in range(1, BASIS_CACHE_SIZE + 20):
        groebner_basis(Ideal.of(ring, [ring.from_terms({(k,): Fraction(1)})]))
        assert groebner_basis.cache_info().currsize <= BASIS_CACHE_SIZE
    assert groebner_basis.cache_info().currsize == BASIS_CACHE_SIZE
    latest = Ideal.of(ring, [ring.from_terms({(BASIS_CACHE_SIZE + 19,): Fraction(1)})])
    hits = groebner_basis.cache_info().hits
    groebner_basis(latest)
    assert groebner_basis.cache_info().hits == hits + 1


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: Ideal.of(R2, ["x"]),
        lambda: divide_with_remainder(R2.var("x"), ["x"]),
        lambda: R2.dot("x", "y"),
        lambda: R2.dot(None, None),
        lambda: R2.dot([R2.var("x")], [1]),
    ],
    ids=["ideal-of-strings", "divide-by-strings", "dot-of-strings", "dot-of-none", "dot-with-an-int"],
)
def test_list_elements_that_are_not_polynomials_are_refused(call):
    # Each list is read element by element in the loop that checks rings.
    with pytest.raises(ConfigError):
        call()
