"""kernels: the arithmetic layers called directly, over Q and F_32003.

Per field: batches of ``Scalar`` multiply-adds and inverses, dense
degree-4 x degree-4 products in 6 variables (210 x 210 terms, about 3k in
the product), ``AlgebraElement`` products with normal form in
``vtilde_ring(2)`` (about 1.2k-term results) and ``is_unit`` on
non-units and constants.  Monomial supports are fixed; the seed draws the
coefficients and the order of all ops.  Checks use plain ``Fraction`` or
modular arithmetic: scalars and products are recomputed, and each non-unit
must vanish at a point of the variety.  An algebra product must be reduced
and congruent to the product of its factors, which is checked exactly by a
lift through the relations, and agree with them at random points of the
variety.
"""

from __future__ import annotations

import itertools
import random

from umrow import RATIONALS, PolyRing, prime_field, vtilde_ring

from .core import Op, Workload, expect, expect_congruent, random_poly, reducible
from .points import Raw, evaluate, vtilde_point

P = 32003
FIELDS = (("q", RATIONALS), ("fp", prime_field(P)))
ARITH_BATCHES, ARITH_SIZE = 30, 500  # each item is one multiply and one add
INV_BATCHES, INV_SIZE = 15, 400
DENSE_PRODUCTS, DENSE_DEGREE, DENSE_VARS = 3, 4, 6
ALGEBRA_PRODUCTS, ALGEBRA_FACTOR_TERMS = 1, 44
NON_UNITS, CONSTANT_UNITS = 12, 2
POINTS = 3


def check_arith(triples, raw: Raw, tag, tracer):
    def check(out):
        expect(len(out) == len(triples), "batch length changed")
        for r, (a, b, c) in zip(out, triples):
            expect(r.value == raw.norm(a.value * b.value + c.value), "a*b + c is wrong")
        tracer.count(f"fields.{tag}.arith_ops", 2 * len(triples))

    return check


def check_inv(xs, raw: Raw, tag, tracer):
    def check(out):
        expect(len(out) == len(xs), "batch length changed")
        for r, x in zip(out, xs):
            expect(raw.norm(r.value * x.value) == 1, "inverse is wrong")
        tracer.count(f"fields.{tag}.inv_ops", len(xs))

    return check


def check_product(a, b, raw: Raw, tracer):
    def check(prod):
        expected = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                expected[m] = expected.get(m, 0) + c1 * c2
        expected = {m: raw.norm(c) for m, c in expected.items() if raw.norm(c)}
        expect(prod.terms == expected, "dense product is wrong")
        tracer.count("poly.mul.term_pairs", len(a.terms) * len(b.terms))

    return check


def check_algebra_product(a, b, points, raw: Raw, tracer):
    alg = a.parent
    leads = [g.lead(alg.gb.order)[0] for g in alg.gb.basis]

    def check(prod):
        expect(not any(reducible(m, leads) for m in prod.rep.terms), "product is not in normal form")
        expect_congruent(alg, prod.rep, a.rep * b.rep, "product is not congruent to a*b")
        for pt in points:  # an independent cross-check
            expect(evaluate(prod.rep, pt, raw) == raw.norm(evaluate(a.rep, pt, raw) * evaluate(b.rep, pt, raw)),
                   "product disagrees with its factors at a point")
        tracer.count("algebra.mul.terms_out", len(prod.rep.terms))

    return check


def check_non_unit(f, zero_point, raw: Raw):
    def check(inv):
        expect(inv is None, "a non-unit was reported invertible")
        expect(evaluate(f.rep, zero_point, raw) == 0, "the non-unit does not vanish at its zero")

    return check


def check_unit(f):
    def check(inv):
        expect(inv is not None and f * inv == f.parent.one(), "constant unit has no verified inverse")

    return check


def setup(seed: int, tracer):
    rng = random.Random(seed)
    per_field = []
    for tag, field in FIELDS:
        raw = Raw(field.characteristic)
        shape = random.Random(f"kernels {tag}")

        def scalar(nonzero=False):
            return field.scalar(raw.random(rng, nonzero))

        arith = [[(scalar(), scalar(), scalar()) for _ in range(ARITH_SIZE)] for _ in range(ARITH_BATCHES)]
        invs = [[scalar(nonzero=True) for _ in range(INV_SIZE)] for _ in range(INV_BATCHES)]
        ring = PolyRing(field, [f"t{i}" for i in range(DENSE_VARS)])
        monos = [m for m in itertools.product(range(DENSE_DEGREE + 1), repeat=DENSE_VARS)
                 if sum(m) <= DENSE_DEGREE]
        dense = [
            tuple(ring.from_terms({m: field.from_int(rng.randint(1, 999)) for m in monos}) for _ in range(2))
            for _ in range(DENSE_PRODUCTS)
        ]
        with tracer.span("quadrics.vtilde_ring"):
            alg = vtilde_ring(2, field).algebra
        factors = [
            tuple(alg.element(random_poly(alg.ring, shape, rng, 3, ALGEBRA_FACTOR_TERMS)) for _ in range(2))
            for _ in range(ALGEBRA_PRODUCTS)
        ]
        points = [vtilde_point(alg, 2, raw, rng) for _ in range(POINTS)]
        x1, u1 = alg.var("x1"), alg.var("u1")
        non_units = [
            alg.element(random_poly(alg.ring, shape, rng, 1, 3)) * x1
            + alg.element(random_poly(alg.ring, shape, rng, 1, 3)) * u1
            for _ in range(NON_UNITS)
        ]
        zero_point = vtilde_point(alg, 2, raw, rng, zero=("x1", "u1"))
        units = [alg.element(k + 2) for k in range(CONSTANT_UNITS)]
        per_field.append((tag, raw, arith, invs, dense, factors, points, non_units, zero_point, units))
    return per_field, rng


def ops(state, tracer):
    """All ops of both fields in a seeded shuffled order, so that a slow
    stretch of the machine does not land on one kind of op."""
    per_field, rng = state
    batch = []
    for tag, raw, arith, invs, dense, factors, points, non_units, zero_point, units in per_field:
        for k, triples in enumerate(arith):
            batch.append(Op(f"scalar a*b+c batch {k}", tag, f"fields.{tag}.arith",
                            lambda t=triples: [a * b + c for a, b, c in t],
                            check_arith(triples, raw, tag, tracer)))
        for k, xs in enumerate(invs):
            batch.append(Op(f"scalar inverse batch {k}", tag, f"fields.{tag}.inv",
                            lambda xs=xs: [x.inverse() for x in xs], check_inv(xs, raw, tag, tracer)))
        for k, (a, b) in enumerate(dense):
            batch.append(Op(f"dense product {k}", tag, f"poly.mul.{tag}", lambda a=a, b=b: a * b,
                            check_product(a, b, raw, tracer)))
        for k, (a, b) in enumerate(factors):
            batch.append(Op(f"algebra product {k}", tag, "algebra.mul", lambda a=a, b=b: a * b,
                            check_algebra_product(a, b, points, raw, tracer)))
        for k, f in enumerate(non_units):
            batch.append(Op(f"is_unit non-unit {k}", tag, "algebra.is_unit", lambda f=f: f.is_unit(),
                            check_non_unit(f, zero_point, raw)))
        for k, f in enumerate(units):
            batch.append(Op(f"is_unit constant {k}", tag, "algebra.is_unit", lambda f=f: f.is_unit(),
                            check_unit(f)))
    rng.shuffle(batch)
    for op in batch:
        yield op


WORKLOAD = Workload("kernels", setup, ops)
