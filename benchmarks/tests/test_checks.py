"""The per-run output checks reject wrong answers."""

import random
from types import SimpleNamespace

import pytest

from umrow import Ideal, PolyRing, buchberger, check_unimodular, make_algebra, prime_field, vdk_add, vtilde_ring
from umrow_bench import gb_families, kernels, row_addition
from umrow_bench.core import CheckFailed, terms
from umrow_bench.points import Raw, sphere_point
from umrow_bench.spans import Tracer

TR = Tracer(False)


def test_basis_check_rejects_a_wrong_basis_and_cofactors():
    ring, gens = gb_families.build_system("cyclic", 4, "fp")
    gb = buchberger(Ideal.of(ring, gens))
    check = gb_families.check_basis("cyclic-4-fp", TR)
    check(gb)
    with pytest.raises(CheckFailed):
        check(buchberger(Ideal.of(ring, gens[:-1])))
    gb.cofactors = (gb.cofactors[1],) + gb.cofactors[1:]
    with pytest.raises(CheckFailed):
        check(gb)


def test_shuffled_generators_give_the_recorded_basis():
    ring, gens = gb_families.build_system("katsura", 4, "q")
    random.Random(7).shuffle(gens)
    gb_families.check_basis("katsura-4-q", TR)(buchberger(Ideal.of(ring, gens)))


def test_product_check_recomputes_the_product():
    ring = PolyRing(prime_field(kernels.P), ["a", "b"])
    a, b = ring.parse("a + 2*b"), ring.parse("a - b")
    check = kernels.check_product(a, b, kernels.Raw(kernels.P), TR)
    check(a * b)
    with pytest.raises(CheckFailed):
        check(a * b + ring.one())


def test_vdk_check_rejects_a_foreign_certificate():
    alg = make_algebra(prime_field(32003), ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
    x, y, z = alg.gens()
    u, v, w = (check_unimodular(alg, r) for r in ([x, y, z], [y, z, x], [z, x, y]))
    raw = Raw(32003)
    points = [sphere_point(alg, raw, random.Random(k)) for k in range(3)]
    good = vdk_add(u, v)
    row_addition.check_vdk(u, v, points, TR)(good)
    with pytest.raises(CheckFailed):
        row_addition.check_vdk(u, w, points, TR)(good)
    assert terms(good) > 0


def test_algebra_product_check_is_exact_without_points():
    alg = vtilde_ring(2, prime_field(kernels.P)).algebra
    a, b = alg.var("x1") + alg.var("u2"), alg.var("y1") - 3
    check = kernels.check_algebra_product(a, b, [], kernels.Raw(kernels.P), TR)
    check(a * b)
    with pytest.raises(CheckFailed, match="congruent"):
        check(a * b + alg.one())  # still reduced, but not the product


def test_vdk_check_is_exact_without_points():
    alg = make_algebra(prime_field(32003), ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
    x, y, z = alg.gens()
    u, v = check_unimodular(alg, [x, y, z]), check_unimodular(alg, [y, z, x])
    good = vdk_add(u, v)
    row_addition.check_vdk(u, v, [], TR)(good)
    *head, last = good.splitting.entries
    bad = SimpleNamespace(**vars(good))  # umrow itself refuses to build a wrong splitting
    bad.splitting = SimpleNamespace(entries=(*head, last + alg.one()))
    with pytest.raises(CheckFailed, match="pair to 1"):
        row_addition.check_vdk(u, v, [], TR)(bad)
