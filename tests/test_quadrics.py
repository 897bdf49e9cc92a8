from __future__ import annotations

from fractions import Fraction

import pytest

from umrow.algebra import RingHom, hom_compose, make_algebra
from umrow.errors import (
    BadCertificate,
    CertificateAssemblyFailed,
    CharacteristicTwoUnsupported,
    DimensionOfZeroRing,
    HeightMismatch,
    InvalidUnit,
    ShapeError,
)
from umrow.fields import RATIONALS, PrimeField, Rationals, prime_field
from umrow.groebner import Ideal, buchberger, krull_dimension
from umrow.poly import PolyRing
from umrow import quadrics
from umrow.quadrics import (
    QUADRIC_CACHE_SIZE,
    QuadricEvenPoint,
    build_q_even,
    build_q_odd,
    degree_action,
    delta_map,
    e_endo,
    eta_hom,
    fold_model_certificate,
    fold_model_row,
    gm_quadric,
    mu_at_unit,
    mu_hom,
    mu_minus_one,
    mu_prime_basepoint_check,
    mu_prime_explicit,
    mu_prime_hom,
    phi_map,
    scalar_algebra,
    segre_point,
    universal_split_row,
    vtilde_ring,
)
from umrow.rows import check_unimodular, compute_splitting, verify_certificate

F5 = prime_field(5)


# -- builders -------------------------------------------------------------------


def test_build_q_odd_zero_is_laurent():
    odd = build_q_odd(0, RATIONALS)
    assert odd.algebra.variables == ("x1", "y1")
    assert odd.x(1) * odd.y(1) == odd.algebra.one()


def test_build_q_odd_sizes():
    odd = build_q_odd(2, RATIONALS)
    assert len(odd.algebra.variables) == 6
    assert len(odd.algebra.relations) == 1


def test_odd_base_point_satisfies_relation():
    for n in (0, 1, 2, 3):
        odd = build_q_odd(n, RATIONALS)
        target = scalar_algebra(RATIONALS)
        RingHom(odd.algebra, target, [target.element(c) for c in odd.base_point()])


def test_even_base_point_satisfies_relation():
    even = build_q_even(2, RATIONALS)
    target = scalar_algebra(RATIONALS)
    RingHom(even.algebra, target, [target.element(c) for c in even.base_point()])


def test_even_quadric_dimension():
    even = build_q_even(2, RATIONALS)
    assert krull_dimension(even.algebra.relations_ideal) == 4


# -- points ---------------------------------------------------------------------


def test_compute_splitting_sphere():
    # The row and its splitting are the row's point of the odd quadric.
    alg = make_algebra(RATIONALS, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
    row = check_unimodular(alg, ["x", "y", "z"])
    point = compute_splitting(row)
    assert point.row.entries == row.entries  # projection recovers the row
    assert point.entries == (alg.var("x"), alg.var("y"), alg.var("z"))


def test_compute_splitting_standard_vector():
    alg = scalar_algebra(RATIONALS)
    row = check_unimodular(alg, [0, 0, 1])
    point = compute_splitting(row)
    assert [str(e) for e in point.entries] == ["0", "0", "1"]


def test_segre_point_universal():
    row = universal_split_row(2, RATIONALS)
    alg = row.parent
    split = compute_splitting(row)
    point = segre_point(row, split)
    total = alg.zero()
    for a, b in zip(point.x, point.y):
        total = total + a * b
    assert total == point.z * (alg.one() - point.z)


def test_segre_point_base_case():
    alg = scalar_algebra(RATIONALS)
    row = check_unimodular(alg, [0, 0, 1])
    split = compute_splitting(row)
    point = segre_point(row, split)
    assert all(e.is_zero() for e in point.x)
    assert all(e.is_zero() for e in point.y)
    assert point.z.is_zero()


def test_quadric_point_validation():
    alg = scalar_algebra(RATIONALS)
    with pytest.raises(ShapeError):
        QuadricEvenPoint(alg, (alg.one(),), (alg.one(),), alg.zero())


# -- eta ------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("field", [RATIONALS, F5])
def test_eta_wellformed(n, field):
    eta = eta_hom(n, field)
    even = build_q_even(n, field)
    assert eta._apply_poly(even.algebra.relations[0]).is_zero()


def test_eta_needs_n_at_least_two():
    with pytest.raises(ShapeError):
        eta_hom(1, RATIONALS)


@pytest.mark.parametrize("n", [2, 3])
def test_eta_ideal_identity(n):
    from umrow.groebner import ideal_equal

    odd = build_q_odd(n, RATIONALS)
    alg = odd.algebra
    z = alg.zero()
    for i in range(1, n + 1):
        z = z + odd.x(i) * odd.y(i)
    lhs = alg.ideal_with([odd.x(i) for i in range(1, n)] + [odd.x(n) * odd.x(n + 1), z])
    rhs = alg.ideal_with([odd.x(i) for i in range(1, n + 1)])
    assert ideal_equal(lhs, rhs)


# -- mu, the elementary endomorphism, and their composite --------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ab_identity(n):
    gm = gm_quadric(n, RATIONALS)
    one = gm.algebra.one()
    a_pos = (one - gm.z()) + gm.t() * gm.z()
    a_neg = (one - gm.z()) + gm.t_inv() * gm.z()
    b = gm.algebra.element(2) - gm.t() - gm.t_inv()
    dot = gm.algebra.zero()
    for i in range(1, n + 1):
        dot = dot + gm.x(i) * gm.y(i)
    assert a_pos * a_neg == one - b * dot


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("field", [RATIONALS, F5])
def test_mu_and_e_wellformed(n, field):
    mu_hom(n, field)
    e_endo(n, field)
    degree_action(2 if field.characteristic != 2 else 1, n, field)


def test_e_fixes_base_point():
    odd = build_q_odd(2, RATIONALS)
    target = scalar_algebra(RATIONALS)
    base = [target.element(c) for c in odd.base_point()]
    at_base = hom_compose(RingHom(odd.algebra, target, base), e_endo(2, RATIONALS))
    assert list(at_base.images) == base


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_e_compose_mu_matches_closed_form(n):
    assert list(mu_prime_hom(n, RATIONALS).images) == list(
        mu_prime_explicit(n, RATIONALS).images
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_prime_base_point(n):
    assert mu_prime_basepoint_check(n, RATIONALS)


def test_mu_at_one_is_section():
    even = build_q_even(2, RATIONALS)
    hom = mu_at_unit(2, RATIONALS, 1)
    alg = even.algebra
    assert list(hom.images) == [
        even.x(1),
        even.x(2),
        alg.one(),
        alg.zero(),
        alg.zero(),
        alg.one(),
    ]


def test_degree_action_identity_and_units():
    odd = build_q_odd(2, RATIONALS)
    ident = degree_action(1, 2, RATIONALS)
    assert list(ident.images) == list(odd.algebra.gens())
    with pytest.raises(InvalidUnit):
        degree_action(0, 2, RATIONALS)
    degree_action(3, 2, prime_field(7))


def test_quadric_caches_are_bounded():
    builders = [f for f in vars(quadrics).values() if hasattr(f, "cache_info")]
    assert len(builders) == 13
    assert {f.cache_info().maxsize for f in builders} == {QUADRIC_CACHE_SIZE}
    cache_info = quadrics._degree_action.cache_info
    for alpha in range(1, QUADRIC_CACHE_SIZE + 10):
        degree_action(alpha, 1, RATIONALS)
        assert cache_info().currsize <= QUADRIC_CACHE_SIZE
    assert cache_info().currsize == QUADRIC_CACHE_SIZE
    hits = cache_info().hits
    degree_action(QUADRIC_CACHE_SIZE + 9, 1, RATIONALS)
    assert cache_info().hits == hits + 1


def test_degree_action_caches_one_entry_per_scale():
    # Every spelling of one scale names one map: 2, "2" and Fraction(2) over
    # Q, and 2 and 7 over F_5.
    quadrics._degree_action.cache_clear()
    maps = [degree_action(alpha, 2, RATIONALS) for alpha in (2, "2", Fraction(2))]
    assert maps[0] is maps[1] is maps[2]
    info = quadrics._degree_action.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    f5 = prime_field(5)
    assert degree_action(7, 2, f5) is degree_action(2, 2, f5)
    assert quadrics._degree_action.cache_info().currsize == 2


# -- euler-level maps -----------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_delta_universal_identity(d):
    even = build_q_even(d, RATIONALS)
    point = QuadricEvenPoint(
        even.algebra,
        tuple(even.x(i) for i in range(1, d + 1)),
        tuple(even.y(i) for i in range(1, d + 1)),
        even.z(),
    )
    row, split = delta_map(point)
    total = even.algebra.zero()
    for a, b in zip(row.entries, split.entries):
        total = total + a * b
    assert total == even.algebra.one()


def test_delta_base_point():
    alg = scalar_algebra(RATIONALS)
    zero, one = alg.zero(), alg.one()
    point = QuadricEvenPoint(alg, (zero, zero), (zero, zero), zero)
    row, split = delta_map(point)
    assert [str(e) for e in row.entries] == ["0", "0", "1"]
    assert [str(e) for e in split.entries] == ["0", "0", "1"]


def test_delta_rejects_characteristic_two():
    even = build_q_even(2, prime_field(2))
    point = QuadricEvenPoint(
        even.algebra,
        (even.x(1), even.x(2)),
        (even.y(1), even.y(2)),
        even.z(),
    )
    with pytest.raises(CharacteristicTwoUnsupported):
        delta_map(point)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mu_minus_one_closed_form(d):
    even = build_q_even(d, RATIONALS)
    alg = even.algebra
    head = alg.one() - alg.element(2) * even.z()
    hom = mu_minus_one(d, RATIONALS)
    expected = [even.x(i) for i in range(1, d + 1)]
    expected.append(head)
    expected.extend(alg.element(4) * even.y(i) for i in range(1, d + 1))
    expected.append(head)
    assert list(hom.images) == expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_degree_twist_of_mu_minus_one(d):
    even = build_q_even(d, RATIONALS)
    alg = even.algebra
    two = alg.element(2)
    head = alg.one() - two * even.z()
    composite = hom_compose(mu_minus_one(d, RATIONALS), degree_action(2, d, RATIONALS))
    expected = [two * even.x(i) for i in range(1, d + 1)]
    expected.append(head)
    expected.extend(two * even.y(i) for i in range(1, d + 1))
    expected.append(head)
    assert list(composite.images) == expected


def test_phi_universal_row():
    row = universal_split_row(2, RATIONALS)
    alg = row.parent
    oriented, point = phi_map(row, check_height=True)
    assert oriented.height_checked
    assert oriented.lift == (alg.var("a1"), alg.var("a2") * alg.var("a3"))
    total = alg.zero()
    for a, b in zip(point.x, point.y):
        total = total + a * b
    assert total == point.z * (alg.one() - point.z)


def test_phi_standard_vector():
    alg = scalar_algebra(RATIONALS)
    row = check_unimodular(alg, [0, 0, 1])
    oriented, point = phi_map(row)
    assert all(e.is_zero() for e in oriented.lift)
    assert point.z.is_zero()


def test_phi_consistent_with_eta_after_lift():
    # Oracle: push the universal row through the odd quadric via its
    # splitting, pull back the even-quadric coordinates along eta, and
    # compare with the point phi produces directly.
    row = universal_split_row(2, RATIONALS)
    alg = row.parent
    oriented, point = phi_map(row)
    lift = compute_splitting(row)
    odd = build_q_odd(2, RATIONALS)
    into = RingHom(odd.algebra, alg, list(row.entries) + list(lift.entries))
    composite = hom_compose(into, eta_hom(2, RATIONALS))
    assert list(composite.images) == list(point.x) + list(point.y) + [point.z]


def test_phi_height_check_flags_low_height():
    # The row (a, a, 1 - a^2 + a) over one variable: J_0 = <a, a> has height
    # 1 while d = 2, so the advisory check must flag it.
    alg = make_algebra(RATIONALS, ["a"], [])
    one = alg.one()
    a = alg.var("a")
    row = check_unimodular(alg, [a, a, one - a * a])
    with pytest.raises(HeightMismatch):
        phi_map(row, check_height=True)


def test_phi_height_check_unit_ideal():
    # J_0 = <1, 0> is the unit ideal, whose quotient has no dimension; the
    # height check reports that as a mismatch caused by DimensionOfZeroRing.
    row = check_unimodular(scalar_algebra(RATIONALS), [1, 0, 0])
    with pytest.raises(HeightMismatch) as info:
        phi_map(row, check_height=True)
    assert isinstance(info.value.__cause__, DimensionOfZeroRing)


# -- the universal double-row ring and the fold model ----------------------------------


def test_vtilde_shape():
    vt = vtilde_ring(4, RATIONALS)
    assert len(vt.algebra.variables) == 22
    assert len(vt.algebra.relations) == 3
    assert vt.x_row().verified and vt.u_row().verified
    assert vt.tail_row().verified
    vtilde_ring(2, RATIONALS)  # smoke case builds


def test_fold_model_row_closed_form():
    vt = vtilde_ring(4, RATIONALS)
    fold = fold_model_row(vt)
    alg = vt.algebra
    one = alg.one()
    x1 = alg.var("x1")
    expected = [alg.var(f"x{i}") * (one - x1) for i in range(1, 4)]
    expected.append(alg.var("x4") + (one - alg.var("x4")) * x1)
    assert list(fold.row.entries) == expected


def test_fold_witness_identity():
    vt = vtilde_ring(4, RATIONALS)
    fold = fold_model_row(vt)
    total = vt.algebra.zero()
    for a, b in zip(fold.witness.row.entries, fold.witness.entries):
        total = total + a * b
    assert total == vt.algebra.one()


@pytest.mark.parametrize("n", [4, 5])
def test_fold_certificate_verifies(n):
    vt = vtilde_ring(n, RATIONALS)
    cert = fold_model_certificate(vt)
    assert verify_certificate(cert)
    assert cert.target.entries == tuple(vt.algebra.var(f"x{i}") for i in range(1, n + 1))


def test_fold_certificate_declines_small_n():
    vt = vtilde_ring(3, RATIONALS)
    with pytest.raises(CertificateAssemblyFailed):
        fold_model_certificate(vt)


def test_fold_certificate_reports_only_its_own_errors(monkeypatch):
    # A failed stage is a failed certificate; a fault in the code is not.
    vt = vtilde_ring(4, RATIONALS)

    def broken(macro, row):
        raise TypeError("broken")

    monkeypatch.setattr(quadrics, "_expand_checked", broken)
    with pytest.raises(TypeError):
        fold_model_certificate(vt)

    def refused(macro, row):
        raise BadCertificate("refused")

    monkeypatch.setattr(quadrics, "_expand_checked", refused)
    with pytest.raises(CertificateAssemblyFailed, match="stage 'whitehead' failed"):
        fold_model_certificate(vt)


def test_mu_prime_at_one_collapses_to_base_point():
    # With the unit specialized to 1 the modified map is constant at the
    # base point even for symbolic quadric coordinates.
    from umrow.quadrics import gm_point_eval

    alg = build_q_even(2, RATIONALS).algebra
    composite = hom_compose(gm_point_eval(2, RATIONALS, 1), mu_prime_hom(2, RATIONALS))
    expected = [alg.zero(), alg.zero(), alg.one(), alg.zero(), alg.zero(), alg.one()]
    assert list(composite.images) == expected


def test_delta_of_segre_point_is_unimodular():
    row = universal_split_row(2, RATIONALS)
    alg = row.parent
    point = segre_point(row, compute_splitting(row))
    drow, dsplit = delta_map(point)
    assert drow.verified
    total = alg.zero()
    for a, b in zip(drow.entries, dsplit.entries):
        total = total + a * b
    assert total == alg.one()


def test_maps_and_unit_tests_make_no_field_value(monkeypatch):
    # A map carries each stored coefficient into the target as it is, and a
    # basis is the unit ideal when its one element has lead monomial 1: with
    # every field value made to raise, both still answer, and as before.
    cases = []
    for hom, text in (
        (eta_hom(3, RATIONALS), "1/2*x1^2*y1 - 3*z + 7"),
        (mu_hom(2, prime_field(5)), "2*x1*y3 - 1/3 + x3^2*y2"),
    ):
        source = hom.source
        elements = list(source.gens()) + [source.zero(), source.one(), source.element(text)]
        cases.append((hom, elements, [hom(e) for e in elements]))
    bases = []
    for field in (RATIONALS, prime_field(5)):
        x, y = PolyRing(field, ["x", "y"]).gens()
        for gens, unit in (([x * y - 1, 2 * x], True), ([x * y - 1], False), ([3 * x - y, y**2], False)):
            bases.append((buchberger(Ideal.of(x.ring, gens)), unit))

    def refuse(*args):
        raise AssertionError("a field value was made")

    for cls in (Rationals, PrimeField):
        monkeypatch.setattr(cls, "value", refuse)
    for hom, elements, expected in cases:
        fresh = RingHom(hom.source, hom.target, hom.images)  # no power cached yet
        assert [fresh(e) for e in elements] == [hom(e) for e in elements] == expected
    assert [gb.is_unit_ideal() for gb, _ in bases] == [unit for _, unit in bases]
