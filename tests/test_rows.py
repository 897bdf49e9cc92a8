from __future__ import annotations

import warnings

import pytest

from umrow import rows
from umrow.algebra import make_algebra
from umrow.errors import ConfigError, NotUnimodular, ShapeError, ShrinkFailed
from umrow.fields import RATIONALS, prime_field
from umrow.quadrics import build_q_odd, scalar_algebra, vtilde_ring
from umrow.rows import (
    ElementaryGen,
    ElementaryWord,
    OrbitCertificate,
    SplittingRow,
    UnimodularRow,
    _move_splitting,
    _shrink_assignments,
    _shrink_pool,
    apply_word,
    check_unimodular,
    compute_splitting,
    mennicke_newman,
    row_from_witness,
    vdk_add,
    verify_certificate,
)


def sphere():
    return make_algebra(RATIONALS, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])


def scalars():
    return scalar_algebra(RATIONALS)


# -- unimodularity and splittings ------------------------------------------------


def test_check_unimodular_sphere():
    alg = sphere()
    row = check_unimodular(alg, ["x", "y", "z"])
    assert row.verified


def test_check_unimodular_standard_vector():
    alg = sphere()
    row = check_unimodular(alg, [0, 0, 1])
    assert row.verified


def test_check_unimodular_failure():
    alg = make_algebra(RATIONALS, ["x", "y"], [])
    with pytest.raises(NotUnimodular):
        check_unimodular(alg, ["x", "y"])


def test_rows_need_length_two():
    alg = scalars()
    with pytest.raises(ShapeError):
        UnimodularRow(alg, (alg.one(),))


def test_splitting_sphere_row():
    alg = sphere()
    row = check_unimodular(alg, ["x", "y", "z"])
    split = compute_splitting(row)
    total = alg.zero()
    for a, b in zip(row.entries, split.entries):
        total = total + a * b
    assert total == alg.one()


def test_splitting_constants():
    alg = scalars()
    row = check_unimodular(alg, [2, 3])
    split = compute_splitting(row)
    assert row.entries[0] * split.entries[0] + row.entries[1] * split.entries[1] == alg.one()


def test_splitting_leading_one():
    alg = sphere()
    row = check_unimodular(alg, [alg.one(), alg.var("x")])
    split = compute_splitting(row)
    assert [str(e) for e in split.entries] == ["1", "0"]


def test_splitting_row_reduces_its_sum_once(monkeypatch):
    alg = sphere()
    x, y, z = alg.gens()
    row = UnimodularRow(alg, (x, y, z))
    calls = []
    normal_form = alg.gb.normal_form
    monkeypatch.setattr(alg.gb, "normal_form", lambda f: calls.append(f) or normal_form(f))
    SplittingRow(row, (x, y, z))
    assert len(calls) == 1


def test_row_from_witness_rejects_bad_witness():
    alg = scalars()
    with pytest.raises(NotUnimodular):
        row_from_witness(alg, [2, 4], [1, 1])


# -- elementary words ---------------------------------------------------------------


def test_apply_single_generator():
    alg = sphere()
    a, b = alg.var("x"), alg.var("y")
    row, _ = row_from_witness(
        alg, [alg.one(), b], [alg.one(), alg.zero()]
    )
    lam = alg.var("z")
    word = ElementaryWord(2, (ElementaryGen(0, 1, lam),))
    moved = apply_word(row, word)
    assert moved.entries == (alg.one(), b + lam * alg.one())


def test_apply_empty_word():
    alg = scalars()
    row = check_unimodular(alg, [3, 4])
    assert apply_word(row, ElementaryWord(2)).entries == row.entries


def test_swap_word_matches_matrix_oracle():
    # Oracle: multiply the three 2x2 elementary matrices by hand; the
    # product is [[0, 1], [-1, 0]], sending (a, b) to (-b, a).
    alg = sphere()
    one = alg.one()
    word = ElementaryWord(
        2, (ElementaryGen(0, 1, one), ElementaryGen(1, 0, -one), ElementaryGen(0, 1, one))
    )
    m = word.matrix(alg)
    assert m[0][0].is_zero() and m[1][1].is_zero()
    assert m[0][1] == one and m[1][0] == -one
    row, _ = row_from_witness(alg, [alg.var("x"), one], [alg.zero(), one])
    assert apply_word(row, word).entries == (-one, alg.var("x"))


def test_word_shape_mismatch():
    alg = scalars()
    row = check_unimodular(alg, [1, 2])
    with pytest.raises(ShapeError):
        apply_word(row, ElementaryWord(3))


def test_word_concat_is_action_composition():
    alg = sphere()
    one = alg.one()
    w1 = ElementaryWord(3, (ElementaryGen(0, 1, alg.var("x")),))
    w2 = ElementaryWord(3, (ElementaryGen(2, 0, -one), ElementaryGen(1, 2, alg.var("y"))))
    row = check_unimodular(alg, ["x", "y", "z"])
    both = apply_word(row, w1.concat(w2))
    stepped = apply_word(apply_word(row, w1), w2)
    assert both.entries == stepped.entries


def test_word_inverse():
    alg = sphere()
    w = ElementaryWord(
        3,
        (
            ElementaryGen(0, 1, alg.var("x")),
            ElementaryGen(1, 2, alg.var("z") - alg.one()),
            ElementaryGen(2, 0, alg.element(3)),
        ),
    )
    row = check_unimodular(alg, ["x", "y", "z"])
    back = apply_word(apply_word(row, w), w.inverse())
    assert back.entries == row.entries


def test_word_determinant_is_one():
    alg = sphere()
    w = ElementaryWord(
        3,
        (
            ElementaryGen(0, 1, alg.var("x") * alg.var("y")),
            ElementaryGen(2, 1, -alg.var("z")),
            ElementaryGen(1, 0, alg.element(2)),
        ),
    )
    assert w.determinant(alg) == alg.one()


def test_unimodularity_is_elementary_invariant():
    alg = sphere()
    row = check_unimodular(alg, ["x", "y", "z"])
    word = ElementaryWord(
        3, (ElementaryGen(0, 2, alg.var("y")), ElementaryGen(1, 0, -alg.one()))
    )
    moved = apply_word(row, word)
    assert check_unimodular(alg, moved.entries).verified


# -- Mennicke-Newman -----------------------------------------------------------------


def assert_mn_contract(u, v, result):
    parent = u.parent
    one = parent.one()
    mu = apply_word(u, result.word_u)
    mv = apply_word(v, result.word_v)
    assert mu.entries == result.u_final.entries
    assert mv.entries == result.v_final.entries
    assert mu.entries[0] + mv.entries[0] == one
    assert mu.entries[1:] == mv.entries[1:] == result.tail
    x = result.x
    for i in range(1, len(u.entries)):
        um, vm = result.u_mid[i], result.v_mid[i]
        d = um - vm
        assert um - x * d == vm + (one - x) * d == result.tail[i - 1]


def test_mn_worked_example():
    alg = scalars()
    u = check_unimodular(alg, [2, 3])
    v = check_unimodular(alg, [5, 7])
    result = mennicke_newman(u, v)
    assert_mn_contract(u, v, result)
    # tail (3, 7) is already unimodular, so no shrink generators appear and
    # the deterministic lift of 6 over <3, 7> pins x.
    assert result.x == alg.element(-4)
    assert result.tail == (alg.element(-13),)


def test_mn_shrink_case():
    alg = scalars()
    u = check_unimodular(alg, [1, 0])
    result = mennicke_newman(u, u)
    assert_mn_contract(u, u, result)
    assert result.u_final.entries[0] + result.v_final.entries[0] == alg.one()


def test_mn_universal_pair():
    vt = vtilde_ring(4, RATIONALS)
    u, v = vt.x_row(), vt.u_row()
    result = mennicke_newman(u, v)
    assert_mn_contract(u, v, result)


def test_mn_shrink_budget_bounds_the_search():
    # Both tails vanish at x = 0, so the shrink step must move them.  The
    # first candidate, 1, fails in every slot; the second, -1, succeeds.
    alg = make_algebra(RATIONALS, ["x"], [])
    u = check_unimodular(alg, [1, "1/3*x^3 - 3/2*x^2 + 7/6*x"])
    v = check_unimodular(alg, [1, "-2/3*x^3 + 3*x^2 - 10/3*x"])
    with pytest.raises(ShrinkFailed, match="budget 1; raise the budget or change the seed"):
        mennicke_newman(u, v, shrink_budget=1)
    assert_mn_contract(u, v, mennicke_newman(u, v, shrink_budget=2))


def test_shrink_pool_has_no_repeats():
    # Over k every draw is a constant from -6 to 6, so 200 draws hold 13
    # distinct candidates; a repeat would only retry the same assignments.
    pool = list(_shrink_pool(scalars(), 0, 200))
    assert len(pool) == 13
    assert len({c.rep for c in pool}) == len(pool)
    pool = list(_shrink_pool(vtilde_ring(2, RATIONALS).algebra, 0, 200))
    assert len({c.rep for c in pool}) == len(pool) == 169
    assert pool[:2] == [pool[0].parent.one(), -pool[0].parent.one()]


def test_shrink_assignments_try_all_equal_then_each_slot():
    # Per candidate: the candidate in every slot, then in one slot at a time
    # with zeros elsewhere.
    alg = scalars()
    pool = list(_shrink_pool(alg, 0, 3))
    assert len(pool) > 1
    z = alg.zero()
    expected = [a for c in pool for a in ([c] * 3, [c, z, z], [z, c, z], [z, z, c])]
    assert list(_shrink_assignments(alg, 3, 0, 3)) == expected


def test_shrink_search_draws_only_what_it_tries(monkeypatch):
    # The tail of (1, 0) + (1, 0) is (0, 0); the first assignment, 1 in
    # every slot, already makes it unimodular, so only that candidate, the
    # first draw, is drawn.
    real_draws = rows._shrink_draws
    drawn = []

    def counting_draws(parent, seed):
        for cand in real_draws(parent, seed):
            drawn.append(cand)
            yield cand

    monkeypatch.setattr(rows, "_shrink_draws", counting_draws)
    alg = scalars()
    u = check_unimodular(alg, [1, 0])
    result = mennicke_newman(u, u)
    assert_mn_contract(u, u, result)
    assert drawn == [alg.one()]


@pytest.mark.parametrize("budget", [0, -1, -3])
def test_mn_rejects_a_budget_below_one(budget):
    alg = make_algebra(RATIONALS, ["x"], [])
    u = check_unimodular(alg, [1, "x"])
    with pytest.raises(ConfigError):
        mennicke_newman(u, u, shrink_budget=budget)


def test_mn_rejects_unverified():
    alg = scalars()
    bare = UnimodularRow(alg, (alg.element(2), alg.element(3)))
    good = check_unimodular(alg, [5, 7])
    with pytest.raises(NotUnimodular):
        mennicke_newman(bare, good)


# -- van der Kallen addition ----------------------------------------------------------


def assert_vdk_sum(u, v):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = vdk_add(u, v)
    alg = u.parent
    assert result.row.verified
    x = result.x
    assert result.row.entries[0] == x * (alg.one() - x)
    total = alg.zero()
    for a, b in zip(result.row.entries, result.splitting.entries):
        total = total + a * b
    assert total == alg.one()


def test_vdk_worked_example():
    alg = scalars()
    assert_vdk_sum(check_unimodular(alg, [2, 3]), check_unimodular(alg, [5, 7]))


def test_vdk_universal_pair_vtilde3():
    # The sum's witness has thousands of terms; verifying it is a normal
    # form that a rescanning reducer could not finish in minutes.
    vt = vtilde_ring(3, RATIONALS)
    assert_vdk_sum(vt.x_row(), vt.u_row())


def test_vdk_dimension_warning():
    # The hypothesis dim A <= 2n - 4 is recorded on the sum, not warned about.
    vt = vtilde_ring(4, RATIONALS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not vdk_add(vt.x_row(), vt.basepoint_row()).dimension_ok
        alg = scalars()
        assert vdk_add(check_unimodular(alg, [2, 3]), check_unimodular(alg, [5, 7])).dimension_ok


def test_vdk_words_certify_orbit_moves():
    alg = scalars()
    u = check_unimodular(alg, [3, 4])
    v = check_unimodular(alg, [1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = vdk_add(u, v)
    moved = apply_word(u, result.word_u)
    cert = OrbitCertificate(u, moved, result.word_u)
    assert verify_certificate(cert)


def test_vdk_add_builds_no_basis_of_the_moved_rows(monkeypatch):
    # The splittings of (x, a) and (1-x, a) are the input rows' own, moved
    # along the words; no basis of the moved rows is asked for.
    vt = vtilde_ring(2, RATIONALS)
    for u, v in ((vt.x_row(), vt.u_row()), (check_unimodular(sphere(), ["x", "y", "z"]),
                                             check_unimodular(sphere(), ["y", "z", "x"]))):
        mn = mennicke_newman(u, v)
        assert mn.u_final.entries != u.entries and mn.v_final.entries != v.entries
        asked = []

        def recording(ideal, order=None):
            asked.append(ideal)
            return groebner_basis(ideal, order)

        monkeypatch.setattr(rows, "groebner_basis", recording)
        result = vdk_add(u, v)
        monkeypatch.undo()
        alg = u.parent
        assert alg.ideal_with(u.entries) in asked and alg.ideal_with(v.entries) in asked
        assert alg.ideal_with(mn.u_final.entries) not in asked
        assert alg.ideal_with(mn.v_final.entries) not in asked
        assert (result.word_u, result.word_v) == (mn.word_u, mn.word_v)


def test_vdk_q_odd_2_witness_sizes():
    # (x1, x2, x3) + (y1, y2, y3) on k[Q_5]: with two fresh Bezout lifts the
    # witness had [19 565, 22 389, 13 170] terms and the addition took about
    # 6 s; with the moved splittings it is pinned here.
    alg = build_q_odd(2, RATIONALS).algebra
    xs = [alg.var(f"x{i}") for i in (1, 2, 3)]
    ys = [alg.var(f"y{i}") for i in (1, 2, 3)]
    u, _ = row_from_witness(alg, xs, ys)
    v, _ = row_from_witness(alg, ys, xs)
    result = vdk_add(u, v)
    assert [len(e.rep.terms) for e in result.row.entries] == [165, 49, 102]
    assert [len(e.rep.terms) for e in result.splitting.entries] == [2809, 1025, 3232]


# -- certificates -----------------------------------------------------------------------


def test_certificate_empty_word():
    alg = scalars()
    row = check_unimodular(alg, [1, 2])
    assert verify_certificate(OrbitCertificate(row, row, ElementaryWord(2)))


def test_certificate_tampering_detected():
    alg = scalars()
    row = check_unimodular(alg, [1, 2])
    word = ElementaryWord(2, (ElementaryGen(0, 1, alg.element(3)),))
    target = apply_word(row, word)
    good = OrbitCertificate(row, target, word)
    assert verify_certificate(good)
    bad_word = ElementaryWord(2, (ElementaryGen(0, 1, alg.element(4)),))
    assert not verify_certificate(OrbitCertificate(row, target, bad_word))


# -- randomized properties ---------------------------------------------------------


from hypothesis import assume, given, seed, settings, strategies as st  # noqa: E402

from umrow.groebner import groebner_basis  # noqa: E402

nonzero_rows = st.lists(
    st.integers(-9, 9), min_size=2, max_size=4
).filter(lambda vs: any(vs))


@given(values=nonzero_rows)
def test_splitting_identity_random(values):
    alg = scalars()
    row = check_unimodular(alg, values)
    split = compute_splitting(row)
    total = alg.zero()
    for a, b in zip(row.entries, split.entries):
        total = total + a * b
    assert total == alg.one()


@given(values=nonzero_rows, lams=st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_apply_word_preserves_unimodularity_random(values, lams):
    alg = scalars()
    row = check_unimodular(alg, values)
    n = len(values)
    word = ElementaryWord(
        n,
        (
            ElementaryGen(0, n - 1, alg.element(lams[0])),
            ElementaryGen(n - 1, 0, alg.element(lams[1])),
        ),
    )
    moved = apply_word(row, word)
    assert check_unimodular(alg, moved.entries).verified
    assert word.determinant(alg) == alg.one()


def _moved_splitting_cases():
    cases = []
    for field in (RATIONALS, prime_field(5)):
        alg = make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
        cases.append((f"sphere-{field}", check_unimodular(alg, ["x", "y", "z"])))
        cases.append((f"vtilde-2-{field}", vtilde_ring(2, field).x_row()))
    return cases


# (i, d, c, g): the generator e(i, j, c * gens[g]), or e(i, j, c) when g is
# past the last algebra generator, with i mod n and j the entry 1 + d mod
# (n - 1) places after i, so that j != i.
elementary_gens = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(-2, 2), st.integers(0, 10)),
    min_size=1, max_size=5,
)


@pytest.mark.parametrize("row", [row for _, row in _moved_splitting_cases()],
                         ids=[name for name, _ in _moved_splitting_cases()])
@seed(20)
@settings(max_examples=25, database=None, deadline=None)
@given(spec=elementary_gens)
def test_moved_splitting_splits_the_moved_row(row, spec):
    alg, n = row.parent, len(row)
    gens = alg.gens()
    word = ElementaryWord(n, tuple(
        ElementaryGen(i % n, (i + 1 + d % (n - 1)) % n, alg.element(c) * (gens[g] if g < len(gens) else alg.one()))
        for i, d, c, g in spec
    ))
    moved = apply_word(row, word)
    split = SplittingRow(moved, tuple(_move_splitting(compute_splitting(row).entries, word)))
    # Tamper with the last lambda: the pairing moves by -(row_i * s_j) of the
    # moved row and splitting, which is nonzero unless that product is.
    last = word.gens[-1]
    assume(not (moved[last.i] * split.entries[last.j]).is_zero())
    tampered = ElementaryWord(n, word.gens[:-1] + (ElementaryGen(last.i, last.j, last.lam + 1),))
    with pytest.raises(NotUnimodular):
        SplittingRow(moved, tuple(_move_splitting(compute_splitting(row).entries, tampered)))
