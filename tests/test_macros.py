from __future__ import annotations

import pytest

from umrow.algebra import make_algebra
from umrow.errors import BadCertificate, ShapeError
from umrow.fields import RATIONALS
from umrow.macros import (
    add_move,
    congruent_unit_scale,
    macro_expand,
    scale_unit_pair,
    swap_sign,
    whitehead_mod_coordinate,
)
from umrow.rows import apply_word, check_unimodular, row_from_witness


def generic_two_row():
    # A symbolic length-2 row with a declared splitting: a*p + b*q = 1.
    alg = make_algebra(RATIONALS, ["a", "b", "p", "q"], ["a*p + b*q - 1"])
    row, _ = row_from_witness(alg, [alg.var("a"), alg.var("b")], [alg.var("p"), alg.var("q")])
    return alg, row


def generic_three_row():
    alg = make_algebra(
        RATIONALS, ["a", "b", "c", "p", "q", "r"], ["a*p + b*q + c*r - 1"]
    )
    row, _ = row_from_witness(
        alg,
        [alg.var("a"), alg.var("b"), alg.var("c")],
        [alg.var("p"), alg.var("q"), alg.var("r")],
    )
    return alg, row


def test_add_is_single_generator():
    alg, row = generic_two_row()
    word = macro_expand(add_move(0, 1, alg.var("p")), row)
    assert len(word.gens) == 1
    moved = apply_word(row, word)
    assert moved.entries[1] == alg.var("b") + alg.var("p") * alg.var("a")


def test_swap_sign_on_symbolic_row():
    alg, row = generic_two_row()
    word = macro_expand(swap_sign(0, 1), row)
    assert len(word.gens) == 3
    moved = apply_word(row, word)
    assert moved.entries == (-alg.var("b"), alg.var("a"))


def test_scale_unit_pair_on_laurent_unit():
    alg = make_algebra(
        RATIONALS, ["a", "b", "t", "t_inv"], ["a + b*t - 1", "t*t_inv - 1"]
    )
    row, _ = row_from_witness(
        alg, [alg.var("a"), alg.var("b")], [alg.one(), alg.var("t")]
    )
    word = macro_expand(scale_unit_pair(0, 1, alg.var("t"), alg.var("t_inv")), row)
    moved = apply_word(row, word)
    assert moved.entries[0] == alg.var("t") * alg.var("a")
    assert moved.entries[1] == alg.var("t_inv") * alg.var("b")


def test_scale_unit_pair_rejects_fake_inverse():
    alg, row = generic_two_row()
    with pytest.raises(BadCertificate):
        macro_expand(scale_unit_pair(0, 1, alg.var("a"), alg.var("b")), row)


def test_congruent_unit_scale_example():
    # Scaling the second slot of (x1, a) by 1 - x1 routes through slot 0.
    alg = make_algebra(RATIONALS, ["x1", "a", "w"], ["a*w + x1 - 1"])
    row, _ = row_from_witness(
        alg, [alg.var("x1"), alg.var("a")], [alg.one(), alg.var("w")]
    )
    macro = congruent_unit_scale(1, {0: -alg.one()})
    word = macro_expand(macro, row)
    moved = apply_word(row, word)
    assert moved.entries[0] == alg.var("x1")
    assert moved.entries[1] == (alg.one() - alg.var("x1")) * alg.var("a")


def test_congruent_unit_scale_inverse():
    alg = make_algebra(RATIONALS, ["x1", "a", "w"], ["a*w + x1 - 1"])
    u = alg.one() - alg.var("x1")
    # a*w = 1 - x1, so x1*(2 - x1) + (1-x1)*a*w = 1 splits the scaled row.
    row, _ = row_from_witness(
        alg,
        [alg.var("x1"), u * alg.var("a")],
        [alg.element(2) - alg.var("x1"), alg.var("w")],
    )
    macro = congruent_unit_scale(1, {0: -alg.one()}, invert=True, base=alg.var("a"))
    moved = apply_word(row, macro_expand(macro, row))
    assert moved.entries[1] == alg.var("a")


def test_congruent_unit_scale_inverse_needs_correct_base():
    alg = make_algebra(RATIONALS, ["x1", "a", "w"], ["a*w + x1 - 1"])
    row, _ = row_from_witness(
        alg, [alg.var("x1"), alg.var("a")], [alg.one(), alg.var("w")]
    )
    macro = congruent_unit_scale(1, {0: -alg.one()}, invert=True, base=alg.var("a"))
    with pytest.raises(BadCertificate):
        macro_expand(macro, row)


@pytest.mark.parametrize("slot", [5, -1])
def test_congruent_unit_scale_checks_certificate_slots(slot):
    alg, row = generic_two_row()
    with pytest.raises(ShapeError):
        macro_expand(congruent_unit_scale(0, {slot: alg.one()}), row)


def test_whitehead_mod_coordinate():
    # u = 1 - x1 and w = 1 - xn multiply to 1 - pivot when the pivot entry
    # is xn + (1 - xn) x1; the macro scales slots 0 and 1 by w and u.
    alg = make_algebra(
        RATIONALS,
        ["x1", "x2", "x3", "y1", "y2", "y3"],
        ["x1*y1 + x2*y2 + x3*y3 - 1"],
    )
    one = alg.one()
    x1, x3 = alg.var("x1"), alg.var("x3")
    pivot = x3 + (one - x3) * x1
    entries = [x1 * (one - x1), alg.var("x2") * (one - x1), pivot]
    row = check_unimodular(alg, entries)
    macro = whitehead_mod_coordinate(0, 1, 2, unit=one - x1, witness=one - x3, cofactor=-one)
    word = macro_expand(macro, row)
    assert len(word.gens) == 8
    moved = apply_word(row, word)
    assert moved.entries[0] == (one - x3) * entries[0]
    assert moved.entries[1] == (one - x1) * entries[1]
    assert moved.entries[2] == pivot
    assert (one - x1) * (one - x3) == one - pivot


def test_whitehead_rejects_bad_witness():
    alg = make_algebra(
        RATIONALS,
        ["x1", "x2", "x3", "y1", "y2", "y3"],
        ["x1*y1 + x2*y2 + x3*y3 - 1"],
    )
    one = alg.one()
    x1, x3 = alg.var("x1"), alg.var("x3")
    pivot = x3 + (one - x3) * x1
    row = check_unimodular(alg, [x1 * (one - x1), alg.var("x2") * (one - x1), pivot])
    macro = whitehead_mod_coordinate(0, 1, 2, unit=one - x1, witness=one - x1, cofactor=-one)
    with pytest.raises(BadCertificate):
        macro_expand(macro, row)


def test_macro_on_generic_three_row_preserves_other_slots():
    alg, row = generic_three_row()
    macro = congruent_unit_scale(0, {1: alg.var("p"), 2: -alg.var("q")})
    moved = apply_word(row, macro_expand(macro, row))
    u = alg.one() + alg.var("p") * alg.var("b") - alg.var("q") * alg.var("c")
    assert moved.entries[0] == u * alg.var("a")
    assert moved.entries[1] == alg.var("b")
    assert moved.entries[2] == alg.var("c")
