"""Certified macros over the elementary-generator vocabulary.

Each builder returns a :class:`MoveMacro` whose two closures sit side by
side: ``promise`` states the row transformation the move declares, and
``expand`` gives the word of raw generators that is meant to realize it.
``macro_expand`` checks the slots against the row, computes the promise
independently of the word, applies the word symbolically, and returns it
only if the two agree exactly in the parent algebra.  A macro whose
certificate data fails its defining identity raises ``BadCertificate``;
nothing is ever patched silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BadCertificate, ShapeError
from .rows import ElementaryGen, ElementaryWord, UnimodularRow, apply_word_entries


@dataclass(frozen=True)
class MoveMacro:
    """A named move on the row slots it reads or writes.

    ``promise(row)`` maps each slot the move changes to its new entry, and
    ``expand(row)`` lists the generators of the word that realizes it.
    """

    name: str
    slots: tuple
    promise: Callable
    expand: Callable


def add_move(i: int, j: int, lam) -> MoveMacro:
    """Entry j += lam * entry i."""

    def promise(row):
        return {j: row.entries[j] + lam * row.entries[i]}

    def expand(row):
        return [ElementaryGen(i, j, row.parent.element(lam))]

    return MoveMacro("add", (i, j), promise, expand)


def swap_sign(i: int, j: int) -> MoveMacro:
    """(a_i, a_j) -> (-a_j, a_i)."""

    def promise(row):
        return {i: -row.entries[j], j: row.entries[i]}

    def expand(row):
        one = row.parent.one()
        return [ElementaryGen(i, j, one), ElementaryGen(j, i, -one), ElementaryGen(i, j, one)]

    return MoveMacro("swap_sign", (i, j), promise, expand)


def scale_unit_pair(i: int, j: int, unit, unit_inv) -> MoveMacro:
    """(a_i, a_j) -> (u a_i, u^-1 a_j) for a unit u with certified inverse
    ``unit_inv``."""

    def promise(row):
        if unit * unit_inv != row.parent.one():
            raise BadCertificate("unit certificate does not invert exactly")
        return {i: unit * row.entries[i], j: unit_inv * row.entries[j]}

    def expand(row):
        one = row.parent.one()
        return [
            ElementaryGen(i, j, unit),
            ElementaryGen(j, i, -unit_inv),
            ElementaryGen(i, j, unit),
            ElementaryGen(i, j, -one),
            ElementaryGen(j, i, one),
            ElementaryGen(i, j, -one),
        ]

    return MoveMacro("scale_unit_pair", (i, j), promise, expand)


def congruent_unit_scale(i: int, certs, invert: bool = False, base=None) -> MoveMacro:
    """a_i -> u a_i where u = 1 + sum(c_k a_k) over the slots k named in
    ``certs``; with ``invert`` set the move undoes that scaling, and ``base``
    must then be the pre-image value of entry i."""
    certs = tuple(sorted(certs.items())) if isinstance(certs, dict) else tuple(certs)

    def promise(row):
        parent, entries = row.parent, row.entries
        u = parent.one()
        for k, c in certs:
            if k == i:
                raise BadCertificate("congruence certificate may not use the scaled slot")
            u = u + parent.element(c) * entries[k]
        if not invert:
            return {i: u * entries[i]}
        if base is None:
            raise BadCertificate("inverse scaling needs the pre-image value")
        if entries[i] != u * base:
            raise BadCertificate("entry is not the claimed multiple of the base")
        return {i: base}

    def expand(row):
        scaled = base if invert else row.entries[i]
        gens = []
        for k, c in certs:
            coeff = row.parent.element(c) * scaled
            gens.append(ElementaryGen(k, i, -coeff if invert else coeff))
        if invert:
            gens.reverse()
        return gens

    return MoveMacro("congruent_unit_scale", (i, *(k for k, _ in certs)), promise, expand)


def whitehead_mod_coordinate(i: int, j: int, pivot: int, unit, witness, cofactor) -> MoveMacro:
    """(a_i, a_j) -> (w a_i, u a_j), where u = ``unit`` and w = ``witness``
    satisfy u * w = 1 + cofactor * (pivot entry)."""
    u, w, c = unit, witness, cofactor

    def promise(row):
        entries = row.entries
        if u * w != row.parent.one() + c * entries[pivot]:
            raise BadCertificate("u*w != 1 + c*pivot")
        return {i: w * entries[i], j: u * entries[j]}

    def expand(row):
        a, b = row.entries[i], row.entries[j]
        one = row.parent.one()
        return [
            ElementaryGen(i, j, w),
            ElementaryGen(j, i, -u),
            ElementaryGen(pivot, i, c * a),
            ElementaryGen(i, j, w),
            ElementaryGen(pivot, j, c * b),
            ElementaryGen(i, j, -one),
            ElementaryGen(j, i, one),
            ElementaryGen(i, j, -one),
        ]

    return MoveMacro("whitehead_mod_coordinate", (i, j, pivot), promise, expand)


def macro_expand(macro: MoveMacro, row: UnimodularRow) -> ElementaryWord:
    """Expand ``macro`` against ``row`` and validate the expansion by
    applying it symbolically: the result must equal the macro's declared
    transformation entry by entry."""
    return _expand_checked(macro, row)[0]


def _expand_checked(macro: MoveMacro, row: UnimodularRow):
    """``macro_expand``'s word together with the entries its replay gave,
    so a caller that moves on to the new row need not replay it again."""
    n = len(row.entries)
    for idx in macro.slots:
        if not 0 <= idx < n:
            raise ShapeError(f"macro index {idx} out of range for length {n}")
    expected = list(row.entries)
    for idx, entry in macro.promise(row).items():
        expected[idx] = entry
    word = ElementaryWord(n, tuple(macro.expand(row)))
    got = apply_word_entries(row.entries, word)
    if any(a != b for a, b in zip(got, expected)):
        raise BadCertificate(
            f"{macro.name} expansion does not realize its declared transformation"
        )
    return word, got
