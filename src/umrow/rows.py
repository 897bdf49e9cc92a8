"""Unimodular rows, splittings, elementary words, the Mennicke-Newman
procedure and van der Kallen's addition, all with exact certificate
verification.

Action convention, fixed once for the whole package: words act on the right
of row vectors and the generator e(i, j, lam) adds lam * (entry i) to entry j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .algebra import Algebra, AlgebraElement
from .errors import ConfigError, NotInIdeal, NotUnimodular, RingMismatch, ShapeError, ShrinkFailed
from .fields import RATIONALS
from .poly import PolyRing, _is_int, _listed

# Shrink candidates ``mennicke_newman`` tries before it gives up, unless told.
SHRINK_BUDGET = 200


@dataclass(frozen=True)
class UnimodularRow:
    """A row over an algebra; ``verified`` records a passed unimodularity
    check (1 lies in the ideal generated by the entries)."""

    parent: Algebra
    entries: tuple
    verified: bool = False

    def __post_init__(self):
        _require_tuple(self.entries, "row entries")
        if len(self.entries) < 2:
            raise ShapeError("rows must have length at least 2")
        for e in self.entries:
            if e.parent != self.parent:
                raise RingMismatch("row entry outside the parent algebra")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class SplittingRow:
    """Coefficients witnessing unimodularity: sum(row_i * entry_i) = 1."""

    row: UnimodularRow
    entries: tuple

    def __post_init__(self):
        _require_tuple(self.entries, "splitting entries")
        if len(self.entries) != len(self.row.entries):
            raise ShapeError("splitting length differs from row length")
        parent = self.row.parent
        if parent.dot(self.row.entries, self.entries) != parent.one():
            raise NotUnimodular("proposed splitting does not sum to 1")


def _require_tuple(values, what: str):
    """Refuse ``values`` unless a tuple: a frozen value type holding a list
    is unhashable, and one holding an iterator is emptied by its own check."""
    if not isinstance(values, tuple):
        raise ShapeError(f"{what} must be a tuple, got {type(values).__name__}")


def _elements(parent: Algebra, values, what: str) -> tuple:
    """``values``, if a list or tuple (``"12"`` is not the row (1, 2)), as
    elements of ``parent``."""
    return tuple(parent.element(v) for v in _listed(values, object, what))


def check_unimodular(parent: Algebra, entries) -> UnimodularRow:
    """Verify 1 in <entries> (modulo the relations) and return the row.  The
    row is built, and its shape checked, before any basis is; it is returned
    only once the check has passed."""
    row = UnimodularRow(parent, _elements(parent, entries, "row entries"), verified=True)
    if not parent._unit_ideal(row.entries):
        raise NotUnimodular(f"1 is not in the ideal generated by {[str(e) for e in row.entries]}")
    return row


def row_from_witness(parent: Algebra, entries, witness):
    """Build a verified row from an explicit splitting; cheaper than a
    Groebner computation when the witness is already known."""
    row = UnimodularRow(parent, _elements(parent, entries, "row entries"), verified=True)
    return row, SplittingRow(row, _elements(parent, witness, "witness entries"))


def compute_splitting(row: UnimodularRow) -> SplittingRow:
    """Deterministic splitting read off the Bezout certificate for 1 by
    ``Algebra._lift``, which drops the coefficients on the relations.  The
    ``SplittingRow`` built from it is the one check that it sums to 1.
    The row and its splitting are the row's point of the odd quadric (the
    Jouanolou device): entries x and splitting y with sum(x_i y_i) = 1,
    whose projection to x recovers the row.
    """
    try:
        return SplittingRow(row, tuple(row.parent._lift(1, row.entries)))
    except NotInIdeal:
        raise NotUnimodular("row is not unimodular") from None


@dataclass(frozen=True)
class ElementaryGen:
    """e_{ij}(lam) = I + lam * E_{ij}; adds lam * (entry i) to entry j."""

    i: int
    j: int
    lam: AlgebraElement

    def __post_init__(self):
        i, j = self.i, self.j
        if not (_is_int(i) and _is_int(j)) or i == j or i < 0 or j < 0:
            raise ShapeError(f"bad elementary indices ({i!r}, {j!r})")


@dataclass(frozen=True)
class ElementaryWord:
    """An ordered product of elementary generators acting on rows of a
    fixed length."""

    n: int
    gens: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 2:
            raise ShapeError(f"words act on rows of length at least 2, got {self.n!r}")
        _require_tuple(self.gens, "word generators")
        for g in self.gens:
            if not isinstance(g, ElementaryGen):
                raise ShapeError(f"word generators must be ElementaryGen, got {g!r}")
            if g.i >= self.n or g.j >= self.n:
                raise ShapeError(f"generator indices exceed row length {self.n}")

    def __len__(self):
        return len(self.gens)

    def inverse(self) -> "ElementaryWord":
        return ElementaryWord(
            self.n, tuple(ElementaryGen(g.i, g.j, -g.lam) for g in reversed(self.gens))
        )

    def matrix(self, parent: Algebra):
        """The product matrix: row r is the unit row e_r moved by the word."""
        one, zero = parent.one(), parent.zero()
        units = ([one if c == r else zero for c in range(self.n)] for r in range(self.n))
        return tuple(tuple(apply_word_entries(e, self)) for e in units)

    def determinant(self, parent: Algebra) -> AlgebraElement:
        return _determinant(self.matrix(parent), parent)


def _determinant(matrix, parent: Algebra) -> AlgebraElement:
    """Cofactor expansion with memoization on the live column set."""
    n = len(matrix)
    memo: dict = {}

    def det(row: int, cols: tuple) -> AlgebraElement:
        if row == n:
            return parent.one()
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = parent.zero()
        for pos, c in enumerate(cols):
            entry = matrix[row][c]
            if entry.is_zero():
                continue
            sub = det(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            acc = acc - term if pos % 2 else acc + term
        memo[key] = acc
        return acc

    return det(0, tuple(range(n)))


def _apply_gen(entries: list, g: ElementaryGen):
    """The one elementary action, in place: entry j += lam * entry i."""
    entries[g.j] = entries[g.j] + g.lam * entries[g.i]


def apply_word_entries(entries, word: ElementaryWord):
    out = list(entries)
    for g in word.gens:
        _apply_gen(out, g)
    return out


def _move_splitting(entries, word: ElementaryWord):
    """The column action of the inverse word: if s splits a row r, the result
    splits r * matrix(word), since e(i, j, lam) adds lam * r_i to r_j and
    s_i - lam * s_j keeps sum(r_k s_k)."""
    out = list(entries)
    for g in word.gens:
        out[g.i] = out[g.i] - g.lam * out[g.j]
    return out


def apply_word(row: UnimodularRow, word: ElementaryWord) -> UnimodularRow:
    """Right action of the word's matrix; unimodularity is preserved by
    elementary moves, so the verified flag carries over."""
    if word.n != len(row.entries):
        raise ShapeError(f"word width {word.n} != row length {len(row.entries)}")
    return UnimodularRow(row.parent, tuple(apply_word_entries(row.entries, word)), row.verified)


@dataclass(frozen=True)
class OrbitCertificate:
    """A claim that source * matrix(word) = target, checkable by replay."""

    source: UnimodularRow
    target: UnimodularRow
    word: ElementaryWord


def verify_certificate(cert: OrbitCertificate) -> bool:
    """Replay the raw generators on the source row and compare entrywise.
    No macro-level knowledge is used here."""
    if cert.word.n != len(cert.source.entries) or len(cert.source.entries) != len(
        cert.target.entries
    ):
        return False
    if cert.source.parent != cert.target.parent:
        return False
    result = apply_word_entries(cert.source.entries, cert.word)
    return all(a == b for a, b in zip(result, cert.target.entries))


# -- Mennicke-Newman ---------------------------------------------------------


@dataclass(frozen=True)
class MNResult:
    """Outcome of the Mennicke-Newman procedure.

    ``word_u`` moves u to (x, tail) and ``word_v`` moves v to (1-x, tail);
    ``u_mid``/``v_mid`` are the rows right after the first-coordinate
    adjustment, before the tails are merged.
    """

    x: AlgebraElement
    tail: tuple
    word_u: ElementaryWord
    word_v: ElementaryWord
    u_final: UnimodularRow
    v_final: UnimodularRow
    u_mid: tuple
    v_mid: tuple


def _shrink_draws(parent: Algebra, seed: int):
    """Deterministic candidate coefficients: 1, -1, the algebra generators,
    then seeded random polynomials of degree at most 2, without end."""
    yield parent.one()
    yield -parent.one()
    yield from parent.gens()
    rng = random.Random(seed)
    nvars = parent.ring.nvars
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * nvars
            for _ in range(rng.randint(0, 2)):
                if nvars:
                    mono[rng.randrange(nvars)] += 1
            coeff = rng.choice([-2, -1, 1, 2])
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + coeff
        yield parent.element(parent.ring.from_terms(terms))


def _shrink_pool(parent: Algebra, seed: int, budget: int):
    """The distinct candidates among the first ``budget`` draws, in the order
    drawn: a repeat would only retry the same assignments.  Each is drawn
    only when the search asks for it, so a search that succeeds early makes
    no further normal form."""
    seen: set = set()
    for cand in islice(_shrink_draws(parent, seed), budget):
        if cand.rep not in seen:
            seen.add(cand.rep)
            yield cand


def _check_shrink(seed, budget) -> None:
    """The rule for the shrink search's arguments: a seed that is not an
    int raises ``ConfigError`` (``random.Random(None)`` would seed from the
    OS, and its draws would not repeat), and so does a budget that is not a
    positive int.  ``mennicke_newman`` and ``SuiteConfig`` both read it."""
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not _is_int(budget):
        raise ConfigError(f"shrink budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ConfigError("shrink budget must be positive")


def _shrink_assignments(parent: Algebra, slots: int, seed: int, budget: int):
    """All-equal assignments first, then single-slot ones, per candidate."""
    zero = parent.zero()
    for cand in _shrink_pool(parent, seed, budget):
        yield [cand] * slots
        for s in range(slots):
            assignment = [zero] * slots
            assignment[s] = cand
            yield assignment


def mennicke_newman(
    u: UnimodularRow,
    v: UnimodularRow,
    *,
    seed: int = 0,
    shrink_budget: int = SHRINK_BUDGET,
) -> MNResult:
    """Move u and v by explicit elementary words to the shapes (x, a) and
    (1-x, a) with a common tail a.

    Every move is a generator, recorded in its word and then applied to the
    row as recorded (a zero multiplier is no move and is not recorded), so
    the rows returned are the words' images of u and v and one check of
    the shapes covers the words.

    Step one adds multiples of u1*v1 to the tails until the combined tail is
    unimodular (skipped when it already is; the search is a seeded,
    deterministic semidecision over at most ``shrink_budget`` candidate
    coefficients, and ``ShrinkFailed`` ends it).  ``_check_shrink`` reads
    the seed and the budget first.
    Step two subtracts a Bezout combination of u1+v1-1 from the first
    coordinates.  The final cross-adjustment produces the common tail.
    """
    _check_shrink(seed, shrink_budget)
    parent = u.parent
    if v.parent != parent:
        raise RingMismatch("rows belong to different algebras")
    n = len(u.entries)
    if len(v.entries) != n:
        raise ShapeError("rows have different lengths")
    if not (u.verified and v.verified):
        raise NotUnimodular("both rows must be verified before addition")

    ue, ve = list(u.entries), list(v.entries)
    gens_u: list[ElementaryGen] = []
    gens_v: list[ElementaryGen] = []

    def move(entries, gens, i, j, lam):
        if not lam.is_zero():
            gens.append(ElementaryGen(i, j, lam))
            _apply_gen(entries, gens[-1])

    # Step 1: make (u_2..u_n, v_2..v_n) unimodular by adding multiples of
    # u1*v1, which is an elementary move on each row separately.
    if not parent._unit_ideal(ue[1:] + ve[1:]):
        for assignment in _shrink_assignments(parent, 2 * (n - 1), seed, shrink_budget):
            tried_u, tried_v, moves_u, moves_v = list(ue), list(ve), [], []
            for i in range(1, n):
                move(tried_u, moves_u, 0, i, assignment[i - 1] * ve[0])
                move(tried_v, moves_v, 0, i, assignment[n - 2 + i] * ue[0])
            if parent._unit_ideal(tried_u[1:] + tried_v[1:]):
                ue, ve = tried_u, tried_v
                gens_u += moves_u
                gens_v += moves_v
                break
        else:
            raise ShrinkFailed(
                f"no shrink coefficients found within budget {shrink_budget}; "
                "raise the budget or change the seed"
            )

    # Step 2: write u1 + v1 - 1 over the combined tail and subtract (checked
    # once, by the shapes at the end).
    coeffs = parent._lift(ue[0] + ve[0] - parent.one(), ue[1:] + ve[1:])
    for i in range(1, n):
        move(ue, gens_u, i, 0, -coeffs[i - 1])
        move(ve, gens_v, i, 0, -coeffs[n - 2 + i])
    u_mid, v_mid = tuple(ue), tuple(ve)

    # Step 3: merge the tails around the pivot first coordinates.
    for i in range(1, n):
        d = ue[i] - ve[i]
        move(ue, gens_u, 0, i, -d)
        move(ve, gens_v, 0, i, d)

    x, tail = ue[0], tuple(ue[1:])
    if x + ve[0] != parent.one() or tail != tuple(ve[1:]):
        raise AssertionError("the words do not move u and v to (x, a) and (1-x, a)")
    return MNResult(
        x,
        tail,
        ElementaryWord(n, tuple(gens_u)),
        ElementaryWord(n, tuple(gens_v)),
        UnimodularRow(parent, tuple(ue), verified=True),
        UnimodularRow(parent, tuple(ve), verified=True),
        u_mid,
        v_mid,
    )


def _sum_row_and_witness(x, tail, cs, ds):
    """van der Kallen's sum row (x(1-x), a) and its witness
    (c0 d0, x c0 d_i + c_i), from a splitting c of (x, a) and d of (1-x, a).
    The one formula for both: ``_product_lemma`` evaluates it on free
    symbols and ``_product_splitting`` on algebra elements."""
    c0, d0 = cs[0], ds[0]
    x_c0 = x * c0
    row = (x * (1 - x),) + tuple(tail)
    return row, (c0 * d0,) + tuple(x_c0 * d_i + c_i for c_i, d_i in zip(cs[1:], ds[1:]))


@lru_cache(maxsize=32)  # row lengths; the suites and the benchmark use at most 8
def _product_lemma(n: int) -> bool:
    """Whether, for rows of length n, the sum witness pairs with the sum row
    to x c0 r_v + r_u + 1, where r_u = (x, a).c - 1 and r_v = (1-x, a).d - 1
    are the residuals of the two splittings.  Checked as an exact identity
    in the free ring over Q on x, a_1..a_{n-1}, c_0..c_{n-1}, d_0..d_{n-1};
    its coefficients are integers, so it holds in every commutative ring,
    and the field does not enter the cache key."""
    names = ["x"] + [f"a{i}" for i in range(1, n)]
    names += [f"c{i}" for i in range(n)] + [f"d{i}" for i in range(n)]
    ring = PolyRing(RATIONALS, names)
    x, *symbols = ring.gens()
    tail, cs, ds = tuple(symbols[: n - 1]), symbols[n - 1 : 2 * n - 1], symbols[2 * n - 1 :]
    one = ring.one()
    r_u = ring.dot((x,) + tail, cs) - one
    r_v = ring.dot((one - x,) + tail, ds) - one
    row, witness = _sum_row_and_witness(x, tail, cs, ds)
    return ring.dot(row, witness) - one == x * cs[0] * r_v + r_u


def _product_splitting(su: SplittingRow, sv: SplittingRow) -> SplittingRow:
    """The splitting of the sum row (x(1-x), a) built from a splitting ``su``
    of (x, a) and ``sv`` of (1-x, a).

    Both residuals are zero, as ``su`` and ``sv`` are checked splittings, so
    ``_product_lemma`` certifies the witness once the premises hold: one
    parent and length, first entries adding to 1 and equal tails.  No dot
    over the sum row is formed, and this is the one place a ``SplittingRow``
    is made without the check of its ``__post_init__``.
    """
    if not (isinstance(su, SplittingRow) and isinstance(sv, SplittingRow)):
        raise ShapeError(
            "a product of splittings needs two SplittingRow, got "
            f"{type(su).__name__} and {type(sv).__name__}"
        )
    parent = su.row.parent
    if sv.row.parent != parent:
        raise RingMismatch("splittings belong to different algebras")
    n = len(su.entries)
    if len(sv.entries) != n:
        raise ShapeError("splittings have different lengths")
    x, tail = su.row.entries[0], su.row.entries[1:]
    if x + sv.row.entries[0] != parent.one():
        raise ShapeError("the rows' first entries do not add to 1")
    if tail != sv.row.entries[1:]:
        raise ShapeError("the rows' tails differ")
    if not _product_lemma(n):
        raise AssertionError(f"the factored identity of the sum witness fails at length {n}")
    entries, witness = _sum_row_and_witness(x, tail, su.entries, sv.entries)
    split = object.__new__(SplittingRow)
    object.__setattr__(split, "row", UnimodularRow(parent, entries, verified=True))
    object.__setattr__(split, "entries", witness)
    return split


@dataclass(frozen=True)
class VdkSum:
    """Sum row (x(1-x), a_2, ..., a_n) with the words that produced it.
    ``dimension_ok`` records van der Kallen's hypothesis dim A <= 2n - 4;
    the addition may succeed without it, and the row is verified either way."""

    row: UnimodularRow
    splitting: SplittingRow
    word_u: ElementaryWord
    word_v: ElementaryWord
    x: AlgebraElement
    tail: tuple
    dimension_ok: bool


def vdk_add(
    u: UnimodularRow,
    v: UnimodularRow,
    *,
    seed: int = 0,
    shrink_budget: int = SHRINK_BUDGET,
) -> VdkSum:
    """Orbit-level addition: [u] + [v] = [x(1-x), a_2, ..., a_n].

    The sum's witness is the product of splittings of (x, a) and (1-x, a),
    so no basis of the sum row is computed.  Those two splittings are the
    input rows' own, from ``compute_splitting(u)`` and ``compute_splitting(v)``
    (whose bases ``check_unimodular`` has usually cached), moved along the
    Mennicke-Newman words ``word_u`` and ``word_v``: no basis of (x, a) or
    (1-x, a) is computed either.  Each moved splitting is checked modulo the
    relations, and the witness is certified from the two by the factored
    identity of ``_product_splitting``, with no dot over the sum row.
    """
    dimension_ok = u.parent.dimension <= 2 * len(u.entries) - 4
    mn = mennicke_newman(u, v, seed=seed, shrink_budget=shrink_budget)
    su = SplittingRow(mn.u_final, tuple(_move_splitting(compute_splitting(u).entries, mn.word_u)))
    sv = SplittingRow(mn.v_final, tuple(_move_splitting(compute_splitting(v).entries, mn.word_v)))
    split = _product_splitting(su, sv)
    return VdkSum(split.row, split, mn.word_u, mn.word_v, mn.x, mn.tail, dimension_ok)
