"""Multivariate division, Buchberger's algorithm with cofactor tracking,
and the ideal-level queries built on top of them.

Every Groebner basis has an exact cofactor matrix expressing each basis
element as a polynomial combination of the original generators; this is what
makes Bezout lifts and splittings exact rather than merely decidable.
``buchberger`` records how each element entered, and the rows are expanded
from those records on first read, so a basis that is only reduced against
never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heappop, heappush

from .errors import (
    DimensionOfZeroRing,
    InvalidDivisor,
    NotInIdeal,
    RingMismatch,
)
from .fields import _scalar
from .poly import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    _is_reduced,
    _lead_inverse,
    _reduce,
    _split_lead,
)


@dataclass(frozen=True)
class Ideal:
    """An ideal presented by an ordered list of generators."""

    ring: PolyRing
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ring:
                raise RingMismatch("generator outside the ambient ring")

    @staticmethod
    def of(ring: PolyRing, generators) -> "Ideal":
        return Ideal(ring, tuple(generators))


def divide_with_remainder(f: Polynomial, divisors, order: MonomialOrder | None = None):
    """Multivariate division: f = sum(q_i * d_i) + r with no term of r
    divisible by any divisor's leading term.  Divisor choice is first match
    in list order, which pins the output deterministically."""
    ring = f.ring
    order = ring.check_order(order or ring.order)
    divisors = list(divisors)
    for d in divisors:
        if d.ring != ring:
            raise RingMismatch("divisor outside the dividend's ring")
        if d.is_zero():
            raise InvalidDivisor("zero divisor")
    return _reduce(f, [_split_lead(d, order) for d in divisors], order)


def _combine_rows(ring: PolyRing, mults, rows, width: int):
    """sum(mults[t] * rows[t]) for cofactor rows of ``width`` entries: each
    entry is the dot product of the multipliers with that column of the
    rows.  Zero multipliers are dropped first, so they cost nothing."""
    live = [(m, row) for m, row in zip(mults, rows) if not m.is_zero()]
    mults = [m for m, _ in live]
    return [ring.dot(mults, [row[k] for _, row in live]) for k in range(width)]


class GroebnerBasis:
    """A reduced Groebner basis together with its cofactor matrix.

    ``cofactors[k][i]`` is the coefficient of ``generators[i]`` in the exact
    expansion of ``basis[k]``.  The rows are expanded on first read, from
    the steps ``buchberger`` recorded, and only for the steps the basis
    descends from.  Queries reduce by the split leads that ``buchberger``
    hands over, so no lead is split again here.
    """

    def __init__(self, ring, order, generators, steps, basis, leads, final):
        self.ring = ring
        self.order = order
        self.generators = tuple(generators)
        self.basis = tuple(basis)
        self._leads = tuple(leads)
        # steps[s] says how row s is made from earlier rows, with inv a
        # ``Scalar``: (index, inv) is generator ``index`` times inv, and
        # (shifts, quots, inv) is inv times
        # sum(m * row[t] for t, m in shifts) - sum(q * row[t] for t, q in quots).
        # basis[k] is row final[k].
        self._steps = steps
        self._final = tuple(final)

    @cached_property
    def cofactors(self):
        """The rows of the basis.  Only the steps the basis descends from
        are expanded, oldest first, each from the rows of its sources; the
        steps are then dropped."""
        ring, steps, ngen = self.ring, self._steps, len(self.generators)
        wanted = set(self._final)
        for s in reversed(range(len(steps))):  # a step's sources precede it
            if s in wanted and len(steps[s]) == 3:
                wanted.update(t for t, _ in steps[s][0] + steps[s][1])
        rows: dict = {}
        for s in sorted(wanted):
            if len(steps[s]) == 2:
                index, inv = steps[s]
                rows[s] = [ring.zero()] * ngen
                rows[s][index] = ring.const(inv)
                continue
            shifts, quots, inv = steps[s]
            neg_inv = -inv
            mults = [m.scale(inv) for _, m in shifts] + [q.scale(neg_inv) for _, q in quots]
            rows[s] = _combine_rows(ring, mults, [rows[t] for t, _ in shifts + quots], ngen)
        self._steps = None
        return tuple(tuple(rows[s]) for s in self._final)

    def is_unit_ideal(self) -> bool:
        # A constant's lead monomial is 1, packed 0, the least under every order.
        return len(self.basis) == 1 and self._leads[0][0] == 0

    # Both queries hand back f itself when no lead divides a term of it (as
    # for every f when the basis is empty): f is then its own remainder,
    # already canonical and immutable, and most products in an algebra are.
    # ``buchberger`` calls ``_reduce`` directly and never takes this path.

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatch("element outside the basis ring")
        if _is_reduced(f, self._leads):
            return f
        return _reduce(f, self._leads, self.order)[1]

    def normal_form_with_quotients(self, f: Polynomial):
        if f.ring != self.ring:
            raise RingMismatch("element outside the basis ring")
        if _is_reduced(f, self._leads):
            return [self.ring.zero()] * len(self.basis), f
        return _reduce(f, self._leads, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def lift(self, f: Polynomial):
        """Coefficients c with f = sum(c_i * generators[i]), exactly."""
        quots, rem = self.normal_form_with_quotients(f)
        if not rem.is_zero():
            raise NotInIdeal(f"{f} is not in the ideal")
        # f = sum(q_k * basis[k]), and basis[k] = sum(cofactors[k][i] * g_i).
        coeffs = _combine_rows(self.ring, quots, self.cofactors, len(self.generators))
        if self.ring.dot(coeffs, self.generators) != f:
            raise AssertionError("cofactor expansion failed to reproduce the element")
        return coeffs


def buchberger(ideal: Ideal, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Buchberger's algorithm with both pruning criteria and full cofactor
    tracking.  Pair selection is by the sugar strategy (Giovini, Mora, Niesi,
    Robbiano and Traverso, ISSAC 1991): pairs pop by (sugar, lcm degree, i,
    j), so the output is deterministic for a fixed input and order.  The
    sugar of a generator is its total degree, that of a pair the larger of
    sugar_k + deg(lcm) - deg(lead_k) over its two elements, and an S-pair
    remainder inherits its pair's sugar: on inhomogeneous input this keeps
    the degrees, and with them the cofactor rows, from drifting upward.

    No cofactor row is built here.  Each element's entry, and each tail
    reduction, records how its row is made from earlier rows (the extended
    basis of Becker and Weispfenning, GTM 141, computed lazily), and
    ``GroebnerBasis.cofactors`` expands the rows on first read.

    As soon as a constant enters the basis the unit ideal is recognized and
    {1} is returned immediately; {1} is the reduced basis in that case and
    its cofactor row is an exact Bezout certificate for 1."""
    ring = ideal.ring
    order = ring.check_order(order or ring.order)
    field = ring.field
    packing = ring.packing
    gens = ideal.generators

    basis: list[Polynomial] = []
    leads: list = []  # basis[k] split by ``_split_lead``
    sugars: list[int] = []  # the sugar of basis[k]
    # How each row is made, as ``GroebnerBasis`` reads it; until the tail
    # reduction, steps[k] is the step of basis[k].
    steps: list[tuple] = []
    # Pending pairs: a heap pops them in (sugar, lcm degree, i, j) order,
    # each entry carrying its lcm after that key, and the set answers the
    # chain criterion's membership test.
    queue: list = []
    pending: set = set()
    # The first lead that may divide each monomial, for every S-pair
    # reduction of this run: ``leads`` only grows while pairs are reduced.
    divisor_memo: dict = {}

    def enter(poly, sources, sugar):
        """The one way into the basis: ``poly`` made monic, its step recorded
        as ``sources`` and the inverse it was scaled by, its lead split once,
        and its sugar.  A constant returns the unit ideal's basis; anything
        else joins the basis and queues its pairs."""
        _, inv_num, inv_den = _lead_inverse(poly, order)
        inv = _scalar(field, inv_num, inv_den)
        poly = poly.scale(inv)
        lead = _split_lead(poly, order)
        steps.append(sources + (inv,))
        if lead[0] == 0:  # a constant: its lead monomial is 1
            return GroebnerBasis(ring, order, gens, steps, [poly], [lead], [len(steps) - 1])
        j = len(basis)
        basis.append(poly)
        leads.append(lead)
        sugars.append(sugar)
        for i in range(j):
            lcm = packing.lcm(leads[i][0], lead[0])
            lcm_deg = packing.degree(lcm)
            pair_sugar = lcm_deg + max(sugars[k] - packing.degree(leads[k][0]) for k in (i, j))
            heappush(queue, (pair_sugar, lcm_deg, i, j, lcm))
            pending.add((i, j))

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        if unit := enter(g, (i,), g.total_degree()):
            return unit

    while queue:
        sugar, _, i, j, lcm = heappop(queue)
        pending.remove((i, j))
        lmi, lmj = leads[i][0], leads[j][0]
        if lcm == packing.mul(lmi, lmj):
            continue  # coprime leading monomials: S-polynomial reduces to 0
        if any(
            k != i
            and k != j
            and packing.divides(leads[k][0], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue  # chain criterion
        xti = ring.term(packing.div(lcm, lmi), 1)
        xtj = ring.term(packing.div(lcm, lmj), -1)
        s = ring.dot((xti, xtj), (basis[i], basis[j]))
        quots, rem = _reduce(s, leads, order, divisor_memo)
        if rem.is_zero():
            continue
        # rem = x^ti*basis[i] - x^tj*basis[j] - sum(quots[t]*basis[t]), and
        # the new element is rem scaled to be monic.
        nonzero = tuple((t, q) for t, q in enumerate(quots) if not q.is_zero())
        if unit := enter(rem, (((i, xti), (j, xtj)), nonzero), sugar):
            return unit

    # Minimalize: keep only elements whose leading monomial no kept element
    # divides; ascending processing makes the kept set deterministic.
    # The sort is stable, so elements with equal leads keep their order.
    ascending = sorted(
        range(len(basis)), key=lambda t: order.desc_key(leads[t][0]), reverse=True
    )
    kept: list[int] = []
    for idx in ascending:
        if not any(packing.divides(leads[k][0], leads[idx][0]) for k in kept):
            kept.append(idx)

    final_polys = [basis[t] for t in kept]
    final_steps = list(kept)  # the step of each element's current row

    # Tail-reduce each element against the current versions of the others;
    # leading terms are fixed.
    final_leads = [leads[t] for t in kept]
    one = field.scalar(1)
    for pos in range(len(final_polys)):
        others = [s for s in range(len(final_polys)) if s != pos]
        if not others:
            continue
        quots, rem = _reduce(final_polys[pos], [final_leads[s] for s in others], order)
        nonzero = tuple((final_steps[s], q) for s, q in zip(others, quots) if not q.is_zero())
        if nonzero:
            steps.append((((final_steps[pos], ring.one()),), nonzero, one))
            final_steps[pos] = len(steps) - 1
        final_polys[pos] = rem
        final_leads[pos] = _split_lead(rem, order)

    ranked = sorted(range(len(final_polys)), key=lambda t: order.desc_key(final_leads[t][0]))
    columns = (final_polys, final_leads, final_steps)
    return GroebnerBasis(ring, order, gens, steps, *([col[t] for t in ranked] for col in columns))


# Bases kept by ``groebner_basis``.  Two golden ``umrow verify --suite all
# --n-min 2 --n-max 6`` runs in one process fill 226 entries, so the bound
# leaves room for several such runs while an unbounded stream of distinct
# ideals (shrink candidates, say) cannot grow the cache without limit.
BASIS_CACHE_SIZE = 1024


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _cached_basis(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    return buchberger(ideal, order)


def groebner_basis(ideal: Ideal, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Cached entry point; ideals and orders are immutable."""
    return _cached_basis(ideal, order or ideal.ring.order)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise RingMismatch("ideals live in different rings")
    gb_a = groebner_basis(a)
    gb_b = groebner_basis(b)
    return all(gb_b.contains(g) for g in a.generators) and all(
        gb_a.contains(g) for g in b.generators
    )


def krull_dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal via the leading-term ideal: the largest
    set of variables meeting no leading-monomial support is independent."""
    gb = groebner_basis(ideal)
    if gb.is_unit_ideal():
        raise DimensionOfZeroRing("the quotient is the zero ring")
    nvars = ideal.ring.nvars
    supports = {ideal.ring.packing.support(lead[0]) for lead in gb._leads}
    # Drop supersets; they are hit whenever the smaller support is hit.
    minimal = {
        s for s in supports if not any(t < s for t in supports)
    }
    memo: dict = {}

    def min_hitting(supps: frozenset) -> int:
        if not supps:
            return 0
        if supps in memo:
            return memo[supps]
        pick = min(supps, key=lambda s: (len(s), sorted(s)))
        best = None
        for v in sorted(pick):
            rest = frozenset(t for t in supps if v not in t)
            cand = 1 + min_hitting(rest)
            if best is None or cand < best:
                best = cand
        memo[supps] = best
        return best

    return nvars - min_hitting(frozenset(minimal))
