"""Multivariate division, Buchberger's algorithm with cofactor tracking,
and the ideal-level queries built on top of them.

Every Groebner basis carries an exact cofactor matrix expressing each basis
element as a polynomial combination of the original generators; this is what
makes Bezout lifts and splittings exact rather than merely decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add as _add, le as _le, sub as _sub

from .errors import (
    DimensionOfZeroRing,
    InvalidDivisor,
    NotInIdeal,
    RingMismatch,
)
from .poly import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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


def _split_lead(d: Polynomial, order: MonomialOrder):
    """(lead monomial, inverse of the lead coefficient, other terms negated
    as ints, their denominator) of a divisor, the form ``_reduce`` takes; a
    basis computes this once, not per reduction, so no reduction step
    inverts, negates or converts a divisor coefficient."""
    lm, lc = d.lead(order)
    field = d.ring.field
    tail, dt = field.integral({m: c for m, c in d.terms.items() if m != lm})
    return lm, field.inv(lc), tuple((m, -n) for m, n in tail.items()), dt


def _reduce(f: Polynomial, leads, order: MonomialOrder):
    """Core reduction loop shared by division, Buchberger and normal forms.

    ``leads`` are the divisors split by ``_split_lead``.  The remainder-to-be
    ``p`` holds plain ints over one common denominator ``D`` (from
    ``field.integral``; over F_p, unreduced residues over 1), and its
    monomials sit in a min-heap of ``order.desc_key``, so each step pops the
    leading term instead of rescanning ``p``, and each monomial is keyed
    once, when it first enters.  A step makes one field value of the popped
    int over ``D`` and skips it if zero (cancelled, or over F_p a multiple
    of p).  The quotient term is that value times the stored lead inverse.
    Each negated tail term is then added times the quotient's numerator as
    a plain int, with no field call; first, if the quotient's denominator
    times the tail's does not divide ``D``, all of ``p`` is rescaled to the
    lcm.  A cancelled monomial keeps its zero entry until popped, so a
    monomial not in ``p`` has never entered it: every new term is below the
    popped one, so popped monomials never return, and a divisor never gets
    the same quotient monomial twice.  Terms leave in descending order and
    the first divisor in list order whose lead divides is used, so quotients
    and remainder are those of plain multivariate division."""
    ring = f.ring
    field = ring.field
    dkey = order.desc_key
    mul, value = field.mul, field.value

    p, D = field.integral(f.terms)
    p = dict(p)  # over F_p, integral hands back f's own terms
    heap = [(dkey(m), m) for m in p]
    heapify(heap)
    rem: dict = {}
    quots = [dict() for _ in leads]
    while heap:
        m = heappop(heap)[1]
        c = value(p.pop(m), D)
        if not c:
            continue
        for idx, (dm, inv_lc, tail, dt) in enumerate(leads):
            if all(map(_le, dm, m)):
                t = tuple(map(_sub, m, dm))
                q = quots[idx][t] = mul(c, inv_lc)
                d = q.denominator * dt
                if D % d:
                    k = lcm(D, d) // D
                    for mm in p:
                        p[mm] *= k
                    D *= k
                s = q.numerator * (D // d)
                for m2, c2 in tail:
                    mm = tuple(map(_add, m2, t))
                    if mm in p:
                        p[mm] += s * c2
                    else:
                        p[mm] = s * c2
                        heappush(heap, (dkey(mm), mm))
                break
        else:
            rem[m] = c
    return [Polynomial(ring, q) for q in quots], Polynomial(ring, rem)


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
    expansion of ``basis[k]``.  Queries reduce by the split leads that
    ``buchberger`` hands over, so no lead is split again here.
    """

    def __init__(self, ring, order, generators, basis, cofactors, leads):
        self.ring = ring
        self.order = order
        self.generators = tuple(generators)
        self.basis = tuple(basis)
        self.cofactors = tuple(tuple(row) for row in cofactors)
        self._leads = tuple(leads)

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].constant_value() is not None

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.normal_form_with_quotients(f)[1]

    def normal_form_with_quotients(self, f: Polynomial):
        if f.ring != self.ring:
            raise RingMismatch("element outside the basis ring")
        if not self.basis:
            # Nothing divides f; ``_reduce`` would still rebuild every
            # coefficient, and algebras without relations hit this often.
            return [], f
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
    tracking.  Pair selection is by (lcm degree, i, j), so the output is
    deterministic for a fixed input and order.

    As soon as a constant enters the basis the unit ideal is recognized and
    {1} is returned immediately; {1} is the reduced basis in that case and
    its cofactor row is an exact Bezout certificate for 1."""
    ring = ideal.ring
    order = ring.check_order(order or ring.order)
    field = ring.field
    gens = ideal.generators
    ngen = len(gens)

    basis: list[Polynomial] = []
    cofs: list[list[Polynomial]] = []
    leads: list = []  # basis[k] split by ``_split_lead``
    # Pending pairs: a heap pops them in (lcm degree, i, j) order, and the
    # set answers the chain criterion's membership test.
    queue: list = []
    pending: set = set()

    def enter(poly, row, inv):
        """The one way into the basis: ``poly`` scaled by ``inv`` to be
        monic, with its cofactor row already scaled alike, and its lead split
        once.  A constant returns the unit ideal's basis; anything else joins
        the basis and queues its pairs."""
        poly = poly.scale(inv)
        lead = _split_lead(poly, order)
        if poly.constant_value() is not None:
            return GroebnerBasis(ring, order, gens, [poly], [row], [lead])
        j = len(basis)
        basis.append(poly)
        cofs.append(row)
        leads.append(lead)
        for i in range(j):
            heappush(queue, (sum(mono_lcm(leads[i][0], lead[0])), i, j))
            pending.add((i, j))

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        inv = field.inv(g.lead(order)[1])
        row = [ring.zero()] * ngen
        row[i] = ring.const(inv)
        if unit := enter(g, row, inv):
            return unit

    one = field.one()
    while queue:
        _, i, j = heappop(queue)
        pending.remove((i, j))
        lmi, lmj = leads[i][0], leads[j][0]
        lcm = mono_lcm(lmi, lmj)
        if lcm == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-polynomial reduces to 0
        if any(
            k != i
            and k != j
            and mono_divides(leads[k][0], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue  # chain criterion
        ti = mono_div(lcm, lmi)
        tj = mono_div(lcm, lmj)
        s = basis[i].mul_term(ti, one) - basis[j].mul_term(tj, one)
        quots, rem = _reduce(s, leads, order)
        if rem.is_zero():
            continue
        # rem = x^ti*basis[i] - x^tj*basis[j] - sum(quots[t]*basis[t]), and
        # the new element is rem scaled to be monic: its cofactor row is the
        # same combination of cofactor rows, scaled alike.
        inv = field.inv(rem.lead(order)[1])
        neg_inv = field.neg(inv)
        row = _combine_rows(
            ring,
            [Polynomial(ring, {ti: inv}), Polynomial(ring, {tj: neg_inv}),
             *(q.scale(neg_inv) for q in quots)],
            [cofs[i], cofs[j], *cofs],
            ngen,
        )
        if unit := enter(rem, row, inv):
            return unit

    # Minimalize: keep only elements whose leading monomial no kept element
    # divides; ascending processing makes the kept set deterministic.
    # The sort is stable, so elements with equal leads keep their order.
    ascending = sorted(
        range(len(basis)), key=lambda t: order.desc_key(leads[t][0]), reverse=True
    )
    kept: list[int] = []
    for idx in ascending:
        if not any(mono_divides(leads[k][0], leads[idx][0]) for k in kept):
            kept.append(idx)

    final_polys = [basis[t] for t in kept]
    final_cofs = [cofs[t] for t in kept]

    # Tail-reduce each element against the others; leading terms are fixed.
    final_leads = [leads[t] for t in kept]
    for pos in range(len(final_polys)):
        others = [s for s in range(len(final_polys)) if s != pos]
        if not others:
            continue
        quots, rem = _reduce(final_polys[pos], [final_leads[s] for s in others], order)
        # Adding the update to the old row shares its terms with that row,
        # which ``cofs`` still holds, where a product by 1 would copy them.
        update = _combine_rows(ring, [-q for q in quots], [final_cofs[s] for s in others], ngen)
        final_cofs[pos] = [c + u for c, u in zip(final_cofs[pos], update)]
        final_polys[pos] = rem
        final_leads[pos] = _split_lead(rem, order)

    ranked = sorted(range(len(final_polys)), key=lambda t: order.desc_key(final_leads[t][0]))
    columns = (final_polys, final_cofs, final_leads)
    return GroebnerBasis(ring, order, gens, *([col[t] for t in ranked] for col in columns))


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
    supports = {frozenset(i for i, e in enumerate(lead[0]) if e) for lead in gb._leads}
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
