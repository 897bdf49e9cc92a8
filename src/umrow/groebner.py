"""Multivariate division, reduced Groebner bases with cofactor tracking, and
the ideal-level queries built on top of them.

``buchberger`` computes the reduced basis by an incremental signature
algorithm, so it reduces no pair that its criteria predict to reduce to
zero.  Every Groebner basis has an exact cofactor matrix expressing each
basis element as a polynomial combination of the original generators; this
is what makes Bezout lifts and splittings exact rather than merely
decidable.  ``buchberger`` records how each element entered, and the rows
are expanded from those records on first read, so a basis that is only
reduced against never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import insort
from functools import cached_property, lru_cache
from heapq import heappop, heappush

from .errors import (
    ConfigError,
    DimensionOfZeroRing,
    InvalidDivisor,
    NotInIdeal,
    RingMismatch,
)
from .fields import _scalar
from .poly import (
    PolyRing,
    Polynomial,
    _is_reduced,
    _lead_inverse,
    _listed,
    _reduce,
    _split_lead,
)


@dataclass(frozen=True)
class Ideal:
    """An ideal presented by an ordered list of generators.  A generator
    that is not a ``Polynomial`` raises ``ConfigError``, and one of another
    ring ``RingMismatch``."""

    ring: PolyRing
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, Polynomial):
                raise ConfigError(f"generator {g!r} is not a polynomial")
            if g.ring != self.ring:
                raise RingMismatch("generator outside the ambient ring")

    @staticmethod
    def of(ring: PolyRing, generators) -> "Ideal":
        return Ideal(ring, tuple(_listed(generators, object, "generators")))


def divide_with_remainder(f: Polynomial, divisors):
    """Multivariate division: f = sum(q_i * d_i) + r with no term of r
    divisible by any divisor's leading term.  Divisor choice is first match
    in list order, which pins the output deterministically."""
    ring = f.ring
    for d in _listed(divisors, object, "divisors"):
        if not isinstance(d, Polynomial):
            raise ConfigError(f"divisor {d!r} is not a polynomial")
        if d.ring != ring:
            raise RingMismatch("divisor outside the dividend's ring")
        if d.is_zero():
            raise InvalidDivisor("zero divisor")
    return _reduce(f, [_split_lead(d) for d in divisors])


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

    def __init__(self, ring, generators, steps, basis, leads, final):
        self.ring = ring
        self.order = ring.order
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
        # A constant's lead monomial is 1, packed 0, the least of all.
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
        return _reduce(f, self._leads)[1]

    def normal_form_with_quotients(self, f: Polynomial):
        if f.ring != self.ring:
            raise RingMismatch("element outside the basis ring")
        if _is_reduced(f, self._leads):
            return [self.ring.zero()] * len(self.basis), f
        return _reduce(f, self._leads)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def _coefficients(self, f: Polynomial):
        """``lift`` without its check, for a caller that checks what it
        builds from the coefficients."""
        quots, rem = self.normal_form_with_quotients(f)
        if not rem.is_zero():
            raise NotInIdeal(f"{f} is not in the ideal")
        # f = sum(q_k * basis[k]), and basis[k] = sum(cofactors[k][i] * g_i).
        return _combine_rows(self.ring, quots, self.cofactors, len(self.generators))

    def lift(self, f: Polynomial):
        """Coefficients c with f = sum(c_i * generators[i]), checked in the ring."""
        coeffs = self._coefficients(f)
        if self.ring.dot(coeffs, self.generators) != f:
            raise AssertionError("cofactor expansion failed to reproduce the element")
        return coeffs


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """The reduced Groebner basis with cofactor tracking, by the incremental
    signature algorithm G2V (Gao, Guan and Volny, ISSAC 2010) with the
    criteria of Gao, Volny and Wang (Math. Comp. 85, 2016).

    The nonzero generators enter one per round, by ascending total degree
    (ties keep their input order).  In the round of f_i, G is the reduced
    basis of the generators before it, and each new element v comes with a
    signature, the lead monomial of some u with v = u * f_i modulo G.  The
    round starts from f_i reduced by G, of signature 1.  J-pairs (an element
    times the monomial that lifts its lead to the lcm with another lead, in
    the larger of the two signatures) pop by (signature, lcm), smallest
    first.  One is skipped when a lead of G, a Koszul signature or the
    signature of an earlier reduction to zero divides its signature, when an
    element of the round rewrites it (its signature divides the J-pair's and
    its shifted lead is smaller than the lcm), or when its signature was
    already taken.  A J-pair is queued with no element of G whose lead is
    coprime to the new one, since that lead divides its signature.  The
    J-pair is reduced regularly, by G or by an element of smaller shifted
    signature (``_reduce``'s signature rule); the criteria leave it no lead
    that only an element of its own signature divides.  The round's
    elements then join G, which is inter-reduced (``_inter_reduce``).  The
    output is deterministic for a fixed input.

    No cofactor row is built here.  Each element's entry, and each tail
    reduction, records how its row is made from earlier rows (the extended
    basis of Becker and Weispfenning, GTM 141, computed lazily), and
    ``GroebnerBasis.cofactors`` expands the rows on first read.

    As soon as a constant enters the basis the unit ideal is recognized and
    {1} is returned immediately; {1} is the reduced basis in that case and
    its cofactor row is an exact Bezout certificate for 1."""
    ring = ideal.ring
    field = ring.field
    packing = ring.packing
    divides, low = packing.divides, packing.low  # m ^ low ranks m
    gens = ideal.generators
    one, x0 = field.scalar(1), ring.one()

    # How each row is made, as ``GroebnerBasis`` reads it.
    steps: list[tuple] = []
    # G: the reduced basis so far by descending lead, each element with its
    # lead split by ``_split_lead`` and the step of its row.
    basis: list[Polynomial] = []
    leads: list = []
    rows: list[int] = []
    # The J-pairs of a round, by (signature, lcm, source).
    queue: list = []

    def syzygy(h):
        """Note the signature ``h`` of a syzygy, keeping the list minimal."""
        if not any(divides(s, h) for s in syzygies):
            syzygies[:] = [s for s in syzygies if not divides(h, s)] + [h]

    def enter(poly, sources, sig):
        """The one way into a round: ``poly`` made monic, its step recorded
        as ``sources`` and the inverse it was scaled by, and its lead split
        once.  A constant returns the unit ideal's basis; anything else
        joins the round with signature ``sig``, its J-pairs queued and its
        Koszul signatures noted."""
        _, inv_num, inv_den = _lead_inverse(poly)
        inv = _scalar(field, inv_num, inv_den)
        steps.append(sources + (inv,))
        if inv_num != inv_den:  # not monic yet
            poly = poly.scale(inv)
        lead = _split_lead(poly)
        if lead[0] == 0:  # a constant: its lead monomial is 1
            return GroebnerBasis(ring, gens, steps, [poly], [lead], [len(steps) - 1])
        lm, j = lead[0], len(polys)
        for g_lead in leads:
            lcm = packing.lcm(g_lead[0], lm)
            if lcm != g_lead[0] + lm:
                sig_j = lcm - lm + sig
                heappush(queue, (sig_j ^ low, lcm ^ low, j, sig_j, lcm))
        for k in range(j):
            lcm = packing.lcm(rleads[k][0], lm)
            sig_j, sig_k = lcm - lm + sig, lcm - rleads[k][0] + sigs[k]
            if sig_j != sig_k:
                src, sig_pair = (j, sig_j) if sig_j ^ low > sig_k ^ low else (k, sig_k)
                heappush(queue, (sig_pair ^ low, lcm ^ low, src, sig_pair, lcm))
            koszul = (rleads[k][0] + sig, lm + sigs[k])
            if koszul[0] != koszul[1]:
                syzygy(max(koszul, key=low.__xor__))
        polys.append(poly)
        rleads.append(lead)
        rsteps.append(len(steps) - 1)
        sigs.append(sig)

    live = [i for i in range(len(gens)) if not gens[i].is_zero()]
    for i in sorted(live, key=lambda i: gens[i].total_degree()):
        g = gens[i]
        quots, rem = ((), g) if _is_reduced(g, leads) else _reduce(g, leads)
        if rem.is_zero():
            continue
        # The round's elements with their signatures, and the minimal
        # signatures of known syzygies, at first the leads of G.
        polys, rleads, rsteps, sigs = [], [], [], []
        syzygies = [lead[0] for lead in leads]
        nonzero = tuple((rows[k], q) for k, q in enumerate(quots) if not q.is_zero())
        if nonzero:
            steps.append((i, one))
            sources = (((len(steps) - 1, x0),), nonzero)
        else:
            sources = (i,)
        if unit := enter(rem, sources, 0):
            return unit
        taken = None
        while queue:
            _, _, src, sig, lcm = heappop(queue)
            if sig == taken:
                continue
            taken = sig
            if any(divides(h, sig) for h in syzygies):
                continue
            if any(
                divides(sig_k, sig) and (sig - sig_k + lead_k[0]) ^ low < lcm ^ low
                for sig_k, lead_k in zip(sigs, rleads)
            ):
                continue  # rewritten
            xt = ring.term(lcm - rleads[src][0], 1)
            rule = (len(leads), sigs, sig)
            quots, rem = _reduce(ring.dot((xt,), (polys[src],)), leads + rleads, rule)
            if rem.is_zero():
                syzygy(sig)
                continue
            owners = rows + rsteps
            nonzero = tuple((owners[k], q) for k, q in enumerate(quots) if not q.is_zero())
            if unit := enter(rem, (((rsteps[src], xt),), nonzero), sig):
                return unit
        basis, leads, rows = _inter_reduce(ring, steps, (basis, leads, rows), (polys, rleads, rsteps))
    return GroebnerBasis(ring, gens, steps, basis, leads, rows)


def _inter_reduce(ring, steps, old, new):
    """The reduced basis at a round's end.  ``old`` is the reduced basis G
    before the round and ``new`` the round's elements, each as (polys, split
    leads, steps); together they form a Groebner basis.  No lead of G
    divides a term of a new element, so the new elements are minimalized
    against each other, ascending, and an old one needs work only if a kept
    new lead divides one of its terms (``_is_reduced``): it is dropped if
    that lead divides its own, and else tail-reduced.  A new element is
    tail-reduced if another kept new lead divides one of its terms.  Each
    tail reduction uses the current versions of the rest, records its step
    and splits the lead again."""
    packing, low = ring.packing, ring.packing.low  # m ^ low ranks m
    polys, leads, rows = new
    kept: list[int] = []
    for t in sorted(range(len(polys)), key=lambda t: leads[t][0] ^ low):
        if not any(packing.divides(leads[k][0], leads[t][0]) for k in kept):
            kept.append(t)
    new_leads = [leads[t] for t in kept]
    members = []  # (poly, split lead, step, reduced) by descending lead
    for poly, lead, row in zip(*old):
        reduced = _is_reduced(poly, new_leads)
        if reduced or not any(packing.divides(n[0], lead[0]) for n in new_leads):
            members.append((poly, lead, row, reduced))
    for t in kept:
        reduced = _is_reduced(polys[t], [n for n in new_leads if n is not leads[t]])
        insort(members, (polys[t], leads[t], rows[t], reduced), key=lambda e: -(e[1][0] ^ low))
    polys, leads, rows, reduced = (list(col) for col in zip(*members))
    for pos in range(len(polys)):
        if reduced[pos]:
            continue
        others = [s for s in range(len(polys)) if s != pos]
        quots, rem = _reduce(polys[pos], [leads[s] for s in others])
        nonzero = tuple((rows[s], q) for s, q in zip(others, quots) if not q.is_zero())
        steps.append((((rows[pos], ring.one()),), nonzero, ring.field.scalar(1)))
        rows[pos], polys[pos], leads[pos] = len(steps) - 1, rem, _split_lead(rem)
    return polys, leads, rows


# Bases kept by ``groebner_basis``.  Two golden ``umrow verify --suite all
# --n-min 2 --n-max 6`` runs in one process fill 226 entries, so the bound
# leaves room for several such runs while an unbounded stream of distinct
# ideals (shrink candidates, say) cannot grow the cache without limit.
BASIS_CACHE_SIZE = 1024


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def groebner_basis(ideal: Ideal) -> GroebnerBasis:
    """``buchberger``, cached by the ideal, which is immutable."""
    return buchberger(ideal)


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
