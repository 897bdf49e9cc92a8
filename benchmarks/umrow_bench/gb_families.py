"""gb-families: reduced bases of the Katsura and cyclic systems over Q and
F_32003, then membership queries against them.

The seed shuffles the generator order of the size-4 systems, which must
leave the reduced basis unchanged; each basis is compared with the digest
recorded below and with its own cofactor expansion.  The larger systems keep
their canonical order: a shuffle changes their cost by up to 2x (cyclic-5
over Q takes 1.1 s to 2.6 s), which would swamp the run-to-run spread.

Queries are random elements of the ideal (``lift``) and such elements plus a
random reduced polynomial (``normal_form``, which must return exactly that
polynomial).  Their monomial supports are fixed; the seed draws their
coefficients and the order in which the queries of all systems interleave.

katsura-6 over F_32003 (7-9 s, most of a pass) runs with the reach ops, in
its own interpreter under a 30 s deadline, so that a pass is short enough to
repeat within a run.
"""

from __future__ import annotations

import hashlib
import random

from umrow import RATIONALS, Ideal, PolyRing, buchberger, prime_field

from .core import Op, Workload, expect, random_poly, reducible

FP = prime_field(32003)
FIELDS = {"q": RATIONALS, "fp": FP}

# (family, size, field tag): every regular basis of the workload.
SYSTEMS = (
    ("katsura", 4, "q"),
    ("katsura", 4, "fp"),
    ("katsura", 5, "q"),
    ("katsura", 5, "fp"),
    ("cyclic", 4, "q"),
    ("cyclic", 4, "fp"),
    ("cyclic", 5, "q"),
    ("cyclic", 5, "fp"),
)
# reach op -> (layer span, deadline in seconds)
REACH = {
    "katsura-6-fp": ("groebner.buchberger.fp", 30.0),
    "cyclic-6-fp": ("groebner.buchberger.fp", 3.0),
}
SHUFFLED_MAX_SIZE = 4
LIFTS = 6
NORMAL_FORMS = 5

# sha256 of the sorted basis strings, recorded at seed 0.  A reduced basis
# is unique for a fixed order, so every seed must reproduce these.
DIGESTS = {
    "katsura-4-q": "627a0c603b56571ab8ad1b7f3479348911521ee53b2518bce3c70ed9e4854f11",
    "katsura-4-fp": "042181e9517617c838e70a1018892e0ec609e4bf3d0bf0d04eaab04d9ea35f2d",
    "katsura-5-q": "ceaec6371429a13364cb331bbed4706ab00aed1a9c3b3f5baedc71bc2caf4972",
    "katsura-5-fp": "4bfdc00e4a96623f52c282a5c0c21e1587501a9ab8c833ffa735c6ca5eb5774d",
    "cyclic-4-q": "a8d407c54bec8dd3581054616d87f81a370828059493b04e58475330ce47942e",
    "cyclic-4-fp": "f7568137fa38f0eea765ca64075aa9520d13cb2e90af5b0eab2bf3f4ea4a206a",
    "cyclic-5-q": "a6f4f581bdccaa8c7075fb716f27e27e244972de2e93a615dc1ac58d56e03699",
    "cyclic-5-fp": "3e0ed7e210d3de3b91f82305e263835176593f35603f51dd02011895afba665f",
    "katsura-6-fp": "1cd2c48e662ab2b92e8c5e1265da971571870c7279060e40126ff53f9bb6ce06",
}


def katsura(field, n: int):
    """Katsura-n: n+1 variables u0..un, with u_{-m} = u_m and u_m = 0 for
    |m| > n."""
    ring = PolyRing(field, [f"u{i}" for i in range(n + 1)])
    u = ring.gens()

    def at(m):
        m = abs(m)
        return u[m] if m <= n else ring.zero()

    gens = []
    for m in range(n):
        s = ring.zero()
        for l in range(-n, n + 1):
            s = s + at(l) * at(m - l)
        gens.append(s - at(m))
    lin = at(0)
    for l in range(1, n + 1):
        lin = lin + at(l) * ring.const(2)
    gens.append(lin - ring.one())
    return ring, gens


def cyclic(field, n: int):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1 and x0...x{n-1} - 1."""
    ring = PolyRing(field, [f"x{i}" for i in range(n)])
    x = ring.gens()
    gens = []
    for k in range(1, n):
        s = ring.zero()
        for i in range(n):
            t = ring.one()
            for j in range(k):
                t = t * x[(i + j) % n]
            s = s + t
        gens.append(s)
    t = ring.one()
    for xi in x:
        t = t * xi
    gens.append(t - ring.one())
    return ring, gens


def build_system(family: str, n: int, tag: str):
    return (katsura if family == "katsura" else cyclic)(FIELDS[tag], n)


def digest(basis) -> str:
    text = "\n".join(sorted(str(p) for p in basis))
    return hashlib.sha256(text.encode()).hexdigest()


def leading_monomials(gb):
    return [p.lead(gb.order)[0] for p in gb.basis]


def check_cofactors(gb) -> None:
    """Each basis element equals its cofactor expansion exactly."""
    expect(len(gb.cofactors) == len(gb.basis), "one cofactor row per basis element")
    for k, (b, row) in enumerate(zip(gb.basis, gb.cofactors)):
        expect(len(row) == len(gb.generators), f"cofactor row {k} has the wrong width")
        total = gb.ring.zero()
        for c, g in zip(row, gb.generators):
            total = total + c * g
        expect(total == b, f"basis element {k} differs from its cofactor expansion")


def check_basis(label: str, tracer):
    def check(gb):
        expect(digest(gb.basis) == DIGESTS[label], f"{label}: reduced basis differs from the recorded digest")
        check_cofactors(gb)
        tracer.count("groebner.basis_len", len(gb.basis))
        tracer.count("groebner.cofactor_terms", sum(len(c.terms) for r in gb.cofactors for c in r))

    return check


def ideal_element(ring, gens, shape, values):
    total = ring.zero()
    for g in gens:
        total = total + random_poly(ring, shape, values, 1, 2) * g
    return total


def check_lift(f, gens):
    def check(coeffs):
        expect(len(coeffs) == len(gens), "one lift coefficient per generator")
        total = f.ring.zero()
        for c, g in zip(coeffs, gens):
            total = total + c * g
        expect(total == f, "lift coefficients do not reproduce the element")

    return check


def check_normal_form(expected):
    def check(rem):
        expect(rem == expected, "normal form differs from the reduced remainder")

    return check


def setup(seed: int, tracer):
    rng = random.Random(seed)
    systems = []
    for family, n, tag in SYSTEMS:
        ring, gens = build_system(family, n, tag)
        if n <= SHUFFLED_MAX_SIZE:
            rng.shuffle(gens)
        systems.append((f"{family}-{n}-{tag}", tag, ring, gens))
    return systems, rng


def queries(label, tag, ring, gens, gb, values):
    shape = random.Random(label)
    for _ in range(LIFTS):
        f = ideal_element(ring, gens, shape, values)
        yield Op(f"lift {label}", tag, "groebner.query", lambda f=f: gb.lift(f), check_lift(f, gens))
    leads = leading_monomials(gb)
    for _ in range(NORMAL_FORMS):
        h = random_poly(ring, shape, values, 3, 4, lambda m: not reducible(m, leads))
        f = ideal_element(ring, gens, shape, values) + h
        yield Op(f"normal_form {label}", tag, "groebner.query", lambda f=f: gb.normal_form(f),
                 check_normal_form(h))


def ops(state, tracer):
    """Every basis, then all queries in a seeded interleaved order, so that
    a slow stretch of the machine does not land on one system's batch."""
    systems, rng = state
    batch = []
    for label, tag, ring, gens in systems:
        gb = yield Op(
            f"buchberger {label}",
            tag,
            f"groebner.buchberger.{tag}",
            lambda ring=ring, gens=gens: buchberger(Ideal.of(ring, gens)),
            check_basis(label, tracer),
        )
        if gb is not None:
            batch.extend(queries(label, tag, ring, gens, gb, rng))
    rng.shuffle(batch)
    for op in batch:
        yield op


def reach(name: str, tracer) -> Op:
    """katsura-6 or cyclic-6 over F_32003, in canonical generator order."""
    family, n, tag = name.split("-")
    ring, gens = build_system(family, int(n), tag)

    def check(gb):
        if name in DIGESTS:
            expect(digest(gb.basis) == DIGESTS[name], f"{name}: reduced basis differs from the recorded digest")
        check_cofactors(gb)
        leads = leading_monomials(gb)
        for k, b in enumerate(gb.basis):
            expect(b.lead(gb.order)[1] == 1, "basis element is not monic")
            others = leads[:k] + leads[k + 1 :]
            expect(not any(reducible(m, others) for m in b.terms), "basis is not inter-reduced")
        for g in gens:
            expect(gb.normal_form(g).is_zero(), "a generator does not reduce to zero")

    return Op(name, tag, REACH[name][0], lambda: buchberger(Ideal.of(ring, gens)), check)


WORKLOAD = Workload("gb-families", setup, ops, REACH, reach)
