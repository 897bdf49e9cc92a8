"""row-addition: the row calculus over Q and F_32003.

Per field: ``check_unimodular``, ``compute_splitting`` and
``mennicke_newman`` on seeded signed permutations of the sphere row
(x, y, z) paired with the same permutation of (y, z, x), and of the rows
(x1, x2) and (y1, y2) of k[Q_3] paired within each kind; ``vdk_add`` on the
sphere pair (x, y, z) + (y, z, x) and on the universal pair of
``vtilde_ring(2)``; the two-row reduction on ``vtilde_ring(3..5)``; and the
fold certificate for n = 4..8.  Every word is replayed by
``verify_certificate``.

``vdk_add`` runs on fixed pairs because its cost swings with the signed
permutation (0.55 s to 1 s on the sphere, 0.1 s to 10 s on mixed pairs of
k[Q_3]); seeded draws of it would swamp the run-to-run spread.
"""

from __future__ import annotations

import random

from umrow import (
    RATIONALS,
    OrbitCertificate,
    UnimodularRow,
    build_q_odd,
    check_unimodular,
    compute_splitting,
    fold_model_certificate,
    make_algebra,
    mennicke_newman,
    prime_field,
    row_from_witness,
    vdk_add,
    verify_certificate,
    vtilde_ring,
)

from .core import Op, Workload, expect, expect_congruent
from .points import Raw, evaluate, odd_quadric_point, sphere_point, vtilde_point

FIELDS = (("q", RATIONALS), ("fp", prime_field(32003)))
SPHERE_PAIRS = 3
Q3_PAIRS_PER_KIND = 2
POINTS = 3
# reach op -> (layer span, deadline in seconds)
REACH = {"vdk-vtilde-3-q": ("rows.vdk_add", 3.0), "vdk-q-odd-2-q": ("rows.vdk_add", 3.0)}


def signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def permute(sigma, entries):
    perm, signs = sigma
    return [entries[p] * s for p, s in zip(perm, signs)]


def sum_of_products(a, b):
    total = a[0].parent.zero()
    for x, y in zip(a, b):
        total = total + x * y
    return total


def replays(tracer, source, target_entries, word) -> bool:
    target = UnimodularRow(source.parent, tuple(target_entries), True)
    with tracer.span("rows.verify_certificate"):
        return verify_certificate(OrbitCertificate(source, target, word))


def check_row(entries, witness):
    def check(row):
        expect(row.verified and list(row.entries) == list(entries), "row entries changed")
        expect(sum_of_products(entries, witness) == row.parent.one(), "known splitting fails")

    return check


def check_splitting():
    def check(split):
        expect(sum_of_products(split.row.entries, split.entries) == split.row.parent.one(),
               "splitting does not sum to 1")

    return check


def check_mn(u, v, tracer):
    def check(mn):
        one = u.parent.one()
        expect(replays(tracer, u, mn.u_final.entries, mn.word_u), "word_u does not replay")
        expect(replays(tracer, v, mn.v_final.entries, mn.word_v), "word_v does not replay")
        expect(mn.u_final.entries[0] == mn.x, "reduced u does not start with x")
        expect(mn.v_final.entries[0] == one - mn.x, "reduced v does not start with 1 - x")
        expect(mn.u_final.entries[1:] == mn.tail == mn.v_final.entries[1:], "tails differ")
        tracer.count("rows.word_len", len(mn.word_u) + len(mn.word_v))

    return check


def check_vdk(u, v, points, tracer):
    """The sum row, its witness (exactly in the quotient, and at ``points``
    of the variety as an independent cross-check), and both words."""
    raw = Raw(u.parent.field.characteristic)

    def check(s):
        alg = u.parent
        one = alg.one()
        x, tail = s.x, s.tail
        expect(list(s.row.entries) == [x * (one - x), *tail], "sum row is not (x(1-x), tail)")
        pairing = alg.ring.zero()
        for a, b in zip(s.row.entries, s.splitting.entries):
            pairing = pairing + a.rep * b.rep
        expect_congruent(alg, pairing, alg.ring.one(), "sum witness does not pair to 1")
        for pt in points:
            total = sum(evaluate(a.rep, pt, raw) * evaluate(b.rep, pt, raw)
                        for a, b in zip(s.row.entries, s.splitting.entries))
            expect(raw.norm(total) == 1, "sum witness fails at a point of the variety")
        expect(replays(tracer, u, (x, *tail), s.word_u), "word_u does not replay")
        expect(replays(tracer, v, (one - x, *tail), s.word_v), "word_v does not replay")
        tracer.count("rows.word_len", len(s.word_u) + len(s.word_v))
        tracer.count("rows.witness_terms", sum(len(e.rep.terms) for e in s.splitting.entries))

    return check


def check_fold(vt, tracer):
    def check(cert):
        alg = vt.algebra
        one = alg.one()
        x = [alg.var(f"x{i}") for i in range(1, vt.n + 1)]
        fold_row = [xi * (one - x[0]) for xi in x[:-1]] + [x[-1] + (one - x[-1]) * x[0]]
        expect(list(cert.source.entries) == fold_row, "source is not the fold-model row")
        expect(list(cert.target.entries) == x, "target is not (x1, ..., xn)")
        with tracer.span("rows.verify_certificate"):
            expect(verify_certificate(cert), "fold certificate does not replay")
        tracer.count("quadrics.fold_word_len", len(cert.word))

    return check


def setup(seed: int, tracer):
    rng = random.Random(seed)
    per_field = []
    for tag, field in FIELDS:
        with tracer.span("algebra.init"):
            sphere = make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
        with tracer.span("quadrics.build_q_odd"):
            q3 = build_q_odd(1, field).algebra
        vts = {}
        for n in range(2, 9):
            with tracer.span("quadrics.vtilde_ring"):
                vts[n] = vtilde_ring(n, field)
        x, y, z = sphere.gens()
        pairs = []  # (u entries, u witness, v entries, v witness)
        for _ in range(SPHERE_PAIRS):
            sigma = signed_permutation(rng, 3)
            u, v = permute(sigma, [x, y, z]), permute(sigma, [y, z, x])
            pairs.append((u, u, v, v))
        x1, x2, y1, y2 = q3.gens()
        for row, wit in (([x1, x2], [y1, y2]), ([y1, y2], [x1, x2])):
            for _ in range(Q3_PAIRS_PER_KIND):
                s, t = signed_permutation(rng, 2), signed_permutation(rng, 2)
                pairs.append((permute(s, row), permute(s, wit), permute(t, row), permute(t, wit)))
        raw = Raw(field.characteristic)
        points = {
            "sphere": [sphere_point(sphere, raw, rng) for _ in range(POINTS)],
            "vtilde-2": [vtilde_point(vts[2].algebra, 2, raw, rng) for _ in range(POINTS)],
        }
        per_field.append((tag, pairs, ([x, y, z], [y, z, x]), vts, points))
    return per_field


def ops(per_field, tracer):
    for tag, pairs, (su, sv), vts, points in per_field:
        for k, (ue, uw, ve, vw) in enumerate(pairs):
            parent = ue[0].parent
            u = yield Op(f"check_unimodular u{k}", tag, "rows.check_unimodular",
                         lambda: check_unimodular(parent, ue), check_row(ue, uw))
            v = yield Op(f"check_unimodular v{k}", tag, "rows.check_unimodular",
                         lambda: check_unimodular(parent, ve), check_row(ve, vw))
            if u is None or v is None:
                continue
            yield Op(f"compute_splitting u{k}", tag, "rows.compute_splitting",
                     lambda: compute_splitting(u), check_splitting())
            yield Op(f"mennicke_newman {k}", tag, "rows.mennicke_newman",
                     lambda: mennicke_newman(u, v), check_mn(u, v, tracer))
        parent = su[0].parent
        u = yield Op("check_unimodular sphere u", tag, "rows.check_unimodular",
                     lambda: check_unimodular(parent, su), check_row(su, su))
        v = yield Op("check_unimodular sphere v", tag, "rows.check_unimodular",
                     lambda: check_unimodular(parent, sv), check_row(sv, sv))
        if u is not None and v is not None:
            yield Op("vdk_add sphere", tag, "rows.vdk_add", lambda: vdk_add(u, v),
                     check_vdk(u, v, points["sphere"], tracer))
        u, v = vts[2].x_row(), vts[2].u_row()
        yield Op("vdk_add vtilde-2", tag, "rows.vdk_add", lambda: vdk_add(u, v),
                 check_vdk(u, v, points["vtilde-2"], tracer))
        for n in (3, 4, 5):
            u, v = vts[n].x_row(), vts[n].u_row()
            yield Op(f"mennicke_newman vtilde-{n}", tag, "rows.mennicke_newman",
                     lambda: mennicke_newman(u, v), check_mn(u, v, tracer))
        for n in range(4, 9):
            yield Op(f"fold_model_certificate {n}", tag, "quadrics.fold_model_certificate",
                     lambda: fold_model_certificate(vts[n]), check_fold(vts[n], tracer))


def reach(name: str, tracer) -> Op:
    """The two additions over Q that stall the reducer: the universal pair on
    ``vtilde_ring(3)`` and (x1, x2, x3) + (y1, y2, y3) on k[Q_5]."""
    raw, rng = Raw(0), random.Random(name)
    if name == "vdk-vtilde-3-q":
        vt = vtilde_ring(3, RATIONALS)
        u, v = vt.x_row(), vt.u_row()
        points = [vtilde_point(vt.algebra, 3, raw, rng) for _ in range(POINTS)]
    else:
        alg = build_q_odd(2, RATIONALS).algebra
        xs = [alg.var(f"x{i}") for i in (1, 2, 3)]
        ys = [alg.var(f"y{i}") for i in (1, 2, 3)]
        u, _ = row_from_witness(alg, xs, ys)
        v, _ = row_from_witness(alg, ys, xs)
        points = [odd_quadric_point(alg, 2, raw, rng) for _ in range(POINTS)]
    return Op(name, "q", REACH[name][0], lambda: vdk_add(u, v), check_vdk(u, v, points, tracer))


WORKLOAD = Workload("row-addition", setup, ops, REACH, reach)
