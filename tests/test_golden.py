"""The byte-stable report of the combined suite over n = 2..6 is pinned by
its sha256, per field, and so are the printouts of every named morphism (at
its first size, and at every n = 1..5 with exit status and stderr) and of
`gb` and `add` on the sphere, the reduced bases of a fixed set of ideals,
those bases with their cofactor rows and lifts, the words and rows that
`mennicke_newman` gives on a fixed set of pairs, and the splittings and
inverses that `compute_splitting` and `is_unit` read off on fixed rows and
elements.  A refactor must leave all nine digests unchanged.  A change of
pair selection may move the cofactor rows, the lifts, the Mennicke-Newman
words and rows (their second step is a lift), the splittings and inverses,
and the splitting that `add` prints, and a change of how `vdk_add` builds
its witness may move that splitting: they are exact but not canonical.
Such a change must leave the other digests unchanged, the reduced-bases
digest among them, since a reduced basis is unique."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from umrow.algebra import adjoin_unit_variable, make_algebra
from umrow.cli import MORPHISMS, main
from umrow.fields import RATIONALS, prime_field
from umrow.groebner import Ideal, buchberger
from umrow.poly import PolyRing
from umrow.quadrics import build_q_odd, scalar_algebra, vtilde_ring
from umrow.rows import check_unimodular, compute_splitting, mennicke_newman
from umrow.suites import SuiteConfig, random_scalar_row, run_suite


@pytest.mark.parametrize(
    "field, digest",
    [
        (RATIONALS, "a6f3b9d1a5a7e0505fd80aca477908db3688a4a460fd81c02673a88af9d967e5"),
        (prime_field(5), "5cec86b65beb20d3fa8773733fee4576f21f5c2eac1f695a8d46f3ef7fbc5aef"),
    ],
    ids=["q", "fp:5"],
)
def test_combined_report_digest(field, digest):
    text = run_suite(SuiteConfig("all", 2, 6, field, timing=False)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


MAP_NAMES = ("eta", "mu", "E", "mu-prime", "mu-minus-one", "delta", "phi", "degree", "fold")


def test_map_printouts_digest(capsys):
    # Every name over q and fp:5, at --n 2 (fold at --n 4, its first
    # certified size), degree with --alpha 3; one digest over all 18 outputs.
    assert set(MAP_NAMES) == set(MORPHISMS)
    digest = hashlib.sha256()
    for field in ("q", "fp:5"):
        for name in MAP_NAMES:
            argv = ["map", "--name", name, "--n", "4" if name == "fold" else "2"]
            argv += ["--field", field] + (["--alpha", "3"] if name == "degree" else [])
            assert main(argv) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "3f84dd9a29f0be83499d350c7c270990df30f88e2e0d4d714b94c618208436d3"


def test_every_map_printout_digest(capsys):
    # Every name at n = 1..5 over q and fp:5, each with --alpha 3: the exit
    # status, stdout and stderr of all 90 runs, declines included.
    digest = hashlib.sha256()
    for field in ("q", "fp:5"):
        for name in MAP_NAMES:
            for n in range(1, 6):
                argv = ["map", "--name", name, "--n", str(n), "--field", field, "--alpha", "3"]
                status = main(argv)
                out, err = capsys.readouterr()
                digest.update(f"{status}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == "d95e4707ce797270351bd59eb7fb64265e53cf4e5a507d5b91baa6e7052a3e53"


def test_gb_and_add_printouts_digest(tmp_path, capsys):
    # `gb` on the sphere and `add` of (x, y, z) + (y, z, x) on the sphere,
    # over q and fp:5; one digest over all four outputs.
    digest = hashlib.sha256()
    for field in ("Q", {"Fp": 5}):
        sphere = {"field": field, "vars": ["x", "y", "z"]}
        sphere["relations"] = ["x^2 + y^2 + z^2 - 1"]
        algebra = tmp_path / "sphere.json"
        algebra.write_text(json.dumps(sphere))
        assert main(["gb", "--input", str(algebra)]) == 0
        digest.update(capsys.readouterr().out.encode())
        bundle = tmp_path / "rows.json"
        rows = {"u": ["x", "y", "z"], "v": ["y", "z", "x"]}
        bundle.write_text(json.dumps({"algebra": sphere, "rows": rows}))
        assert main(["add", "--rows", str(bundle), "--u", "u", "--v", "v"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "6eaa8be7126f56591fececcc625ff1ee2e8e29a9cd8b2d7f3d4fa9f4f95f3d97"


def _katsura4(field):
    ring = PolyRing(field, ["u0", "u1", "u2", "u3", "u4"])
    u = ring.gens()

    def at(m):
        return u[abs(m)] if abs(m) <= 4 else ring.zero()

    gens = [sum((at(l) * at(m - l) for l in range(-4, 5)), -at(m)) for m in range(4)]
    gens.append(u[0] + 2 * (u[1] + u[2] + u[3] + u[4]) - 1)
    return ring, gens


def _cyclic4(field):
    ring = PolyRing(field, ["x0", "x1", "x2", "x3"])
    x = ring.gens()
    gens = []
    for k in range(1, 4):
        terms = []
        for i in range(4):
            t = ring.one()
            for j in range(k):
                t = t * x[(i + j) % 4]
            terms.append(t)
        gens.append(sum(terms, ring.zero()))
    gens.append(x[0] * x[1] * x[2] * x[3] - 1)
    return ring, gens


def _random_ideal(rng, field):
    ring = PolyRing(field, ["x", "y", "z"])
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            terms[mono] = field.scalar(rng.randint(-3, 3)).value
        gens.append(ring.from_terms(terms))
    return ring, gens


def _text(p):
    """The terms of ``p``, largest first."""
    return repr([(m, str(c)) for m, c in p.sorted_terms()])


def _problems():
    # (ring, generators): katsura-4 and cyclic-4 over Q and F_32003, and 36
    # seeded random ideals in three variables over Q, F_32003 and F_5, drawn
    # as two batches of 6 per field.
    problems = []
    for field in (RATIONALS, prime_field(32003)):
        problems += [_katsura4(field), _cyclic4(field)]
    rng = random.Random(7)
    for field in (RATIONALS, prime_field(32003), prime_field(5)):
        for _ in range(2):
            problems += [_random_ideal(rng, field) for _ in range(6)]
    return problems


def test_reduced_bases_digest():
    digest = hashlib.sha256()
    for ring, gens in _problems():
        for b in buchberger(Ideal.of(ring, gens)).basis:
            digest.update(_text(b).encode())
    assert digest.hexdigest() == "5440faba79c9c9b0e600f0b9f2d528edbcc3d486f4d18b7523bf7d47561d5013"


def test_bases_cofactors_and_lifts_digest():
    # Reduced bases, cofactor rows and three lifts each of the problems above.
    digest = hashlib.sha256()
    for ring, gens in _problems():
        gb = buchberger(Ideal.of(ring, gens))
        for b, row in zip(gb.basis, gb.cofactors):
            digest.update(_text(b).encode())
            for c in row:
                digest.update(_text(c).encode())
        queries = [gens[0] * gens[-1], gens[0] * ring.var(0) + gens[1], gb.basis[-1]]
        for f in queries:
            for c in gb.lift(f):
                digest.update(_text(c).encode())
    assert digest.hexdigest() == "e8621527b026c8057162290b2066376038867c71d58fd5219b80ca411badd559"


def _mn_pairs():
    # 240 seeded random scalar pairs over Q, F_5 and F_32003 with n = 2..5;
    # two pairs whose tails the shrink step must move; over Q and F_5 the
    # sphere pair (x, y, z) + (y, z, x) and the k[Q_3] pair (x1, x2) +
    # (y1, y2); the universal rows x + u and x + base point for n = 2..5.
    rng = random.Random(27)
    for field in (RATIONALS, prime_field(5), prime_field(32003)):
        alg = scalar_algebra(field)
        for n in range(2, 6):
            for _ in range(20):
                yield tuple(check_unimodular(alg, random_scalar_row(alg, n, rng)) for _ in "uv")
    alg = make_algebra(RATIONALS, ["x"], [])
    yield check_unimodular(alg, [1, 0, 0]), check_unimodular(alg, [1, 0, 0])
    u = check_unimodular(alg, [1, "1/3*x^3 - 3/2*x^2 + 7/6*x"])
    yield u, check_unimodular(alg, [1, "-2/3*x^3 + 3*x^2 - 10/3*x"])
    for field in (RATIONALS, prime_field(5)):
        sphere = make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
        yield check_unimodular(sphere, ["x", "y", "z"]), check_unimodular(sphere, ["y", "z", "x"])
        q3 = build_q_odd(1, field)
        xs, ys = [q3.x(1), q3.x(2)], [q3.y(1), q3.y(2)]
        yield check_unimodular(q3.algebra, xs), check_unimodular(q3.algebra, ys)
    for n in range(2, 6):
        vt = vtilde_ring(n, RATIONALS)
        yield vt.x_row(), vt.u_row()
        yield vt.x_row(), vt.basepoint_row()


def test_mennicke_newman_digest():
    # The two words, x, the tail and the middle and final rows of every
    # pair above, the k-th pair run with seed k; one digest over them all.
    digest = hashlib.sha256()
    for k, (u, v) in enumerate(_mn_pairs()):
        mn = mennicke_newman(u, v, seed=k)
        for word in (mn.word_u, mn.word_v):
            digest.update(repr([(g.i, g.j, str(g.lam)) for g in word.gens]).encode())
        for part in ((mn.x,), mn.tail, mn.u_mid, mn.v_mid, mn.u_final.entries, mn.v_final.entries):
            digest.update(repr([str(e) for e in part]).encode())
    assert digest.hexdigest() == "d0b5adb253c1c7ae285615328d6cd82ced9d1b4385ba5262ea4714a25b0761b3"


def _split_rows():
    # The sphere row (x, y, z) and the k[Q_3] rows (x1, x2), (y1, y2) over Q
    # and F_5; the universal x and u rows for n = 2..4 over Q; five seeded
    # scalar rows for each n = 2..5 over Q, F_5 and F_32003.
    for field in (RATIONALS, prime_field(5)):
        sphere = make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
        yield check_unimodular(sphere, ["x", "y", "z"])
        q3 = build_q_odd(1, field)
        yield check_unimodular(q3.algebra, [q3.x(1), q3.x(2)])
        yield check_unimodular(q3.algebra, [q3.y(1), q3.y(2)])
    for n in range(2, 5):
        vt = vtilde_ring(n, RATIONALS)
        yield vt.x_row()
        yield vt.u_row()
    rng = random.Random(28)
    for field in (RATIONALS, prime_field(5), prime_field(32003)):
        alg = scalar_algebra(field)
        for n in range(2, 6):
            for _ in range(5):
                yield check_unimodular(alg, random_scalar_row(alg, n, rng))


def _unit_queries():
    # Units and non-units: scalars, a Laurent ring, k[x, y]/(xy - 1), the
    # dual numbers k[x]/(x^2) and the sphere, over Q and F_5.
    for field in (RATIONALS, prime_field(5)):
        scalars = scalar_algebra(field)
        yield from (scalars.element(c) for c in (2, 3, 0))
        laurent = adjoin_unit_variable(make_algebra(field, ["x"], []), "t")
        yield from (laurent.element(e) for e in ("t", "2*t^3*t_inv", "t + 1", "x", "x*t"))
        hyperbola = make_algebra(field, ["x", "y"], ["x*y - 1"])
        yield from (hyperbola.element(e) for e in ("x", "3*y^2", "x + y"))
        dual = make_algebra(field, ["x"], ["x^2"])
        yield from (dual.element(e) for e in ("1 + x", "2 - 3*x", "x"))
        sphere = make_algebra(field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
        yield from (sphere.element(e) for e in ("x", "x^2 + y^2 + z^2 + 1", "1 + x"))


def test_splittings_and_inverses_digest():
    # The entries of ``compute_splitting`` on every row above and what
    # ``is_unit`` returns (the inverse, or None) on every query above.
    digest = hashlib.sha256()
    for row in _split_rows():
        digest.update(repr([str(e) for e in compute_splitting(row).entries]).encode())
    for element in _unit_queries():
        digest.update(repr(str(element.is_unit())).encode())
    assert digest.hexdigest() == "026e1bbf6c6053cdc593328fd9d929cc889785ffa116f974056d14fcf4687e42"
