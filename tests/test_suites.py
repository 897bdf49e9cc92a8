from __future__ import annotations

import json
from dataclasses import replace

import pytest

from umrow import quadrics, rows, suites
from umrow.algebra import RingHom
from umrow.errors import (
    CertificateAssemblyFailed,
    ConfigError,
    NotUnimodular,
    NotWellDefined,
    ShapeError,
    UmrowError,
)
from umrow.fields import RATIONALS, prime_field
from umrow.groebner import GroebnerBasis
from umrow.suites import SuiteConfig, build_cases, run_suite


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig("bogus", 2, 3, RATIONALS)
    with pytest.raises(ConfigError):
        SuiteConfig("all", 0, 3, RATIONALS)
    with pytest.raises(ConfigError):
        SuiteConfig("all", 2, 7, RATIONALS)
    with pytest.raises(ConfigError):
        SuiteConfig("all", 2, 3, RATIONALS, shrink_budget=0)

    # Wrong types would pass the range checks, or fail them with a
    # TypeError, and then break ``run_suite`` or linger in the report.
    good = {"suite": "all", "n_min": 2, "n_max": 3, "field": RATIONALS}
    for bad in (
        {"n_min": 2.5},
        {"n_max": 3.0},
        {"n_min": True},
        {"seed": "a"},
        {"seed": None},
        {"shrink_budget": 2.5},
        {"shrink_budget": False},
        {"field": "q"},
        {"field": None},
    ):
        with pytest.raises(ConfigError, match="must be (an integer|a FieldConfig)"):
            SuiteConfig(**{**good, **bad})


def test_case_lists_are_deterministic():
    cfg = SuiteConfig("all", 2, 3, RATIONALS, timing=False)
    first = [(c.suite, c.n, c.name) for c in build_cases(cfg)]
    second = [(c.suite, c.n, c.name) for c in build_cases(cfg)]
    assert first == second
    assert first == sorted(first)


def test_combined_suite_excludes_small_fold_cases():
    cfg = SuiteConfig("all", 2, 3, RATIONALS, timing=False)
    assert not [c for c in build_cases(cfg) if c.suite == "fold"]
    fold_cfg = SuiteConfig("fold", 3, 3, RATIONALS, timing=False)
    assert [c.name for c in build_cases(fold_cfg)] == ["fold-certificate"]


def test_report_shape_and_determinism():
    cfg = SuiteConfig("euler", 2, 2, RATIONALS, timing=False)
    first = run_suite(cfg)
    second = run_suite(cfg)
    assert first.to_json() == second.to_json()
    payload = json.loads(first.to_json())
    assert payload["summary"]["total"] == len(payload["cases"])
    for case in payload["cases"]:
        assert case["millis"] == 0
        if case["status"] == "fail":
            assert case["witness"]


def test_char_two_cases_decline():
    cfg = SuiteConfig("euler", 2, 2, prime_field(2), timing=False)
    report = run_suite(cfg)
    by_name = {c["name"]: c for c in report.cases}
    assert by_name["delta-universal"]["status"] == "error"
    assert "characteristic" in by_name["delta-universal"]["witness"]
    assert not report.all_pass()


def test_rows_suite_over_prime_field():
    cfg = SuiteConfig("rows", 2, 2, prime_field(5), timing=False)
    report = run_suite(cfg)
    assert report.all_pass(), report.to_json()


def test_rows_below_length_two_decline():
    report = run_suite(SuiteConfig("rows", 1, 1, RATIONALS, timing=False))
    assert {c["name"]: c["status"] for c in report.cases} == {
        "splitting-random": "error",
        "mn-random": "error",
        "vdk-random": "error",
    }
    assert all("n >= 2" in c["witness"] for c in report.cases)
    combined = run_suite(SuiteConfig("all", 1, 1, RATIONALS, timing=False))
    assert not [c for c in combined.cases if c["suite"] == "rows"]
    assert combined.all_pass(), combined.to_json()


# -- one check per fact ---------------------------------------------------------
#
# A case whose identity its constructor checks only calls the constructor.
# Each fault below breaks that identity inside the engine, and the case must
# still end as "fail" with the engine's own message as its witness.


def _off_by_one_hom(source, target, images):
    """The map with its last image moved by 1: a relation pulls back to a
    nonzero residue."""
    images = list(images)
    images[-1] = target.element(images[-1]) + 1
    return RingHom(source, target, images)


# The engine functions the faults replace, as they were.
_coefficients, _row_from_witness, _gen, _add_move = (
    GroebnerBasis._coefficients, quadrics.row_from_witness, rows.ElementaryGen, quadrics.add_move
)


def _doubled_coefficients(gb, f):
    """Twice the coefficients of f: a splitting built from them sums to 2."""
    return [2 * c for c in _coefficients(gb, f)]


def _doubled_witness(parent, entries, witness):
    return _row_from_witness(parent, entries, [2 * w for w in witness])


def _doubled_pair_witness(parent, entries, witness):
    """Doubles the witness of a row of length 2 only.  In ``fold_model_row``
    that is the fold witness, so the universal rows, of length n >= 4, pass
    their own checks and the fault reaches the fold identity."""
    if len(entries) == 2:
        witness = [2 * w for w in witness]
    return _row_from_witness(parent, entries, witness)


def _unequal_ideals(lhs, rhs):
    """Every pair of ideals declared different: the vanishing ideal of a
    point no longer matches its row's."""
    return False


def _shifted_gen(i, j, lam):
    """A generator made with lam + 1 in place of the lam asked for: it is
    recorded and applied as made, so the rows leave the shapes (x, a) and
    (1-x, a)."""
    return _gen(i, j, lam + 1)


def _missed_add_move(i, j, lam):
    """An addition that promises lam * entry i and whose word adds
    (lam + 1) * entry i: the fold stage that uses it misses its promise."""
    macro = _add_move(i, j, lam)
    expand = macro.expand
    return replace(macro, expand=lambda row: [_gen(i, j, g.lam + 1) for g in expand(row)])


FAULTS = {
    "eta-relation": (2, "eta_hom", quadrics, "RingHom", _off_by_one_hom, NotWellDefined),
    "eta-ideal": (2, "segre_point", quadrics, "ideal_equal", _unequal_ideals, ShapeError),
    "ab-identity": (1, "mu_hom", quadrics, "RingHom", _off_by_one_hom, NotWellDefined),
    "e-welldef": (1, "e_endo", quadrics, "RingHom", _off_by_one_hom, NotWellDefined),
    "splitting-sphere": (3, "compute_splitting", GroebnerBasis, "_coefficients", _doubled_coefficients, NotUnimodular),
    "delta-universal": (1, "delta_map", quadrics, "row_from_witness", _doubled_witness, NotUnimodular),
    "mn-random": (2, "mennicke_newman", rows, "ElementaryGen", _shifted_gen, AssertionError),
    "mn-universal": (4, "mennicke_newman", rows, "ElementaryGen", _shifted_gen, AssertionError),
    "fold-witness": (4, "fold_model_row", quadrics, "row_from_witness", _doubled_pair_witness, NotUnimodular),
    "fold-certificate": (4, "fold_model_certificate", quadrics, "add_move", _missed_add_move, CertificateAssemblyFailed),
}


def _run_alone(monkeypatch, name, n):
    """The report of the one case ``name`` at ``n`` over Q."""
    (row,) = [r for r in suites.CASES if r[1] == name]
    monkeypatch.setattr(suites, "CASES", (row,))
    return run_suite(SuiteConfig(row[0], n, n, RATIONALS, timing=False))


@pytest.fixture
def fresh_quadric_caches():
    """Empty the cached quadric builders before and after: a map built
    before the fault would hide it, and one built under it must not leak."""
    cached = [f for f in vars(quadrics).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


@pytest.mark.parametrize("name", FAULTS)
def test_constructor_checks_fail_their_cases(monkeypatch, fresh_quadric_caches, name):
    n, engine, owner, attr, fault, error = FAULTS[name]
    raised = []
    call = getattr(suites, engine)

    def recording(*args, **kwargs):
        try:
            return call(*args, **kwargs)
        except (UmrowError, AssertionError) as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(suites, engine, recording)
    monkeypatch.setattr(owner, attr, fault)
    (case,) = _run_alone(monkeypatch, name, n).cases
    assert case["status"] == "fail"
    assert [type(exc) for exc in raised] == [error]
    assert case["witness"] == str(raised[0])


# -- no fact certified twice -----------------------------------------------------
#
# A case that a constructor certifies derives nothing again: no determinant
# of a word (every generator is I + lam E_ij with i != j), no second replay
# of the fold word, and no composite map built only to read its images.


def _refuse(*args, **kwargs):
    raise AssertionError("this fact is certified by the constructor")


@pytest.mark.parametrize("field", [RATIONALS, prime_field(5)])
def test_mn_random_computes_no_determinant(monkeypatch, field):
    monkeypatch.setattr(rows.ElementaryWord, "determinant", _refuse)
    report = run_suite(SuiteConfig("rows", 2, 6, field, timing=False))
    assert [c["n"] for c in report.cases if c["name"] == "mn-random"] == [2, 3, 4, 5, 6]
    assert report.all_pass(), report.to_json()


def test_fold_certificate_replays_its_word_once(monkeypatch):
    monkeypatch.setattr(suites, "verify_certificate", _refuse)
    report = _run_alone(monkeypatch, "fold-certificate", 4)
    assert [(c["name"], c["status"]) for c in report.cases] == [("fold-certificate", "pass")]


# Ring maps a case builds once the quadric caches are warm (``e_endo``,
# ``mu_prime_hom``, ``build_q_*`` and ``gm_quadric`` are cached).
MAPS_BUILT = {
    # the evaluation at the base point
    "e-basepoint": 1,
    # the section to the base point
    "mu-prime-basepoint": 1,
    # degree_action, and mu_minus_one: an evaluation and its composite with mu
    "degree-composite": 3,
}


@pytest.mark.parametrize("name", MAPS_BUILT)
def test_image_checks_build_no_composite(monkeypatch, name):
    assert _run_alone(monkeypatch, name, 3).all_pass()
    built = []
    init = RingHom.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingHom, "__init__", counting)
    assert _run_alone(monkeypatch, name, 3).all_pass()
    assert len(built) == MAPS_BUILT[name]
