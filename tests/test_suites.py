from __future__ import annotations

import json

import pytest

from umrow import quadrics, rows, suites
from umrow.algebra import RingHom
from umrow.errors import ConfigError, NotUnimodular, NotWellDefined, UmrowError
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
_lift, _row_from_witness, _gen = GroebnerBasis.lift, quadrics.row_from_witness, rows.ElementaryGen


def _doubled_lift(gb, f):
    """Twice a lift of f: a splitting built from it sums to 2."""
    return [2 * c for c in _lift(gb, f)]


def _doubled_witness(parent, entries, witness):
    return _row_from_witness(parent, entries, [2 * w for w in witness])


def _shifted_gen(i, j, lam):
    """A generator recorded with lam + 1 in place of the lam applied: the
    word no longer replays onto the row it claims."""
    return _gen(i, j, lam + 1)


FAULTS = {
    "eta-relation": (2, "eta_hom", quadrics, "RingHom", _off_by_one_hom, NotWellDefined),
    "e-welldef": (1, "e_endo", quadrics, "RingHom", _off_by_one_hom, NotWellDefined),
    "splitting-sphere": (3, "compute_splitting", GroebnerBasis, "lift", _doubled_lift, NotUnimodular),
    "delta-universal": (1, "delta_map", quadrics, "row_from_witness", _doubled_witness, NotUnimodular),
    "mn-random": (2, "mennicke_newman", rows, "ElementaryGen", _shifted_gen, AssertionError),
    "mn-universal": (4, "mennicke_newman", rows, "ElementaryGen", _shifted_gen, AssertionError),
}


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
    (row,) = [r for r in suites.CASES if r[1] == name]
    monkeypatch.setattr(suites, "CASES", (row,))
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
    report = run_suite(SuiteConfig(row[0], n, n, RATIONALS, timing=False))
    (case,) = report.cases
    assert case["status"] == "fail"
    assert [type(exc) for exc in raised] == [error]
    assert case["witness"] == str(raised[0])
