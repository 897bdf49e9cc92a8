from __future__ import annotations

import json

import pytest

from umrow.errors import ConfigError
from umrow.fields import RATIONALS, prime_field
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
