"""The byte-stable report of the combined suite over n = 2..6 is pinned by
its sha256, per field; a refactor must leave both digests unchanged."""

from __future__ import annotations

import hashlib

import pytest

from umrow.fields import RATIONALS, prime_field
from umrow.suites import SuiteConfig, run_suite


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
