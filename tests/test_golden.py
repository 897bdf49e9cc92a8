"""The byte-stable report of the combined suite over n = 2..6 is pinned by
its sha256, per field, and so are the printouts of every named morphism; a
refactor must leave all three digests unchanged."""

from __future__ import annotations

import hashlib

import pytest

from umrow.cli import MORPHISMS, main
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
