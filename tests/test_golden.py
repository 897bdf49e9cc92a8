"""The byte-stable report of the combined suite over n = 2..6 is pinned by
its sha256, per field, and so are the printouts of every named morphism and
of `gb` and `add` on the sphere; a refactor must leave all four digests
unchanged."""

from __future__ import annotations

import hashlib
import json

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


def test_gb_and_add_printouts_digest(tmp_path, capsys):
    # `gb` on the sphere under both orders and `add` of (x, y, z) + (y, z, x)
    # on the sphere, over q and fp:5; one digest over all six outputs.
    digest = hashlib.sha256()
    for field in ("Q", {"Fp": 5}):
        sphere = {"field": field, "vars": ["x", "y", "z"]}
        sphere["relations"] = ["x^2 + y^2 + z^2 - 1"]
        algebra = tmp_path / "sphere.json"
        algebra.write_text(json.dumps(sphere))
        for order in ("lex", "grevlex"):
            assert main(["gb", "--input", str(algebra), "--order", order]) == 0
            digest.update(capsys.readouterr().out.encode())
        bundle = tmp_path / "rows.json"
        rows = {"u": ["x", "y", "z"], "v": ["y", "z", "x"]}
        bundle.write_text(json.dumps({"algebra": sphere, "rows": rows}))
        assert main(["add", "--rows", str(bundle), "--u", "u", "--v", "v"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "786a99ab11f1ebcd135eb816fd6c40c5ded2be24f2ec9c7c9c5f8e2a38a6add9"
