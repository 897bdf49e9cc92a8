from __future__ import annotations

import json

import pytest

from umrow.cli import main
from umrow.errors import ConfigError
from umrow.fileio import (
    field_from_json,
    load_algebra,
    load_rows_bundle,
    word_from_json,
    word_to_json,
)
from umrow.fields import RATIONALS, prime_field
from umrow.rows import ElementaryGen, ElementaryWord


SPHERE = {
    "field": "Q",
    "vars": ["x", "y", "z"],
    "relations": ["x^2 + y^2 + z^2 - 1"],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# -- file formats -----------------------------------------------------------------


def test_field_specs():
    assert field_from_json("Q") == RATIONALS
    assert field_from_json({"Fp": 5}) == prime_field(5)
    with pytest.raises(ConfigError):
        field_from_json({"GF": 4})


@pytest.mark.parametrize("modulus", [5.5, "x", [5], True, "7"], ids=repr)
def test_malformed_prime_modulus_is_a_config_error(tmp_path, capsys, modulus):
    # Only an int names a prime field; nothing else is coerced into one.
    with pytest.raises(ConfigError):
        field_from_json({"Fp": modulus})
    path = write_json(tmp_path / "bad.json", dict(SPHERE, field={"Fp": modulus}))
    assert main(["gb", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: modulus must be a positive prime")


@pytest.mark.parametrize(
    "command, payload",
    [
        ("add", {"algebra": SPHERE, "rows": ["u"]}),
        ("add", {"algebra": SPHERE, "rows": {"u": [1, "x"]}}),
        ("add", {"algebra": ["Q"], "rows": {"u": ["x"]}}),
        ("gb", dict(SPHERE, vars="xyz")),
        ("gb", dict(SPHERE, relations=[1])),
    ],
    ids=["rows-list", "row-entry-int", "algebra-list", "vars-string", "relation-int"],
)
def test_malformed_json_shape_is_a_config_error(tmp_path, capsys, command, payload):
    # vars, relations and row entries are lists of strings, rows a dict.
    path = write_json(tmp_path / "bad.json", payload)
    if command == "add":
        args = ["add", "--rows", path, "--u", "u", "--v", "u"]
    else:
        args = ["gb", "--input", path]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_load_algebra(tmp_path):
    path = write_json(tmp_path / "sphere.json", SPHERE)
    algebra = load_algebra(path)
    assert algebra.variables == ("x", "y", "z")


def test_load_algebra_reports_bad_polynomial(tmp_path):
    bad = dict(SPHERE, relations=["x+*y"])
    path = write_json(tmp_path / "bad.json", bad)
    with pytest.raises(ConfigError) as info:
        load_algebra(path)
    assert "offset 2" in str(info.value)


def test_load_rows_bundle(tmp_path):
    bundle = {
        "algebra": SPHERE,
        "rows": {"coords": ["x", "y", "z"], "unit": ["0", "0", "1"]},
    }
    path = write_json(tmp_path / "rows.json", bundle)
    algebra, rows = load_rows_bundle(path)
    assert set(rows) == {"coords", "unit"}
    assert rows["coords"].verified


def test_load_rows_bundle_flags_non_unimodular(tmp_path):
    bundle = {
        "algebra": {"field": "Q", "vars": ["x", "y"], "relations": []},
        "rows": {"bad": ["x", "y"]},
    }
    path = write_json(tmp_path / "rows.json", bundle)
    with pytest.raises(ConfigError) as info:
        load_rows_bundle(path)
    assert "bad" in str(info.value)


def test_word_serialization_roundtrip():
    from umrow.quadrics import scalar_algebra

    alg = scalar_algebra(RATIONALS)
    word = ElementaryWord(
        3, (ElementaryGen(0, 2, alg.element(5)), ElementaryGen(2, 1, alg.element(-1)))
    )
    data = word_to_json(word)
    assert data["gens"][0] == [1, 3, "5"]
    assert word_from_json(data, alg) == word


# -- subcommands --------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "verify",
        "--suite",
        "identities",
        "--n-min",
        "2",
        "--n-max",
        "2",
        "--field",
        "q",
        "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["error"] == 0


def test_verify_rejects_bad_range(capsys):
    code = main(
        ["verify", "--suite", "all", "--n-min", "3", "--n-max", "2", "--field", "q"]
    )
    assert code == 2


def test_verify_fold_declines_small_n(capsys):
    code, out = run_cli(
        capsys,
        "verify",
        "--suite",
        "fold",
        "--n-min",
        "3",
        "--n-max",
        "3",
        "--field",
        "q",
        "--no-timing",
    )
    assert code == 1
    report = json.loads(out)
    case = report["cases"][0]
    assert case["status"] == "error"
    assert "n >= 4" in case["witness"]


def test_gb_subcommand(tmp_path, capsys):
    cubic = {
        "field": "Q",
        "vars": ["x", "y", "z"],
        "relations": ["x^2 - y", "x^3 - z"],
    }
    path = write_json(tmp_path / "cubic.json", cubic)
    code, out = run_cli(capsys, "gb", "--input", path, "--order", "lex")
    assert code == 0
    payload = json.loads(out)
    assert "y^3 - z^2" in " | ".join(payload["basis"]) or any(
        b == "y^3 - z^2" for b in payload["basis"]
    )


def test_add_subcommand(tmp_path, capsys):
    bundle = {
        "algebra": {"field": "Q", "vars": [], "relations": []},
        "rows": {"u": ["2", "3"], "v": ["5", "7"]},
    }
    path = write_json(tmp_path / "rows.json", bundle)
    code, out = run_cli(capsys, "add", "--rows", path, "--u", "u", "--v", "v")
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == ["-20", "-13"]
    assert payload["word_u"]["n"] == 2


def test_add_rejects_a_budget_below_one(tmp_path, capsys):
    bundle = {
        "algebra": {"field": "Q", "vars": ["x"], "relations": []},
        "rows": {"u": ["1", "x"]},
    }
    path = write_json(tmp_path / "rows.json", bundle)
    code = main(["add", "--rows", path, "--u", "u", "--v", "u", "--shrink-budget", "-1"])
    assert code == 2
    assert "shrink budget" in capsys.readouterr().err


def test_add_unknown_row(tmp_path, capsys):
    bundle = {
        "algebra": {"field": "Q", "vars": [], "relations": []},
        "rows": {"u": ["2", "3"]},
    }
    path = write_json(tmp_path / "rows.json", bundle)
    code = main(["add", "--rows", path, "--u", "u", "--v", "missing"])
    assert code == 2


@pytest.mark.parametrize(
    "name,n",
    [
        ("eta", 2),
        ("mu", 2),
        ("E", 2),
        ("mu-prime", 2),
        ("mu-minus-one", 2),
        ("degree", 2),
        ("delta", 2),
        ("phi", 2),
        ("fold", 4),
    ],
)
def test_map_subcommand(capsys, name, n):
    code, out = run_cli(
        capsys, "map", "--name", name, "--n", str(n), "--field", "q"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == name


def test_map_degree_uses_alpha(capsys):
    code, out = run_cli(
        capsys, "map", "--name", "degree", "--n", "2", "--field", "q", "--alpha", "3"
    )
    payload = json.loads(out)
    assert payload["images"]["x1"] == "3*x1"
    assert payload["images"]["y1"] == "1/3*y1"


def test_report_file_written(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "verify",
        "--suite",
        "euler",
        "--n-min",
        "2",
        "--n-max",
        "2",
        "--field",
        "q",
        "--no-timing",
        "--report",
        str(report_path),
    )
    assert code == 0
    assert report_path.read_text() == out


def test_report_to_bad_path_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "nodir" / "report.json"
    argv = ["verify", "--suite", "euler", "--n-min", "2", "--n-max", "2", "--field", "q"]
    code = main(argv + ["--report", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # refused before the suite ran
    assert captured.err.startswith("error: cannot write report:")
    assert not bad.parent.exists()


def test_load_rows_bundle_missing_algebra_file(tmp_path):
    bundle = {"algebra": "missing.json", "rows": {"u": ["1", "2"]}}
    path = write_json(tmp_path / "rows.json", bundle)
    with pytest.raises(ConfigError):
        load_rows_bundle(path)
