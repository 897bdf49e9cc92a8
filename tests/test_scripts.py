"""The scripts under ``scripts/`` run as their usage lines say."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args) -> list:
    """Run a script in this process as ``python3 scripts/<name> args`` and
    return its printed lines; it must exit 0."""
    path = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [path, *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # each script prepends src/
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(path, run_name="__main__")
    assert exit_info.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_fold_demo_replays_its_certificate(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "fold_demo.py", "4")
    assert lines[-1] == "raw replay verifies: True"


def test_vdk_universal_witness_sizes(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "vdk_universal.py", "--n-min", "2", "--n-max", "3")
    assert lines[0].split() == ["n", "seconds", "witness", "terms"]
    # n and the witness terms; the seconds between them vary.
    assert [(line.split()[0], line.split()[2]) for line in lines[1:]] == [("2", "209"), ("3", "1959")]
