"""``scripts/bench_diff.py`` counts each reach op's statuses per side."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_diff.py"
spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)


def _write_runs(directory: Path, statuses) -> None:
    directory.mkdir()
    names = bench_diff.metric_specs()
    for seed, status in enumerate(statuses, start=1):
        record = {
            "correct": True,
            "failed": 0,
            "metrics": {name: {"value": 1.0, "unit": ""} for name in names},
            "environment": {"python": "3", "cpus": 1},
            "reach": [
                {"name": "slow-op", "status": status},
                {"name": "fast-op", "status": "ok"},
            ],
        }
        (directory / f"gb-families-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_build_and_diff_report_reach_statuses(tmp_path, capsys):
    _write_runs(tmp_path / "parent", ["timeout", "timeout", "ok"])
    _write_runs(tmp_path / "change", ["ok", "ok", "ok"])
    record = bench_diff.build(tmp_path / "parent", tmp_path / "change", "abc")
    reach = record["workloads"]["gb-families"]["reach"]
    assert reach["parent"] == {"slow-op": {"timeout": 2, "ok": 1}, "fast-op": {"ok": 3}}
    assert reach["change"] == {"slow-op": {"ok": 3}, "fast-op": {"ok": 3}}
    bench_diff.diff(record, None)
    out = capsys.readouterr().out
    assert "reach slow-op" in out and "ok 1, timeout 2 -> ok 3" in out
    old = json.loads(json.dumps(record))
    del old["workloads"]["gb-families"]["reach"]  # a record from before the counts
    bench_diff.diff(old, record)
    assert "- -> ok 3" in capsys.readouterr().out
