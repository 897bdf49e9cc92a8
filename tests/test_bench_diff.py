"""``scripts/bench_diff.py`` counts each reach op's statuses per side and
keeps its median seconds, marks a gain only by the claim rule, and keeps
the per-layer medians of traced runs unmarked."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_diff.py"
spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)


def _write_runs(directory: Path, statuses, walls=None, reach_secs=None) -> None:
    directory.mkdir()
    names = bench_diff.metric_specs()
    for seed, status in enumerate(statuses, start=1):
        metrics = {name: {"value": 1.0, "unit": ""} for name in names}
        if walls:
            metrics["wall_s"]["value"] = walls[seed - 1]
        record = {
            "correct": True,
            "failed": 0,
            "metrics": metrics,
            "environment": {"python": "3", "cpus": 1},
            "reach": [
                {"name": "slow-op", "status": status,
                 "seconds": reach_secs[seed - 1] if reach_secs else 3.0},
                {"name": "fast-op", "status": "ok", "seconds": 0.1},
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


def test_build_and_diff_report_reach_median_seconds(tmp_path, capsys):
    # A run that timed out is recorded at its deadline, 3 s.
    _write_runs(tmp_path / "parent", ["timeout", "timeout", "ok"], reach_secs=[3.0, 3.0, 2.5])
    _write_runs(tmp_path / "change", ["ok", "ok", "ok"], reach_secs=[0.6, 0.48, 0.52])
    record = bench_diff.build(tmp_path / "parent", tmp_path / "change", "abc")
    secs = record["workloads"]["gb-families"]["reach_seconds"]
    assert secs == {"parent": {"slow-op": 3.0, "fast-op": 0.1}, "change": {"slow-op": 0.52, "fast-op": 0.1}}
    bench_diff.diff(record, None)
    out = capsys.readouterr().out
    assert "ok 1, timeout 2 -> ok 3  (median 3 -> 0.52 s)" in out
    assert "ok 3 -> ok 3  (median 0.1 -> 0.1 s)" in out
    bench_diff.diff(record, record)  # two files: change medians on both sides
    assert "ok 3 -> ok 3  (median 0.52 -> 0.52 s)" in capsys.readouterr().out
    old = json.loads(json.dumps(record))
    del old["workloads"]["gb-families"]["reach_seconds"]  # a record from before the medians
    bench_diff.diff(old, record)
    assert "ok 3 -> ok 3  (median - -> 0.52 s)" in capsys.readouterr().out
    bench_diff.diff(old, None)  # no medians on either side: none printed
    assert "ok 1, timeout 2 -> ok 3\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "shift, losses, pairs, marked",
    [(-0.2, (), 10, True), (-0.05, (), 10, False), (-0.2, (3, 8), 10, False), (0.2, (), 10, False),
     (-0.2, (), 5, False)],
    ids=["clear-gain", "inside-parent-iqr", "8-of-10-won", "slower", "5-pairs"],
)
def test_diff_marks_a_gain_by_the_claim_rule(tmp_path, capsys, shift, losses, pairs, marked):
    # Parent walls 1.00, 1.02, ... s (10 pairs: median 1.09 s, q3 - q1 =
    # 0.09 s).  The change is shifted by ``shift``, except the seeds in
    # ``losses``, which it loses by 0.01 s.
    parent = [1.0 + 0.02 * k for k in range(pairs)]
    change = [p + 0.01 if seed in losses else p + shift for seed, p in enumerate(parent, start=1)]
    _write_runs(tmp_path / "parent", ["ok"] * pairs, parent)
    _write_runs(tmp_path / "change", ["ok"] * pairs, change)
    record = bench_diff.build(tmp_path / "parent", tmp_path / "change", "abc")
    bench_diff.diff(record, None)
    lines = capsys.readouterr().out.splitlines()
    wall = next(line for line in lines if line.split()[0] == "wall_s")
    assert wall.endswith("  gain") == marked
    assert not any(line.endswith("  gain") for line in lines if line.split()[0] != "wall_s")
    bench_diff.diff(record, record)  # two files: no pairs to count, so no mark
    assert "gain" not in capsys.readouterr().out


def _write_traced(directory: Path, values) -> None:
    names = bench_diff.metric_specs("per_layer")
    for seed, value in enumerate(values, start=1):
        metrics = {name: {"value": 0.0, "unit": ""} for name in names}
        metrics["fields.q.arith_ns"]["value"] = value
        (directory / f"kernels-seed{seed}-trace1.json").write_text(json.dumps({"metrics": metrics}))


def test_build_keeps_per_layer_medians_of_traced_runs(tmp_path, capsys):
    _write_runs(tmp_path / "parent", ["ok"] * 3)
    _write_runs(tmp_path / "change", ["ok"] * 3)
    _write_traced(tmp_path / "parent", [400.0, 100.0, 300.0])
    _write_traced(tmp_path / "change", [200.0, 120.0])
    (tmp_path / "change" / "kernels-seed1-trace1-spans.json").write_text("[]")  # not a record
    record = bench_diff.build(tmp_path / "parent", tmp_path / "change", "abc")
    layers = record["layers"]["kernels"]
    assert layers["seeds"] == {"parent": [1, 2, 3], "change": [1, 2]}
    assert layers["metrics"]["fields.q.arith_ns"] == {"unit": "ns", "parent": 300.0, "change": 160.0}
    assert "kernels" not in record["workloads"]  # no untraced kernels runs
    bench_diff.diff(record, None)
    lines = capsys.readouterr().out.splitlines()
    assert "kernels per layer (traced runs: 3 -> 2)" in lines
    layer = [line for line in lines if line.split()[0].startswith("fields.")]
    assert len(layer) == 1 and layer[0].split()[1:] == ["300", "->", "160", "ns", "-46.7%"]
    assert not any(line.endswith(("gain", "worse")) or "won" in line for line in layer)
    bench_diff.diff(record, record)  # two files: change medians on both sides
    assert "160 ->        160 ns" in capsys.readouterr().out
    del record["layers"]
    bench_diff.diff(record, None)  # a record from before the medians
    assert "per layer" not in capsys.readouterr().out
