"""Reach ops: the deadline is enforced from outside, a miss is counted in
failed_frac, reach_ok and rows.deadline_misses only, a wrong output fails the
run, and every reach op runs in its own interpreter after all regular
passes."""

import json
import os

import pytest

import run
from umrow_bench import gb_families, metrics, row_addition
from umrow_bench.speed import REFERENCE_PROBE_S


def fake_pass(wall=(1.0, 2.0), rss=30.0, reach=None):
    ops = [[f"op{k}", "q" if k % 2 == 0 else "fp", s, 5, None] for k, s in enumerate(wall)]
    probes = [[REFERENCE_PROBE_S] * 2] * len(ops)  # the reference speed: times are not scaled
    return {"setup_probe": REFERENCE_PROBE_S, "ops": ops, "probes": probes, "rss_mb": rss, "reach": reach or {},
            "spans": [], "counts": {}}


def test_recorded_stalls_are_reach_ops():
    assert {"cyclic-6-fp"} <= set(gb_families.REACH)
    assert set(row_addition.REACH) == {"vdk-vtilde-3-q", "vdk-q-odd-2-q"}


def test_deadline_kills_and_reaps_the_worker():
    setup_s, payload = run.spawn("row-addition", 0, "vdk-q-odd-2-q", False, 0.5)
    assert payload is None and 0 < setup_s < run.SETUP_TIMEOUT_S
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left behind


def test_reach_ops_run_last_each_in_a_fresh_worker(monkeypatch):
    calls = []
    reach = {"a": ["rows.vdk_add", 1.0], "b": ["groebner.buchberger.fp", 2.0]}

    def spawn(workload, seed, mode, traced, timeout):
        calls.append(mode)
        if mode == "pass":
            return 0.1, fake_pass(wall=[0.01] * 100, reach=reach)
        if mode == "setup":
            return 0.1, {"setup_probe": REFERENCE_PROBE_S}
        return 0.1, None  # every reach op misses its deadline

    monkeypatch.setattr(run, "spawn", spawn)
    passes, setups, records = run.measure("row-addition", 0, 0.0, False, 0.0)
    assert calls[0] == "pass" and calls[-2:] == ["a", "b"]
    assert "pass" not in calls[calls.index("a"):]
    assert [r["status"] for r in records] == ["timeout", "timeout"]
    assert [r["deadline"] for r in records] == [1.0, 2.0]
    assert len(setups) == run.SETUP_SAMPLES


def test_a_miss_shows_only_in_the_outcome_metrics():
    passes = [fake_pass(), fake_pass()]
    missed = [{"name": "a", "span": "rows.vdk_add", "status": "timeout", "seconds": 6.0}]
    finished = [{"name": "a", "span": "rows.vdk_add", "status": "ok", "seconds": 50.0}]
    e2e_missed, _ = metrics.end_to_end(passes, [0.1])
    assert e2e_missed["wall_s"] == 3.0 and e2e_missed["peak_rss_mb"] == 30.0
    assert metrics.outcome(passes, missed) == {"failed_frac": 1 / 3, "reach_ok": 0.0}
    assert metrics.outcome(passes, finished) == {"failed_frac": 0.0, "reach_ok": 1.0}
    layers = metrics.per_layer(passes, passes, missed)
    assert layers["rows.deadline_misses"] == 1 and layers["failed_frac"] == 1 / 3
    other = [dict(missed[0], span="groebner.buchberger.fp")]
    assert metrics.per_layer(passes, passes, other)["rows.deadline_misses"] == 0


def fake_spawn(reach_payload):
    """run.spawn with one 100-op pass and every reach op answered by
    ``reach_payload(name)``."""
    reach = {"vdk-vtilde-3-q": ["rows.vdk_add", 3.0], "vdk-q-odd-2-q": ["rows.vdk_add", 3.0]}

    def spawn(workload, seed, mode, traced, timeout):
        if mode == "pass":
            return 0.1, fake_pass(wall=[0.01 * (k + 1) for k in range(100)], reach=reach)
        if mode == "setup":
            return 0.1, {"setup_probe": REFERENCE_PROBE_S}
        return 0.1, reach_payload(mode)

    return spawn


def run_main(monkeypatch, tmp_path, capsys, reach_payload):
    monkeypatch.setattr(run, "spawn", fake_spawn(reach_payload))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "row-addition", "--seed", "1", "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_missed_deadline_does_not_fail_the_run(monkeypatch, tmp_path, capsys):
    code, result = run_main(monkeypatch, tmp_path, capsys, lambda name: None)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 100 + 2  # two passes, two reach ops


def test_a_wrong_reach_output_fails_the_run(monkeypatch, tmp_path, capsys):
    def reach_payload(name):
        if name == "vdk-q-odd-2-q":
            return {"op": [name, "q", 2.5, 0, "check CheckFailed('sum witness does not pair to 1')"]}
        return None

    code, result = run_main(monkeypatch, tmp_path, capsys, reach_payload)
    assert code == 1 and not result["correct"] and result["failed"] == 1
