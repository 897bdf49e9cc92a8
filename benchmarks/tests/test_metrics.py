"""Metric arithmetic, and agreement between the code and BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import run
import worker
from umrow_bench import metrics
from umrow_bench.spans import Tracer, self_times
from umrow_bench.speed import REFERENCE_PROBE_S, probe_s

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_declared_metrics_and_workloads_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metrics.PER_LAYER
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(worker.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "benchmarks/run.py"]


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["inner", 5.0, 6.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    assert self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_tracer_records_parents_and_nothing_when_off():
    on, off = Tracer(True), Tracer(False)
    for tr in (on, off):
        with tr.span("a"):
            with tr.span("b"):
                tr.count("n", 2)
    assert [s[0] for s in on.spans] == ["a", "b"] and on.spans[1][3] == 0
    assert on.counts == {"n": 2}
    assert off.spans == [] and not off.counts


def test_p90_has_ten_samples_beyond_it_at_one_hundred():
    value, beyond = metrics.p90(range(1, 101))
    assert (value, beyond) == (90, 10)


def test_layer_values_divide_by_counts():
    payload = {
        "spans": [["fields.q.arith", 0.0, 2e-6, None, 0], ["poly.mul.fp", 0.0, 0.5, None, 1]],
        "counts": {"fields.q.arith_ops": 4, "poly.mul.term_pairs": 100},
    }
    values = metrics.layer_values(payload)
    assert abs(values["fields.q.arith_ns"] - 500.0) < 1e-6
    assert values["poly.mul.pairs_per_s"] == 200.0
    assert values["fields.fp.inv_ns"] == 0.0 and values["suites.cases"] == 0


def pass_of(n_ops):
    return {"ops": [[f"op{k}", "q", 0.001 * (k + 1), 1, None] for k in range(n_ops)],
            "probes": [[REFERENCE_PROBE_S] * 2] * n_ops, "setup_probe": REFERENCE_PROBE_S, "rss_mb": 1.0,
            "reach": {}, "spans": [], "counts": {}}


def test_passes_continue_until_ten_samples_lie_beyond_p90(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda *a: (0.1, pass_of(30)))
    passes, _, _ = run.measure("kernels", 0, 0.0, False, 0.0)
    assert len(passes) == 4  # 90 samples leave 9 beyond p90, 120 leave 12
    assert run.beyond_p90(passes) == 12


def test_too_few_samples_beyond_p90_refuse_to_report(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda *a: (0.1, pass_of(30)))
    monkeypatch.setattr(run, "PASS_LIMIT_S", -1.0)
    with pytest.raises(run.BenchError, match="beyond p90"):
        run.measure("kernels", 0, 0.0, False, 0.0)


def test_wall_times_are_means_over_passes_at_the_reference_speed():
    ref = REFERENCE_PROBE_S
    first = {"ops": [["a", "q", 3.0, 1, None], ["b", "fp", 1.0, 1, None]], "probes": [[ref, ref]] * 2, "rss_mb": 10.0}
    # a pass on a core running at half speed: every probe takes twice as long
    second = {"ops": [["a", "q", 4.0, 1, None], ["b", "fp", 8.0, 1, None]],
              "probes": [[2 * ref, 2 * ref], [ref, 3 * ref]], "rss_mb": 12.0}
    e2e, info = metrics.end_to_end([first, second], [0.2, 0.1, 0.3])
    assert (e2e["wall_s"], e2e["q_wall_s"], e2e["fp_wall_s"]) == (5.0, 2.5, 2.5)
    assert e2e["op_p50_ms"] == 2500.0 and e2e["op_p90_ms"] == 4000.0
    assert e2e["setup_s"] == 0.2 and e2e["peak_rss_mb"] == 11.0
    assert info["pass_walls"] == [4.0, 6.0] and info["raw_pass_walls"] == [4.0, 12.0]
    assert info["op_samples"] == 4


def test_probe_reads_a_positive_time():
    assert 0 < probe_s() < 1


def test_setup_times_are_scaled_by_the_probe_after_them(monkeypatch):
    slow = dict(pass_of(100), setup_probe=2 * REFERENCE_PROBE_S)
    monkeypatch.setattr(run, "spawn", lambda *a: (0.4, slow))
    passes, setups, _ = run.measure("kernels", 0, 0.0, False, 0.0)
    assert len(passes) == run.MIN_PASSES and setups == [0.2] * run.SETUP_SAMPLES
