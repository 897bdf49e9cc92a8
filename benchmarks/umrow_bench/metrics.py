"""Metric names, units and the arithmetic that turns worker payloads into
them.  Pure functions of the payloads; this module does not import umrow.

A pass payload is ``{"ops": [[name, field, seconds, terms, error], ...],
"probes": [[before, after], ...], "rss_mb": float, "spans": [...],
"counts": {...}}``, with one pair of speed probes per op; a reach record is
``{"name", "span", "status", "seconds"}`` with status ``ok``, ``failed`` or
``timeout``.
"""

from __future__ import annotations

import math
import statistics

from .spans import self_times
from .speed import REFERENCE_PROBE_S

END_TO_END = {
    "wall_s": "s",
    "q_wall_s": "s",
    "fp_wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_terms": "count",
}

PER_LAYER = {
    "fields.q.arith_ns": "ns",
    "fields.fp.arith_ns": "ns",
    "fields.q.inv_ns": "ns",
    "fields.fp.inv_ns": "ns",
    "poly.mul.q.self_s": "s",
    "poly.mul.fp.self_s": "s",
    "poly.mul.term_pairs": "count",
    "poly.mul.pairs_per_s": "1/s",
    "groebner.buchberger.q.self_s": "s",
    "groebner.buchberger.fp.self_s": "s",
    "groebner.query.self_s": "s",
    "groebner.basis_len": "count",
    "groebner.cofactor_terms": "count",
    "algebra.init.self_s": "s",
    "algebra.mul.self_s": "s",
    "algebra.mul.terms_out": "count",
    "algebra.is_unit.self_s": "s",
    "rows.check_unimodular.self_s": "s",
    "rows.mennicke_newman.self_s": "s",
    "rows.vdk_add.self_s": "s",
    "rows.compute_splitting.self_s": "s",
    "rows.verify_certificate.self_s": "s",
    "rows.word_len": "count",
    "rows.witness_terms": "count",
    "rows.deadline_misses": "count",
    "quadrics.vtilde_ring.self_s": "s",
    "quadrics.fold_model_certificate.self_s": "s",
    "quadrics.fold_word_len": "count",
    "suites.identities.self_s": "s",
    "suites.rows.self_s": "s",
    "suites.fold.self_s": "s",
    "suites.euler.self_s": "s",
    "suites.cases": "count",
    "failed_frac": "ratio",
    "reach_ok": "ratio",
    "trace.overhead": "ratio",
}


def p90(values):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def at_reference(seconds: float, probe: float) -> float:
    """``seconds`` measured while the speed probe read ``probe``, scaled to
    the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe


def scaled(payload):
    """``(field, seconds)`` per op at the reference speed, by the mean of the
    probes taken just before and just after its call."""
    return [
        (f, at_reference(s, (before + after) / 2))
        for (_, f, s, _, _), (before, after) in zip(payload["ops"], payload["probes"])
    ]


def wall(payload, field=None) -> float:
    return sum(s for f, s in scaled(payload) if field in (None, f))


def raw_wall(payload) -> float:
    return sum(s for _, _, s, _, _ in payload["ops"])


def out_terms(payload) -> int:
    return sum(t for _, _, _, t, _ in payload["ops"])


def end_to_end(passes, setup_samples):
    """Op times at the reference speed: wall times as means over the
    untraced passes, latencies pooled over them; medians of the set-up
    samples (already at the reference speed) and of memory."""
    pool = [s for p in passes for _, s in scaled(p)]
    p90_s, beyond = p90(pool)
    metrics = {
        "wall_s": statistics.fmean(wall(p) for p in passes),
        "q_wall_s": statistics.fmean(wall(p, "q") for p in passes),
        "fp_wall_s": statistics.fmean(wall(p, "fp") for p in passes),
        "op_p50_ms": 1000 * statistics.median(pool),
        "op_p90_ms": 1000 * p90_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "out_terms": out_terms(passes[0]),
    }
    return metrics, {
        "op_samples": len(pool),
        "beyond_p90": beyond,
        "pass_walls": [wall(p) for p in passes],
        "raw_pass_walls": [raw_wall(p) for p in passes],
        "probe_ms": 1000 * statistics.median(x for p in passes for pair in p["probes"] for x in pair),
    }


def failed_ops(payload) -> set:
    return {k for k, (_, _, _, _, err) in enumerate(payload["ops"]) if err}


def outcome(passes, reach):
    """``failed_frac`` and ``reach_ok``: an op that failed in any pass counts
    once; reach ops count by their single attempt."""
    failed = set().union(*(failed_ops(p) for p in passes))
    attempted = len(passes[0]["ops"]) + len(reach)
    missed = sum(r["status"] != "ok" for r in reach)
    return {
        "failed_frac": (len(failed) + missed) / attempted,
        "reach_ok": (len(reach) - missed) / len(reach) if reach else 0.0,
    }


def layer_values(payload) -> dict:
    st = self_times(payload["spans"])
    counts = payload["counts"]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = st.get(name[: -len(".self_s")], 0.0)
        elif name.endswith("_ns"):
            span = name[: -len("_ns")]
            n = counts.get(f"{span}_ops", 0)
            out[name] = 1e9 * st.get(span, 0.0) / n if n else 0.0
        elif PER_LAYER[name] == "count":
            out[name] = counts.get(name, 0)
    busy = st.get("poly.mul.q", 0.0) + st.get("poly.mul.fp", 0.0)
    out["poly.mul.pairs_per_s"] = out["poly.mul.term_pairs"] / busy if busy else 0.0
    return out


def per_layer(traced, untraced, reach):
    """Medians over traced passes, the reach outcome, and the tracing
    overhead as the traced wall time over the untraced one, less one."""
    values = [layer_values(p) for p in traced]
    metrics = {
        name: (statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(v[name] for v in values)
        for name in values[0]
    }
    metrics["rows.deadline_misses"] = sum(
        r["status"] == "timeout" and r["span"].startswith("rows.") for r in reach
    )
    metrics.update(outcome(untraced + traced, reach))
    metrics["trace.overhead"] = (
        statistics.median(wall(p) for p in traced) / statistics.median(wall(p) for p in untraced) - 1
    )
    return metrics
