#!/usr/bin/env python3
"""Build a BENCH record from benchmark runs, and print the change it shows.

A BENCH file holds, for each workload and end-to-end metric, the quartiles
(q1, median, q3) of the runs at a parent commit and of the runs with a
change, and how many seed-matched pairs the change won; and, for each reach
op, how many runs of each side ended in each status (ok, timeout, failed),
and the median of their ``seconds`` (a run that timed out counts at its
deadline).
Its inputs are the records that ``benchmarks/run.py --trace 0`` writes under
``.bench_out/`` (``<workload>-seed<N>-trace0.json``), one directory per side.
Where a directory also holds ``--trace 1`` records (``*-trace1.json``), the
BENCH file keeps, per workload and side, the median of each per-layer metric
over them: where in the program a saving sits.

    python3 scripts/bench_diff.py build PARENT_DIR CHANGE_DIR --parent SHA > BENCH_<n>.json
    python3 scripts/bench_diff.py diff BENCH_<n>.json
    python3 scripts/bench_diff.py diff BENCH_<m>.json BENCH_<n>.json

``diff`` with one file prints its parent -> change medians; with two, the
change medians of the first file -> those of the second, for the workloads
and metrics both hold.  A metric is marked ``worse`` when it moved the wrong
way by more than the bound ``BENCHMARK.json`` fixes for it.  With one file, a
metric is marked ``gain`` when at least ten pairs were run, the change won at
least 9 of every 10 of them, and its median beat the parent's by more than
the parent's q3 - q1: the rule a claimed gain must meet.  Per-layer medians
are printed after the end-to-end metrics, with no mark: they locate a change
and are no claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # the fewest pairs a claimed gain may rest on


def metric_specs(kind: str = "end_to_end") -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def load_runs(directory: Path, trace: int = 0) -> dict:
    """{workload: {seed: record}} for the records in ``directory`` made with
    ``--trace`` ``trace``."""
    runs: dict = {}
    suffix = f"-trace{trace}.json"
    for path in sorted(directory.glob(f"*-seed*{suffix}")):
        workload, seed = path.name[: -len(suffix)].rsplit("-seed", 1)
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return runs


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def reach_counts(records: list) -> dict:
    """{reach op: {status: runs}} over the ``reach`` fields of ``records``."""
    counts: dict = {}
    for record in records:
        for op in record["reach"]:
            statuses = counts.setdefault(op["name"], {})
            statuses[op["status"]] = statuses.get(op["status"], 0) + 1
    return counts


def reach_seconds(records: list) -> dict:
    """{reach op: median seconds} over the ``reach`` fields of ``records``."""
    seconds: dict = {}
    for record in records:
        for op in record["reach"]:
            seconds.setdefault(op["name"], []).append(op["seconds"])
    return {name: statistics.median(values) for name, values in seconds.items()}


def build(parent_dir: Path, change_dir: Path, parent_sha: str) -> dict:
    specs = metric_specs()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    workloads = {}
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if not seeds:
            continue
        sides = {"parent": [parent[workload][s] for s in seeds], "change": [change[workload][s] for s in seeds]}
        metrics = {}
        for name, spec in specs.items():
            values = {side: [r["metrics"][name]["value"] for r in recs] for side, recs in sides.items()}
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            metrics[name] = {
                "unit": spec["unit"],
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "wins": wins,
            }
        workloads[workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for recs in sides.values() for r in recs),
            "failed": {side: sum(r["failed"] for r in recs) for side, recs in sides.items()},
            "metrics": metrics,
            "reach": {side: reach_counts(recs) for side, recs in sides.items()},
            "reach_seconds": {side: reach_seconds(recs) for side, recs in sides.items()},
        }
    env = next(r for recs in change.values() for r in recs.values())["environment"]
    record = {
        "parent": parent_sha,
        "command": "python3 benchmarks/run.py --workload W --seed N --seconds 20 --trace 0",
        "python": env["python"],
        "cpus": env["cpus"],
        "workloads": workloads,
    }
    layers = layer_medians(load_runs(parent_dir, 1), load_runs(change_dir, 1))
    if layers:
        record["layers"] = layers
    return record


def layer_medians(parent: dict, change: dict) -> dict:
    """{workload: {"seeds", "metrics"}} with each side's median of each
    per-layer metric over its traced records, for the workloads both sides
    traced; the seeds need not match, as no pair is counted."""
    specs = metric_specs("per_layer")
    layers = {}
    for workload in sorted(parent.keys() & change.keys()):
        sides = {"parent": parent[workload], "change": change[workload]}
        layers[workload] = {
            "seeds": {side: sorted(runs) for side, runs in sides.items()},
            "metrics": {
                name: {"unit": spec["unit"]} | {
                    side: statistics.median(r["metrics"][name]["value"] for r in runs.values())
                    for side, runs in sides.items()
                }
                for name, spec in specs.items()
            },
        }
    return layers


def gained(metric: dict, spec: dict, pairs: int) -> bool:
    """Whether, over at least ``MIN_PAIRS`` pairs, the change won at least
    9/10 of them and its median beat the parent's by more than the parent's
    interquartile range."""
    q1, median, q3 = metric["parent"]
    sign = 1 if spec["better"] == "lower" else -1
    return (
        pairs >= MIN_PAIRS
        and 10 * metric["wins"] >= 9 * pairs
        and sign * (median - metric["change"][1]) > q3 - q1
    )


def diff(old: dict, new: dict | None) -> None:
    """Print the median of each metric before -> after, its relative change,
    whether it got worse by more than its bound, and, with one file, whether
    it meets the rule for a claimed gain."""
    specs = metric_specs()
    own = new is None
    before, new = ("parent", old) if own else ("change", new)
    for workload, w_new in new["workloads"].items():
        w_old = old["workloads"].get(workload)
        if w_old is None:
            continue
        print(f"{workload} (seeds {w_new['seeds'][0]}-{w_new['seeds'][-1]}, {len(w_new['seeds'])} runs)")
        for name, m_new in w_new["metrics"].items():
            m_old = w_old["metrics"].get(name)
            if m_old is None:
                continue
            a, b = m_old[before][1], m_new["change"][1]
            rel = (b - a) / a if a else 0.0
            spec = specs.get(name)
            worse = spec is not None and (rel if spec["better"] == "lower" else -rel) > spec["bound"]
            gain = own and spec is not None and gained(m_new, spec, len(w_new["seeds"]))
            wins = f"  {m_new['wins']}/{len(w_new['seeds'])} won" if own else ""
            print(f"  {name:12s} {a:10.4g} -> {b:10.4g} {m_new['unit']:5s} {rel:+7.1%}{wins}"
                  f"{'  worse' if worse else ''}{'  gain' if gain else ''}")
        # BENCH files written before reach counts, or their seconds, were
        # kept have none.
        reach_old = w_old.get("reach", {}).get(before, {})
        secs_old = w_old.get("reach_seconds", {}).get(before, {})
        secs_new = w_new.get("reach_seconds", {}).get("change", {})
        for name, counts in w_new.get("reach", {}).get("change", {}).items():
            a, b = secs_old.get(name), secs_new.get(name)
            medians = "" if a is None and b is None else f"  (median {seconds(a)} -> {seconds(b)} s)"
            print(f"  reach {name:16s} {statuses(reach_old.get(name))} -> {statuses(counts)}{medians}")
    # BENCH files written before per-layer medians were kept have none.
    for workload, l_new in new.get("layers", {}).items():
        l_old = old.get("layers", {}).get(workload)
        if l_old is None:
            continue
        print(f"{workload} per layer (traced runs: {len(l_old['seeds'][before])} -> {len(l_new['seeds']['change'])})")
        for name, m_new in l_new["metrics"].items():
            m_old = l_old["metrics"].get(name)
            if m_old is None:
                continue
            a, b = m_old[before], m_new["change"]
            if not (a or b):
                continue  # a layer the workload does not reach
            rel = f"{(b - a) / a:+7.1%}" if a else ""
            print(f"  {name:36s} {a:10.4g} -> {b:10.4g} {m_new['unit']:5s} {rel}")


def statuses(counts: dict | None) -> str:
    """'ok 3, timeout 2' for {status: runs}; '-' when there is no count."""
    return ", ".join(f"{status} {n}" for status, n in sorted(counts.items())) if counts else "-"


def seconds(median: float | None) -> str:
    """'0.512' for a median; '-' when none was kept."""
    return "-" if median is None else f"{median:.3g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="print a BENCH record built from two record directories")
    b.add_argument("parent_dir", type=Path)
    b.add_argument("change_dir", type=Path)
    b.add_argument("--parent", required=True, help="git commit the parent runs were made at")
    d = sub.add_parser("diff", help="print the change one BENCH file shows, or from one to the next")
    d.add_argument("files", type=Path, nargs="+")
    args = ap.parse_args()
    if args.command == "build":
        print(json.dumps(build(args.parent_dir, args.change_dir, args.parent), indent=1))
        return 0
    if len(args.files) > 2:
        ap.error("diff takes one or two BENCH files")
    old, *rest = (json.loads(f.read_text()) for f in args.files)
    diff(old, rest[0] if rest else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
