"""One cold run of a workload in a fresh interpreter; started by run.py.

    python3 benchmarks/worker.py WORKLOAD SEED MODE TRACE

MODE is ``pass`` (set up, then run every regular op once), ``setup`` (set
up and stop) or the name of one of the workload's reach ops.  The worker
prints ``ready`` as soon as set-up is done, ``done`` when a reach op's call
returns, and then one JSON line with its results.  In a pass each op's call
sits between two speed probes (``umrow_bench.speed``).  umrow must be importable (run.py puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import warnings

from umrow_bench import gb_families, kernels, row_addition, verify_suite
from umrow_bench.core import terms
from umrow_bench.spans import Tracer
from umrow_bench.speed import probe_s

WORKLOADS = {
    w.name: w
    for w in (gb_families.WORKLOAD, row_addition.WORKLOAD, verify_suite.WORKLOAD, kernels.WORKLOAD)
}


def run_op(op, tracer, returned=lambda: None):
    """Time ``op.call`` and check its output; returns (output, record) with
    output ``None`` when the op raised or failed its check.  ``returned`` is
    called as soon as the call is over."""
    start = time.perf_counter()
    try:
        with tracer.span(op.span):
            out = op.call()
    except Exception as exc:  # an op that raises is recorded, and the pass goes on
        returned()
        traceback.print_exc()
        return None, [op.name, op.field, time.perf_counter() - start, 0, f"raised {exc!r}"]
    seconds = time.perf_counter() - start
    returned()
    try:
        op.check(out)
    except Exception as exc:  # a failed or crashed check fails the op
        traceback.print_exc()
        return None, [op.name, op.field, seconds, 0, f"check {exc!r}"]
    return out, [op.name, op.field, seconds, terms(out), None]


def main(argv) -> int:
    name, seed, mode, trace = argv
    channel = sys.stdout
    sys.stdout = sys.stderr  # only the protocol lines go to the parent

    def emit(line: str) -> None:
        channel.write(line + "\n")
        channel.flush()

    warnings.simplefilter("ignore")  # vdk_add's advisory dimension warning
    workload = WORKLOADS[name]
    tracer = Tracer(trace == "1")
    if mode not in ("pass", "setup"):
        op = workload.reach(mode, tracer)
        emit("ready")
        _, record = run_op(op, tracer, lambda: emit("done"))
        emit(json.dumps({"op": record}))
        return 0
    state = workload.setup(int(seed), tracer)
    emit("ready")
    setup_probe = probe_s()  # the speed the set-up ran at, for scaling its time
    if mode == "setup":
        emit(json.dumps({"setup_probe": setup_probe}))
        return 0
    records, probes = [], []
    ops = workload.ops(state, tracer)
    out = None
    while True:
        try:
            op = ops.send(out)
        except StopIteration:
            break
        tracer.op = len(records)
        before = probe_s()
        out, record = run_op(op, tracer, lambda: probes.append((before, probe_s())))
        records.append(record)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(json.dumps({
        "setup_probe": setup_probe,
        "ops": records,
        "probes": probes,
        "rss_mb": rss_mb,
        "reach": workload.reach_ops,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
