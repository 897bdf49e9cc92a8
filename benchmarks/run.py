"""The umrow benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload is a fresh
interpreter (``worker.py``), because umrow's process-wide caches make a warm
rerun a different program.  Passes repeat while another one fits in
``--seconds``.  A single closed-loop client runs one op at a time.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: wall times as means over the passes,
latencies pooled over them (with at least ten samples beyond p90), set-up
time as the median over at least seven cold starts.  Op and set-up times
are scaled to a reference CPU speed by speed probes taken around each op and
right after set-up (``umrow_bench/speed.py``), because a shared host's speed
shifts between regimes for seconds at a time; the unscaled pass walls are
printed and kept in the record.  With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, including the tracing overhead.  Reach ops (inputs that
stall today) each run after the passes in their own interpreter under a
deadline; they count only towards ``failed_frac``, ``reach_ok`` and
``rows.deadline_misses``.

On seed 0 the run first checks the golden ``umrow verify`` report hashes in
separate interpreters and refuses to report if they changed.  The exit code
is 0 only if every regular op ran and every output check passed, those of
the reach ops that finished included; a reach op that misses its deadline
is counted, not failed.  A record of the run, with the git commit, Python
version, CPU count and load average, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path

from umrow_bench import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("gb-families", "row-addition", "verify-suite", "kernels")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60.0
CHECK_TIMEOUT_S = 60.0
RUN_LIMIT_S = 165.0  # every pass and reach op must end by then
PASS_LIMIT_S = 90.0  # no pass may be expected to end after this
MIN_BEYOND_P90 = 10  # latency samples the pool must hold beyond its p90
MIN_PASSES = 2  # untraced passes, so that a wall time is never a single reading

GOLDEN_ARGS = ["verify", "--suite", "all", "--n-min", "2", "--n-max", "6", "--no-timing"]
GOLDEN = {
    "q": "a6f3b9d1a5a7e0505fd80aca477908db3688a4a460fd81c02673a88af9d967e5",
    "fp:5": "5cec86b65beb20d3fa8773733fee4576f21f5c2eac1f695a8d46f3ef7fbc5aef",
}


class BenchError(Exception):
    """The run cannot produce a result."""


class WorkerDied(BenchError):
    """A worker exited without printing its result."""


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Lines:
    """Line reader on a child's stdout with a timeout per line."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""

    def next(self, timeout: float):
        """The next line, or None on timeout; EOFError if the child closed
        its stdout first."""
        end = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


def spawn(workload: str, seed: int, mode: str, traced: bool, timeout: float):
    """Start a worker and wait at most ``timeout`` seconds after it is ready
    for its result, or for a reach op's call to return.

    Returns (seconds from spawn to ready, payload), with payload None when
    the worker missed the timeout.  Raises WorkerDied if it exited without
    a result.  The worker is always ended and reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), mode, "1" if traced else "0"],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
    )
    try:
        lines = Lines(proc.stdout)
        try:
            if lines.next(SETUP_TIMEOUT_S) != "ready":
                raise BenchError(f"{workload} {mode} worker did not finish set-up")
            setup_s = time.perf_counter() - start
            line = lines.next(timeout)
            if line == "done":  # in time; the op's output check is not
                line = lines.next(CHECK_TIMEOUT_S)
                if line is None:
                    raise BenchError(f"{workload} {mode} output check did not finish")
        except EOFError:
            raise WorkerDied(f"{workload} {mode} worker exited with code {proc.wait()}") from None
        return setup_s, (json.loads(line) if line is not None else None)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def golden_gate() -> None:
    """The ``--no-timing`` reports of ``umrow verify`` must hash as recorded;
    each runs in its own interpreter so it warms nothing that is timed."""
    for field, want in GOLDEN.items():
        done = subprocess.run(
            [sys.executable, "-m", "umrow", *GOLDEN_ARGS, "--field", field],
            stdout=subprocess.PIPE,
            env=worker_env(),
            cwd=ROOT,
            timeout=120,
        )
        got = hashlib.sha256(done.stdout).hexdigest()
        if done.returncode != 0 or got != want:
            raise BenchError(f"golden gate: verify --field {field} hashes to {got}, not {want}")


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def beyond_p90(passes) -> int:
    pool = [s for p in passes if not p["traced"] for _, _, s, _, _ in p["ops"]]
    return metrics.p90(pool)[1] if pool else 0


def measure(workload: str, seed: int, seconds: float, trace: bool, started: float):
    """Cold passes, at least two untraced (and one traced when tracing),
    while another fits in ``seconds`` and, beyond that, while the untraced
    latency pool holds too few samples beyond its p90; then set-up-only
    starts up to the sample count, then the reach ops."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        setup_s, payload = spawn(workload, seed, "pass", traced, budget)
        if payload is None:
            raise BenchError(f"{workload} pass did not finish within the run limit")
        payload["traced"] = traced
        passes.append(payload)
        if not traced:
            setups.append(metrics.at_reference(setup_s, payload["setup_probe"]))
        untraced = sum(not p["traced"] for p in passes)
        if untraced < MIN_PASSES or (trace and untraced == len(passes)):
            continue
        next_end = (time.perf_counter() - t0) * (len(passes) + 1) / len(passes)
        tail_short = beyond_p90(passes) < MIN_BEYOND_P90
        if tail_short and next_end > PASS_LIMIT_S:
            raise BenchError(f"fewer than {MIN_BEYOND_P90} latency samples beyond p90 within {PASS_LIMIT_S} s")
        if not tail_short and next_end > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setup_s, payload = spawn(workload, seed, "setup", False, SETUP_TIMEOUT_S)
        setups.append(metrics.at_reference(setup_s, payload["setup_probe"]))
    reach = []
    for name, (span, deadline) in passes[0]["reach"].items():
        record = {"name": name, "span": span, "status": "timeout", "seconds": deadline, "deadline": deadline}
        try:
            _, payload = spawn(workload, seed, name, False, deadline)
        except WorkerDied as exc:
            payload = {"op": [name, "", 0.0, 0, str(exc)]}
        if payload is not None:
            _, _, secs, _, err = payload["op"]
            record.update(status="failed" if err else "ok", seconds=secs, error=err)
        reach.append(record)
    return passes, setups, reach


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "umrow" / "__init__.py").is_file():
        print(f"umrow sources not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print(f"# umrow benchmark {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={env['git_sha']} python={env['python']} cpus={env['cpus']} loadavg={env['loadavg']}")
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(WORKER.parent), quiet=1)
    try:
        if args.seed == 0:
            golden_gate()
        passes, setups, reach = measure(args.workload, args.seed, args.seconds, bool(args.trace), started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark refused to report: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e, info = metrics.end_to_end(untraced, setups)
    problems = [f"{p['ops'][k][0]}: {p['ops'][k][4]}" for p in passes for k in sorted(metrics.failed_ops(p))]
    # A reach op that missed its deadline is recorded, not a failure of the
    # run; one that raised, failed its check or lost its worker is.
    problems += [f"reach {r['name']}: {r['error']}" for r in reach if r["status"] == "failed"]
    if len({metrics.out_terms(p) for p in passes}) != 1:
        problems.append("passes of one seed returned different numbers of terms")
    failed = sum(len(metrics.failed_ops(p)) for p in passes) + sum(r["status"] == "failed" for r in reach)
    outcome = metrics.outcome(passes, reach)

    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; {len(passes[0]['ops'])} ops each; "
          f"setup samples: {len(setups)}")
    print(f"# op samples: {info['op_samples']}, beyond p90: {info['beyond_p90']}; "
          f"pass walls (s): {' '.join(f'{w:.3f}' for w in info['pass_walls'])}; "
          f"unscaled: {' '.join(f'{w:.3f}' for w in info['raw_pass_walls'])}; "
          f"median probe: {info['probe_ms']:.3f} ms")
    for r in reach:
        print(f"# reach {r['name']}: {r['status']} ({r['seconds']:.3f} s, deadline {r['deadline']} s)")
    reported, units = e2e, metrics.END_TO_END
    if args.trace:
        reported, units = metrics.per_layer(traced, untraced, reach), metrics.PER_LAYER
    shown = {**e2e, **outcome, **reported}
    for name, unit in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        if name in shown:
            print(f"{name} = {shown[name]} {unit}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(len(p["ops"]) for p in passes) + len(reach),
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, environment=env, end_to_end=e2e, outcome=outcome, reach=reach,
                  samples=info)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        spans = [{"pass": k, "spans": p["spans"]} for k, p in enumerate(passes) if p["traced"]]
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
