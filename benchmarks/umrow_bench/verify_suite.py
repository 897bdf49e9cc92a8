"""verify-suite: ``run_suite`` for one suite family and one n at a time, over
Q and F_5: identities, rows and euler for n = 2..6 and fold for n = 4..6.
The seed shuffles the order of the calls, which moves cache hits between
them as a session would; every report must be all-pass."""

from __future__ import annotations

import random

from umrow import RATIONALS, prime_field
from umrow.suites import SuiteConfig, run_suite

from .core import Op, Workload, expect

FIELDS = (("q", RATIONALS), ("fp", prime_field(5)))
FAMILIES = (("identities", range(2, 7)), ("rows", range(2, 7)), ("euler", range(2, 7)), ("fold", range(4, 7)))


def check_report(tracer):
    def check(report):
        expect(report.cases, "the suite ran no cases")
        bad = [c["name"] for c in report.cases if c["status"] != "pass"]
        expect(not bad, f"cases did not pass: {bad}")
        tracer.count("suites.cases", len(report.cases))

    return check


def setup(seed: int, tracer):
    configs = [
        (tag, SuiteConfig(family, n, n, field, timing=False))
        for tag, field in FIELDS
        for family, ns in FAMILIES
        for n in ns
    ]
    random.Random(seed).shuffle(configs)
    return configs


def ops(configs, tracer):
    for tag, cfg in configs:
        yield Op(f"run_suite {cfg.suite} n={cfg.n_min} {cfg.field}", tag, f"suites.{cfg.suite}",
                 lambda cfg=cfg: run_suite(cfg), check_report(tracer))


WORKLOAD = Workload("verify-suite", setup, ops)
