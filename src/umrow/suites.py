"""Named verification suites with deterministic machine-readable reports.

Each case either passes, fails with a witness (the offending residue or the
first bad stage), or declines with a reason when its parameters fall outside
the supported range.  A case whose identity is checked by the constructor it
calls (a ``RingHom`` pulls back every relation, a ``SplittingRow`` sums to 1,
``segre_point`` checks that its vanishing ideal is <a_1, ..., a_n>,
``mennicke_newman`` checks that its words reach (x, a) and (1-x, a),
``fold_model_certificate`` replays its word stage by stage up to
(x1, ..., xn)) only calls it: the constructor's ``UmrowError`` or
``AssertionError`` is the case's failure and its message the witness.  Every
word has determinant 1 by its generators' type (an ``ElementaryGen`` is
I + lam E_ij with i != j), so no case computes one.  A case that reads a
composite map's images evaluates the inner map's images under the outer map
and builds no composite.  Case lists depend only on the configuration, and
the serialized report is byte-stable when timing capture is disabled.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields

from .algebra import Algebra, RingHom
from .errors import ConfigError, UmrowError
from .fields import FieldConfig
from .poly import _is_int
from .quadrics import (
    FOLD_CERTIFICATE_FIRST_N,
    FOLD_CERTIFICATE_REFUSAL,
    build_q_even,
    build_q_odd,
    degree_action,
    delta_map,
    e_endo,
    eta_hom,
    fold_model_certificate,
    fold_model_row,
    mu_at_unit,
    mu_hom,
    mu_minus_one,
    mu_prime_basepoint_check,
    mu_prime_explicit,
    mu_prime_hom,
    phi_map,
    scalar_algebra,
    segre_point,
    universal_even_point,
    universal_split_row,
    vtilde_ring,
)
from .rows import (
    SHRINK_BUDGET,
    _check_shrink,
    ElementaryGen,
    ElementaryWord,
    OrbitCertificate,
    check_unimodular,
    compute_splitting,
    mennicke_newman,
    row_from_witness,
    vdk_add,
    verify_certificate,
)

MAX_N = 6


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    n_min: int
    n_max: int
    field: FieldConfig
    seed: int = 0
    shrink_budget: int = SHRINK_BUDGET
    timing: bool = True

    def __post_init__(self):
        for name in ("n_min", "n_max"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        _check_shrink(self.seed, self.shrink_budget)
        if not isinstance(self.field, FieldConfig):
            raise ConfigError(f"field must be a FieldConfig, got {self.field!r}")
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if not (1 <= self.n_min <= self.n_max <= MAX_N):
            raise ConfigError(
                f"need 1 <= n_min <= n_max <= {MAX_N}, got [{self.n_min}, {self.n_max}]"
            )


class CaseFailure(Exception):
    """Raised by a case body when a verified identity fails."""


class CaseDecline(Exception):
    """Raised when a case cannot run for its parameters."""


@dataclass
class Case:
    suite: str
    name: str
    n: int
    run: object  # callable (n, cfg) -> None


@dataclass
class Report:
    config: SuiteConfig
    cases: list = field(default_factory=list)

    def summary(self):
        counts = {"pass": 0, "fail": 0, "error": 0}
        for c in self.cases:
            counts[c["status"]] += 1
        counts["total"] = len(self.cases)
        return counts

    def all_pass(self) -> bool:
        s = self.summary()
        return s["fail"] == 0 and s["error"] == 0

    def to_json(self) -> str:
        config = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        config["field"] = str(config["field"])
        payload = {
            "config": config,
            "cases": self.cases,
            "summary": self.summary(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- identity cases -------------------------------------------------------------


def _case_eta_relation(n, cfg):
    eta_hom(n, cfg.field)


def _case_eta_ideal(n, cfg):
    odd = build_q_odd(n, cfg.field)
    ks = range(1, n + 2)
    segre_point(*row_from_witness(odd.algebra, [odd.x(i) for i in ks], [odd.y(i) for i in ks]))


def _case_ab_identity(n, cfg):
    mu_hom(n, cfg.field)


def _case_e_welldef(n, cfg):
    e_endo(n, cfg.field)


def _case_e_basepoint(n, cfg):
    odd = build_q_odd(n, cfg.field)
    target = scalar_algebra(cfg.field)
    base = [target.element(c) for c in odd.base_point()]
    point = RingHom(odd.algebra, target, base)
    if [point(im) for im in e_endo(n, cfg.field).images] != base:
        raise CaseFailure("the elementary endomorphism moves the base point")


def _expect_images(images, even, s, head, t, message):
    """Fail with ``message`` unless ``images``, the images of the odd
    quadric's coordinates under a map to the even quadric ring ``even``, are
    (s x_1, ..., s x_n, head, t y_1, ..., t y_n, head)."""
    ks = range(1, even.n + 1)
    expected = [s * even.x(i) for i in ks] + [head] + [t * even.y(i) for i in ks] + [head]
    if list(images) != expected:
        raise CaseFailure(message)


def _case_mu_at_one(n, cfg):
    even = build_q_even(n, cfg.field)
    _expect_images(
        mu_at_unit(n, cfg.field, 1).images, even, 1, even.algebra.one(), 0,
        "mu at lambda=1 is not (x, 1, 0, ..., 0, 1)",
    )


def _case_mu_prime_explicit(n, cfg):
    composite = mu_prime_hom(n, cfg.field)
    printed = mu_prime_explicit(n, cfg.field)
    for k, (a, b) in enumerate(zip(composite.images, printed.images)):
        if a != b:
            raise CaseFailure(f"image {k}: composite {a} != closed form {b}")


def _case_mu_prime_basepoint(n, cfg):
    if not mu_prime_basepoint_check(n, cfg.field):
        raise CaseFailure("(lambda, base point) does not map to the base point")


# -- row cases --------------------------------------------------------------------


def random_scalar_row(algebra: Algebra, n: int, rng: random.Random):
    """A random row of integer scalars with at least one entry nonzero in
    the base field."""
    residue = algebra.field.residue
    while True:
        values = [rng.randint(-9, 9) for _ in range(n)]
        if any(map(residue, values)):
            return [algebra.element(v) for v in values]


def _case_row_splitting(n, cfg):
    alg = scalar_algebra(cfg.field)
    rng = random.Random(cfg.seed)
    for _ in range(5):
        row = check_unimodular(alg, random_scalar_row(alg, n, rng))
        compute_splitting(row)


def _case_sphere_row(n, cfg):
    alg = Algebra(cfg.field, ["x", "y", "z"], ["x^2 + y^2 + z^2 - 1"])
    compute_splitting(check_unimodular(alg, [alg.var("x"), alg.var("y"), alg.var("z")]))


def _case_mn_random(n, cfg):
    alg = scalar_algebra(cfg.field)
    rng = random.Random(cfg.seed)
    for trial in range(3):
        u = check_unimodular(alg, random_scalar_row(alg, n, rng))
        v = check_unimodular(alg, random_scalar_row(alg, n, rng))
        mennicke_newman(u, v, seed=cfg.seed + trial, shrink_budget=cfg.shrink_budget)


def _case_vdk_random(n, cfg):
    alg = scalar_algebra(cfg.field)
    rng = random.Random(cfg.seed + 1)
    u = check_unimodular(alg, random_scalar_row(alg, n, rng))
    v = check_unimodular(alg, random_scalar_row(alg, n, rng))
    vdk_add(u, v, seed=cfg.seed, shrink_budget=cfg.shrink_budget)


def _case_mn_universal(n, cfg):
    vt = vtilde_ring(n, cfg.field)
    mennicke_newman(vt.x_row(), vt.u_row(), seed=cfg.seed, shrink_budget=cfg.shrink_budget)


# -- fold cases ----------------------------------------------------------------------


def _case_fold_row(n, cfg):
    fold_model_row(vtilde_ring(n, cfg.field))


def _case_fold_certificate(n, cfg):
    fold_model_certificate(vtilde_ring(n, cfg.field))


def _case_fold_tamper(n, cfg):
    cert = fold_model_certificate(vtilde_ring(n, cfg.field))
    gens = list(cert.word.gens)
    bad = ElementaryGen(gens[0].i, gens[0].j, gens[0].lam + cert.source.parent.one())
    tampered = OrbitCertificate(
        cert.source, cert.target, ElementaryWord(cert.word.n, tuple([bad] + gens[1:]))
    )
    if verify_certificate(tampered):
        raise CaseFailure("tampered certificate still verifies")


# -- euler cases --------------------------------------------------------------------


def _require_odd_char(cfg):
    if cfg.field.characteristic == 2:
        raise CaseDecline("needs characteristic different from 2")


def _case_delta_universal(d, cfg):
    _require_odd_char(cfg)
    delta_map(universal_even_point(d, cfg.field))


def _case_mu_minus_one(d, cfg):
    _require_odd_char(cfg)
    even = build_q_even(d, cfg.field)
    _expect_images(
        mu_minus_one(d, cfg.field).images, even, 1, 1 - 2 * even.z(), 4,
        "mu at lambda=-1 differs from (a, 1-2s, 4b, 1-2s)",
    )


def _case_degree_composite(d, cfg):
    _require_odd_char(cfg)
    even = build_q_even(d, cfg.field)
    mu = mu_minus_one(d, cfg.field)
    _expect_images(
        [mu(im) for im in degree_action(2, d, cfg.field).images], even, 2, 1 - 2 * even.z(), 2,
        "degree twist of mu(-1) differs from (2a, 1-2s, 2b, 1-2s)",
    )


def _case_phi_universal(d, cfg):
    phi_map(universal_split_row(d, cfg.field), check_height=True)


# -- runner -------------------------------------------------------------------------


# One row per case: family, name, first n, last n, body, and the reason it
# declines for an n below its range (None: no case there).  The suite "all"
# runs every family; a declining case appears only when its family is
# requested by name.
CASES = (
    ("identities", "eta-relation", 2, MAX_N, _case_eta_relation, None),
    ("identities", "eta-ideal", 2, 3, _case_eta_ideal, None),
    ("identities", "ab-identity", 1, MAX_N, _case_ab_identity, None),
    ("identities", "e-welldef", 1, MAX_N, _case_e_welldef, None),
    ("identities", "e-basepoint", 1, MAX_N, _case_e_basepoint, None),
    ("identities", "mu-at-one", 1, MAX_N, _case_mu_at_one, None),
    ("identities", "mu-prime-explicit", 1, MAX_N, _case_mu_prime_explicit, None),
    ("identities", "mu-prime-basepoint", 1, MAX_N, _case_mu_prime_basepoint, None),
    ("rows", "splitting-random", 2, MAX_N, _case_row_splitting, "row cases require n >= 2"),
    ("rows", "splitting-sphere", 3, 3, _case_sphere_row, None),
    ("rows", "mn-random", 2, MAX_N, _case_mn_random, "row cases require n >= 2"),
    ("rows", "vdk-random", 2, MAX_N, _case_vdk_random, "row cases require n >= 2"),
    ("rows", "mn-universal", 4, 4, _case_mn_universal, None),
    ("fold", "fold-row", FOLD_CERTIFICATE_FIRST_N, MAX_N, _case_fold_row, None),
    ("fold", "fold-witness", FOLD_CERTIFICATE_FIRST_N, MAX_N, _case_fold_row, None),
    ("fold", "fold-certificate", FOLD_CERTIFICATE_FIRST_N, MAX_N, _case_fold_certificate,
     FOLD_CERTIFICATE_REFUSAL),
    ("fold", "fold-tamper", FOLD_CERTIFICATE_FIRST_N, MAX_N, _case_fold_tamper, None),
    ("euler", "delta-universal", 1, MAX_N, _case_delta_universal, None),
    ("euler", "mu-minus-one", 1, MAX_N, _case_mu_minus_one, None),
    ("euler", "degree-composite", 2, MAX_N, _case_degree_composite, None),
    ("euler", "phi-universal", 2, 3, _case_phi_universal, None),
)

SUITES = (*dict.fromkeys(family for family, *_ in CASES), "all")


def _declines(reason):
    def run(n, cfg):
        raise CaseDecline(reason)

    return run


def build_cases(cfg: SuiteConfig):
    cases = []
    for family, name, first, last, body, reason in CASES:
        if cfg.suite not in ("all", family):
            continue
        for n in range(cfg.n_min, min(last, cfg.n_max) + 1):
            if n >= first:
                cases.append(Case(family, name, n, body))
            elif reason and cfg.suite == family:
                cases.append(Case(family, name, n, _declines(reason)))
    return sorted(cases, key=lambda c: (c.suite, c.n, c.name))


def run_suite(config: SuiteConfig) -> Report:
    report = Report(config)
    for case in build_cases(config):
        start = time.monotonic()
        status = "pass"
        witness = None
        try:
            case.run(case.n, config)
        except CaseDecline as exc:
            status = "error"
            witness = str(exc)
        except (CaseFailure, UmrowError, AssertionError) as exc:
            status = "fail"
            witness = str(exc)
        millis = int((time.monotonic() - start) * 1000) if config.timing else 0
        report.cases.append(
            {
                "suite": case.suite,
                "name": case.name,
                "n": case.n,
                "field": str(config.field),
                "status": status,
                "witness": witness,
                "millis": millis,
            }
        )
    return report
