"""Named verification suites with deterministic machine-readable reports.

Each case either passes, fails with a witness (the offending residue or the
first bad stage), or declines with a reason when its parameters fall outside
the supported range.  A case whose identity is checked by the constructor it
calls (a ``RingHom`` pulls back every relation, a ``SplittingRow`` sums to 1,
``mennicke_newman`` replays its words) only calls it: the constructor's
``UmrowError`` or ``AssertionError`` is the case's failure and its message
the witness.  Case lists depend only on the configuration, and the
serialized report is byte-stable when timing capture is disabled.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .algebra import Algebra, RingHom, hom_compose
from .errors import ConfigError, UmrowError
from .fields import FieldConfig
from .groebner import ideal_equal
from .quadrics import (
    build_q_even,
    build_q_odd,
    degree_action,
    delta_map,
    e_endo,
    eta_hom,
    fold_model_certificate,
    fold_model_row,
    gm_quadric,
    mu_at_unit,
    mu_minus_one,
    mu_prime_basepoint_check,
    mu_prime_explicit,
    mu_prime_hom,
    phi_map,
    scalar_algebra,
    universal_even_point,
    universal_split_row,
    vtilde_ring,
)
from .rows import (
    ElementaryGen,
    ElementaryWord,
    OrbitCertificate,
    check_unimodular,
    compute_splitting,
    mennicke_newman,
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
    shrink_budget: int = 200
    timing: bool = True

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if not (1 <= self.n_min <= self.n_max <= MAX_N):
            raise ConfigError(
                f"need 1 <= n_min <= n_max <= {MAX_N}, got [{self.n_min}, {self.n_max}]"
            )
        if self.shrink_budget < 1:
            raise ConfigError("shrink budget must be positive")


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
        payload = {
            "config": {
                "suite": self.config.suite,
                "n_min": self.config.n_min,
                "n_max": self.config.n_max,
                "field": str(self.config.field),
                "seed": self.config.seed,
                "shrink_budget": self.config.shrink_budget,
                "timing": self.config.timing,
            },
            "cases": self.cases,
            "summary": self.summary(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- identity cases -------------------------------------------------------------


def _case_eta_relation(n, cfg):
    eta_hom(n, cfg.field)


def _case_eta_ideal(n, cfg):
    odd = build_q_odd(n, cfg.field)
    alg = odd.algebra
    z = alg.dot([odd.x(i) for i in range(1, n + 1)], [odd.y(i) for i in range(1, n + 1)])
    tuple_ideal = alg.ideal_with(
        [odd.x(i) for i in range(1, n)] + [odd.x(n) * odd.x(n + 1), z]
    )
    plain_ideal = alg.ideal_with([odd.x(i) for i in range(1, n + 1)])
    if not ideal_equal(tuple_ideal, plain_ideal):
        raise CaseFailure("<x_1..x_{n-1}, x_n x_{n+1}, z> != <x_1..x_n>")


def _case_ab_identity(n, cfg):
    gm = gm_quadric(n, cfg.field)
    one = gm.algebra.one()
    a_pos = (one - gm.z()) + gm.t() * gm.z()
    a_neg = (one - gm.z()) + gm.t_inv() * gm.z()
    b = gm.algebra.element(2) - gm.t() - gm.t_inv()
    dot = gm.algebra.dot([gm.x(i) for i in range(1, n + 1)], [gm.y(i) for i in range(1, n + 1)])
    residue = a_pos * a_neg - (one - b * dot)
    if not residue.is_zero():
        raise CaseFailure(f"a(t,z)a(1/t,z) - (1 - b(t) sum(x_i y_i)) = {residue}")


def _case_e_welldef(n, cfg):
    e_endo(n, cfg.field)


def _case_e_basepoint(n, cfg):
    odd = build_q_odd(n, cfg.field)
    target = scalar_algebra(cfg.field)
    base = [target.element(c) for c in odd.base_point()]
    point_hom = RingHom(odd.algebra, target, base)
    composite = hom_compose(point_hom, e_endo(n, cfg.field))
    if list(composite.images) != base:
        raise CaseFailure("the elementary endomorphism moves the base point")


def _case_mu_at_one(n, cfg):
    even = build_q_even(n, cfg.field)
    hom = mu_at_unit(n, cfg.field, 1)
    alg = even.algebra
    expected = [even.x(i) for i in range(1, n + 1)]
    expected.append(alg.one())
    expected.extend([alg.zero()] * n)
    expected.append(alg.one())
    if list(hom.images) != expected:
        raise CaseFailure("mu at lambda=1 is not (x, 1, 0, ..., 0, 1)")


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
        result = mennicke_newman(
            u, v, seed=cfg.seed + trial, shrink_budget=cfg.shrink_budget
        )
        for word in (result.word_u, result.word_v):
            if word.determinant(alg) != alg.one():
                raise CaseFailure("word determinant is not 1")


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


def _case_fold_witness(n, cfg):
    vt = vtilde_ring(n, cfg.field)
    alg = vt.algebra
    one = alg.one()
    x1 = alg.var("x1")
    xn = alg.var(f"x{n}")
    residue = (one - x1) * (one - xn) + xn + (one - xn) * x1 - one
    if not residue.is_zero():
        raise CaseFailure(f"witness identity residue: {residue}")


def _case_fold_certificate(n, cfg):
    cert = fold_model_certificate(vtilde_ring(n, cfg.field))
    if not verify_certificate(cert):
        raise CaseFailure("certificate failed raw replay")


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
    alg = even.algebra
    one = alg.one()
    head = one - alg.element(2) * even.z()
    hom = mu_minus_one(d, cfg.field)
    expected = [even.x(i) for i in range(1, d + 1)]
    expected.append(head)
    expected.extend(alg.element(4) * even.y(i) for i in range(1, d + 1))
    expected.append(head)
    if list(hom.images) != expected:
        raise CaseFailure("mu at lambda=-1 differs from (a, 1-2s, 4b, 1-2s)")


def _case_degree_composite(d, cfg):
    _require_odd_char(cfg)
    even = build_q_even(d, cfg.field)
    alg = even.algebra
    one = alg.one()
    two = alg.element(2)
    head = one - two * even.z()
    composite = hom_compose(mu_minus_one(d, cfg.field), degree_action(2, d, cfg.field))
    expected = [two * even.x(i) for i in range(1, d + 1)]
    expected.append(head)
    expected.extend(two * even.y(i) for i in range(1, d + 1))
    expected.append(head)
    if list(composite.images) != expected:
        raise CaseFailure("degree twist of mu(-1) differs from (2a, 1-2s, 2b, 1-2s)")


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
    ("fold", "fold-row", 4, MAX_N, _case_fold_row, None),
    ("fold", "fold-witness", 4, MAX_N, _case_fold_witness, None),
    ("fold", "fold-certificate", 4, MAX_N, _case_fold_certificate,
     "certificate assembly requires n >= 4"),
    ("fold", "fold-tamper", 4, MAX_N, _case_fold_tamper, None),
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
