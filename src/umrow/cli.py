"""Command-line front end.

Subcommands:

* ``umrow verify`` runs a named suite over a parameter range and prints a
  deterministic JSON report; the exit status is 0 exactly when every case
  passed.
* ``umrow gb`` prints the reduced basis of an algebra's relation ideal,
  under graded reverse lex.
* ``umrow add`` performs orbit-level addition of two named rows from a
  bundle and prints the sum with its elementary certificates.
* ``umrow map`` prints one of the named quadric morphisms at a given size;
  ``MORPHISMS`` maps each name to the builder of its printout.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .errors import ConfigError, UmrowError
from .fields import field_from_text
from .fileio import load_algebra, load_rows_bundle, row_to_json, word_to_json
from .groebner import groebner_basis
from .quadrics import (
    FOLD_CERTIFICATE_FIRST_N,
    degree_action,
    delta_map,
    e_endo,
    eta_hom,
    fold_model_certificate,
    fold_model_row,
    mu_hom,
    mu_minus_one,
    mu_prime_hom,
    phi_map,
    universal_even_point,
    universal_split_row,
    vtilde_ring,
)
from .rows import SHRINK_BUDGET, vdk_add
from .suites import SuiteConfig, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umrow")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--n-min", type=int, required=True)
    v.add_argument("--n-max", type=int, required=True)
    v.add_argument("--field", required=True, help="q or fp:<prime>")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--shrink-budget", type=int, default=SHRINK_BUDGET)
    v.add_argument("--report", help="also write the report to this path")
    v.add_argument("--no-timing", action="store_true", help="zero the timing fields")
    v.set_defaults(handler=_cmd_verify)

    g = sub.add_parser("gb", help="reduced basis of an algebra's relations")
    g.add_argument("--input", required=True)
    g.set_defaults(handler=_cmd_gb)

    a = sub.add_parser("add", help="orbit-level addition of two rows")
    a.add_argument("--rows", required=True, help="row bundle file")
    a.add_argument("--u", required=True)
    a.add_argument("--v", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--shrink-budget", type=int, default=SHRINK_BUDGET)
    a.set_defaults(handler=_cmd_add)

    m = sub.add_parser("map", help="print a named morphism")
    m.add_argument("--name", required=True, choices=list(MORPHISMS))
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--field", required=True)
    m.add_argument("--alpha", type=int, default=2, help="scaling factor for degree")
    m.set_defaults(handler=_cmd_map)
    return parser


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suite=args.suite,
        n_min=args.n_min,
        n_max=args.n_max,
        field=field_from_text(args.field),
        seed=args.seed,
        shrink_budget=args.shrink_budget,
        timing=not args.no_timing,
    )
    # Open the report file first, so that a bad path costs no suite run.
    try:
        out = open(args.report, "w") if args.report else nullcontext()
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from exc
    with out:
        report = run_suite(config)
        text = report.to_json()
        sys.stdout.write(text)
        if args.report:
            out.write(text)
    return 0 if report.all_pass() else 1


def _cmd_gb(args) -> int:
    algebra = load_algebra(args.input)
    gb = groebner_basis(algebra.relations_ideal)
    _emit(
        {
            "order": "grevlex",  # the one term order
            "vars": list(algebra.variables),
            "basis": [str(g) for g in gb.basis],
        }
    )
    return 0


def _cmd_add(args) -> int:
    algebra, rows = load_rows_bundle(args.rows)
    for name in (args.u, args.v):
        if name not in rows:
            raise UmrowError(f"bundle has no row named {name!r}")
    result = vdk_add(rows[args.u], rows[args.v], seed=args.seed, shrink_budget=args.shrink_budget)
    _emit(
        {
            "u": args.u,
            "v": args.v,
            "x": str(result.x),
            "sum": row_to_json(result.row),
            "splitting": [str(e) for e in result.splitting.entries],
            "word_u": word_to_json(result.word_u),
            "word_v": word_to_json(result.word_v),
        }
    )
    return 0


def _hom_payload(hom):
    return {
        "source_vars": list(hom.source.variables),
        "target_vars": list(hom.target.variables),
        "images": {v: str(im) for v, im in zip(hom.source.variables, hom.images)},
    }


def _hom(build):
    """Printout builder for a morphism given as a ring map of (n, field)."""
    return lambda n, field, alpha: _hom_payload(build(n, field))


def _delta_payload(n, field, alpha):
    row, split = delta_map(universal_even_point(n, field))
    return {"row": row_to_json(row), "splitting": [str(e) for e in split.entries]}


def _phi_payload(n, field, alpha):
    oriented, point = phi_map(universal_split_row(n, field))
    return {
        "lift": [str(e) for e in oriented.lift],
        "point_x": [str(e) for e in point.x],
        "point_y": [str(e) for e in point.y],
        "point_z": str(point.z),
    }


def _fold_payload(n, field, alpha):
    vt = vtilde_ring(n, field)
    fold = fold_model_row(vt)
    payload = {
        "row": row_to_json(fold.row),
        "witness_row": row_to_json(fold.witness.row),
        "witness_splitting": [str(e) for e in fold.witness.entries],
    }
    if n >= FOLD_CERTIFICATE_FIRST_N:
        payload["certificate"] = word_to_json(fold_model_certificate(vt).word)
    return payload


# Each named morphism and the builder of its printout, called as (n, field, alpha).
MORPHISMS = {
    "eta": _hom(eta_hom),
    "mu": _hom(mu_hom),
    "E": _hom(e_endo),
    "mu-prime": _hom(mu_prime_hom),
    "mu-minus-one": _hom(mu_minus_one),
    "delta": _delta_payload,
    "phi": _phi_payload,
    "degree": lambda n, field, alpha: _hom_payload(degree_action(alpha, n, field)),
    "fold": _fold_payload,
}


def _cmd_map(args) -> int:
    payload = MORPHISMS[args.name](args.n, field_from_text(args.field), args.alpha)
    _emit({"name": args.name, **payload})
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UmrowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
