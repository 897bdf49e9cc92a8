"""Shared pieces of the workloads: the operation record, output checks,
random inputs and term counting."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

from umrow import AlgebraElement, GroebnerBasis, Polynomial, Scalar, SplittingRow
from umrow.errors import NotInIdeal
from umrow.suites import Report

COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


class CheckFailed(Exception):
    """An output of umrow disagrees with what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def reducible(mono, leads) -> bool:
    """Some leading monomial in ``leads`` divides ``mono``."""
    return any(all(a <= b for a, b in zip(lm, mono)) for lm in leads)


def expect_congruent(alg, f, g, message: str) -> None:
    """``f == g`` in the quotient ``alg``, exactly: ``f - g`` lifts to a
    combination of the relations, and that combination is expanded again
    here with plain polynomial arithmetic."""
    diff = f - g
    try:
        coeffs = alg.gb.lift(diff)
    except NotInIdeal:
        raise CheckFailed(message) from None
    total = diff.ring.zero()
    for c, rel in zip(coeffs, alg.gb.generators):
        total = total + c * rel
    expect(total == diff, message)


def random_poly(ring, shape, values, degree: int, count: int, allowed=None):
    """At most ``count`` terms of degree <= ``degree``: monomials drawn from
    ``shape`` (and kept if ``allowed``), coefficients from ``values``."""
    terms = {}
    for _ in range(8 * count):
        if len(terms) == count:
            break
        mono = [0] * ring.nvars
        for _ in range(shape.randint(0, degree)):
            mono[shape.randrange(ring.nvars)] += 1
        mono = tuple(mono)
        if allowed is None or allowed(mono):
            terms[mono] = ring.field.from_int(values.choice(COEFFICIENTS))
    return ring.from_terms(terms)


@dataclass
class Op:
    """One timed call into a public umrow function.

    ``call`` runs inside the timed region and inside a span named ``span``;
    ``check`` runs outside it and raises :class:`CheckFailed` on a wrong
    output.  ``field`` is ``"q"`` or ``"fp"`` and picks the wall-time share
    the op counts towards.
    """

    name: str
    field: str
    span: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    """``setup(seed, tracer)`` builds the inputs; ``ops(state, tracer)`` is a
    generator of :class:`Op` that receives each op's output through
    ``send`` (``None`` after a failure) before it builds the next op.
    ``reach_ops`` maps each reach op to its layer span and its deadline in
    seconds, and ``reach(name, tracer)`` builds that op in the interpreter
    that runs it."""

    name: str
    setup: Callable
    ops: Callable
    reach_ops: dict = field(default_factory=dict)
    reach: Callable | None = None


def terms(obj) -> int:
    """Polynomial terms in a umrow result; a scalar counts one, and a suite
    report, which carries no polynomials, counts one per case record."""
    if isinstance(obj, Polynomial):
        return len(obj.terms)
    if isinstance(obj, AlgebraElement):
        return len(obj.rep.terms)
    if isinstance(obj, Scalar):
        return 1
    if isinstance(obj, (list, tuple)):
        return sum(terms(x) for x in obj)
    if isinstance(obj, GroebnerBasis):
        return terms(obj.basis) + terms(obj.cofactors)
    if isinstance(obj, SplittingRow):
        return terms(obj.entries)
    if isinstance(obj, Report):
        return len(obj.cases)
    if is_dataclass(obj):
        return sum(terms(getattr(obj, f.name)) for f in fields(obj))
    return 0  # algebras, indices and flags
