"""Exact points of the benchmark's varieties, and polynomial evaluation at
them, in plain ``Fraction`` or modular arithmetic independent of umrow.

Evaluating both sides of an identity of the quotient ring at random points
of the variety cross-checks, independently of umrow's normal forms, the
identities the benchmark also checks exactly; a non-unit is proven one by a
point at which it vanishes.
"""

from __future__ import annotations

from fractions import Fraction

from .core import expect


class Raw:
    """Independent field arithmetic on raw values: Fraction, or int mod p."""

    def __init__(self, p: int):
        self.p = p

    def norm(self, v):
        return v % self.p if self.p else Fraction(v)

    def inv(self, v):
        return pow(v, self.p - 2, self.p) if self.p else 1 / Fraction(v)

    def random(self, rng, nonzero=False):
        while True:
            if self.p:
                v = rng.randrange(self.p)
            else:
                v = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            if v or not nonzero:
                return v


def evaluate(poly, point, raw: Raw):
    total = 0
    for mono, c in poly.terms.items():
        t = c
        for v, e in zip(point, mono):
            if e:
                t = t * v**e
        total = total + t
    return raw.norm(total)


def vtilde_point(alg, n: int, raw: Raw, rng, zero=()):
    """A point of the vtilde_ring(n) variety, in the algebra's variable order;
    the names in ``zero`` are set to 0."""
    val = {}
    for name in alg.variables:
        val[name] = 0 if name in zero else raw.random(rng, nonzero=name in (f"x{n}", f"u{n}"))

    def solve(target, lhs, pivot):  # so that lhs + val[pivot] * val[target] = 1
        val[target] = raw.norm((1 - lhs) * raw.inv(val[pivot]))

    solve(f"y{n}", sum(val[f"x{i}"] * val[f"y{i}"] for i in range(1, n)), f"x{n}")
    solve(f"v{n}", sum(val[f"u{i}"] * val[f"v{i}"] for i in range(1, n)), f"u{n}")
    rest = sum(val[f"x{i}"] * val[f"r{i}"] for i in range(2, n + 1))
    rest += sum(val[f"u{i}"] * val[f"s{i}"] for i in range(2, n))
    solve(f"s{n}", rest, f"u{n}")
    return on_variety(alg, [val[name] for name in alg.variables], raw)


def sphere_point(alg, raw: Raw, rng):
    """A point of x^2 + y^2 + z^2 = 1 by inverse stereographic projection."""
    while True:
        a, b = raw.random(rng), raw.random(rng)
        d = raw.norm(a * a + b * b + 1)
        if d:
            inv = raw.inv(d)
            return on_variety(alg, [raw.norm(2 * a * inv), raw.norm(2 * b * inv), raw.norm((d - 2) * inv)], raw)


def odd_quadric_point(alg, n: int, raw: Raw, rng):
    """A point of x1 y1 + ... + x{n+1} y{n+1} = 1."""
    val = {name: raw.random(rng, nonzero=name == f"x{n + 1}") for name in alg.variables}
    lhs = sum(val[f"x{i}"] * val[f"y{i}"] for i in range(1, n + 1))
    val[f"y{n + 1}"] = raw.norm((1 - lhs) * raw.inv(val[f"x{n + 1}"]))
    return on_variety(alg, [val[name] for name in alg.variables], raw)


def on_variety(alg, point, raw: Raw):
    for rel in alg.relations:
        expect(evaluate(rel, point, raw) == 0, "benchmark point is off the variety")
    return point
