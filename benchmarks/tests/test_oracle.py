"""Independent oracle: the gb-families reduced bases agree with sympy's
grevlex bases, element by element up to a nonzero scalar."""

from fractions import Fraction

import pytest

from umrow import Ideal, buchberger
from umrow_bench import gb_families

sympy = pytest.importorskip("sympy")

SYSTEMS = [s for s in gb_families.SYSTEMS if s[1] <= 5]


def normalized(terms, p):
    """Terms scaled so the coefficient of the lex-largest monomial is 1."""
    lead = terms[max(terms)]
    if p:
        inv = pow(lead, p - 2, p)
        return frozenset((m, c * inv % p) for m, c in terms.items())
    return frozenset((m, c / lead) for m, c in terms.items())


def sympy_terms(poly, p):
    if p:
        return {m: int(c) % p for m, c in poly.terms()}
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}


@pytest.mark.parametrize("family,n,tag", SYSTEMS, ids=lambda s: str(s))
def test_reduced_basis_matches_sympy(family, n, tag):
    ring, gens = gb_families.build_system(family, n, tag)
    p = ring.field.characteristic
    ours = buchberger(Ideal.of(ring, gens))
    assert gb_families.digest(ours.basis) == gb_families.DIGESTS[f"{family}-{n}-{tag}"]
    symbols = sympy.symbols(ring.vars)
    exprs = [
        sum(sympy.Rational(str(c)) * sympy.prod(s**e for s, e in zip(symbols, m)) for m, c in g.terms.items())
        for g in gens
    ]
    options = {"modulus": p} if p else {}
    theirs = sympy.groebner(exprs, *symbols, order="grevlex", **options)
    assert {normalized(b.terms, p) for b in ours.basis} == {normalized(sympy_terms(b, p), p) for b in theirs.polys}
    assert len(ours.basis) == len(theirs.polys)
