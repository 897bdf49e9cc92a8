"""Finitely presented algebras A = k[x.../relations] with canonical element
arithmetic and ring homomorphisms.

Every element is stored as the normal form of a representative polynomial
modulo the cached Groebner basis of the relations, so equality of elements
is equality of representations.  A product that no leading monomial of the
basis divides term by term is already its normal form, and the basis hands
it back as it is without a reduction; most products of small elements are.
A power starts from its base, so ``e ** 1`` is ``e`` and forms no product.

Morphism direction convention: a scheme morphism X -> Y is stored as the
algebra map k[Y] -> k[X].  Composition follows the algebra-map direction.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    ConfigError,
    DuplicateVariable,
    NotWellDefined,
    RingMismatch,
    ZeroRing,
)
from .fields import _COEFFICIENTS, FieldConfig
from .groebner import Ideal, groebner_basis, krull_dimension
from .poly import PolyRing, Polynomial, _power


class Algebra:
    """A nonzero finitely presented algebra over an exact field, whose
    elements are normal forms under graded reverse lex."""

    def __init__(self, field: FieldConfig, variables, relations):
        self.ring = PolyRing(field, _listed(variables, str, "variable names"))
        rels = []
        for r in _listed(relations, (str, Polynomial), "relations (texts or polynomials)"):
            poly = self.ring.parse(r) if isinstance(r, str) else r
            if poly.ring != self.ring:
                raise RingMismatch("relation outside the declared ring")
            if not poly.is_zero():
                rels.append(poly)
        self.relations = tuple(rels)
        # Immutable, and hashed by every element hash: hash the relations once.
        self._hash = hash((self.ring, self.relations))
        self.relations_ideal = Ideal(self.ring, self.relations)
        self.gb = groebner_basis(self.relations_ideal)
        if self.gb.is_unit_ideal():
            raise ZeroRing("the relations generate the unit ideal")

    @property
    def field(self) -> FieldConfig:
        return self.ring.field

    @property
    def variables(self):
        return self.ring.vars

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Algebra)
            and self.ring == other.ring
            and self.relations == other.relations
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Algebra({self.field}, vars={list(self.variables)}, rels={len(self.relations)})"

    # -- elements ------------------------------------------------------------

    def reduce(self, poly: Polynomial) -> Polynomial:
        return self.gb.normal_form(poly)

    def element(self, obj) -> "AlgebraElement":
        if isinstance(obj, AlgebraElement):
            if obj.parent != self:
                raise RingMismatch("element belongs to a different algebra")
            return obj
        if isinstance(obj, str):
            poly = self.ring.parse(obj)
        elif isinstance(obj, Polynomial):
            if obj.ring != self.ring:
                raise RingMismatch("polynomial outside the ambient ring")
            poly = obj
        else:
            poly = self.ring.const(obj)  # ``field.pair`` refuses what is not of this field
        return AlgebraElement(self, self.reduce(poly))

    def var(self, name) -> "AlgebraElement":
        return self.element(self.ring.var(name))

    def gens(self):
        return tuple(self.element(g) for g in self.ring.gens())

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, self.ring.zero())

    def one(self) -> "AlgebraElement":
        # The relations are not the unit ideal, so no leading monomial
        # divides 1 and 1 is its own normal form.
        return AlgebraElement(self, self.ring.one())

    def dot(self, xs, ys) -> "AlgebraElement":
        """sum(x_i * y_i), reduced once: normal forms are linear, so this is
        the sum of the reduced products."""
        reps = self.ring.dot([self.element(x).rep for x in xs], [self.element(y).rep for y in ys])
        return AlgebraElement(self, self.reduce(reps))

    def ideal_with(self, elements) -> Ideal:
        """Ambient ideal for quotient-level membership questions: the given
        representatives first, then the relations (the ordering pins lifts)."""
        reps = tuple(self.element(e).rep for e in elements)
        return Ideal(self.ring, reps + self.relations)

    @cached_property
    def dimension(self) -> int:
        return krull_dimension(self.relations_ideal)


def _listed(value, kinds, what: str):
    """``value``, if it is a list or tuple of ``kinds``; a string would pass
    as a sequence of strings, and ``"xy"`` is not the variables x and y."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, kinds) for v in value)):
        raise ConfigError(f"expected a list of {what}, got {value!r}")
    return value


def make_algebra(field: FieldConfig, variables, relations) -> Algebra:
    return Algebra(field, variables, relations)


class AlgebraElement:
    """An element of an :class:`Algebra`, stored in normal form."""

    __slots__ = ("parent", "rep")

    def __init__(self, parent: Algebra, rep: Polynomial):
        self.parent = parent
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            if other.parent != self.parent:
                raise RingMismatch("operands belong to different algebras")
            return other
        if isinstance(other, _COEFFICIENTS) or isinstance(other, (str, Polynomial)):
            return self.parent.element(other)
        return NotImplemented

    # Sums, differences and negations of normal forms are normal forms (no
    # monomial is divisible by a leading monomial); only products are reduced.

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.parent, self.rep + other.rep)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.parent, self.rep - other.rep)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.parent, self.parent.reduce(self.rep * other.rep))

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(self.parent, -self.rep)

    def __pow__(self, exp: int):
        return _power(self, exp, self.parent.one)

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.parent == other.parent and self.rep == other.rep
        # A constant is its own normal form: the element equals an int, a
        # Fraction, a Scalar or a constant polynomial when its Scalar does,
        # as their hashes do.  ``Polynomial.__eq__`` declines an element, so
        # this answers in both operand orders.
        value = self.rep._constant()
        return value is not None and value == other

    def __hash__(self):
        return hash(self.rep)  # a constant hashes as the equal Scalar

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_unit(self):
        """Inverse element if this one is invertible, else None.

        Invertibility is decided by whether the representative together with
        the relations generates the unit ideal of the ambient polynomial ring;
        the inverse is read off the Bezout certificate for 1.
        """
        ideal = self.parent.ideal_with([self])
        gb = groebner_basis(ideal)
        if not gb.is_unit_ideal():
            return None
        coeffs = gb.lift(self.parent.ring.one())
        inverse = self.parent.element(coeffs[0])
        if self * inverse != self.parent.one():
            raise AssertionError("unit certificate failed verification")
        return inverse

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"<{self.rep}>"


class RingHom:
    """An algebra homomorphism given by one image per source variable.

    Well-definedness (each source relation maps to zero) is checked at
    construction and again after composition.
    """

    def __init__(self, source: Algebra, target: Algebra, images):
        if source.field != target.field:
            raise RingMismatch("source and target fields differ")
        images = tuple(target.element(im) for im in images)
        if len(images) != source.ring.nvars:
            raise RingMismatch(
                f"expected {source.ring.nvars} images, got {len(images)}"
            )
        self.source = source
        self.target = target
        self.images = images
        self._powers: dict = {}
        for idx, rel in enumerate(source.relations):
            residue = self._apply_poly(rel)
            if not residue.is_zero():
                raise NotWellDefined(idx, residue)

    def _image(self, exps) -> Polynomial:
        """The image of the monomial with exponent tuple ``exps``: a reduced
        product of powers of the images, each power cached, or 1."""
        image = None
        for var, exp in enumerate(exps):
            if exp:
                power = self._powers.get((var, exp))
                if power is None:
                    power = self._powers[var, exp] = self.images[var] ** exp
                image = power if image is None else image * power
        return self.target.ring.one() if image is None else image.rep

    def _apply_poly(self, poly: Polynomial) -> AlgebraElement:
        # Each monomial's image is a normal form (a reduced product of cached
        # powers, or 1, which no lead of a proper ideal divides), and so is
        # any linear combination of them: the sum needs no reduction.
        return AlgebraElement(self.target, poly._substitute(self.target.ring, self._image))

    def __call__(self, elt) -> AlgebraElement:
        return self._apply_poly(self.source.element(elt).rep)

    def compose(self, inner: "RingHom") -> "RingHom":
        """self o inner as algebra maps (inner applied first)."""
        if inner.target != self.source:
            raise RingMismatch("inner map's target is not this map's source")
        return RingHom(inner.source, self.target, [self(im) for im in inner.images])

    def __eq__(self, other):
        return (
            isinstance(other, RingHom)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        ims = ", ".join(f"{v} -> {im}" for v, im in zip(self.source.variables, self.images))
        return f"RingHom({ims})"


def hom_compose(f: RingHom, g: RingHom) -> RingHom:
    """Composite f o g; g's target must be f's source."""
    return f.compose(g)


def adjoin_unit_variable(algebra: Algebra, name: str) -> Algebra:
    """Extend an algebra by a new unit: variables ``name`` and ``name_inv``
    with the relation name * name_inv = 1."""
    inv_name = name + "_inv"
    for n in (name, inv_name):
        if n in algebra.variables:
            raise DuplicateVariable(f"variable {n!r} already declared")
    new_vars = algebra.variables + (name, inv_name)
    new_ring = PolyRing(algebra.field, new_vars)
    lifted = [rel.extend(new_ring) for rel in algebra.relations]
    lifted.append(new_ring.var(name) * new_ring.var(inv_name) - new_ring.one())
    return Algebra(algebra.field, new_vars, lifted)
