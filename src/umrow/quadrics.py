"""Coordinate rings of the affine quadrics, their distinguished points, and
the explicit morphisms between them.

The odd quadric of dimension 2n+1 is cut out by sum(x_i y_i) = 1 in 2n+2
variables; the even quadric of dimension 2n by sum(x_i y_i) = z(1-z).  All
morphisms X -> Y are stored as algebra maps k[Y] -> k[X] and every claimed
identity is verified as an exact polynomial identity at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Algebra, AlgebraElement, RingHom, adjoin_unit_variable, hom_compose
from .errors import (
    CertificateAssemblyFailed,
    CharacteristicTwoUnsupported,
    DimensionOfZeroRing,
    HeightMismatch,
    InvalidUnit,
    ShapeError,
    UmrowError,
)
from .fields import FieldConfig
from .groebner import Ideal, groebner_basis, ideal_equal, krull_dimension
from .macros import _expand_checked, add_move, congruent_unit_scale, whitehead_mod_coordinate
from .rows import (
    ElementaryWord,
    OrbitCertificate,
    SplittingRow,
    UnimodularRow,
    check_unimodular,
    compute_splitting,
    row_from_witness,
    vdk_add,
)

# Entries kept by each cached builder below: two golden ``verify --suite all
# --n-min 2 --n-max 6`` runs fill at most 10 per builder, and a caller-chosen
# key (the scale of ``degree_action``) cannot grow a cache without limit.
QUADRIC_CACHE_SIZE = 64

# -- coordinate rings ---------------------------------------------------------


def _names(letter: str, first: int, last: int) -> list:
    """The variable names letter{first} .. letter{last}."""
    return [f"{letter}{i}" for i in range(first, last + 1)]


def _pairing(xs, ys) -> str:
    """The relation text sum(x_i*y_i) over two lists of names."""
    return " + ".join(f"{x}*{y}" for x, y in zip(xs, ys))


@dataclass(frozen=True)
class _QuadricRing:
    """A quadric's coordinate ring, with coordinates named x1, ..., y1, ...
    and, where the ring has one, z.  The subclasses add no field, so they
    share this dataclass's equality, hash and repr."""

    n: int
    algebra: Algebra

    def x(self, i: int) -> AlgebraElement:
        return self.algebra.var(f"x{i}")

    def y(self, i: int) -> AlgebraElement:
        return self.algebra.var(f"y{i}")

    def z(self) -> AlgebraElement:
        return self.algebra.var("z")


class OddQuadric(_QuadricRing):
    """k[Q_{2n+1}] with variables x1..x{n+1}, y1..y{n+1}."""

    def base_point(self):
        """(0, ..., 0, 1, 0, ..., 0, 1): last x and last y equal 1."""
        field = self.algebra.field
        zero, one = field.scalar(0), field.scalar(1)
        coords = [zero] * (self.n + 1) + [zero] * (self.n + 1)
        coords[self.n] = one
        coords[2 * self.n + 1] = one
        return tuple(coords)


class EvenQuadric(_QuadricRing):
    """k[Q_{2n}] with variables x1..xn, y1..yn, z."""

    def base_point(self):
        field = self.algebra.field
        return tuple([field.scalar(0)] * (2 * self.n + 1))


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def build_q_odd(n: int, field: FieldConfig) -> OddQuadric:
    if n < 0:
        raise ShapeError("odd quadrics need n >= 0")
    xs, ys = _names("x", 1, n + 1), _names("y", 1, n + 1)
    return OddQuadric(n, Algebra(field, xs + ys, [_pairing(xs, ys) + " - 1"]))


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def build_q_even(n: int, field: FieldConfig) -> EvenQuadric:
    if n < 1:
        raise ShapeError("even quadrics need n >= 1")
    xs, ys = _names("x", 1, n), _names("y", 1, n)
    return EvenQuadric(n, Algebra(field, xs + ys + ["z"], [_pairing(xs, ys) + " - z + z^2"]))


class GmQuadric(_QuadricRing):
    """k[Gm x Q_{2n}]: the even quadric ring with an adjoined unit t."""

    def t(self) -> AlgebraElement:
        return self.algebra.var("t")

    def t_inv(self) -> AlgebraElement:
        return self.algebra.var("t_inv")


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def gm_quadric(n: int, field: FieldConfig) -> GmQuadric:
    even = build_q_even(n, field)
    return GmQuadric(n, adjoin_unit_variable(even.algebra, "t"))


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def scalar_algebra(field: FieldConfig) -> Algebra:
    """The base field presented as an algebra with no variables."""
    return Algebra(field, (), ())


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def gm_algebra(field: FieldConfig) -> Algebra:
    """k[Gm] = k[t, t_inv] / (t*t_inv - 1)."""
    return adjoin_unit_variable(scalar_algebra(field), "t")


# -- points -------------------------------------------------------------------


@dataclass(frozen=True)
class QuadricEvenPoint:
    """An A-point of an even quadric: sum(x_i y_i) = z(1-z)."""

    parent: Algebra
    x: tuple
    y: tuple
    z: AlgebraElement

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ShapeError("x and y have different lengths")
        if self.parent.dot(self.x, self.y) != self.z * (self.parent.one() - self.z):
            raise ShapeError("point violates the even quadric relation")


def segre_point(row: UnimodularRow, splitting: SplittingRow) -> QuadricEvenPoint:
    """The even-quadric point attached to a unimodular row of length n+1.

    With entries a and splitting b, the point is
    x = (a_1, ..., a_{n-1}, a_n a_{n+1}),
    y = (b_1 a_{n+1} b_{n+1}, ..., b_{n-1} a_{n+1} b_{n+1}, b_n b_{n+1}),
    z = sum(a_i b_i, i <= n);
    the construction also checks <a_1, ..., a_n> = <x_1, ..., x_n, z>.
    """
    if splitting.row is not row and splitting.row.entries != row.entries:
        raise ShapeError("splitting does not belong to the given row")
    parent = row.parent
    a = row.entries
    b = splitting.entries
    n = len(a) - 1
    if n < 1:
        raise ShapeError("need a row of length at least 2")
    xs = list(a[: n - 1]) + [a[n - 1] * a[n]]
    last = a[n] * b[n]
    ys = [b[i] * last for i in range(n - 1)] + [b[n - 1] * b[n]]
    z = parent.dot(a[:n], b[:n])
    point = QuadricEvenPoint(parent, tuple(xs), tuple(ys), z)
    lhs = parent.ideal_with(a[:n])
    rhs = parent.ideal_with(list(xs) + [z])
    if not ideal_equal(lhs, rhs):
        raise ShapeError("the point's vanishing ideal differs from <a_1..a_n>")
    return point


# -- the explicit morphisms ----------------------------------------------------


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def eta_hom(n: int, field: FieldConfig) -> RingHom:
    """The comparison map from the odd quadric of dimension 2n+1 to the even
    quadric of dimension 2n, as the algebra map k[Q_{2n}] -> k[Q_{2n+1}]:

    x_i -> x_i (i < n),  x_n -> x_n x_{n+1},
    y_i -> y_i x_{n+1} y_{n+1} (i < n),  y_n -> y_n y_{n+1},
    z -> x_1 y_1 + ... + x_n y_n.
    """
    if n < 2:
        raise ShapeError("eta needs n >= 2")
    odd = build_q_odd(n, field)
    even = build_q_even(n, field)
    unit_factor = odd.x(n + 1) * odd.y(n + 1)
    images = []
    for i in range(1, n):
        images.append(odd.x(i))
    images.append(odd.x(n) * odd.x(n + 1))
    for i in range(1, n):
        images.append(odd.y(i) * unit_factor)
    images.append(odd.y(n) * odd.y(n + 1))
    ks = range(1, n + 1)
    images.append(odd.algebra.dot([odd.x(i) for i in ks], [odd.y(i) for i in ks]))
    return RingHom(even.algebra, odd.algebra, images)


def a_of(point_z: AlgebraElement, unit: AlgebraElement) -> AlgebraElement:
    """a(mu, z) = (1 - z) + mu z."""
    one = point_z.parent.one()
    return (one - point_z) + unit * point_z


def b_of(t: AlgebraElement, t_inv: AlgebraElement) -> AlgebraElement:
    """b(lambda) = 2 - lambda - lambda^{-1}."""
    return t.parent.element(2) - t - t_inv


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def mu_hom(n: int, field: FieldConfig) -> RingHom:
    """The map Gm x Q_{2n} -> Q_{2n+1}, stored as
    k[Q_{2n+1}] -> k[Gm x Q_{2n}]:

    x_i -> x_i,  x_{n+1} -> a(t, z) = 1 - z + t z,
    y_i -> b(t) y_i,  y_{n+1} -> a(t^{-1}, z),
    where b(t) = 2 - t - t^{-1}; the splitting identity
    a(t,z) a(t^{-1},z) = 1 - b(t) sum(x_i y_i) makes the images a point of
    the odd quadric.
    """
    if n < 1:
        raise ShapeError("mu needs n >= 1")
    odd = build_q_odd(n, field)
    gm = gm_quadric(n, field)
    b = b_of(gm.t(), gm.t_inv())
    images = [gm.x(i) for i in range(1, n + 1)]
    images.append(a_of(gm.z(), gm.t()))
    images.extend(b * gm.y(i) for i in range(1, n + 1))
    images.append(a_of(gm.z(), gm.t_inv()))
    return RingHom(odd.algebra, gm.algebra, images)


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def e_endo(n: int, field: FieldConfig) -> RingHom:
    """The elementary endomorphism of the odd quadric fixing the base point:

    (x_1, ..., x_n, z, y_1, ..., y_n, v)
      -> (x_1(1-z), ..., x_n(1-z), z, y_1, ..., y_n, v + 1 - z v)

    in the coordinate naming with z = x_{n+1}, v = y_{n+1}.
    """
    if n < 1:
        raise ShapeError("the endomorphism needs n >= 1")
    odd = build_q_odd(n, field)
    one = odd.algebra.one()
    z = odd.x(n + 1)
    v = odd.y(n + 1)
    images = [odd.x(i) * (one - z) for i in range(1, n + 1)]
    images.append(z)
    images.extend(odd.y(i) for i in range(1, n + 1))
    images.append(v + one - z * v)
    return RingHom(odd.algebra, odd.algebra, images)


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def mu_prime_hom(n: int, field: FieldConfig) -> RingHom:
    """The base-point-preserving modification of mu: the composite of mu with
    the elementary endomorphism."""
    return hom_compose(mu_hom(n, field), e_endo(n, field))


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def mu_prime_explicit(n: int, field: FieldConfig) -> RingHom:
    """The closed-form images of the modified map, built directly:

    (lambda, (x, y, z)) -> (x_1 z (1-lambda), ..., x_n z (1-lambda),
    a(lambda, z), b(lambda) y_1, ..., b(lambda) y_n,
    a(lambda^{-1}, z) z (1-lambda) + 1).
    """
    odd = build_q_odd(n, field)
    gm = gm_quadric(n, field)
    one = gm.algebra.one()
    z = gm.z()
    shear = z * (one - gm.t())
    b = b_of(gm.t(), gm.t_inv())
    images = [gm.x(i) * shear for i in range(1, n + 1)]
    images.append(a_of(z, gm.t()))
    images.extend(b * gm.y(i) for i in range(1, n + 1))
    images.append(a_of(z, gm.t_inv()) * shear + one)
    return RingHom(odd.algebra, gm.algebra, images)


def gm_point_eval(n: int, field: FieldConfig, value: int) -> RingHom:
    """Evaluation k[Gm x Q_{2n}] -> k[Q_{2n}] at a fixed unit lambda."""
    gm = gm_quadric(n, field)
    even = build_q_even(n, field)
    lam = field.scalar(value)
    if lam.is_zero():
        raise InvalidUnit("lambda must be a unit")
    images = [even.algebra.var(v) for v in even.algebra.variables]
    images.append(even.algebra.element(lam))
    images.append(even.algebra.element(lam.inverse()))
    return RingHom(gm.algebra, even.algebra, images)


def mu_at_unit(n: int, field: FieldConfig, value: int) -> RingHom:
    """mu specialized at a scalar unit lambda: a map k[Q_{2n+1}] -> k[Q_{2n}]."""
    return hom_compose(gm_point_eval(n, field, value), mu_hom(n, field))


def mu_minus_one(n: int, field: FieldConfig) -> RingHom:
    """mu at lambda = -1; sends (a, b, s) to (a, 1-2s, 4b, 1-2s)."""
    return mu_at_unit(n, field, -1)


def basepoint_section(n: int, field: FieldConfig) -> RingHom:
    """k[Gm x Q_{2n}] -> k[Gm]: the even-quadric coordinates go to the base
    point while lambda stays symbolic."""
    gm = gm_quadric(n, field)
    target = gm_algebra(field)
    zero = target.zero()
    images = [zero] * (2 * n + 1)
    images.append(target.var("t"))
    images.append(target.var("t_inv"))
    return RingHom(gm.algebra, target, images)


def mu_prime_basepoint_check(n: int, field: FieldConfig) -> bool:
    """True when the modified map carries (lambda, base point) to the odd
    quadric's base point for symbolic lambda."""
    odd = build_q_odd(n, field)
    section = basepoint_section(n, field)
    composite = hom_compose(section, mu_prime_hom(n, field))
    target = section.target
    expected = [target.element(c) for c in odd.base_point()]
    return list(composite.images) == expected


def degree_action(alpha_raw, n: int, field: FieldConfig) -> RingHom:
    """The degree-scaling endomorphism of the odd quadric:

    (x_1, ..., x_n, x_{n+1}, y_1, ..., y_n, y_{n+1})
      -> (a x_1, ..., a x_n, x_{n+1}, a^{-1} y_1, ..., a^{-1} y_n, y_{n+1}).

    Cached by the scalar ``a`` of ``field``, so every spelling of one scale
    (``2``, ``"2"``, ``Fraction(2)``) shares one map.
    """
    return _degree_action(field.scalar(alpha_raw), n, field)


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def _degree_action(alpha, n: int, field: FieldConfig) -> RingHom:
    if alpha.is_zero():
        raise InvalidUnit("the scaling factor must be a nonzero scalar")
    odd = build_q_odd(n, field)
    a = odd.algebra.element(alpha)
    a_inv = odd.algebra.element(alpha.inverse())
    images = [a * odd.x(i) for i in range(1, n + 1)]
    images.append(odd.x(n + 1))
    images.extend(a_inv * odd.y(i) for i in range(1, n + 1))
    images.append(odd.y(n + 1))
    return RingHom(odd.algebra, odd.algebra, images)


# -- Euler-class level maps ------------------------------------------------------


def universal_even_point(d: int, field: FieldConfig) -> QuadricEvenPoint:
    """The tautological point (x, y, z) of Q_{2d} over its own coordinate ring."""
    even = build_q_even(d, field)
    return QuadricEvenPoint(
        even.algebra,
        tuple(even.x(i) for i in range(1, d + 1)),
        tuple(even.y(i) for i in range(1, d + 1)),
        even.z(),
    )


def delta_map(point: QuadricEvenPoint):
    """From an even-quadric point (a, b, s) to the unimodular row
    (2a_1, ..., 2a_d, 1-2s) with explicit splitting (2b_1, ..., 2b_d, 1-2s);
    the identity (1-2s)^2 = 1 - sum((2a_i)(2b_i)) makes the splitting exact.
    Requires characteristic different from 2."""
    parent = point.parent
    if parent.field.characteristic == 2:
        raise CharacteristicTwoUnsupported("delta needs 2 to be invertible")
    two = parent.element(2)
    one = parent.one()
    head = one - two * point.z
    entries = [two * a for a in point.x] + [head]
    witness = [two * b for b in point.y] + [head]
    return row_from_witness(parent, entries, witness)


@dataclass(frozen=True)
class OrientedIdeal:
    """An ideal together with an orientation lift: the classes of the stored
    lift present the conormal module I/I^2, i.e. the lift generates I
    modulo I^2 (verified at construction)."""

    parent: Algebra
    lift: tuple
    generators: tuple
    height_checked: bool = False

    def __post_init__(self):
        gens = self.generators
        square = [g * h for gi, g in enumerate(gens) for h in gens[gi:]]
        ambient = self.parent.ideal_with(list(self.lift) + square)
        gb = groebner_basis(ambient)
        for g in gens:
            if not gb.contains(g.rep):
                raise ShapeError("orientation lift does not generate I modulo I^2")

    @property
    def ideal(self) -> Ideal:
        return self.parent.ideal_with(self.generators)


def universal_split_row(d: int, field: FieldConfig) -> UnimodularRow:
    """The row (a_1, ..., a_{d+1}) over k[a, b] / (sum(a_i b_i) - 1), the
    universal unimodular row of length d+1 with a chosen splitting."""
    a, b = _names("a", 1, d + 1), _names("b", 1, d + 1)
    alg = Algebra(field, a + b, [_pairing(a, b) + " - 1"])
    return check_unimodular(alg, [alg.var(name) for name in a])


def phi_map(row: UnimodularRow, check_height: bool = False):
    """From a unimodular row (a_1, ..., a_d, a_{d+1}) to the oriented ideal
    (J_0, class of a_{d+1} times the standard orientation) together with the
    even-quadric point realizing it.

    J_0 = <a_1, ..., a_d> carries the orientation lift
    (a_1, ..., a_{d-1}, a_d a_{d+1}); the point comes from ``segre_point``,
    which checks that its vanishing ideal <x_1, ..., x_d, z> equals J_0.
    The height check compares Krull dimensions and is advisory.
    """
    parent = row.parent
    d = len(row.entries) - 1
    if d < 1:
        raise ShapeError("need a row of length at least 2")
    splitting = compute_splitting(row)
    a = row.entries
    lift = tuple(list(a[: d - 1]) + [a[d - 1] * a[d]])
    j0 = parent.ideal_with(a[:d])
    point = segre_point(row, splitting)
    height_checked = False
    if check_height:
        ambient_dim = parent.dimension
        try:
            quotient_dim = krull_dimension(j0)
        except DimensionOfZeroRing as exc:
            raise HeightMismatch(f"could not evaluate the height of J_0: {exc}") from exc
        if ambient_dim - quotient_dim != d:
            raise HeightMismatch(
                f"J_0 has height {ambient_dim - quotient_dim}, expected {d}"
            )
        height_checked = True
    oriented = OrientedIdeal(parent, lift, tuple(a[:d]), height_checked)
    return oriented, point


# -- the universal double-row ring and the fold model ----------------------------


@dataclass(frozen=True)
class VTildeRing:
    """The universal ring carrying two split unimodular rows of length n
    whose combined tail is split as well:

    x1 y1 + x' y'^T = 1,   u1 v1 + u' v'^T = 1,   x' r'^T + u' s'^T = 1.
    """

    n: int
    algebra: Algebra

    def _vars(self, letter: str, first: int = 1) -> list:
        return [self.algebra.var(name) for name in _names(letter, first, self.n)]

    def _row(self, entries, witness) -> UnimodularRow:
        """The row of ``entries`` split by ``witness``, checked by
        ``row_from_witness``."""
        row, _ = row_from_witness(self.algebra, entries, witness)
        return row

    def x_row(self) -> UnimodularRow:
        return self._row(self._vars("x"), self._vars("y"))

    def u_row(self) -> UnimodularRow:
        return self._row(self._vars("u"), self._vars("v"))

    def tail_row(self) -> UnimodularRow:
        return self._row(self._vars("x", 2) + self._vars("u", 2), self._vars("r", 2) + self._vars("s", 2))

    def basepoint_row(self) -> UnimodularRow:
        entries = [self.algebra.zero()] * (self.n - 1) + [self.algebra.one()]
        return self._row(entries, entries)


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def vtilde_ring(n: int, field: FieldConfig) -> VTildeRing:
    if n < 2:
        raise ShapeError("the universal double-row ring needs n >= 2")
    x, y, u, v = (_names(letter, 1, n) for letter in "xyuv")
    r, s = _names("r", 2, n), _names("s", 2, n)
    relations = [_pairing(x, y), _pairing(u, v), _pairing(x[1:] + u[1:], r + s)]
    return VTildeRing(n, Algebra(field, x + y + u + v + r + s, [rel + " - 1" for rel in relations]))


@dataclass(frozen=True)
class FoldModel:
    """The fold-model row over the universal ring.

    ``row`` is (x1(1-x1), ..., x_{n-1}(1-x1), xn + (1-xn) x1); ``witness``
    certifies the length-2 row (xn + (1-xn) x1, 1 - x1) via the identity
    (1-x1)(1-xn) + xn + (1-xn) x1 = 1.
    """

    row: UnimodularRow
    witness: SplittingRow


@lru_cache(maxsize=QUADRIC_CACHE_SIZE)
def fold_model_row(vt: VTildeRing) -> FoldModel:
    """Run the addition of the universal row with the base-point row; the
    outcome is pinned to its closed form."""
    alg = vt.algebra
    n = vt.n
    result = vdk_add(vt.x_row(), vt.basepoint_row())
    one = alg.one()
    x1 = alg.var("x1")
    xn = alg.var(f"x{n}")
    expected = [alg.var(f"x{i}") * (one - x1) for i in range(1, n)]
    expected.append(xn + (one - xn) * x1)
    if list(result.row.entries) != expected:
        raise AssertionError("fold-model row differs from its closed form")
    _, witness = row_from_witness(alg, [xn + (one - xn) * x1, one - x1], [one, one - xn])
    return FoldModel(result.row, witness)


def fold_model_certificate(vt: VTildeRing) -> OrbitCertificate:
    """An explicit elementary word carrying the fold-model row back to
    (x1, ..., xn), assembled from the macro toolkit.  Each stage's word is
    replayed once on the row the previous stage reached, and the last row
    is compared to (x1, ..., xn): that chain is the raw replay of the whole
    word, which ``verify_certificate`` would repeat.  The assembly is only
    available for n >= 4."""
    n = vt.n
    if n < 4:
        raise CertificateAssemblyFailed("certificate assembly requires n >= 4")
    alg = vt.algebra
    one = alg.one()
    x = [alg.var(f"x{i}") for i in range(1, n + 1)]
    x1 = x[0]
    xn = x[n - 1]
    r = one - x1

    fold = fold_model_row(vt)
    current = fold.row
    word = ElementaryWord(n)

    def run_stage(name: str, macro):
        nonlocal current, word
        try:
            stage_word, entries = _expand_checked(macro, current)
        except UmrowError as exc:
            raise CertificateAssemblyFailed(f"stage {name!r} failed: {exc}") from exc
        word = word.concat(stage_word)
        current = UnimodularRow(alg, tuple(entries), True)

    # Undo the shared (1-x1) factor on the first two slots; the witness
    # (1-x1)(1-xn) = 1 - pivot makes 1-xn an inverse of 1-x1 modulo the pivot.
    run_stage(
        "whitehead",
        whitehead_mod_coordinate(0, 1, n - 1, unit=r, witness=one - xn, cofactor=-one),
    )
    # Slot 0 is now x1 (1 - pivot); one addition from the pivot restores x1.
    run_stage("pivot-cleanup", add_move(n - 1, 0, x1))
    if current.entries[0] != x1:
        raise CertificateAssemblyFailed("stage 'pivot-cleanup' left slot 0 wrong")
    # Slot 1 carries two factors of (1-x1); peel them one at a time through
    # slot 0, whose congruence certificate is 1 - x1 = 1 + (-1) x1.
    run_stage(
        "strip-slot-1-outer",
        congruent_unit_scale(1, {0: -one}, invert=True, base=x[1] * r),
    )
    run_stage(
        "strip-slot-1-inner",
        congruent_unit_scale(1, {0: -one}, invert=True, base=x[1]),
    )
    for idx in range(2, n - 1):
        run_stage(
            f"strip-slot-{idx}",
            congruent_unit_scale(idx, {0: -one}, invert=True, base=x[idx]),
        )
    # The pivot slot holds xn + (1-xn) x1; subtract x1 and strip the factor.
    run_stage("pivot-shift", add_move(0, n - 1, -one))
    run_stage(
        "pivot-strip",
        congruent_unit_scale(n - 1, {0: -one}, invert=True, base=xn),
    )

    target = UnimodularRow(alg, tuple(x), verified=True)
    if current.entries != target.entries:
        raise CertificateAssemblyFailed("assembled word does not reach (x1, ..., xn)")
    return OrbitCertificate(fold.row, target, word)
