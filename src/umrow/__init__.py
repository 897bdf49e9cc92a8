"""Exact unimodular-row calculus over finitely presented algebras.

The package stacks four layers: exact scalars (rationals and prime fields),
sparse polynomials with a cofactor-tracking Groebner engine, finitely
presented algebras with decidable element equality, and on top of those the
row calculus (splittings, elementary words, two-row reduction, orbit-level
addition) together with the explicit quadric morphisms it certifies.
"""

from .algebra import (
    Algebra,
    AlgebraElement,
    RingHom,
    adjoin_unit_variable,
    hom_compose,
    make_algebra,
)
from .fields import RATIONALS, FieldConfig, Scalar, field_from_text, prime_field
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    divide_with_remainder,
    groebner_basis,
    ideal_equal,
    krull_dimension,
)
from .macros import (
    MoveMacro,
    add_move,
    congruent_unit_scale,
    macro_expand,
    scale_unit_pair,
    swap_sign,
    whitehead_mod_coordinate,
)
from .poly import PolyRing, Polynomial
from .rows import (
    ElementaryGen,
    ElementaryWord,
    MNResult,
    OrbitCertificate,
    SplittingRow,
    UnimodularRow,
    VdkSum,
    apply_word,
    check_unimodular,
    compute_splitting,
    mennicke_newman,
    row_from_witness,
    vdk_add,
    verify_certificate,
)
from .quadrics import (
    EvenQuadric,
    FoldModel,
    GmQuadric,
    OddQuadric,
    OrientedIdeal,
    QuadricEvenPoint,
    VTildeRing,
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
    mu_hom,
    mu_minus_one,
    mu_prime_basepoint_check,
    mu_prime_explicit,
    mu_prime_hom,
    phi_map,
    segre_point,
    vtilde_ring,
)

__version__ = "0.1.0"
