"""Exact symbolic toolkit for weighted projective stacks and 2-pointed
genus-1 moduli.

The package computes, over Z and Q with no floating point anywhere:

* Chow rings of weighted projective stacks and of their open complements,
  as finitely presented graded Z-algebras with exact graded pieces;
* the weighted blow-up presentation of the compactified moduli of
  2-pointed genus-1 curves, assembled and cross-checked degreewise;
* Picard groups of weighted hypersurface complements;
* the marked Weierstrass pipeline over Z[1/6]: normalization to short
  form, discriminants, j-invariants, isomorphism scalings and the fixed
  points of the fiberwise involution.

``wpchow.cli`` exposes the same functionality on the command line and
``wpchow.report`` aggregates every identity into a verification report.
"""

from .blowup import (
    AssemblyMismatchError,
    BlowupData,
    MODULI_AMBIENT,
    MODULI_BLOWUP,
    MODULI_RESTRICTION,
    check_split_assembly,
    cusp_complement_chow,
    cusp_locus_class,
    discriminant_hypersurface,
    exceptional_selfintersection,
    invariant_ring_check,
    m12_open_chow,
    m12bar_chow,
    phi_degree2_images,
    split_pieces,
    unkilled_relations,
)
from .curves import (
    IntermediateCoeffs,
    MarkedCurveCoeffs,
    Mu2FixedPoint,
    ShortWeierstrass,
    SingularCurveError,
    coordinate_grading,
    discriminant,
    discriminant_polynomial,
    fiber_curve,
    iso_test,
    j_invariant,
    marked_equation,
    mu2_fixed_points,
    short_discriminant,
    short_weierstrass_coeffs,
    to_short_form,
    weierstrass_substitution_residual,
)
from .graded import (
    DegreeMismatchError,
    GradedElement,
    GradedPresentation,
    graded_piece,
    hom_check,
    is_zero,
    monomials_of_degree,
    quotient,
    same_ideal,
)
from .intlinalg import (
    AbelianGroupShape,
    cokernel,
    hermite_normal_form,
    smith_normal_form,
    solve_integer,
)
from .poly import (
    InhomogeneousError,
    Monomial,
    Poly,
    parse_poly,
    substitute,
    weighted_degree,
)
from .report import ReportItem, VerificationReport, build_report
from .version import __version__
from .wps import (
    ComplementPicard,
    HypersurfaceComplementInput,
    WeightedProjectiveStack,
    chow_of_complement,
    chow_ring,
    line_image_class,
    pic_complement,
    point_class,
)

__all__ = [
    "AbelianGroupShape",
    "AssemblyMismatchError",
    "BlowupData",
    "ComplementPicard",
    "DegreeMismatchError",
    "GradedElement",
    "GradedPresentation",
    "HypersurfaceComplementInput",
    "InhomogeneousError",
    "IntermediateCoeffs",
    "MODULI_AMBIENT",
    "MODULI_BLOWUP",
    "MODULI_RESTRICTION",
    "MarkedCurveCoeffs",
    "Monomial",
    "Mu2FixedPoint",
    "Poly",
    "ReportItem",
    "ShortWeierstrass",
    "SingularCurveError",
    "VerificationReport",
    "WeightedProjectiveStack",
    "__version__",
    "build_report",
    "check_split_assembly",
    "chow_of_complement",
    "chow_ring",
    "cokernel",
    "coordinate_grading",
    "cusp_complement_chow",
    "cusp_locus_class",
    "discriminant",
    "discriminant_hypersurface",
    "discriminant_polynomial",
    "exceptional_selfintersection",
    "fiber_curve",
    "graded_piece",
    "hermite_normal_form",
    "hom_check",
    "invariant_ring_check",
    "is_zero",
    "iso_test",
    "j_invariant",
    "line_image_class",
    "m12_open_chow",
    "m12bar_chow",
    "marked_equation",
    "monomials_of_degree",
    "mu2_fixed_points",
    "parse_poly",
    "phi_degree2_images",
    "pic_complement",
    "point_class",
    "quotient",
    "same_ideal",
    "short_discriminant",
    "short_weierstrass_coeffs",
    "smith_normal_form",
    "solve_integer",
    "split_pieces",
    "substitute",
    "to_short_form",
    "unkilled_relations",
    "weierstrass_substitution_residual",
    "weighted_degree",
]
