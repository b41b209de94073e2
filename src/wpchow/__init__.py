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

from .version import __version__

# Each public name, by the submodule that defines it.  Nothing is imported
# until a name is first read (PEP 562), so ``import wpchow.cli`` loads no
# library module; the command line imports each one when a command needs it.
_EXPORTS = {
    "blowup": """AssemblyMismatchError BlowupData MODULI_AMBIENT MODULI_BLOWUP
        MODULI_RESTRICTION check_split_assembly cusp_complement_chow cusp_locus_class
        discriminant_hypersurface exceptional_selfintersection invariant_ring_check
        m12_open_chow m12bar_chow phi_degree2_images split_pieces unkilled_relations""",
    "curves": """IntermediateCoeffs MarkedCurveCoeffs Mu2FixedPoint ShortWeierstrass
        SingularCurveError coordinate_grading discriminant discriminant_polynomial
        fiber_curve iso_test j_invariant marked_equation mu2_fixed_points
        short_discriminant short_weierstrass_coeffs to_short_form
        weierstrass_substitution_residual""",
    "graded": """DegreeMismatchError GradedElement GradedPresentation graded_piece
        hom_check is_zero monomials_of_degree quotient same_ideal""",
    "intlinalg": """AbelianGroupShape cokernel hermite_normal_form smith_normal_form
        solve_integer""",
    "poly": "InhomogeneousError Monomial Poly parse_poly substitute weighted_degree",
    "report": "ReportItem VerificationReport build_report",
    "wps": """ComplementPicard HypersurfaceComplementInput WeightedProjectiveStack
        chow_of_complement chow_ring line_image_class pic_complement point_class""",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_OWNER, "__version__"])


def __getattr__(name):
    from importlib import import_module

    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
