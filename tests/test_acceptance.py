"""Acceptance suite: the thirteen exit criteria, all exact.

Each criterion prints one pass/fail line (visible under ``pytest -s``);
an assertion failure prints the FAIL line and propagates.  Everything is
exact integer/rational arithmetic, so every tolerance is equality.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from oracles import determinant, invariant_factors_via_minor_gcds, mat_mul
from wpchow import (
    AbelianGroupShape,
    GradedPresentation,
    IntermediateCoeffs,
    MarkedCurveCoeffs,
    Monomial,
    Poly,
    ShortWeierstrass,
    WeightedProjectiveStack,
    build_report,
    chow_of_complement,
    chow_ring,
    cusp_complement_chow,
    cusp_locus_class,
    discriminant,
    discriminant_hypersurface,
    discriminant_polynomial,
    graded_piece,
    hom_check,
    line_image_class,
    m12_open_chow,
    m12bar_chow,
    mu2_fixed_points,
    parse_poly,
    pic_complement,
    point_class,
    same_ideal,
    short_weierstrass_coeffs,
    smith_normal_form,
    substitute,
    to_short_form,
    weierstrass_substitution_residual,
    weighted_degree,
)

P234 = WeightedProjectiveStack((2, 3, 4))
P46 = WeightedProjectiveStack((4, 6))
Z = AbelianGroupShape(1, ())
Z24 = AbelianGroupShape.cyclic(24)
BOUND = 8


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2} FAIL  {description}")
                raise
            print(f"[acceptance] criterion {number:2} PASS  {description}")
            return result

        return run

    return wrap


@criterion(1, "A*(P(2,3,4)) pieces are Z, Z, Z then Z/24 for n <= 8")
def test_criterion_01_chow_ring_234_pieces():
    ring = chow_ring(P234)
    pieces = [graded_piece(ring, n) for n in range(BOUND + 1)]
    assert pieces == [Z, Z, Z] + [Z24] * (BOUND - 2)


@criterion(2, "complement of the cusp class 24t^2 is Z[t]/(24t^2)")
def test_criterion_02_cusp_complement():
    cusp = cusp_locus_class()
    assert cusp.value == parse_poly("24*t^2")
    complement = chow_of_complement(P234, [cusp])
    target = GradedPresentation.make([("t", 1)], ["24*t^2"])
    assert same_ideal(complement, target)
    for n in range(BOUND + 1):
        assert graded_piece(complement, n) == graded_piece(target, n)


@criterion(3, "compactified moduli ring is Z[x,y]/(xy, 24x^2+24y^2) with split assembly")
def test_criterion_03_m12bar_assembly():
    presentation = m12bar_chow(BOUND)
    assert presentation.generators == (("x", 1), ("y", 1))
    assert set(presentation.relations) == {
        parse_poly("x*y"),
        parse_poly("24*x^2 + 24*y^2"),
    }
    exceptional_ring = chow_ring(P46)
    u_ring = cusp_complement_chow()
    expected_pattern = [Z, AbelianGroupShape(2, ()), AbelianGroupShape(1, (24,))] + [
        AbelianGroupShape(0, (24, 24))
    ] * (BOUND - 2)
    for n in range(BOUND + 1):
        piece = graded_piece(presentation, n)
        assert piece == expected_pattern[n]
        below = (
            graded_piece(exceptional_ring, n - 1)
            if n >= 1
            else AbelianGroupShape.trivial()
        )
        assert piece == below.direct_sum(graded_piece(u_ring, n))


@criterion(4, "open moduli ring is Z[t]/(12t), from killing 12t and 12t^2")
def test_criterion_04_m12_open():
    presentation = m12_open_chow(BOUND)
    assert parse_poly("12*t") in presentation.relations
    assert parse_poly("12*t^2") in presentation.relations
    for relation in cusp_complement_chow().relations:
        assert relation in presentation.relations
    target = GradedPresentation.make([("t", 1)], ["12*t"])
    assert same_ideal(presentation, target)


@criterion(5, "restriction x -> t, y -> 0 passes hom_check; x -> t, y -> t fails")
def test_criterion_05_restriction_hom():
    source, target = m12bar_chow(BOUND), m12_open_chow(BOUND)
    assert hom_check(source, target, {"x": "t", "y": 0})
    assert not hom_check(source, target, {"x": "t", "y": "t"})


@criterion(6, "discriminant has weighted degree 12 and Pic of its complement is Z/12")
def test_criterion_06_discriminant_degree_and_pic():
    grading = {"a2": 2, "a3": 3, "a4": 4}
    assert weighted_degree(discriminant_polynomial(), grading) == 12
    result = pic_complement(discriminant_hypersurface())
    assert result.group == AbelianGroupShape.cyclic(12)


@criterion(7, "generic substitution into short Weierstrass form leaves zero residual")
def test_criterion_07_weierstrass_identity():
    assert weierstrass_substitution_residual().is_zero


@criterion(8, "fixed points of the nodal fiber are [1,0,-3], [-2,0,-3]; disc(1,0,-3) = 0")
def test_criterion_08_nodal_fixed_points():
    points = mu2_fixed_points(ShortWeierstrass(-3, 2))
    assert [p.coords for p in points] == [(1, 0, -3), (-2, 0, -3)]
    assert discriminant(IntermediateCoeffs(1, 0, -3)) == 0


@criterion(9, "the coefficient map sends (1,1,0) to (0,0)")
def test_criterion_09_indeterminacy_point():
    beta = short_weierstrass_coeffs(IntermediateCoeffs(1, 1, 0))
    assert (beta.beta4, beta.beta6) == (0, 0)


@criterion(10, "point classes: weight-4 point of P(4,6) is 6t; weight-2 point of P(2,3,4) is 12t^2")
def test_criterion_10_point_classes():
    assert point_class(P46, 1).value == parse_poly("6*t")
    assert point_class(P234, 1).value == parse_poly("12*t^2")


@criterion(11, "invariant ring check passes for all 1 <= w1 <= w2 <= 6 at bound 15")
def test_criterion_11_invariant_ring():
    from wpchow import invariant_ring_check

    for w1 in range(1, 7):
        for w2 in range(w1, 7):
            assert invariant_ring_check(w1, w2, 15)


@criterion(12, "property suites: 500 SNF matrices, 200 substitution pairs, 100 scalings")
def test_criterion_12_property_suites():
    _snf_properties(500)
    _substitution_homomorphism(200)
    _coefficient_map_equivariance(100)


def _snf_properties(count: int):
    rng = random.Random(101)
    for index in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_normal_form(matrix)
        assert mat_mul(mat_mul(u, matrix), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diagonal = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [value for value in diagonal if value]
        assert all(value > 0 for value in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        if index % 10 == 0:
            assert nonzero == invariant_factors_via_minor_gcds(matrix)


def _random_poly(rng, variables):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = Monomial.of({v: rng.randint(0, 3) for v in variables})
        terms[mono] = terms.get(mono, 0) + Fraction(
            rng.randint(-6, 6), rng.randint(1, 4)
        )
    return Poly(terms)


def _substitution_homomorphism(count: int):
    rng = random.Random(103)
    for _ in range(count):
        p = _random_poly(rng, ("x", "y"))
        q = _random_poly(rng, ("x", "y"))
        assignment = {
            "x": _random_poly(rng, ("s", "t")),
            "y": _random_poly(rng, ("s", "t")),
        }
        left = substitute(p * q, assignment)
        right = substitute(p, assignment) * substitute(q, assignment)
        assert left == right


def _coefficient_map_equivariance(count: int):
    rng = random.Random(107)
    for _ in range(count):
        scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if rng.random() < 0.5:
            scale = -scale
        base = IntermediateCoeffs(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        scaled = IntermediateCoeffs(
            scale**2 * base.alpha2, scale**3 * base.alpha3, scale**4 * base.alpha4
        )
        beta_base = short_weierstrass_coeffs(base)
        beta_scaled = short_weierstrass_coeffs(scaled)
        assert beta_scaled.beta4 == scale**4 * beta_base.beta4
        assert beta_scaled.beta6 == scale**6 * beta_base.beta6


@criterion(13, "verify-paper --self-test reports at least one failure")
def test_criterion_13_mutation_guard():
    report = build_report(bound=BOUND, self_test=True)
    assert report.failed >= 1
    assert "m12bar-assembly" in {i.id for i in report.items if i.status == "fail"}
    clean = build_report(bound=BOUND)
    assert clean.failed == 0


def test_pipeline_end_to_end():
    # not a numbered criterion: the documented pipeline scenario in one go
    alpha, beta = to_short_form(MarkedCurveCoeffs(3, 2, 0))
    assert (alpha.alpha2, alpha.alpha3, alpha.alpha4) == (1, 1, -3)
    assert (beta.beta4, beta.beta6) == (-3, 3)
    assert line_image_class(P234, (1, 2), (3,)).value == parse_poly("24*t^2")
