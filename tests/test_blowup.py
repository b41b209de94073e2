"""Weighted blow-up data, invariant ring, and the moduli assembly."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import invariant_basis_by_box, invariant_vectors_brute, monoid_closure
from wpchow import (
    AbelianGroupShape,
    AssemblyMismatchError,
    BlowupData,
    ComplementPicard,
    GradedElement,
    GradedPresentation,
    Poly,
    check_split_assembly,
    chow_ring,
    cusp_complement_chow,
    cusp_locus_class,
    exceptional_selfintersection,
    graded_piece,
    hom_check,
    invariant_ring_check,
    is_zero,
    m12_open_chow,
    m12bar_chow,
    parse_poly,
    phi_degree2_images,
    quotient,
    same_ideal,
    split_pieces,
    unkilled_relations,
    weighted_degree,
)
from wpchow import blowup
from wpchow.graded import _graded_piece_cached


def test_invariant_ring_examples():
    assert invariant_ring_check(4, 6, 12)
    assert invariant_ring_check(1, 1, 10)
    assert invariant_ring_check(2, 3, 20)


def test_invariant_ring_all_small_weights():
    assert all(
        invariant_ring_check(w1, w2, 15)
        for w1 in range(1, 7)
        for w2 in range(w1, 7)
    )


def test_invariant_ring_validation():
    with pytest.raises(ValueError):
        invariant_ring_check(0, 2, 5)
    with pytest.raises(ValueError):
        invariant_ring_check(Fraction(3, 2), 2, 5)
    with pytest.raises(ValueError):
        invariant_ring_check(1, 1, 0)


def test_invariant_hilbert_basis_against_brute_force():
    for w1 in range(1, 7):
        for w2 in range(w1, 7):
            weights = (w1, w2, -1)
            basis = blowup._invariant_hilbert_basis(weights, 15)
            invariants = invariant_vectors_brute(weights, 15)
            assert set(basis) <= invariants
            # every invariant vector is a nonnegative combination of the basis
            assert invariants <= monoid_closure(basis, 15)
            # no basis element is a sum of two nonzero invariant vectors
            for element in basis:
                for part in invariants:
                    rest = tuple(a - b for a, b in zip(element, part))
                    assert rest not in invariants


def test_invariant_hilbert_basis_of_other_gradings():
    assert sorted(blowup._invariant_hilbert_basis((1, 1, -2), 15)) == [
        (0, 2, 1),
        (1, 1, 1),
        (2, 0, 1),
    ]
    assert blowup._invariant_hilbert_basis((2, 3, 1), 15) == []


@pytest.mark.parametrize(
    "weights", [(1, 1, -2), (2, 3, 1), (1, 2, -3, -4), (3, -2), (4, 6, -1), (-1,), (2, 1, 3, -2)]
)
def test_invariant_hilbert_basis_matches_the_box_walk_in_order(weights):
    for bound in range(31):
        assert blowup._invariant_hilbert_basis(weights, bound) == invariant_basis_by_box(
            weights, bound
        )


def test_invariant_ring_large_bound():
    assert invariant_ring_check(1, 1, 300)


def test_invariant_monomial_identity_spot_check():
    # x*y*u^10 is invariant for weights (4, 6, -1) and equals (u^4 x)(u^6 y)
    x, y, u = (Poly.variable(v) for v in ("x", "y", "u"))
    assert x * y * u**10 == (u**4 * x) * (u**6 * y)


def test_blowup_data_and_charts():
    # The charts that `wpchow blowup 2 3` prints: tests/cli_cases.py.
    data = BlowupData(4, 6)
    assert data.exceptional.weights == (4, 6)
    with pytest.raises(ValueError):
        BlowupData(0, 1)
    with pytest.raises(ValueError):
        BlowupData(Fraction(3, 2), 2)


def test_exceptional_selfintersection():
    square = exceptional_selfintersection(BlowupData(4, 6))
    assert square.value == -Poly.variable("t")
    assert square.degree == 1
    assert square.ambient == chow_ring(BlowupData(4, 6).exceptional)


def test_cusp_class_and_complement():
    assert cusp_locus_class().value == 24 * Poly.variable("t") ** 2
    u_ring = cusp_complement_chow()
    assert same_ideal(u_ring, GradedPresentation.make([("t", 1)], ["24*t^2"]))


def test_phi_degree2_images():
    images = phi_degree2_images()
    t = Poly.variable("t")
    assert images["y^2"][0].value == -t
    assert images["y^2"][1].value.is_zero
    assert images["x*y"][0].value.is_zero
    assert images["x*y"][1].value.is_zero
    assert images["x^2"][0].value == t
    assert images["x^2"][1].value == t**2
    # both relations of the assembled ring die componentwise
    for relation in m12bar_chow().relations:
        e_image = 0 * images["x^2"][0]
        u_image = 0 * images["x^2"][1]
        for monomial, coefficient in relation.terms():
            e_part, u_part = images[monomial.render()]
            e_image = e_image + int(coefficient) * e_part
            u_image = u_image + int(coefficient) * u_part
        assert is_zero(e_image)
        assert is_zero(u_image)


def test_m12bar_presentation_and_pieces():
    presentation = m12bar_chow()
    assert presentation.generators == (("x", 1), ("y", 1))
    assert presentation.relations == (
        parse_poly("x*y"),
        parse_poly("24*x^2 + 24*y^2"),
    )
    pieces = [graded_piece(presentation, n) for n in range(9)]
    assert pieces[0] == AbelianGroupShape(1, ())
    assert pieces[1] == AbelianGroupShape(2, ())
    assert pieces[2] == AbelianGroupShape(1, (24,))
    assert pieces[3:] == [AbelianGroupShape(0, (24, 24))] * 6
    assert pieces[5] == AbelianGroupShape(0, (24, 24))


def test_m12bar_assembly_matches_split_decomposition():
    e_ring = chow_ring(BlowupData(4, 6).exceptional)
    u_ring = cusp_complement_chow()
    presentation = m12bar_chow(8)
    predicted = split_pieces(8)
    assert len(predicted) == 9
    for n in range(9):
        below = (
            graded_piece(e_ring, n - 1) if n >= 1 else AbelianGroupShape.trivial()
        )
        expected = below.direct_sum(graded_piece(u_ring, n))
        assert graded_piece(presentation, n) == expected == predicted[n]


def test_check_split_assembly_detects_corruption():
    corrupted = GradedPresentation.make(
        [("x", 1), ("y", 1)], ["x*y", "23*x^2 + 24*y^2"]
    )
    with pytest.raises(AssemblyMismatchError):
        check_split_assembly(corrupted)
    dropped = GradedPresentation.make([("x", 1), ("y", 1)], ["x*y"])
    with pytest.raises(AssemblyMismatchError):
        check_split_assembly(dropped)


def _xy_ring(*relations):
    return GradedPresentation.make([("x", 1), ("y", 1)], relations)


def test_check_split_assembly_requires_xy_in_the_ideal():
    # x*y need only lie in the ideal: these relations generate the ideal of
    # m12bar_chow() without listing x*y.
    blowup.check_split_assembly(_xy_ring("x*y + 24*x^2 + 24*y^2", "24*x^2 + 24*y^2"))
    with pytest.raises(AssemblyMismatchError, match=r"^x\*y is not in the ideal of"):
        blowup.check_split_assembly(_xy_ring("24*x^2 + 24*y^2"))


def test_check_split_assembly_compares_past_degree_2():
    # Both degree-2 relations pass the split-image check and the pieces
    # agree up to degree 2; the cubic relation first shows in degree 3.
    cubic = _xy_ring("x*y", "24*x^2 + 24*y^2", "12*x^3 + 12*y^3")
    assert unkilled_relations(cubic) == []
    assert [graded_piece(cubic, n) for n in range(3)] == split_pieces(2)
    with pytest.raises(
        AssemblyMismatchError,
        match="degree 3: presentation gives Z/12 x Z/24, split decomposition gives Z/24 x Z/24",
    ):
        blowup.check_split_assembly(cubic)


def test_pieces_of_a_ring_with_xy_are_constant_above_its_relation_degrees():
    # The argument check_split_assembly rests on: with x*y in the ideal,
    # every piece above the largest relation degree D is the piece in
    # degree D + 1.  graded_piece relies on it, so the relation lattice
    # of each degree is eliminated here.
    x, y = Poly.variable("x"), Poly.variable("y")
    rng = random.Random(301)
    for _ in range(300):
        relations = [x * y]
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(1, 5)
            relations.append(
                sum((rng.randint(-12, 12) * x**i * y ** (degree - i) for i in range(degree + 1)),
                    Poly.zero())
            )
        ring = _xy_ring(*relations)
        top = max(weighted_degree(r, ring.grading) for r in relations if r)
        stable = _graded_piece_cached(ring, top + 1)
        assert all(_graded_piece_cached(ring, n) == stable for n in range(top + 2, top + 13)), ring
    # D alone does not settle the pieces: degree 2 reads Z, degree 3 on 0.
    pieces = [str(graded_piece(_xy_ring("x*y", "x^2 - y^2"), n)) for n in range(16)]
    assert pieces == ["Z", "Z^2", "Z"] + ["0"] * 13


def test_unkilled_relations():
    assert unkilled_relations(m12bar_chow()) == []
    mixed = GradedPresentation.make(
        [("x", 1), ("y", 1)], ["x*y", "x^2", "24*x^2 + 24*y^2", "y^2 - x^2", "x^3"]
    )
    # x^2 -> (t, t^2) and y^2 - x^2 -> (-2t, -t^2) survive; x^3 is not of degree 2
    assert unkilled_relations(mixed) == [parse_poly("x^2"), parse_poly("y^2 - x^2")]
    # Its pieces match the split decomposition in every degree; only the
    # split images refuse it.
    with pytest.raises(AssemblyMismatchError, match=r"relation 24\*x\^2 - 24\*y\^2 does not vanish"):
        check_split_assembly(_xy_ring("x*y", "24*x^2 - 24*y^2"))
    with pytest.raises(ValueError, match="expects generators"):
        unkilled_relations(GradedPresentation.make([("t", 1)], ["24*t^2"]))


def test_m12_open_chow():
    presentation = m12_open_chow()
    twelve_t = parse_poly("12*t")
    twelve_t2 = parse_poly("12*t^2")
    assert twelve_t in presentation.relations
    assert twelve_t2 in presentation.relations
    assert same_ideal(presentation, GradedPresentation.make([("t", 1)], ["12*t"]))
    degree_one = graded_piece(presentation, 1)
    assert degree_one == AbelianGroupShape.cyclic(12)
    assert degree_one != AbelianGroupShape.cyclic(6)
    assert degree_one != AbelianGroupShape.cyclic(24)


def test_m12_open_chow_refuses_a_curve_class_of_weight_24(monkeypatch):
    # Killing 24*t instead of 12*t gives pieces that agree with
    # Z[t]/(24*t) in degrees 0 and 1 and differ from degree 2 on, so a
    # degreewise check up to degree 1 passes this mutant.
    mutant = quotient(cusp_complement_chow(), ["24*t", "12*t^2", "12*t^2"])
    target = GradedPresentation.make([("t", 1)], ["24*t"])
    assert [graded_piece(mutant, n) for n in (0, 1)] == [graded_piece(target, n) for n in (0, 1)]
    assert graded_piece(mutant, 2) != graded_piece(target, 2)
    real = blowup.pic_complement

    def weight_24(data):
        return ComplementPicard(AbelianGroupShape.cyclic(24), 24, real(data).assumptions)

    monkeypatch.setattr(blowup, "pic_complement", weight_24)
    for bound in (1, 8):
        with pytest.raises(AssemblyMismatchError, match=r"Z\[t\]/\(24\*t\)"):
            m12_open_chow(bound)


def test_restriction_hom():
    source, target = m12bar_chow(), m12_open_chow()
    assert hom_check(source, target, {"x": "t", "y": 0})
    # relation-by-relation: x*y -> 0 trivially; 24x^2 + 24y^2 -> 24t^2,
    # which is 2t * (12t), hence zero in the target
    assert is_zero(GradedElement.of(target, "24*t^2"))
    assert not hom_check(source, target, {"x": "t", "y": "t"})


def test_restriction_degree_zero_is_identity():
    assert graded_piece(m12bar_chow(), 0) == AbelianGroupShape(1, ())
    assert graded_piece(m12_open_chow(), 0) == AbelianGroupShape(1, ())
