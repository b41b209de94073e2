"""Weighted projective stacks: Chow rings, point classes, complements, Pic."""

from __future__ import annotations

import random
from math import prod

import pytest

from wpchow import (
    AbelianGroupShape,
    GradedPresentation,
    HypersurfaceComplementInput,
    InhomogeneousError,
    Poly,
    WeightedProjectiveStack,
    chow_of_complement,
    chow_ring,
    discriminant_polynomial,
    graded_piece,
    line_image_class,
    parse_poly,
    pic_complement,
    point_class,
    same_ideal,
)

P234 = WeightedProjectiveStack((2, 3, 4))
P46 = WeightedProjectiveStack((4, 6))


def test_stack_validation():
    with pytest.raises(ValueError):
        WeightedProjectiveStack(())
    with pytest.raises(ValueError):
        WeightedProjectiveStack((2, 0))
    assert str(P234) == "P(2, 3, 4)"


def test_chow_ring_examples():
    assert chow_ring(P234).render() == "Z[t]/(24*t^3)"
    assert chow_ring(P46).render() == "Z[t]/(24*t^2)"
    point = chow_ring(WeightedProjectiveStack((1,)))
    assert point.render() == "Z[t]/(t)"
    assert graded_piece(point, 0) == AbelianGroupShape(1, ())
    assert graded_piece(point, 1).is_trivial


def test_chow_ring_piece_pattern():
    rng = random.Random(53)
    for _ in range(10):
        weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        stack = WeightedProjectiveStack(weights)
        ring = chow_ring(stack)
        order = prod(weights)
        for n in range(9):
            if n < stack.n:
                assert graded_piece(ring, n) == AbelianGroupShape(1, ())
            else:
                assert graded_piece(ring, n) == AbelianGroupShape.cyclic(order)


def test_point_class_examples():
    assert point_class(P234, 1).value == 12 * Poly.variable("t") ** 2
    assert point_class(P46, 1).value == 6 * Poly.variable("t")
    assert point_class(P46, 2).value == 4 * Poly.variable("t")
    single = point_class(WeightedProjectiveStack((5,)), 1)
    assert single.value == 1 and single.degree == 0
    with pytest.raises(ValueError):
        point_class(P234, 4)


def test_point_classes_with_equal_complementary_products_coincide():
    stack = WeightedProjectiveStack((2, 2, 3))
    assert point_class(stack, 1) == point_class(stack, 2)
    assert point_class(stack, 1).value == 6 * Poly.variable("t") ** 2


def test_line_image_class_examples():
    cusp = line_image_class(P234, used=(1, 2), remaining=(3,))
    assert cusp.value == 24 * Poly.variable("t") ** 2
    assert cusp.degree == 2
    # degenerate single-weight case: the pushforward scales the fundamental
    # class by the power-map degree
    degenerate = line_image_class(WeightedProjectiveStack((7,)), (1,), ())
    assert degenerate.value == 7 and degenerate.degree == 0
    both = line_image_class(P46, (1, 2), ())
    assert both.value == 24 * Poly.variable("t")


def test_line_image_class_validation():
    with pytest.raises(ValueError):
        line_image_class(P234, (), (1, 2, 3))
    with pytest.raises(ValueError):
        line_image_class(P234, (1,), (2,))
    with pytest.raises(ValueError):
        line_image_class(P234, (1, 1), (2, 3))


def test_chow_of_complement_examples():
    cusp = line_image_class(P234, (1, 2), (3,))
    u_ring = chow_of_complement(P234, [cusp])
    assert same_ideal(u_ring, GradedPresentation.make([("t", 1)], ["24*t^2"]))
    point = point_class(P234, 1)
    v_ring = chow_of_complement(P234, [point, point])
    assert same_ideal(v_ring, GradedPresentation.make([("t", 1)], ["12*t^2"]))
    assert chow_of_complement(P234, []) == chow_ring(P234)


def test_chow_of_complement_composes():
    cusp = line_image_class(P234, (1, 2), (3,))
    point = point_class(P234, 1)
    both = chow_of_complement(P234, [cusp, point])
    one_then_other = chow_of_complement(P234, [cusp])
    one_then_other = GradedPresentation(
        one_then_other.generators, one_then_other.relations + (point.value,)
    )
    assert same_ideal(both, one_then_other)


def test_pic_complement_discriminant():
    data = HypersurfaceComplementInput(
        weights=(2, 3, 4),
        variables=("a2", "a3", "a4"),
        polynomial=discriminant_polynomial(),
    )
    result = pic_complement(data)
    assert result.character_weight == 12
    assert result.group == AbelianGroupShape.cyclic(12)
    assert str(result.group) == "Z/12"
    assert len(result.assumptions) == 2


def test_pic_complement_trivial_and_derived():
    trivial = pic_complement(
        HypersurfaceComplementInput((1,), ("x",), Poly.variable("x"))
    )
    assert trivial.group.is_trivial
    # f = A^3 * B^2 under weights (4, 6): degree 3*4 + 2*6 = 24
    cubic_square = pic_complement(
        HypersurfaceComplementInput(
            (4, 6), ("A", "B"), parse_poly("A^3*B^2")
        )
    )
    assert cubic_square.group == AbelianGroupShape.cyclic(24)


def test_pic_complement_scaling_invariance():
    rng = random.Random(59)
    base = discriminant_polynomial()
    data = HypersurfaceComplementInput((2, 3, 4), ("a2", "a3", "a4"), base)
    expected = pic_complement(data).group
    for _ in range(10):
        scale = 0
        while scale == 0:
            scale = rng.randint(-20, 20)
        scaled = HypersurfaceComplementInput(
            (2, 3, 4), ("a2", "a3", "a4"), scale * base
        )
        assert pic_complement(scaled).group == expected


def test_hypersurface_input_validation():
    with pytest.raises(InhomogeneousError):
        HypersurfaceComplementInput(
            (4, 6), ("x", "y"), Poly.variable("x") + Poly.variable("y")
        )
    with pytest.raises(ValueError):
        HypersurfaceComplementInput((4, 6), ("x",), Poly.variable("x"))
    with pytest.raises(ValueError):
        HypersurfaceComplementInput((4, 6), ("x", "y"), Poly.zero())
    with pytest.raises(ValueError):
        HypersurfaceComplementInput((4, 6), ("x", "y"), Poly.variable("z"))
