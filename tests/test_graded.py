"""Graded presentations: pieces, zero tests, quotients, homomorphisms."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from oracles import invariant_factors_via_minor_gcds, relation_rows_by_products
from wpchow import (
    AbelianGroupShape,
    DegreeMismatchError,
    GradedElement,
    GradedPresentation,
    InhomogeneousError,
    Poly,
    cokernel,
    graded_piece,
    hom_check,
    is_zero,
    monomials_of_degree,
    parse_poly,
    quotient,
    same_ideal,
    solve_integer,
    substitute,
)
from wpchow.graded import _graded_piece_cached, _relation_rows

M11BAR = GradedPresentation.make([("t", 1)], ["24*t^2"])
M12BAR = GradedPresentation.make([("x", 1), ("y", 1)], ["x*y", "24*x^2 + 24*y^2"])
M12 = GradedPresentation.make([("t", 1)], ["12*t"])


def test_presentation_validation():
    with pytest.raises(InhomogeneousError):
        GradedPresentation.make([("x", 1), ("y", 2)], ["x + y"])
    with pytest.raises(ValueError):
        GradedPresentation.make([("x", 0)], [])
    with pytest.raises(ValueError):
        GradedPresentation.make([("x", 1)], ["y"])
    with pytest.raises(ValueError):
        GradedPresentation.make([("x", 1)], ["1/2*x"])
    with pytest.raises(ValueError):
        GradedPresentation.make([("x", 1), ("x", 2)], [])


def test_monomial_basis_order():
    basis = monomials_of_degree((("x", 1), ("y", 1)), 2)
    assert [m.render() for m in basis] == ["x^2", "x*y", "y^2"]
    basis = monomials_of_degree((("t", 1),), 3)
    assert [m.render() for m in basis] == ["t^3"]
    assert monomials_of_degree((("x", 2), ("y", 3)), 7) == [
        monomials_of_degree((("x", 2), ("y", 3)), 7)[0]
    ]
    assert monomials_of_degree((("x", 1),), -1) == []


def test_graded_piece_examples():
    assert graded_piece(M11BAR, 2) == AbelianGroupShape(0, (24,))
    assert graded_piece(M11BAR, 0) == AbelianGroupShape(1, ())
    assert graded_piece(M12BAR, 0) == AbelianGroupShape(1, ())
    # oracle: the degree-2 relation rows over basis (x^2, x*y, y^2) are
    # (0,1,0) and (24,0,24); determinantal divisors give [1, 24]
    assert invariant_factors_via_minor_gcds([[0, 1, 0], [24, 0, 24]]) == [1, 24]
    assert graded_piece(M12BAR, 2) == AbelianGroupShape(1, (24,))


def test_m12bar_piece_pattern():
    expected = [
        AbelianGroupShape(1, ()),
        AbelianGroupShape(2, ()),
        AbelianGroupShape(1, (24,)),
    ] + [AbelianGroupShape(0, (24, 24))] * 6
    actual = [graded_piece(M12BAR, n) for n in range(9)]
    assert actual == expected


def test_is_zero_examples():
    ring = M12BAR
    assert is_zero(GradedElement.of(ring, "24*x^2 + 24*y^2"))
    assert not is_zero(GradedElement.of(ring, "x^2"))
    assert is_zero(GradedElement.of(ring, 0, 5))
    # oracle: x^2 = (1,0,0) against rows (0,1,0), (24,0,24) has no integer
    # solution (the first coordinate is a multiple of 24 in the lattice)
    assert solve_integer([[0, 1, 0], [24, 0, 24]], [1, 0, 0]) is None


def test_is_zero_respects_ring_structure():
    rng = random.Random(43)
    ring = M12BAR
    x = GradedElement.of(ring, "x")
    y = GradedElement.of(ring, "y")
    relation = GradedElement.of(ring, "24*x^2 + 24*y^2")
    for _ in range(25):
        factors = [rng.choice([x, y]) for _ in range(rng.randint(1, 3))]
        product = relation
        for factor in factors:
            product = product * factor
        assert is_zero(product)


def test_quotient_examples():
    p234_ring = GradedPresentation.make([("t", 1)], ["24*t^3"])
    cusp_killed = quotient(p234_ring, ["24*t^2"])
    assert same_ideal(cusp_killed, M11BAR)
    assert quotient(p234_ring, []) == p234_ring
    twelve = quotient(M11BAR, ["12*t", "12*t^2"])
    assert same_ideal(twelve, M12)


def test_quotient_validates_elements():
    with pytest.raises(InhomogeneousError):
        quotient(M12BAR, ["x + x^2"])
    other = GradedPresentation.make([("t", 1)], [])
    foreign = GradedElement.of(other, "t")
    with pytest.raises(ValueError):
        quotient(M12BAR, [foreign])


def test_hom_check_examples():
    assert hom_check(M12BAR, M12, {"x": "t", "y": 0})
    assert hom_check(M12BAR, M12BAR, {"x": "x", "y": "y"})
    assert not hom_check(M12BAR, M12, {"x": "t", "y": "t"})
    # oracle: in degree 2 of Z[t]/(12t) the lattice is spanned by 12*t^2,
    # and t^2 = (1,) is not a multiple of 12
    assert solve_integer([[12]], [1]) is None


def test_hom_check_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        hom_check(M12BAR, M12, {"x": "t^2", "y": 0})
    with pytest.raises(ValueError):
        hom_check(M12BAR, M12, {"x": "t"})
    wrong_degree_element = GradedElement.of(M12, "t^2", 2)
    with pytest.raises(DegreeMismatchError):
        hom_check(M12BAR, M12, {"x": wrong_degree_element, "y": 0})


def test_hom_check_fraction_images():
    # A Fraction image is a constant, of degree 0, like an int image.
    with pytest.raises(DegreeMismatchError):
        hom_check(M12BAR, M12, {"x": Fraction(1), "y": 0})
    with pytest.raises(ValueError, match="integer coefficients"):
        hom_check(M12BAR, M12, {"x": Fraction(1, 2), "y": 0})


def test_hom_check_unit_preserved():
    # degree-0 pieces are Z on both sides and constants map to themselves
    assert graded_piece(M12BAR, 0) == graded_piece(M12, 0) == AbelianGroupShape(1, ())


def test_same_ideal_examples():
    a = GradedPresentation.make([("t", 1)], ["24*t^3", "24*t^2"])
    assert same_ideal(a, M11BAR)
    assert same_ideal(M12BAR, M12BAR)
    b = GradedPresentation.make([("t", 1)], ["12*t^2"])
    assert not same_ideal(M11BAR, b)
    # The same ideal from other relations, with the generators reordered.
    swapped = GradedPresentation.make([("y", 1), ("x", 1)], ["y*x", "24*y^2 + 24*x^2 - 3*x*y"])
    assert same_ideal(M12BAR, swapped) and same_ideal(swapped, M12BAR)


def test_same_ideal_needs_no_degree_bound():
    # The pieces of Z[t]/(t^10) and Z[t]/(t^11) agree below degree 10, so
    # any degreewise comparison up to 9 calls them equal.
    short = GradedPresentation.make([("t", 1)], ["t^10"])
    long = GradedPresentation.make([("t", 1)], ["t^11"])
    assert [graded_piece(short, n) for n in range(10)] == [graded_piece(long, n) for n in range(10)]
    assert graded_piece(short, 10) != graded_piece(long, 10)
    assert not same_ideal(short, long)
    assert not same_ideal(long, short)


def test_same_ideal_refuses_other_generators():
    with pytest.raises(ValueError, match="different generators"):
        same_ideal(M11BAR, GradedPresentation.make([("s", 1)], ["24*s^2"]))
    with pytest.raises(ValueError, match="different generators"):
        same_ideal(M11BAR, GradedPresentation.make([("t", 2)], ["24*t^2"]))
    with pytest.raises(ValueError, match="different generators"):
        same_ideal(M12BAR, M12)


def test_graded_piece_invariance_random():
    rng = random.Random(47)
    gens = (("x", 1), ("y", 1))
    candidates = [
        "x*y",
        "24*x^2 + 24*y^2",
        "2*x^2 - y^2",
        "3*x^3 + x*y^2",
        "5*y^2",
    ]
    for _ in range(20):
        relations = rng.sample(candidates, rng.randint(1, 3))
        base = GradedPresentation.make(gens, relations)
        pieces = [graded_piece(base, n) for n in range(6)]
        shuffled = relations[:]
        rng.shuffle(shuffled)
        assert [
            graded_piece(GradedPresentation.make(gens, shuffled), n) for n in range(6)
        ] == pieces
        if len(relations) >= 2:
            # replace r0 by r0 + m * r1 for a monomial m making degrees match
            first = parse_poly(relations[0])
            second = parse_poly(relations[1])
            from wpchow import weighted_degree

            grading = base.grading
            gap = weighted_degree(first, grading) - weighted_degree(second, grading)
            if gap >= 0:
                bump = Poly.variable("x") ** gap * second
                modified = GradedPresentation(
                    base.generators, (first + bump,) + base.relations[1:]
                )
                assert [
                    graded_piece(modified, n) for n in range(6)
                ] == pieces


def test_element_validation():
    with pytest.raises(DegreeMismatchError):
        GradedElement(M12BAR, Poly.variable("x"), 2)
    with pytest.raises(ValueError):
        GradedElement.of(M12BAR, "1/2*x")
    with pytest.raises(ValueError):
        GradedElement.of(M12BAR, 0)
    with pytest.raises(InhomogeneousError):
        GradedElement.of(M12BAR, "x + x^2")


def test_serialization_roundtrip():
    payload = M12BAR.to_json_dict()
    assert payload == {
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
        "relations": ["x*y", "24*x^2 + 24*y^2"],
    }
    restored = GradedPresentation.from_json_dict(json.loads(json.dumps(payload)))
    assert restored == M12BAR


def test_graded_piece_caching_consistency():
    fresh = GradedPresentation.make([("x", 1), ("y", 1)], ["x*y", "24*x^2 + 24*y^2"])
    assert fresh == M12BAR
    assert graded_piece(fresh, 4) == graded_piece(M12BAR, 4)


# Z[a,b,c]/(a*b - c^2, 6*a^2 + 10*b^2, 15*a*c): every piece of degree >= 3
# is Z/30 x Z/150 x Z/150 x Z/450.
ROADMAP = GradedPresentation.make(
    [("a", 1), ("b", 1), ("c", 1)], ["a*b - c^2", "6*a^2 + 10*b^2", "15*a*c"]
)
ROADMAP_PIECE = AbelianGroupShape(0, (30, 150, 150, 450))


def _sheared(presentation, images):
    mapping = {name: Poly.variable(name) for name, _ in presentation.generators}
    mapping.update({name: parse_poly(text) for name, text in images.items()})
    relations = tuple(substitute(r, mapping) for r in presentation.relations)
    return GradedPresentation(presentation.generators, relations)


def test_relation_rows_match_poly_products():
    presentations = [
        M12BAR,
        ROADMAP,
        _sheared(ROADMAP, {"a": "a - c"}),
        GradedPresentation.make([("x", 2), ("y", 3)], ["x^3 - y^2", "6*x*y"]),
        GradedPresentation.make(
            [("c", 3), ("a", 1), ("b", 2)],
            ["a*c - b^2", "4*a^4 + 6*b^2 - 2*a*c", "15*c^2", "0"],
        ),
        GradedPresentation.make([("u", 4), ("t", 6)], ["2*u^3 + 3*t^2", "5*u*t"]),
        GradedPresentation.make(
            [("x", 1), ("y", 1), ("z", 2)], ["2*x - 3*y", "x*y - z", "5*z^2"]
        ),
    ]
    for presentation in presentations:
        for degree in range(13):
            basis, rows = _relation_rows(presentation, degree)
            expected_basis, expected_rows = relation_rows_by_products(
                presentation.generators, presentation.relations, degree
            )
            assert basis == expected_basis
            assert rows == expected_rows
            names = sorted(name for name, _ in presentation.generators)
            assert [
                tuple(dict(m.exponents).get(name, 0) for name in names)
                for m in monomials_of_degree(presentation.generators, degree)
            ] == basis


def _assert_rows_match_products(presentation, degrees):
    expected = {}
    for degree in degrees:
        if degree not in expected:
            expected[degree] = relation_rows_by_products(
                presentation.generators, presentation.relations, degree
            )
        assert _relation_rows(presentation, degree) == expected[degree], degree


def test_relation_rows_from_one_layout_over_many_degrees():
    # Each presentation's layout is built once; every degree packs it
    # with its own base, so the order of the queries must not matter.
    weighted = GradedPresentation.make(
        [("c", 3), ("a", 1), ("b", 2)], ["a*c - b^2", "6*a^2 + 10*b", "15*a*b*c", "0"]
    )
    for presentation in (weighted, M12BAR, M11BAR):
        _assert_rows_match_products(presentation, [*range(31), *range(30, -1, -1)])


def test_relation_rows_of_quotients():
    sheared = _sheared(ROADMAP, {"a": "a - c"})
    for presentation in (
        quotient(ROADMAP, ["a^3", GradedElement.of(ROADMAP, "b*c")]),
        quotient(sheared, ["2*a*b*c - c^3", "0"]),
        quotient(M12BAR, [GradedElement.of(M12BAR, "x")]),
        quotient(GradedPresentation.make([("x", 2), ("y", 3)]), ["x^3 - y^2", "6*x*y"]),
    ):
        _assert_rows_match_products(presentation, range(10))


def test_relation_rows_below_every_relation_degree():
    for presentation, lowest in (
        (GradedPresentation.make([("x", 2), ("y", 3)], ["x^3 - y^2"]), 6),
        (GradedPresentation.make([("a", 1), ("b", 1)], ["a^4 + 2*b^4", "7*a^3*b"]), 4),
    ):
        for degree in range(lowest):
            basis, rows = _relation_rows(presentation, degree)
            assert rows == []
            _assert_rows_match_products(presentation, [degree])
            _graded_piece_cached.cache_clear()
            assert graded_piece(presentation, degree) == AbelianGroupShape.free(len(basis))


def test_relation_matrix_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    for presentation in (ROADMAP, _sheared(ROADMAP, {"a": "a + c"})):
        basis, matrix = _relation_rows(presentation, 8)  # 84 x 45
        expected = [int(f) for f in sympy_factors(sympy.Matrix(matrix), domain=sympy.ZZ) if f]
        torsion = tuple(f for f in expected if f >= 2)
        assert cokernel(matrix, len(basis)) == AbelianGroupShape(len(basis) - len(expected), torsion)
        assert expected[-4:] == [30, 150, 150, 450]


def test_large_pieces_finish_in_bounded_time():
    # Smith form with transforms took 9.2 s for the degree-24 piece
    # (828 x 325 matrix) and over 5 minutes for the sheared degree-10
    # piece; pairing each pivot row with one row at a time in the Hermite
    # step took 2.3 s for sheared degree 16.  The transform-free path takes
    # under 0.05 s for each (2-CPU Linux container, Python 3.11).
    sheared = _sheared(ROADMAP, {"a": "a + c"})
    _graded_piece_cached.cache_clear()
    for presentation, degree in ((ROADMAP, 24), (sheared, 10), (sheared, 16)):
        start = time.perf_counter()
        piece = graded_piece(presentation, degree)
        assert time.perf_counter() - start < 2.0
        assert piece == ROADMAP_PIECE


def test_uncached_graded_piece_hands_dense_rows_to_cokernel(monkeypatch):
    # The benchmark's tracer reads the matrix sizes, and whether a piece
    # came from the cache, from this one call; so the rows stay dense lists.
    calls = []

    def spy(rows, ambient_rank):
        calls.append((rows, ambient_rank))
        return cokernel(rows, ambient_rank)

    monkeypatch.setattr("wpchow.graded.cokernel", spy)
    _graded_piece_cached.cache_clear()
    basis, _ = _relation_rows(ROADMAP, 8)
    assert graded_piece(ROADMAP, 8) == ROADMAP_PIECE
    assert len(calls) == 1
    rows, ambient_rank = calls[0]
    assert ambient_rank == len(basis) == 45
    assert type(rows) is list and len(rows) == 84
    assert all(type(row) is list and len(row) == len(basis) for row in rows)
    assert rows == _relation_rows(ROADMAP, 8)[1]
    assert graded_piece(ROADMAP, 8) == ROADMAP_PIECE
    assert len(calls) == 1
