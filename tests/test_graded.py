"""Graded presentations: pieces, zero tests, quotients, homomorphisms."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from oracles import invariant_factors_via_minor_gcds, relation_rows_by_products
from wpchow import graded, intlinalg
from wpchow import (
    AbelianGroupShape,
    DegreeMismatchError,
    GradedElement,
    GradedPresentation,
    InhomogeneousError,
    Poly,
    WeightedProjectiveStack,
    chow_of_complement,
    chow_ring,
    cokernel,
    cusp_complement_chow,
    graded_piece,
    hom_check,
    is_zero,
    m12_open_chow,
    monomials_of_degree,
    parse_poly,
    point_class,
    quotient,
    same_ideal,
    solve_integer,
    substitute,
    weighted_degree,
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
    with pytest.raises(ValueError, match="generator name '' is not an identifier"):
        GradedPresentation.make([("", 1), ("2x", 1)], [])
    with pytest.raises(ValueError, match="generator name 'a b' is not an identifier"):
        GradedPresentation.from_json_dict(
            {"generators": [{"name": "a b", "degree": 1}], "relations": []}
        )


def test_presentation_refusals_keep_their_words_and_order():
    # Unknown generators come sorted, whatever order the terms name them in.
    with pytest.raises(ValueError) as info:
        GradedPresentation.make([("x", 1)], ["z*x + b*x + z^2"])
    assert str(info.value) == "relation uses unknown generators ['b', 'z']"
    with pytest.raises(TypeError, match="^relations must be Poly instances$"):
        GradedPresentation((("x", 1),), ("x^2",))
    with pytest.raises(TypeError, match="^relations must be Poly instances$"):
        GradedPresentation((("x", 1),), (parse_poly("x"), 2))
    # The error carries every term degree, not just the first two seen.
    with pytest.raises(InhomogeneousError) as info:
        GradedPresentation.make([("x", 1), ("y", 2)], ["x^3 + x*y + y^2 + x"])
    assert info.value.degrees == frozenset({1, 3, 4})
    # Within one relation: unknown generators, then fractions, then degrees.
    with pytest.raises(ValueError, match=r"unknown generators \['z'\]"):
        GradedPresentation.make([("x", 1)], ["1/2*x + z^2 + x^3"])
    with pytest.raises(ValueError) as info:
        GradedPresentation.make([("x", 1)], ["1/2*x + x^3"])
    assert str(info.value) == "relation x^3 + 1/2*x must have integer coefficients"
    # Across relations, the first bad relation is the one reported.
    with pytest.raises(InhomogeneousError):
        GradedPresentation.make([("x", 1)], ["x + x^2", "z"])
    with pytest.raises(InhomogeneousError):
        GradedPresentation((("x", 1),), (parse_poly("x + x^2"), "x"))
    with pytest.raises(ValueError, match="unknown generators"):
        GradedPresentation((("x", 1),), (parse_poly("0"), parse_poly("z"), "x"))


def test_presentation_input_is_not_converted():
    # A degree that is not an int, or a name that is not a str, is refused
    # as the constructor refuses it, not truncated or rendered.
    class Name:
        def __str__(self):
            return "x"

    with pytest.raises(ValueError, match="'x' must have a positive integer degree"):
        GradedPresentation.make([("x", 2.7)], ["6*x^2"])
    with pytest.raises(ValueError, match="is not an identifier"):
        GradedPresentation.make([(Name(), 1)], [])
    with pytest.raises(ValueError, match="'x' must have a positive integer degree"):
        GradedPresentation.make([("x", True)], ["6*x^2"])
    for degree in (2.7, "2", True):
        payload = {"generators": [{"name": "x", "degree": degree}], "relations": []}
        with pytest.raises(ValueError, match="'x' must have a positive integer degree"):
            GradedPresentation.from_json_dict(payload)
    assert GradedPresentation.make([["x", 2]], ["6*x^2"]) == GradedPresentation(
        (("x", 2),), (parse_poly("6*x^2"),)
    )


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


def _report_rings() -> list[GradedPresentation]:
    """Every ring the report prints pieces of, and the self-test's.
    M12BAR is m12bar_chow()'s ring without its assembly check, which a
    mutant of graded_piece makes raise."""
    ambient = WeightedProjectiveStack((2, 3, 4))
    return [
        chow_ring(ambient),
        chow_ring(WeightedProjectiveStack((4, 6))),
        cusp_complement_chow(),
        chow_of_complement(ambient, [point_class(ambient, 1)] * 2),
        m12_open_chow(),
        M12BAR,
        GradedPresentation.make([("x", 1), ("y", 1)], ["x*y", "23*x^2 + 24*y^2"]),
    ]


def _random_one_generator_ring(rng: random.Random) -> GradedPresentation:
    """Z[t]/(c_i*t^(k_i)), t of degree 1..4, with 0-4 relations; k_i = 0
    gives a constant and c_i = 0 a zero relation."""
    name = rng.choice("tsu")
    relations = [
        f"{rng.randint(-60, 60)}*{name}^{rng.randint(0, 12)}" for _ in range(rng.randint(0, 4))
    ]
    return GradedPresentation.make([(name, rng.randint(1, 4))], relations)


def _random_xy_ring(rng: random.Random) -> GradedPresentation:
    """Z[u, v]/(+-u*v, up to three relations of degree 0-4), the
    generators named and ordered at random and the product among the
    others at a random place."""
    names = rng.choice(["xy", "yx", "ab", "vu"])
    u, v = (Poly.variable(name) for name in names)
    relations = [rng.choice((1, -1)) * u * v]
    for _ in range(rng.randint(0, 3)):
        degree = rng.randint(0, 4)
        relations.append(
            sum((rng.randint(-12, 12) * u**i * v ** (degree - i) for i in range(degree + 1)),
                Poly.zero())
        )
    rng.shuffle(relations)
    return GradedPresentation(tuple((name, 1) for name in names), tuple(relations))


def test_the_piece_rules_match_the_lattice():
    rng = random.Random(2027)
    rings = _report_rings()
    rings += [_random_one_generator_ring(rng) for _ in range(150)]
    rings += [_random_xy_ring(rng) for _ in range(40)]
    for ring in rings:
        for n in range(41):
            assert graded_piece(ring, n) == _graded_piece_cached(ring, n), (ring, n)


def test_two_generator_rings_without_a_unit_product_take_the_lattice():
    # Their pieces need not settle: modulo 2*x, or 2*x*y, every monomial
    # divisible by x, or by x*y, is 2-torsion.
    two_x = GradedPresentation.make([("x", 1), ("y", 1)], ["2*x"])
    two_xy = GradedPresentation.make([("x", 1), ("y", 1)], ["2*x*y"])
    for n in range(2, 9):
        assert graded_piece(two_x, n) == AbelianGroupShape(1, (2,) * n)
        assert graded_piece(two_xy, n) == AbelianGroupShape(2, (2,) * (n - 1))


def test_the_piece_rules_eliminate_no_lattice_past_their_degree(monkeypatch):
    degrees = []

    def recording(presentation, degree):
        degrees.append(degree)
        return _graded_piece_cached(presentation, degree)

    monkeypatch.setattr(graded, "_graded_piece_cached", recording)
    for ring in (M11BAR, M12, GradedPresentation.make([("t", 3)], ["6*t^2", "4*t^5"])):
        for n in [*range(41), 10**6, 10**100]:
            graded_piece(ring, n)
    assert degrees == []
    for ring in (M12BAR, GradedPresentation.make([("x", 1), ("y", 1)], ["-x*y", "x^4 - y^4"])):
        top = max(weighted_degree(r, ring.grading) for r in ring.relations)
        for n in [*range(41), 10**6, 10**100]:
            graded_piece(ring, n)
        assert max(degrees) == top + 1
        degrees.clear()


def test_xy_pieces_in_degree_a_million_are_read_off():
    # Eliminating the lattice of degree 10**5 takes ~0.34 s, and of degree
    # 10**6 ~6.8 s; clamped to degree 3, the piece takes ~0.02 ms (2-CPU
    # Linux container, Python 3.11).
    ring = GradedPresentation.make([("x", 1), ("y", 1)], ["x*y"])
    start = time.perf_counter()
    assert graded_piece(ring, 10**6) == AbelianGroupShape.free(2)
    assert time.perf_counter() - start < 0.05


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


def _dense_relation_rows(presentation, degree):
    """The basis and rows of ``_relation_rows``, each ``{column: value}``
    row written out as a list; every value must be a nonzero int."""
    basis, rows = _relation_rows(presentation, degree)
    dense = []
    for row in rows:
        assert type(row) is dict
        assert all(type(value) is int and value for value in row.values())
        assert all(0 <= column < len(basis) for column in row)
        line = [0] * len(basis)
        for column, value in row.items():
            line[column] = value
        dense.append(line)
    return basis, dense


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
            basis, rows = _dense_relation_rows(presentation, degree)
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
        assert _dense_relation_rows(presentation, degree) == expected[degree], degree


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


# -- bases shared by presentations with the same generator degrees -------------

QUAD4 = GradedPresentation.make(
    [("a", 1), ("b", 1), ("c", 1), ("d", 1)], ["a*d - b*c", "4*a^2 + 6*c^2", "10*b*d"]
)
# As in perfbench/data/pieces_table.json, which is checked against sympy.
QUAD4_PIECE_8 = AbelianGroupShape(8, (2,) * 49 + (10,) * 19 + (60,) * 5)
WEIGHTED = GradedPresentation.make(
    [("c", 3), ("a", 1), ("b", 2)], ["a*c - b^2", "6*a^2 + 10*b", "15*a*b*c", "0"]
)
WEIGHTED_46 = GradedPresentation.make([("u", 4), ("t", 6)], ["2*u^3 + 3*t^2", "5*u*t"])


def _renamed(presentation, names):
    """Generator ``i`` renamed to ``names[i]``, the generators listed in
    reverse order."""
    mapping = {
        old: Poly.variable(new) for (old, _), new in zip(presentation.generators, names)
    }
    generators = tuple((new, d) for (_, d), new in zip(presentation.generators, names))
    relations = tuple(substitute(r, mapping) for r in presentation.relations)
    return GradedPresentation(generators[::-1], relations)


def _copies(presentation):
    """The presentation, its generators listed in reverse, and a renaming
    that reverses their sorted order (listed in reverse as well)."""
    names = [name for name, _ in presentation.generators]
    ranks = sorted(names)
    flipped = [f"v{len(names) - ranks.index(name)}" for name in names]
    reordered = GradedPresentation(presentation.generators[::-1], presentation.relations)
    return [presentation, reordered, _renamed(presentation, flipped)]


def test_relation_rows_from_shared_bases_over_interleaved_queries():
    # Bases are shared by every presentation whose sorted generator degrees
    # agree, so queries of (1,1,1), (1,1,1,1), (1,2,3) and (4,6) rings and
    # of renamed and reordered copies are mixed in a random order.  The
    # unweighted rings stop at degrees 18 and 10, where the oracle's Poly
    # products still take well under a second.
    schedule = []
    for presentation, top in ((ROADMAP, 18), (QUAD4, 10), (WEIGHTED, 30), (WEIGHTED_46, 30)):
        for copy in _copies(presentation):
            schedule += [(copy, degree) for degree in range(top + 1)]
    random.Random(61).shuffle(schedule)
    graded._basis.cache_clear()
    graded._shifts.cache_clear()
    expected = {}
    for presentation, degree in schedule + schedule[::-1]:
        key = (tuple(sorted(presentation.generators)), presentation.relations, degree)
        if key not in expected:
            expected[key] = relation_rows_by_products(
                presentation.generators, presentation.relations, degree
            )
        assert _dense_relation_rows(presentation, degree) == expected[key], (presentation, degree)
    assert graded._basis.cache_info().hits > 0 and graded._shifts.cache_info().hits > 0


def test_a_returned_basis_is_the_callers_own():
    renamed = _renamed(ROADMAP, ["x", "y", "z"])
    basis, rows = _relation_rows(ROADMAP, 5)
    expected = (list(basis), rows)
    basis[0] = (9, 9, 9)
    basis.append((0, 0, 0))
    assert _relation_rows(ROADMAP, 5) == expected
    assert _relation_rows(renamed, 5)[0] == expected[0]
    basis.clear()
    assert _relation_rows(ROADMAP, 5) == expected


def _is_zero_by_products(element, oracle):
    """is_zero on the oracle's basis and rows, through a tuple index."""
    basis, rows = oracle
    names = sorted(name for name, _ in element.ambient.generators)
    index = {vector: i for i, vector in enumerate(basis)}
    vector = [0] * len(basis)
    for mono, coeff in element.value.terms():
        powers = dict(mono.exponents)
        vector[index[tuple(powers.get(name, 0) for name in names)]] = int(coeff)
    return solve_integer(rows, vector) is not None if rows else not any(vector)


def test_is_zero_on_membership_lattices_and_weighted_rings():
    # The benchmark's membership lattices (the ROADMAP ring at degrees
    # 6-12, the compactified moduli ring at 8-32), weighted rings, and a
    # renamed copy that shares the ROADMAP ring's bases.
    rng = random.Random(67)
    answers = []
    cases = [
        (ROADMAP, range(6, 13)),
        (_renamed(ROADMAP, ["z", "y", "x"]), range(6, 13)),
        (M12BAR, range(8, 33)),
        (WEIGHTED, range(19)),
        (WEIGHTED_46, range(31)),
    ]
    for presentation, degrees in cases:
        grading = presentation.grading
        for degree in degrees:
            basis = monomials_of_degree(presentation.generators, degree)
            if not basis:
                continue
            oracle = relation_rows_by_products(
                presentation.generators, presentation.relations, degree
            )
            products = [
                (relation, mono)
                for relation in presentation.relations
                if not relation.is_zero
                for mono in monomials_of_degree(
                    presentation.generators, degree - weighted_degree(relation, grading)
                )
            ]
            for _ in range(3):
                member = Poly.zero()
                for relation, mono in rng.sample(products, min(3, len(products))):
                    member = member + rng.choice((-2, -1, 1, 3)) * Poly({mono: 1}) * relation
                element = GradedElement(presentation, member, degree)
                assert is_zero(element) and _is_zero_by_products(element, oracle)
                extra = rng.choice((1, 2, 6, 24, 25)) * Poly({rng.choice(basis): 1})
                element = GradedElement(presentation, member + extra, degree)
                answers.append(_is_zero_by_products(element, oracle))
                assert is_zero(element) == answers[-1], (presentation, element)
    assert True in answers and False in answers


def test_renamed_pieces_enumerate_their_basis_once(monkeypatch):
    calls = []
    enumerate_vectors = graded._exponent_vectors

    def spy(degrees, degree):
        calls.append((tuple(degrees), degree))
        return enumerate_vectors(degrees, degree)

    monkeypatch.setattr(graded, "_exponent_vectors", spy)
    graded._basis.cache_clear()
    graded._shifts.cache_clear()
    _graded_piece_cached.cache_clear()
    first = _renamed(QUAD4, ["w", "x", "y", "z"])
    second = _renamed(QUAD4, ["p3", "p1", "p2", "p0"])
    assert graded_piece(first, 8) == graded_piece(second, 8) == QUAD4_PIECE_8
    # One degree-8 basis, and one set of degree-6 multipliers for all three
    # degree-2 relations of both copies.
    assert calls == [((1, 1, 1, 1), 8), ((1, 1, 1, 1), 6)]


def test_the_sheared_degree_6_piece_takes_three_hermite_passes(monkeypatch):
    # Under c -> c + a, the unit pivots leave one 30 x 13 block.  Its
    # Hermite passes expose pivots equal to 1, which split off before the
    # rest is transposed: 3 passes, where carrying them along took 4.
    passes = []
    hermite = intlinalg._hermite

    def count(h, carried=None):
        passes.append(len(h))
        return hermite(h, carried)

    monkeypatch.setattr(intlinalg, "_hermite", count)
    _graded_piece_cached.cache_clear()
    intlinalg._pattern_diagonal.cache_clear()
    assert graded_piece(_sheared(ROADMAP, {"c": "c + a"}), 6) == ROADMAP_PIECE
    assert passes[0] == 30
    assert len(passes) <= 3


def test_relation_matrix_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    for presentation in (ROADMAP, _sheared(ROADMAP, {"a": "a + c"})):
        basis, matrix = _dense_relation_rows(presentation, 8)  # 84 x 45
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


def test_uncached_graded_piece_hands_sparse_rows_to_one_elimination(monkeypatch):
    # The rows go from the layout to the elimination as {column: value}
    # dicts: no dense list is scanned by intlinalg._sparse, and the public
    # cokernel, which takes dense rows, is not called.
    eliminations = []
    sparse_invariant_factors = intlinalg._sparse_invariant_factors

    def count(rows):
        eliminations.append([dict(row) for row in rows])  # the rows are consumed
        return sparse_invariant_factors(rows)

    def refuse(*args):
        raise AssertionError("dense rows were handed to intlinalg")

    monkeypatch.setattr(intlinalg, "_sparse_invariant_factors", count)
    monkeypatch.setattr(intlinalg, "_sparse", refuse)
    monkeypatch.setattr(intlinalg, "cokernel", refuse)
    _graded_piece_cached.cache_clear()
    basis, rows = _relation_rows(ROADMAP, 8)
    assert len(basis) == 45 and len(rows) == 84
    assert graded_piece(ROADMAP, 8) == ROADMAP_PIECE
    assert eliminations == [rows]
    assert graded_piece(ROADMAP, 8) == ROADMAP_PIECE
    assert len(eliminations) == 1


def _fresh_coefficient_rings(seed):
    """The ROADMAP and QUAD4 rings with their second and third relations
    replaced by p*a^2 + q*b^2 and r*a*c, p, q, r drawn from 2..60, and
    the first of them sheared by a -> a + c."""
    rng = random.Random(seed)
    rings = []
    for presentation in (ROADMAP, QUAD4):
        p, q, r = (rng.randint(2, 60) for _ in range(3))
        relations = [presentation.relations[0], f"{p}*a^2 + {q}*b^2", f"{r}*a*c"]
        rings.append(GradedPresentation.make(presentation.generators, relations))
    return rings + [_sheared(rings[0], {"a": "a + c"})]


def test_pieces_with_fresh_coefficients_against_sympy():
    # New coefficients give block patterns that the pattern cache has not
    # seen, so these pieces run the whole elimination: unit pivots, the
    # split into blocks and their Hermite passes.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    _graded_piece_cached.cache_clear()
    intlinalg._pattern_diagonal.cache_clear()
    for seed in (3, 5):
        for presentation in _fresh_coefficient_rings(seed):
            for degree in range(4, 9):
                basis, rows = relation_rows_by_products(
                    presentation.generators, presentation.relations, degree
                )
                factors = sympy_factors(sympy.Matrix(rows), domain=sympy.ZZ)
                expected = [int(f) for f in factors if f]
                torsion = tuple(f for f in expected if f >= 2)
                assert graded_piece(presentation, degree) == AbelianGroupShape(
                    len(basis) - len(expected), torsion
                ), (presentation, degree)
    assert intlinalg._pattern_diagonal.cache_info().misses > 0
