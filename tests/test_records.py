"""Value semantics of the frozen record classes and of ``Monomial``."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from wpchow import (
    AbelianGroupShape,
    BlowupData,
    ComplementPicard,
    DegreeMismatchError,
    GradedElement,
    GradedPresentation,
    HypersurfaceComplementInput,
    IntermediateCoeffs,
    MarkedCurveCoeffs,
    Monomial,
    Mu2FixedPoint,
    ReportItem,
    ShortWeierstrass,
    VerificationReport,
    WeightedProjectiveStack,
    graded,
    parse_poly,
)

RING = GradedPresentation.make([("t", 1)], ["24*t^2"])
ITEM = ReportItem("a", "b", "pass", "1", "1", "c")

# (class, field values by name in field order, repr)
CASES = [
    (
        WeightedProjectiveStack,
        {"weights": (2, 3, 4)},
        "WeightedProjectiveStack(weights=(2, 3, 4))",
    ),
    (
        HypersurfaceComplementInput,
        {"weights": (2, 3), "variables": ("a", "b"), "polynomial": parse_poly("a^3 + b^2")},
        "HypersurfaceComplementInput(weights=(2, 3), variables=('a', 'b'), "
        "polynomial=Poly('a^3 + b^2'))",
    ),
    (
        ComplementPicard,
        {"group": AbelianGroupShape(0, (12,)), "character_weight": 12, "assumptions": ("x",)},
        "ComplementPicard(group=AbelianGroupShape(free_rank=0, torsion=(12,)), "
        "character_weight=12, assumptions=('x',))",
    ),
    (
        GradedPresentation,
        {"generators": (("t", 1),), "relations": (parse_poly("24*t^2"),)},
        "GradedPresentation(generators=(('t', 1),), relations=(Poly('24*t^2'),))",
    ),
    (
        GradedElement,
        {"ambient": RING, "value": parse_poly("t"), "degree": 1},
        "GradedElement(ambient=GradedPresentation(generators=(('t', 1),), "
        "relations=(Poly('24*t^2'),)), value=Poly('t'), degree=1)",
    ),
    (
        AbelianGroupShape,
        {"free_rank": 1, "torsion": (2, 4)},
        "AbelianGroupShape(free_rank=1, torsion=(2, 4))",
    ),
    (
        MarkedCurveCoeffs,
        {"a2": Fraction(3), "a3": Fraction(2), "a4": Fraction(1, 6)},
        "MarkedCurveCoeffs(a2=Fraction(3, 1), a3=Fraction(2, 1), a4=Fraction(1, 6))",
    ),
    (
        IntermediateCoeffs,
        {"alpha2": Fraction(1), "alpha3": Fraction(0), "alpha4": Fraction(-3)},
        "IntermediateCoeffs(alpha2=Fraction(1, 1), alpha3=Fraction(0, 1), "
        "alpha4=Fraction(-3, 1))",
    ),
    (
        ShortWeierstrass,
        {"beta4": Fraction(-3), "beta6": Fraction(2)},
        "ShortWeierstrass(beta4=Fraction(-3, 1), beta6=Fraction(2, 1))",
    ),
    (
        Mu2FixedPoint,
        {"x": Fraction(1), "multiplicity": 2, "coords": (Fraction(1), Fraction(0), Fraction(-3))},
        "Mu2FixedPoint(x=Fraction(1, 1), multiplicity=2, "
        "coords=(Fraction(1, 1), Fraction(0, 1), Fraction(-3, 1)))",
    ),
    (BlowupData, {"w1": 4, "w2": 6}, "BlowupData(w1=4, w2=6)"),
    (
        ReportItem,
        {"id": "a", "description": "b", "status": "pass", "expected": "1", "actual": "1",
         "paper_anchor": "c"},
        "ReportItem(id='a', description='b', status='pass', expected='1', actual='1', "
        "paper_anchor='c')",
    ),
    (
        VerificationReport,
        {"schema": 1, "version": "0.1.0", "bound": 8, "items": (ITEM,)},
        f"VerificationReport(schema=1, version='0.1.0', bound=8, items=({ITEM!r},))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, text):
    positional = cls(*values.values())
    keyword = cls(**values)
    assert positional == keyword
    assert hash(positional) == hash(keyword) == hash(tuple(values.values()))
    assert {positional: 1}[keyword] == 1
    for name, value in values.items():
        assert getattr(keyword, name) == value
    assert repr(positional) == repr(keyword) == text
    assert not dataclasses.is_dataclass(positional)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values, text):
    record = cls(**values)
    name = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, name, values[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_arity_errors_are_type_errors(cls, values, text):
    args = list(values.values())
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args[1:])
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{first: args[0]})


def test_equality_needs_the_same_class():
    assert AbelianGroupShape(1, (2,)) != AbelianGroupShape(1, (4,))
    assert IntermediateCoeffs(1, 2, 3) != MarkedCurveCoeffs(1, 2, 3)
    assert BlowupData(4, 6) != (4, 6)
    assert ShortWeierstrass(1, 2) == ShortWeierstrass(Fraction(1), Fraction(2))


def test_defaults():
    assert AbelianGroupShape(2) == AbelianGroupShape(2, ()) == AbelianGroupShape(free_rank=2)
    assert AbelianGroupShape(2).torsion == ()
    presentation = GradedPresentation((("x", 1),))
    assert presentation.relations == ()
    assert presentation == GradedPresentation(generators=(("x", 1),), relations=())


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightedProjectiveStack(()),
        lambda: WeightedProjectiveStack((2, 0)),
        lambda: HypersurfaceComplementInput((2,), ("a", "b"), parse_poly("a")),
        lambda: HypersurfaceComplementInput((2, 3), ("a", "b"), parse_poly("a + b")),
        lambda: GradedPresentation((("x", 0),)),
        lambda: GradedPresentation((("x", 1), ("x", 2))),
        lambda: GradedPresentation((("x", 1),), (parse_poly("x/2"),)),
        lambda: GradedElement(RING, parse_poly("t"), 2),
        lambda: AbelianGroupShape(-1),
        lambda: AbelianGroupShape(0, (1,)),
        lambda: AbelianGroupShape(0, (2, 3)),
        lambda: MarkedCurveCoeffs(Fraction(1, 5), 0, 0),
        lambda: BlowupData(0, 1),
    ],
)
def test_post_init_validation_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_post_init_normalizes_fields():
    marked = MarkedCurveCoeffs(3, 2, "1/6")
    assert marked.a4 == Fraction(1, 6) and type(marked.a2) is Fraction
    assert type(IntermediateCoeffs(1, 0, -3).alpha4) is Fraction
    assert type(ShortWeierstrass(-3, 2).beta6) is Fraction
    with pytest.raises(DegreeMismatchError):
        GradedElement(RING, parse_poly("t"), 3)


def test_presentations_are_lru_cache_keys():
    first = GradedPresentation.make([("x", 1), ("y", 1)], ["x*y", "24*x^2 + 24*y^2"])
    second = GradedPresentation.make([("x", 1), ("y", 1)], ["x*y", "24*x^2 + 24*y^2"])
    assert first is not second and first == second and hash(first) == hash(second)

    @lru_cache(maxsize=None)
    def token(presentation):
        return object()

    assert token(first) is token(second)
    graded.graded_piece(first, 31)
    hits = graded._graded_piece_cached.cache_info().hits
    assert graded.graded_piece(second, 31) == AbelianGroupShape(0, (24, 24))
    assert graded._graded_piece_cached.cache_info().hits == hits + 1


def test_monomial_products_equal_and_hash_like_public_construction():
    rng = random.Random(7)
    names = ["a", "b", "x", "x1", "y", "z"]
    for _ in range(500):
        left = {name: rng.randint(0, 4) for name in rng.sample(names, rng.randint(0, 4))}
        right = {name: rng.randint(0, 4) for name in rng.sample(names, rng.randint(0, 4))}
        total = {name: left.get(name, 0) + right.get(name, 0) for name in {*left, *right}}
        product = Monomial.of(left) * Monomial.of(right)
        expected = Monomial.of(total)
        assert product == expected
        assert hash(product) == hash(expected)
        assert product.exponents == expected.exponents
        assert {expected: 1}[product] == 1
        assert repr(product) == f"Monomial(exponents={expected.exponents!r})"


def test_monomial_is_frozen():
    mono = Monomial.of({"x": 2, "y": 1})
    assert repr(mono) == "Monomial(exponents=(('x', 2), ('y', 1)))"
    assert Monomial(exponents=(("x", 2), ("y", 1))) == mono
    with pytest.raises(AttributeError):
        mono.exponents = ()
    with pytest.raises(AttributeError):
        del mono.exponents
    with pytest.raises(ValueError):
        Monomial((("y", 1), ("x", 1)))
    with pytest.raises(ValueError):
        Monomial((("x", True),))
    assert mono != (("x", 2), ("y", 1))
