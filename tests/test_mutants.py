"""Named mutants: each fault below must fail the report items named with it.

A verification item that cannot fail checks nothing.  Each mutant replaces
one formula or one computation by monkeypatching, runs the report, and
asserts that the items it must break are reported as failures.  The
cached symbolic identities and graded pieces are cleared around every
test, so no value computed by a mutant outlives it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from wpchow import AbelianGroupShape, MarkedCurveCoeffs, build_report, curves, graded, report

_CACHED = (
    curves.weierstrass_substitution_residual,
    curves.discriminant_polynomial,
    graded._graded_piece_cached,
)


@pytest.fixture(autouse=True)
def clear_caches():
    for function in _CACHED:
        function.cache_clear()
    yield
    for function in _CACHED:
        function.cache_clear()


def _one_generator_piece(was: int, now: int):
    """A ``graded_piece`` that reads Z/was as Z/now in one-generator rings."""
    original = graded._graded_piece_cached

    def mutant(presentation, degree):
        piece = original(presentation, degree)
        if len(presentation.generators) == 1 and piece == AbelianGroupShape.cyclic(was):
            return AbelianGroupShape.cyclic(now)
        return piece

    return mutant


MUTANTS = {
    "alpha-map-a2sq-over-4": (
        "wpchow.curves._alpha_map",
        lambda a2, a3, a4: (Fraction(1, 3) * a2, Fraction(1, 2) * a3, a4 - Fraction(1, 4) * a2**2),
        {"weierstrass-identity"},
    ),
    "coefficient-map-plus-alpha2-alpha4": (
        "wpchow.curves._coefficient_map",
        lambda alpha2, alpha3, alpha4: (alpha4, alpha3**2 - alpha2**3 + alpha2 * alpha4),
        {"weierstrass-identity"},
    ),
    "discriminant-26-for-27": (
        "wpchow.curves._discriminant",
        lambda beta4, beta6: 4 * beta4**3 + 26 * beta6**2,
        {"nodal-point-disc"},
    ),
    "one-generator-piece-z12-as-z6": (
        "wpchow.graded._graded_piece_cached",
        _one_generator_piece(12, 6),
        {"two-point-complement", "m12-open-ring"},
    ),
    "one-generator-piece-z24-as-z12": (
        "wpchow.graded._graded_piece_cached",
        _one_generator_piece(24, 12),
        {"cusp-complement"},
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_its_items(monkeypatch, name):
    target, replacement, must_fail = MUTANTS[name]
    monkeypatch.setattr(target, replacement)
    failing = {item.id for item in build_report(bound=4).items if item.status == "fail"}
    assert must_fail <= failing, f"{name}: only {sorted(failing)} failed"


def test_alpha_map_mutant_stops_to_short_form(monkeypatch):
    # to_short_form checks the identity on the formulas it evaluates.
    target, replacement, _ = MUTANTS["alpha-map-a2sq-over-4"]
    monkeypatch.setattr(target, replacement)
    with pytest.raises(AssertionError, match="substitution identity"):
        curves.to_short_form(MarkedCurveCoeffs(3, 2, 0))


def test_only_the_split_decomposition_computes_an_expected_value(monkeypatch):
    # An expected value computed by the code it checks hides a fault that
    # hits both sides alike.  Every expected value is recorded, except the
    # split decomposition over P(4,6) and U, which reads other rings than
    # the one m12bar-assembly checks.
    calls = []
    original = graded._graded_piece_cached

    def counting(presentation, degree):
        calls.append(presentation)
        return original(presentation, degree)

    monkeypatch.setattr(graded, "_graded_piece_cached", counting)
    values = report.SharedValues(8)
    computing = set()
    for entry in report._IDENTITIES:
        calls.clear()
        if not isinstance(entry.expected, str):
            entry.expected(values)
        if calls:
            computing.add(entry.id)
    assert computing == {"m12bar-assembly"}
