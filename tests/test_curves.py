"""The marked Weierstrass pipeline over Z[1/6]."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import lcm

import pytest

from wpchow import (
    IntermediateCoeffs,
    MarkedCurveCoeffs,
    Poly,
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
    substitute,
    to_short_form,
    weierstrass_substitution_residual,
    weighted_degree,
)

from oracles import rational_roots_by_divisor_search
from wpchow import curves
from wpchow.cli import main


def test_coefficient_denominators_restricted_to_z16():
    MarkedCurveCoeffs(Fraction(1, 2), Fraction(5, 12), Fraction(-7, 9))
    with pytest.raises(ValueError):
        MarkedCurveCoeffs(Fraction(1, 5), 0, 0)
    with pytest.raises(ValueError):
        MarkedCurveCoeffs(0, Fraction(1, 7), 0)


def test_weierstrass_substitution_residual_is_zero():
    assert weierstrass_substitution_residual().is_zero


def test_to_short_form_examples():
    alpha, beta = to_short_form(MarkedCurveCoeffs(0, 0, Fraction(5, 2)))
    assert (beta.beta4, beta.beta6) == (Fraction(5, 2), 0)
    alpha, beta = to_short_form(MarkedCurveCoeffs(3, 2, 0))
    assert (alpha.alpha2, alpha.alpha3, alpha.alpha4) == (1, 1, -3)
    assert (beta.beta4, beta.beta6) == (-3, 3)


def test_to_short_form_numeric_substitution_oracle():
    # plug the numbers into the generic cubic, apply the shift and compare
    # against the short-form equation built from the computed betas
    rng = random.Random(61)
    for _ in range(20):
        a2 = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 6)))
        a3 = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 6)))
        a4 = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 6)))
        _, beta = to_short_form(MarkedCurveCoeffs(a2, a3, a4))
        generic = substitute(marked_equation(), {"a2": a2, "a3": a3, "a4": a4})
        cap_x, cap_y, cap_z = (Poly.variable(v) for v in ("X", "Y", "Z"))
        shifted = substitute(
            generic,
            {"x": cap_x - a2 / 3 * cap_z, "y": cap_y - a3 / 2 * cap_z, "z": cap_z},
        )
        short = (
            cap_y**2 * cap_z
            - cap_x**3
            - beta.beta4 * cap_x * cap_z**2
            - beta.beta6 * cap_z**3
        )
        assert shifted == short


def test_coefficient_map_examples():
    assert short_weierstrass_coeffs(IntermediateCoeffs(1, 1, 0)) == ShortWeierstrass(0, 0)
    assert short_weierstrass_coeffs(IntermediateCoeffs(0, 0, 5)) == ShortWeierstrass(5, 0)
    assert short_weierstrass_coeffs(IntermediateCoeffs(1, 0, -3)) == ShortWeierstrass(-3, 2)


def test_discriminant_examples():
    assert discriminant(IntermediateCoeffs(1, 0, -3)) == 0
    assert discriminant(IntermediateCoeffs(1, 1, 0)) == 0
    assert discriminant(IntermediateCoeffs(0, 0, 1)) == 4


def test_discriminant_consistency_symbolic():
    # 4*b4^3 + 27*b6^2 composed with the coefficient map equals the
    # discriminant polynomial, identically
    a2, a3, a4 = (Poly.variable(v) for v in ("a2", "a3", "a4"))
    beta4 = a4
    beta6 = a3**2 - a2**3 - a2 * a4
    composed = 4 * beta4**3 + 27 * beta6**2
    assert composed == discriminant_polynomial()
    assert weighted_degree(discriminant_polynomial(), coordinate_grading()) == 12


def test_j_invariant_examples():
    assert j_invariant(ShortWeierstrass(1, 0)) == 1728
    assert j_invariant(ShortWeierstrass(-7, 0)) == 1728
    assert j_invariant(ShortWeierstrass(0, 3)) == 0
    with pytest.raises(SingularCurveError) as excinfo:
        j_invariant(ShortWeierstrass(-3, 2))
    assert excinfo.value.beta4 == -3
    assert short_discriminant(ShortWeierstrass(-3, 2)) == 0


def test_iso_test_examples():
    assert iso_test(MarkedCurveCoeffs(12, 16, 0), MarkedCurveCoeffs(3, 2, 0)) == 2
    same = MarkedCurveCoeffs(Fraction(1, 2), 3, Fraction(-4, 9))
    assert iso_test(same, same) == 1
    assert iso_test(MarkedCurveCoeffs(1, 0, 0), MarkedCurveCoeffs(0, 1, 0)) is None
    assert iso_test(MarkedCurveCoeffs(0, 0, 0), MarkedCurveCoeffs(0, 0, 0)) == 1


def test_iso_test_requires_rational_root():
    # a2 = 2 vs a2' = 1 needs lambda^2 = 2, irrational
    assert iso_test(MarkedCurveCoeffs(2, 0, 0), MarkedCurveCoeffs(1, 0, 0)) is None
    # lambda^2 = 4 works even though only the weight-2 slot is populated
    assert iso_test(MarkedCurveCoeffs(4, 0, 0), MarkedCurveCoeffs(1, 0, 0)) == 2
    # single odd-weight slot: lambda^3 = 27/8
    assert iso_test(
        MarkedCurveCoeffs(0, Fraction(27, 8), 0), MarkedCurveCoeffs(0, 1, 0)
    ) == Fraction(3, 2)
    # inconsistent ratios across slots
    assert iso_test(MarkedCurveCoeffs(4, 0, 17), MarkedCurveCoeffs(1, 0, 1)) is None


def test_iso_test_random_scalings():
    rng = random.Random(67)
    for _ in range(60):
        # keep the scaled coefficients inside Z[1/6]
        scale = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6, 8, 9)))
        scale *= rng.choice((1, -1))
        base = MarkedCurveCoeffs(
            rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)
        )
        scaled = MarkedCurveCoeffs(
            scale**2 * base.a2, scale**3 * base.a3, scale**4 * base.a4
        )
        found = iso_test(scaled, base)
        assert found is not None
        assert scaled.a2 == found**2 * base.a2
        assert scaled.a3 == found**3 * base.a3
        assert scaled.a4 == found**4 * base.a4


def test_iso_implies_equal_j_and_map_equivariance():
    rng = random.Random(71)
    checked = 0
    while checked < 30:
        base = MarkedCurveCoeffs(
            rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        )
        scale = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6)))
        scaled = MarkedCurveCoeffs(
            scale**2 * base.a2, scale**3 * base.a3, scale**4 * base.a4
        )
        found = iso_test(scaled, base)
        assert found is not None
        alpha_base, beta_base = to_short_form(base)
        alpha_scaled, beta_scaled = to_short_form(scaled)
        assert beta_scaled.beta4 == found**4 * beta_base.beta4
        assert beta_scaled.beta6 == found**6 * beta_base.beta6
        if short_discriminant(beta_base) != 0:
            assert j_invariant(beta_scaled) == j_invariant(beta_base)
            checked += 1


def test_iso_test_recovers_random_scalings_and_rejects_a_moved_a4():
    rng = random.Random(83)
    denominators = (1, 2, 3, 4, 6, 8, 9, 12)
    for _ in range(2_000):
        base = MarkedCurveCoeffs(
            Fraction(rng.randint(-40, 40), rng.choice(denominators)),
            Fraction(rng.randint(-40, 40), rng.choice(denominators)),
            Fraction(rng.choice((0, rng.randint(-40, 40))), rng.choice(denominators)),
        )
        if base.a2 == 0 and base.a3 == 0:
            continue
        scale = Fraction(rng.randint(1, 30), rng.choice(denominators)) * rng.choice((1, -1))
        scaled = MarkedCurveCoeffs(
            scale**2 * base.a2, scale**3 * base.a3, scale**4 * base.a4
        )
        # Without the odd weight only lambda^2 is pinned: the positive root.
        assert iso_test(scaled, base) == (scale if base.a3 else abs(scale))
        moved = MarkedCurveCoeffs(
            scaled.a2, scaled.a3, scaled.a4 + rng.choice((-1, 1)) * rng.randint(1, 9)
        )
        assert iso_test(moved, base) is None


def test_fiber_curve_examples():
    assert fiber_curve(ShortWeierstrass(0, 0)).render() == "-x^3 + y^2"
    assert fiber_curve(ShortWeierstrass(-3, 2)).render() == "-x^3 + y^2 + 3*x - 2"


def test_fiber_curve_matches_fiber_ideal_substitution():
    # the fiber over (b4, b6) is cut out by alpha3^2 - alpha2^3 -
    # alpha4*alpha2 - b6 with alpha4 = b4; renaming alpha2 -> x,
    # alpha3 -> y recovers the plane model
    a2, a3, a4 = (Poly.variable(v) for v in ("alpha2", "alpha3", "alpha4"))
    b4, b6 = Poly.variable("b4"), Poly.variable("b6")
    fiber_ideal = a3**2 - a2**3 - a4 * a2 - b6
    renamed = substitute(
        fiber_ideal,
        {"alpha2": Poly.variable("x"), "alpha3": Poly.variable("y"), "alpha4": b4},
    )
    x, y = Poly.variable("x"), Poly.variable("y")
    assert renamed == y**2 - x**3 - b4 * x - b6


def test_mu2_fixed_points_examples():
    points = mu2_fixed_points(ShortWeierstrass(-3, 2))
    assert [(p.x, p.multiplicity) for p in points] == [(1, 2), (-2, 1)]
    assert [p.coords for p in points] == [(1, 0, -3), (-2, 0, -3)]
    cusp = mu2_fixed_points(ShortWeierstrass(0, 0))
    assert [(p.x, p.multiplicity) for p in cusp] == [(0, 3)]
    three = mu2_fixed_points(ShortWeierstrass(-1, 0))
    assert sorted(p.x for p in three) == [-1, 0, 1]
    assert all(p.multiplicity == 1 for p in three)
    # roots 10^4, 5*10^3, -1.5*10^4 (|beta6| = 7.5*10^11)
    large = mu2_fixed_points(ShortWeierstrass(-175_000_000, 750_000_000_000))
    assert [(p.x, p.multiplicity) for p in large] == [
        (10**4, 1), (5 * 10**3, 1), (-15 * 10**3, 1)
    ]


def test_mu2_fixed_points_roots_satisfy_cubic():
    rng = random.Random(73)
    for _ in range(40):
        beta4 = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        beta6 = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        points = mu2_fixed_points(ShortWeierstrass(beta4, beta6))
        assert len(points) <= 3
        assert sum(p.multiplicity for p in points) <= 3
        for point in points:
            assert point.x**3 + beta4 * point.x + beta6 == 0
            assert point.coords == (point.x, 0, beta4)


def test_mu2_fixed_points_constructed_roots():
    # build a depressed cubic from chosen roots r1, r2, -(r1 + r2) and
    # demand the search recovers them exactly
    rng = random.Random(79)
    for _ in range(40):
        r1 = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        r2 = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        r3 = -r1 - r2
        beta4 = r1 * r2 + r1 * r3 + r2 * r3
        beta6 = -r1 * r2 * r3
        expected: dict[Fraction, int] = {}
        for root in (r1, r2, r3):
            expected[root] = expected.get(root, 0) + 1
        points = mu2_fixed_points(ShortWeierstrass(beta4, beta6))
        assert {p.x: p.multiplicity for p in points} == expected


def _random_root(rng):
    return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 6)))


def test_mu2_fixed_points_match_the_divisor_search_oracle():
    # integer, rational and constructed-root cubics (double and triple
    # roots included) against the generic rational-root search
    rng = random.Random(89)
    for index in range(5_100):
        family = index % 3
        if family == 0:
            beta4, beta6 = rng.randint(-100, 100), rng.randint(-1_000, 1_000)
        elif family == 1:
            beta4 = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6)))
            beta6 = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6)))
        else:
            r1 = _random_root(rng)
            r2 = rng.choice((r1, -r1 / 2, _random_root(rng), _random_root(rng)))
            r3 = -r1 - r2
            beta4 = r1 * r2 + r1 * r3 + r2 * r3
            beta6 = -r1 * r2 * r3
        short = ShortWeierstrass(beta4, beta6)
        points = mu2_fixed_points(short)
        expected = rational_roots_by_divisor_search([short.beta6, short.beta4, 0, 1])
        assert [(p.x, p.multiplicity) for p in points] == expected
        assert all(p.coords == (p.x, 0, short.beta4) for p in points)


@pytest.mark.parametrize(
    "beta4, beta6, expected",
    [
        # no rational root: the sieve answers, as X^3 + 6^20 has no root
        # modulo 13, before any pass over the divisors of c3 = 6^10
        (0, Fraction(1, 6**10), []),
        # a root: the pass runs to isqrt|c0| = 1 and over the divisors of
        # c3 = 6^9, not up to the isqrt of 6^18
        (0, Fraction(-1, 6**9), [(Fraction(1, 216), 1)]),
        # a prime denominator and no rational root: the sieve answers too
        (0, Fraction(1, 10**9 + 7), []),
        # roots 10^4/6^5, 5*10^3/6^5 and -1.5*10^4/6^5
        (
            Fraction(-2734375, 944784),
            Fraction(244140625, 153055008),
            [(Fraction(625, 486), 1), (Fraction(625, 972), 1), (Fraction(-625, 324), 1)],
        ),
    ],
)
def test_mu2_fixed_points_large_roots_and_denominators_are_found_quickly(
    beta4, beta6, expected
):
    short = ShortWeierstrass(beta4, beta6)
    start = time.perf_counter()
    points = mu2_fixed_points(short)
    elapsed = time.perf_counter() - start
    assert [(p.x, p.multiplicity) for p in points] == expected
    assert elapsed < 0.05


@pytest.mark.parametrize(
    "short",
    [
        # the one rational root is 10^6
        ShortWeierstrass(0, -(10**18)),
        ShortWeierstrass(0, Fraction(1, 10**30)),
        # root 1, with c0 = 10^15 + 37
        ShortWeierstrass(-(10**15 + 38), 10**15 + 37),
    ],
    ids=["root-1e6", "tiny-beta6", "just-over-with-root"],
)
def test_mu2_fixed_points_refuse_a_search_over_the_limit_at_once(short):
    # Each has a rational root, so the sieve lets it through to the limit.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most 10\\^15"):
        mu2_fixed_points(short)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "short",
    [ShortWeierstrass(0, 2**61 - 1), ShortWeierstrass(0, 10**15 + 37)],
    ids=["mersenne", "just-over"],
)
def test_mu2_fixed_points_answer_a_rootless_cubic_over_the_limit_at_once(short):
    # No root modulo 19, and modulo 13: the sieve answers before the limit.
    start = time.perf_counter()
    assert mu2_fixed_points(short) == []
    assert time.perf_counter() - start < 0.1


def test_cli_curve_fixed_over_the_limit_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["curve", "fixed", "--", "0", "-1000000000000000000"]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "10^15" in captured.err


def test_cli_curve_fixed_rootless_over_the_limit_exits_0_at_once(capsys):
    start = time.perf_counter()
    assert main(["curve", "fixed", "0", "2305843009213693951"]) == 0
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr() == ("no rational fixed points\n", "")


# -- the small-prime sieve in front of the root search ---------------------------


def _integer_model(beta4, beta6):
    """(c3, c1, c0) of the primitive integer model c3*x^3 + c1*x + c0."""
    c3 = lcm(beta4.denominator, beta6.denominator)
    return c3, int(beta4 * c3), int(beta6 * c3)


def _cubic_with_roots(r1, r2):
    """(beta4, beta6) of the depressed cubic with roots r1, r2, -(r1 + r2)."""
    r3 = -r1 - r2
    return r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


def _smooth_denominator(rng):
    exponents = (rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 2))
    return 2 ** exponents[0] * 3 ** exponents[1] * 5 ** exponents[2] * 7 ** exponents[3]


def test_sieve_keeps_cubics_with_constructed_rational_roots():
    # Denominators from 2, 3, 5 and 7 make c3 divisible by sieve primes,
    # where only the monic model X = c3*x keeps the root.
    rng = random.Random(97)
    for _ in range(1_500):
        r1, r2 = (
            Fraction(rng.randint(-10**6, 10**6), _smooth_denominator(rng)) for _ in range(2)
        )
        beta4, beta6 = _cubic_with_roots(r1, r2)
        assert not curves._rootless_modulo_a_small_prime(*_integer_model(beta4, beta6))


def test_sieve_keeps_cubics_whose_roots_are_all_even():
    # Modulo 2 each of these is X^3, whose only root is X = 0.
    rng = random.Random(101)
    for _ in range(1_500):
        r1, r2 = (2 * rng.randint(-5 * 10**5, 5 * 10**5) for _ in range(2))
        beta4, beta6 = _cubic_with_roots(r1, r2)
        assert not curves._rootless_modulo_a_small_prime(1, beta4, beta6)


def test_sieve_settles_nearly_every_random_cubic():
    # Random cubics almost never have a rational root; the first 20 primes
    # settle 19,988 of these 20,000 (the 12 left have none either).
    rng = random.Random(2027)
    settled = 0
    for _ in range(20_000):
        beta4 = rng.randint(-10**6, 10**6)
        beta6 = rng.choice((1, -1)) * round(10 ** rng.uniform(7, 13))
        settled += curves._rootless_modulo_a_small_prime(1, beta4, beta6)
    assert settled >= 19_980
