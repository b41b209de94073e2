"""Marked Weierstrass pipeline for 2-pointed genus-1 curves over Z[1/6].

The family under study is the projective cubic

    y^2*z + a3*y*z^2 = x^3 + a2*x^2*z + a4*x*z^2

with marked points [0,1,0] and [0,0,1].  Completing the square in y and
the cube in x (which needs 2 and 3 invertible, hence the Z[1/6] base and
the {2,3} denominator restriction on inputs) produces the short form

    Y^2*Z = X^3 + beta4*X*Z^2 + beta6*Z^3

through the intermediate coordinates alpha2 = a2/3, alpha3 = a3/2,
alpha4 = a4 - a2^2/3 and the coefficient map

    (alpha2, alpha3, alpha4) -> (alpha4, alpha3^2 - alpha2^3 - alpha2*alpha4).

Two marked cubics are isomorphic exactly when their coefficients differ
by the weighted scaling (a2, a3, a4) -> (l^2*a2, l^3*a3, l^4*a4); the
isomorphism search here is over Q, so ``None`` does not rule out an
isomorphism over a bigger field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Optional, Union

from ._record import frozen_record
from .poly import Poly, substitute

Rational = Union[int, Fraction]

__all__ = [
    "IntermediateCoeffs",
    "MarkedCurveCoeffs",
    "Mu2FixedPoint",
    "ShortWeierstrass",
    "SingularCurveError",
    "coordinate_grading",
    "discriminant",
    "discriminant_polynomial",
    "fiber_curve",
    "iso_test",
    "j_invariant",
    "marked_equation",
    "mu2_fixed_points",
    "short_discriminant",
    "short_weierstrass_coeffs",
    "to_short_form",
    "weierstrass_substitution_residual",
]


class SingularCurveError(ValueError):
    """The short-form curve is singular (vanishing discriminant)."""

    def __init__(self, beta4: Fraction, beta6: Fraction):
        self.beta4 = beta4
        self.beta6 = beta6
        super().__init__(
            f"curve (beta4, beta6) = ({beta4}, {beta6}) is singular: "
            "discriminant 4*beta4^3 + 27*beta6^2 = 0"
        )


def _check_z16_denominator(value: Fraction, field: str) -> None:
    d = value.denominator
    for p in (2, 3):
        while d % p == 0:
            d //= p
    if d != 1:
        raise ValueError(
            f"{field} = {value} has a denominator not supported on {{2, 3}}; "
            "coefficients live in Z[1/6]"
        )


@frozen_record
class MarkedCurveCoeffs:
    """Coefficients (a2, a3, a4) of the marked cubic."""

    a2: Fraction
    a3: Fraction
    a4: Fraction

    def __post_init__(self):
        for name in ("a2", "a3", "a4"):
            value = Fraction(getattr(self, name))
            _check_z16_denominator(value, name)
            object.__setattr__(self, name, value)


@frozen_record
class IntermediateCoeffs:
    """Shifted coordinates (alpha2, alpha3, alpha4) of weight (2, 3, 4)."""

    alpha2: Fraction
    alpha3: Fraction
    alpha4: Fraction

    def __post_init__(self):
        for name in ("alpha2", "alpha3", "alpha4"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


@frozen_record
class ShortWeierstrass:
    """Short-form coefficients (beta4, beta6)."""

    beta4: Fraction
    beta6: Fraction

    def __post_init__(self):
        for name in ("beta4", "beta6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


def coordinate_grading() -> dict[str, int]:
    """Weights (2, 3, 4) on the coordinates a2, a3, a4."""
    return {"a2": 2, "a3": 3, "a4": 4}


def marked_equation() -> Poly:
    """The marked cubic as a single vanishing polynomial.

    LHS minus RHS of the family equation, in variables x, y, z and the
    coefficient symbols a2, a3, a4.
    """
    x, y, z = (Poly.variable(v) for v in ("x", "y", "z"))
    a2, a3, a4 = (Poly.variable(v) for v in ("a2", "a3", "a4"))
    return y**2 * z + a3 * y * z**2 - x**3 - a2 * x**2 * z - a4 * x * z**2


def _beta_polynomials() -> tuple[Poly, Poly]:
    a2, a3, a4 = (Poly.variable(v) for v in ("a2", "a3", "a4"))
    alpha2 = Fraction(1, 3) * a2
    alpha3 = Fraction(1, 2) * a3
    alpha4 = a4 - Fraction(1, 3) * a2**2
    beta4 = alpha4
    beta6 = alpha3**2 - alpha2**3 - alpha2 * alpha4
    return beta4, beta6


@lru_cache(maxsize=1)
def weierstrass_substitution_residual() -> Poly:
    """Residual of the generic change of variables into short form.

    Substitutes x -> X - (a2/3)*Z, y -> Y - (a3/2)*Z, z -> Z into the
    marked cubic (the shifts carry a factor of Z so that the identity is
    exact as a homogeneous cubic; setting Z = 1 recovers the affine
    substitution X = x + a2/3, Y = y + a3/2) and subtracts

        Y^2*Z - X^3 - beta4*X*Z^2 - beta6*Z^3

    with beta4 = alpha4 and beta6 = alpha3^2 - alpha2^3 - alpha2*alpha4.
    The result is identically zero; callers may assert on it.
    """
    a2, a3 = Poly.variable("a2"), Poly.variable("a3")
    cap_x, cap_y, cap_z = (Poly.variable(v) for v in ("X", "Y", "Z"))
    shift = {
        "x": cap_x - Fraction(1, 3) * a2 * cap_z,
        "y": cap_y - Fraction(1, 2) * a3 * cap_z,
        "z": cap_z,
    }
    transformed = substitute(marked_equation(), shift)
    beta4, beta6 = _beta_polynomials()
    target = cap_y**2 * cap_z - cap_x**3 - beta4 * cap_x * cap_z**2 - beta6 * cap_z**3
    return transformed - target


def to_short_form(coeffs: MarkedCurveCoeffs) -> tuple[IntermediateCoeffs, ShortWeierstrass]:
    """Complete the marked cubic to short Weierstrass form.

    Returns the intermediate coordinates alpha and the short coefficients
    beta.  The generic substitution identity backing the formulas is
    verified symbolically (once, cached).
    """
    if not weierstrass_substitution_residual().is_zero:
        raise AssertionError("short-form substitution identity failed symbolically")
    alpha = IntermediateCoeffs(
        alpha2=coeffs.a2 / 3,
        alpha3=coeffs.a3 / 2,
        alpha4=coeffs.a4 - coeffs.a2**2 / 3,
    )
    return alpha, short_weierstrass_coeffs(alpha)


def short_weierstrass_coeffs(alpha: IntermediateCoeffs) -> ShortWeierstrass:
    """(alpha2, alpha3, alpha4) -> (alpha4, alpha3^2 - alpha2^3 - alpha2*alpha4).

    This is the coefficient map underlying the family; it collapses the
    cuspidal locus (the weighted line through (1, 1, 0)) to (0, 0), where
    the induced map of projective stacks is undefined.
    """
    return ShortWeierstrass(
        beta4=alpha.alpha4,
        beta6=alpha.alpha3**2 - alpha.alpha2**3 - alpha.alpha2 * alpha.alpha4,
    )


def discriminant(alpha: IntermediateCoeffs) -> Fraction:
    """4*alpha4^3 + 27*(alpha3^2 - alpha2^3 - alpha2*alpha4)^2.

    Vanishes exactly on the singular fibers; equals the short-form
    discriminant of ``short_weierstrass_coeffs(alpha)``.
    """
    beta = short_weierstrass_coeffs(alpha)
    return short_discriminant(beta)


def short_discriminant(short: ShortWeierstrass) -> Fraction:
    return 4 * short.beta4**3 + 27 * short.beta6**2


@lru_cache(maxsize=1)
def discriminant_polynomial() -> Poly:
    """The discriminant as a polynomial in a2, a3, a4; homogeneous of
    degree 12 under :func:`coordinate_grading`."""
    a2, a3, a4 = (Poly.variable(v) for v in ("a2", "a3", "a4"))
    return 4 * a4**3 + 27 * (a3**2 - a2**3 - a2 * a4) ** 2


def j_invariant(short: ShortWeierstrass) -> Fraction:
    """j = 1728 * 4*beta4^3 / (4*beta4^3 + 27*beta6^2).

    Normalized so that beta6 = 0 gives j = 1728 and beta4 = 0 gives j = 0.
    Raises :class:`SingularCurveError` when the discriminant vanishes.
    """
    delta = short_discriminant(short)
    if delta == 0:
        raise SingularCurveError(short.beta4, short.beta6)
    return Fraction(1728) * 4 * short.beta4**3 / delta


def fiber_curve(short: ShortWeierstrass) -> Poly:
    """Affine plane model y^2 - x^3 - beta4*x - beta6 of the fiber.

    This is the fiber of the coefficient map over (beta4, beta6): a genus-1
    curve with its marked points removed.
    """
    x, y = Poly.variable("x"), Poly.variable("y")
    return y**2 - x**3 - short.beta4 * x - short.beta6


# -- isomorphism testing ------------------------------------------------


def _int_nth_root(value: int, n: int) -> Optional[int]:
    """Exact non-negative n-th root of a non-negative integer, else None."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value in (0, 1):
        return value
    low, high = 1, 1
    while high**n <= value:
        high *= 2
    while low <= high:
        mid = (low + high) // 2
        power = mid**n
        if power == value:
            return mid
        if power < value:
            low = mid + 1
        else:
            high = mid - 1
    return None


def _fraction_nth_root(value: Fraction, n: int) -> Optional[Fraction]:
    if value < 0:
        if n % 2 == 0:
            return None
        root = _fraction_nth_root(-value, n)
        return -root if root is not None else None
    num = _int_nth_root(value.numerator, n)
    den = _int_nth_root(value.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def iso_test(
    first: MarkedCurveCoeffs, second: MarkedCurveCoeffs
) -> Optional[Fraction]:
    """Rational scaling relating two marked cubics, if one exists.

    Returns lambda != 0 with a2 = l^2*a2', a3 = l^3*a3', a4 = l^4*a4', or
    None when no rational lambda works.  Over Q only: None does not rule
    out an isomorphism over an extension field.
    """
    ratios: dict[int, Fraction] = {}
    for weight, left, right in (
        (2, first.a2, second.a2),
        (3, first.a3, second.a3),
        (4, first.a4, second.a4),
    ):
        if (left == 0) != (right == 0):
            return None
        if left != 0:
            ratios[weight] = left / right
    if not ratios:
        return Fraction(1)
    # Weights 3 and a neighbour pin lambda as a quotient of their ratios;
    # otherwise it is a root of the ratio of the least weight present.
    if 3 in ratios and 2 in ratios:
        candidate = ratios[3] / ratios[2]
    elif 3 in ratios and 4 in ratios:
        candidate = ratios[4] / ratios[3]
    else:
        least = min(ratios)
        candidate = _fraction_nth_root(ratios[least], least)
    if candidate is None:
        return None
    for weight, ratio in ratios.items():
        if candidate**weight != ratio:
            return None
    return candidate


# -- fixed points of the involution on the nodal fiber -------------------


@frozen_record
class Mu2FixedPoint:
    """Fixed point of y -> -y on a fiber, with its stack coordinates."""

    x: Fraction
    multiplicity: int
    coords: tuple[Fraction, Fraction, Fraction]


# The search trial-divides up to isqrt|c0| and isqrt(c3): at 10^15 one
# pass takes ~1.3 s on a 2-CPU container, at 2^61 - 1 about 5 minutes.
_ROOT_SEARCH_LIMIT = 10**15


def _first_cubic_root(short: ShortWeierstrass) -> Optional[Fraction]:
    """One rational root of x^3 + beta4*x + beta6, or None if it has none.

    With m the lcm of the two denominators, the cubic's primitive integer
    model is c3*x^3 + c1*x + c0 = m*(x^3 + beta4*x + beta6) (its content is
    1).  A root a/b in lowest terms has a dividing c0, and b^2 dividing c3:
    for p | b the term a^3, a p-adic unit, must cancel against beta4*a*b^2
    or beta6*b^3.  One trial-division pass lists those b, another the
    divisors of c0 up to isqrt|c0| with their cofactors; the candidates
    +-a/b are then tried, smallest |a| first.  The pass over c0 always runs
    to its end, so a call costs the same for a cubic with a rational root
    as for one of the same size without.  Raises ``ValueError`` when |c0|
    or c3 is over 10^15, where one pass would take more than a second.
    """
    c3 = lcm(short.beta4.denominator, short.beta6.denominator)
    c1, c0 = int(short.beta4 * c3), int(short.beta6 * c3)
    if c0 == 0:
        return Fraction(0)
    n = abs(c0)
    if n > _ROOT_SEARCH_LIMIT or c3 > _ROOT_SEARCH_LIMIT:
        raise ValueError(
            "the rational root search needs |c0| and c3 of the cubic's integer "
            "model c3*x^3 + c1*x + c0 to be at most 10^15"
        )
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    numerators = small + [n // d for d in reversed(small) if d * d != n]
    denominators = [b for b in range(1, isqrt(c3) + 1) if c3 % (b * b) == 0]
    return next(
        (
            Fraction(a, b)
            for d in numerators
            for a in (d, -d)
            for b in denominators
            if c3 * a**3 + c1 * a * b * b + c0 * b**3 == 0
        ),
        None,
    )


def mu2_fixed_points(short: ShortWeierstrass) -> list[Mu2FixedPoint]:
    """Fixed points of the involution y -> -y on the fiber, over Q.

    These are the points with y = 0, i.e. the rational roots of
    x^3 + beta4*x + beta6, highest first with their multiplicities, and
    reported with their weight-(2, 3, 4) stack coordinates [x, 0, beta4].
    :func:`_first_cubic_root` finds one root r; the other two are the roots
    of the quotient x^2 + r*x + (r^2 + beta4), rational exactly when its
    discriminant -3*r^2 - 4*beta4 is a rational square.  Only Q-rational
    fixed points appear.
    """
    root = _first_cubic_root(short)
    if root is None:
        return []
    roots = [root]
    s = _fraction_nth_root(-3 * root * root - 4 * short.beta4, 2)
    if s is not None:
        roots += [(s - root) / 2, (-s - root) / 2]
    return [
        Mu2FixedPoint(x=x, multiplicity=roots.count(x), coords=(x, Fraction(0), short.beta4))
        for x in sorted(set(roots), reverse=True)
    ]
