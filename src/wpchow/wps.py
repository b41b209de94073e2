"""Weighted projective stacks: Chow rings, point classes, complements.

P(a1,...,an) is the quotient of A^n minus the origin by the scaling action
with weights a_i.  Its Chow ring is Z[t]/(a1*...*an * t^n) with
t = c1(O(1)), and the two families of closed substacks supported here are
coordinate points and the image of the weight-1 line through a
seminormalized weighted rational curve.  Both push forward to closed-form
classes: products of weights times powers of t.  The finite-dimensional
approximation argument that reduces every case to these closed forms is a
documented derivation, not executed code:

* a coordinate point [0,...,1,...,0] with stabilizer mu_{a_j} pushes
  forward to the product of the first Chern classes c1(O(a_i)) over the
  other indices, i.e. (prod_{i != j} a_i) * t^(n-1);
* the pushforward of a line bundle along the map assembled from the
  power maps p_a (with (p_a)_* [total space] = a * [target]) multiplies
  classes by the used weights and contributes c1(O(a_k)) = a_k * t for
  every remaining summand.

Removing a closed substack is right exact on Chow groups, so complements
are presented by adding the removed classes as relations.  The Picard
group of the complement of a weight-d hypersurface in [A^n/Gm] is Z/d,
assuming the ambient Picard group is Z and the hypersurface is reduced
and irreducible; those hypotheses are recorded on the result, not checked.
Only an f that a variable divides is refused (V(f) then contains that
coordinate hyperplane), unless f is the variable times a constant.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, Sequence, Union

from ._record import frozen_record
from .graded import GradedElement, GradedPresentation, quotient
from .intlinalg import AbelianGroupShape
from .poly import _IDENTIFIER, Monomial, Poly, weighted_degree

__all__ = [
    "CHOW_GENERATOR",
    "ComplementPicard",
    "HypersurfaceComplementInput",
    "WeightedProjectiveStack",
    "chow_of_complement",
    "chow_ring",
    "line_image_class",
    "pic_complement",
    "point_class",
]

CHOW_GENERATOR = "t"


@frozen_record
class WeightedProjectiveStack:
    """Ordered tuple of positive integer weights."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("a weighted projective stack needs at least one weight")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return f"P({', '.join(str(w) for w in self.weights)})"


@lru_cache(maxsize=32)
def chow_ring(stack: WeightedProjectiveStack) -> GradedPresentation:
    """Z[t]/((a1*...*an) * t^n) with t = c1(O(1))."""
    relation = prod(stack.weights) * Poly.variable(CHOW_GENERATOR) ** stack.n
    return GradedPresentation.make([(CHOW_GENERATOR, 1)], [relation])


def _power_of_t(coefficient: int, power: int) -> Poly:
    return coefficient * Poly.variable(CHOW_GENERATOR) ** power


def point_class(stack: WeightedProjectiveStack, index: int) -> GradedElement:
    """Class of the j-th coordinate point (1-based), stabilizer mu_{a_j}.

    Equals (prod_{i != j} a_i) * t^(n-1).  The closed form is stated for
    the point with a single nonzero coordinate; other points reduce to a
    coordinate point by a coordinate automorphism, which is the identity
    on the Chow ring.
    """
    if not 1 <= index <= stack.n:
        raise ValueError(f"index must be between 1 and {stack.n}")
    coefficient = prod(w for i, w in enumerate(stack.weights, start=1) if i != index)
    value = _power_of_t(coefficient, stack.n - 1)
    return GradedElement.of(chow_ring(stack), value, stack.n - 1)


def line_image_class(
    stack: WeightedProjectiveStack,
    used: Sequence[int],
    remaining: Sequence[int],
) -> GradedElement:
    """Pushforward class of the weight-1 line mapped by the used powers.

    ``used`` and ``remaining`` are 1-based weight indices partitioning the
    weights; the line maps into the used coordinates by the power maps
    t -> t^(a_i) and sits over the zero section of the remaining ones.
    The class is (prod_used a_i) * (prod_remaining a_k * t) * t^(|used|-1).
    """
    used = tuple(used)
    remaining = tuple(remaining)
    if not used:
        raise ValueError("used indices must be nonempty")
    if sorted(used + remaining) != list(range(1, stack.n + 1)):
        raise ValueError("used and remaining must partition the weight indices")
    coefficient = prod(stack.weights[i - 1] for i in used)
    coefficient *= prod(stack.weights[k - 1] for k in remaining)
    degree = len(remaining) + len(used) - 1
    return GradedElement.of(chow_ring(stack), _power_of_t(coefficient, degree), degree)


def chow_of_complement(
    stack: WeightedProjectiveStack,
    removed: Iterable[Union[GradedElement, Poly, str]],
) -> GradedPresentation:
    """Chow presentation of the complement of the removed closed classes."""
    return quotient(chow_ring(stack), removed)


@frozen_record
class HypersurfaceComplementInput:
    """Weighted affine space data plus a homogeneous defining polynomial."""

    weights: tuple[int, ...]
    variables: tuple[str, ...]
    polynomial: Poly

    def __post_init__(self):
        if self.polynomial.is_zero:
            raise ValueError("the defining polynomial must be nonzero")
        for name in self.variables:
            if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
                raise ValueError(
                    f"variable {name!r} is not a name of the polynomial syntax "
                    "(a letter or _, then letters, digits or _)"
                )
        if len(self.weights) != len(self.variables):
            raise ValueError("need exactly one variable per weight")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError("ambient weights must be positive integers")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variables must be distinct")
        if not set(self.polynomial.variables) <= set(self.variables):
            raise ValueError("polynomial uses variables without a weight")
        weighted_degree(self.polynomial, self.grading)  # homogeneity invariant

    @property
    def grading(self) -> dict[str, int]:
        return dict(zip(self.variables, self.weights))


@frozen_record
class ComplementPicard:
    """Picard group of the hypersurface complement, with its hypotheses."""

    group: AbelianGroupShape
    character_weight: int
    assumptions: tuple[str, ...]


def pic_complement(data: HypersurfaceComplementInput) -> ComplementPicard:
    """Pic of [A^n minus V(f) / Gm] as a cyclic group Z/d, d = deg(f).

    The scaling character acts on f by lambda^d, which is exactly the
    character cut out by removing V(f); hence the cyclic quotient.  The
    hypotheses (ambient Picard group Z, V(f) reduced and irreducible) are
    recorded, not verified, with one exception: ``ValueError`` if a
    variable x divides every term of f, unless f is a constant times x.
    Then V(f) contains V(x) and is reducible or not reduced, and Z/d is
    wrong: f = x^2 and f = x*y both have Pic = 0.
    """
    monomials = data.polynomial.monomials()
    for name in data.polynomial.variables:
        if all(mono.exponent(name) for mono in monomials) and monomials != (
            Monomial(((name, 1),)),
        ):
            raise ValueError(
                f"the variable {name} divides every term of the polynomial, "
                "so the hypersurface is reducible or not reduced"
            )
    degree = weighted_degree(data.polynomial, data.grading)
    return ComplementPicard(
        group=AbelianGroupShape.cyclic(degree),
        character_weight=degree,
        assumptions=(
            "ambient Picard group is Z",
            "hypersurface is reduced and irreducible",
        ),
    )
