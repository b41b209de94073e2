"""The weighted blow-up of a smooth surface point and the moduli assembly.

Blowing up A^2 at the origin with weights (w1, w2) means passing to the
quotient of A^3 (coordinates x, y, u of weights w1, w2, -1) minus the
locus {x = y = 0}.  The exceptional divisor is P(w1, w2); restricting the
ideal sheaf of the exceptional divisor to it gives O(1), which is the
source of every class-level identity used here.

The chart algebra is the invariant ring R[x, y, u]^Gm = R[u^w1*x, u^w2*y].
:func:`invariant_ring_check` verifies it by integer Hilbert-basis
enumeration: it computes the irreducible elements of the monoid of
invariant exponent vectors up to a degree bound and compares them with
the exponents of the two claimed generators.

The moduli application: blowing up the cuspidal point of P(2, 3, 4) with
weights (4, 6) produces the compactified moduli stack of 2-pointed
genus-1 curves, fibered over P(4, 6) by the completed-square family of
``wpchow.curves``.  The blow-up enters purely through its class-level
consequences:

* the localization sequence splits, giving degreewise
  A^n(total) = A^(n-1)(P(4, 6)) + A^n(U) for U the cusp complement;
* the exceptional class y satisfies y^2 |-> c1(O_E(-1)) = -t under the
  fiberwise pushforward and restricts to 0 on U;
* the pulled-back hyperplane class x satisfies x*y = 0 and x^2 |-> t.

Every assembled presentation is checked against that split
decomposition in every degree, by comparing finitely many pieces: its
ideal contains x*y, and each side of the decomposition is a one-generator
ring, so each of the three has constant pieces above its largest relation
degree (see :func:`wpchow.graded.graded_piece`).  A disagreement raises
:class:`AssemblyMismatchError` and signals an implementation bug.

Recorded fact, used by no computation here: on the Zariski chart of
P(2, 3, 4) where the weight-2 and weight-3 coordinates are invertible,
the ambient is an affine plane and the change of variables x -> y,
y -> x + y + 1 moves the blown-up cuspidal point to the origin, so the
surface blow-up picture above literally applies to the moduli case.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Sequence

from ._errors import AssemblyMismatchError
from ._record import frozen_record
from .curves import coordinate_grading, discriminant_polynomial
from .graded import (
    GradedElement,
    GradedPresentation,
    graded_piece,
    is_zero,
    quotient,
    same_ideal,
)
from .intlinalg import AbelianGroupShape
from .poly import Poly, weighted_degree
from .wps import (
    HypersurfaceComplementInput,
    WeightedProjectiveStack,
    chow_of_complement,
    chow_ring,
    line_image_class,
    pic_complement,
    point_class,
)

__all__ = [
    "AssemblyMismatchError",
    "BlowupData",
    "MODULI_AMBIENT",
    "MODULI_BLOWUP",
    "MODULI_RESTRICTION",
    "check_split_assembly",
    "cusp_complement_chow",
    "cusp_locus_class",
    "discriminant_hypersurface",
    "exceptional_selfintersection",
    "invariant_ring_check",
    "m12_open_chow",
    "m12bar_chow",
    "phi_degree2_images",
    "split_pieces",
    "unkilled_relations",
]


@frozen_record
class BlowupData:
    """Weights of a blow-up of a smooth surface point."""

    w1: int
    w2: int

    def __post_init__(self):
        if not all(isinstance(w, int) and w >= 1 for w in (self.w1, self.w2)):
            raise ValueError("blow-up weights must be positive integers")

    @property
    def exceptional(self) -> WeightedProjectiveStack:
        return WeightedProjectiveStack((self.w1, self.w2))


def _invariant_hilbert_basis(
    weights: Sequence[int], bound: int
) -> list[tuple[int, ...]]:
    """Irreducible elements of the invariant monoid, up to total degree bound.

    The invariant monoid of the grading ``weights`` (all nonzero) is the set
    of exponent vectors e in N^n with sum(w * e) == 0.  An element is
    irreducible when it is nonzero and not the sum of two nonzero
    invariant vectors.  Every entry but the last is enumerated and the last
    is solved for.  The free entries are built one coordinate at a time,
    carrying their total and weighted degree, and only while the total fits
    the bound, so the cost is one pass over the heads of total <= bound.
    Candidates are tested in increasing total degree: a reducible vector
    lies componentwise above some irreducible of smaller degree, all of
    which are already in the basis.

    When every free weight is positive and the last one negative, the last
    entry of a head is at least ceil(degree / |last|) and grows with every
    extension of the head, so a head is dropped as soon as its total plus
    that is over the bound: the entry e for weight w stops at
    (|last| * (bound - total) - degree) // (w + |last|).
    """
    *free_weights, last = weights
    prune = last < 0 < min(free_weights, default=0)

    def top(total: int, degree: int, weight: int) -> int:
        if prune:
            return (-last * (bound - total) - degree) // (weight - last)
        return bound - total

    heads = [((), 0, 0)]  # (free entries, their total, their weighted degree)
    for weight in free_weights:
        heads = [
            (head + (e,), total + e, degree + weight * e)
            for head, total, degree in heads
            for e in range(top(total, degree, weight) + 1)
        ]
    invariants = []
    for head, total, degree in heads:
        power, remainder = divmod(-degree, last)
        if remainder == 0 and 0 <= power <= bound - total and (total or power):
            invariants.append((*head, power))
    invariants.sort(key=sum)
    basis: list[tuple[int, ...]] = []
    for vector in invariants:
        if not any(all(b <= v for b, v in zip(element, vector)) for element in basis):
            basis.append(vector)
    return basis


def invariant_ring_check(w1: int, w2: int, degree_bound: int) -> bool:
    """Check R[x, y, u]^Gm = R[u^w1*x, u^w2*y] up to total degree bound.

    Computes the Hilbert basis of the monoid of invariant exponent vectors
    (i, j, k), i + j + k <= bound, of weighted degree 0 under the ambient
    grading (w1, w2, -1), and compares it with the exponents (1, 0, w1) and
    (0, 1, w2) of the two claimed generators, truncated at the bound.
    """
    BlowupData(w1, w2)  # checks the weights
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    claimed = {(1, 0, w1), (0, 1, w2)}
    expected = {vector for vector in claimed if sum(vector) <= degree_bound}
    return set(_invariant_hilbert_basis((w1, w2, -1), degree_bound)) == expected


def exceptional_selfintersection(data: BlowupData) -> GradedElement:
    """The class of E^2 pushed to the exceptional P(w1, w2) along the
    bundle projection: restricting the ideal sheaf of E to E gives O_E(1),
    so the normal bundle class is c1(O_E(-1)) = -t in A^1(P(w1, w2))."""
    return GradedElement.of(chow_ring(data.exceptional), -Poly.variable("t"), 1)


# -- the moduli assembly ---------------------------------------------------

MODULI_AMBIENT = WeightedProjectiveStack(tuple(coordinate_grading().values()))
MODULI_BLOWUP = BlowupData(4, 6)
# The restriction to the open moduli: the hyperplane class x goes to t and
# the boundary class y to 0.
MODULI_RESTRICTION = MappingProxyType({"x": "t", "y": 0})


def cusp_locus_class() -> GradedElement:
    """Class of the cuspidal locus {[s^2, s^3, 0]} in A*(P(2, 3, 4)).

    The locus is the image of the weight-1 line under s -> (s^2, s^3, 0),
    which uses the weight-2 and weight-3 coordinates and misses the
    weight-4 one: the pushforward is 2*3*(4t)*t = 24*t^2.
    """
    return line_image_class(MODULI_AMBIENT, used=(1, 2), remaining=(3,))


@lru_cache(maxsize=1)
def cusp_complement_chow() -> GradedPresentation:
    """A*(U) for U = P(2, 3, 4) minus the cuspidal point: Z[t]/(24 t^2)."""
    return chow_of_complement(MODULI_AMBIENT, [cusp_locus_class()])


def discriminant_hypersurface() -> HypersurfaceComplementInput:
    """The closure of the nodal locus, cut out by the discriminant."""
    grading = coordinate_grading()
    return HypersurfaceComplementInput(
        weights=tuple(grading.values()),
        variables=tuple(grading),
        polynomial=discriminant_polynomial(),
    )


def phi_degree2_images() -> dict[str, tuple[GradedElement, GradedElement]]:
    """Degree-2 images under (pushforward, restriction) of the total space.

    The split embedding sends a degree-2 class to a pair: its pushforward
    along the fibration to P(4, 6) (a degree-1 class) and its restriction
    to the cusp complement U (a degree-2 class).  On monomials in the
    pulled-back hyperplane class x and the exceptional class y:

    * x^2 -> (t, t^2): the pushforward of x^2 is the hyperplane class,
      via the mu_4-point comparison 6*c1(L)^2 |-> 6*t;
    * x*y -> (0, 0): the pullback of O(1) is trivial on the exceptional
      divisor, and y restricts to 0 on U;
    * y^2 -> (-t, 0): the self-intersection identity composed with the
      section (the fibration retracts the exceptional divisor).
    """
    exceptional_ring = chow_ring(MODULI_BLOWUP.exceptional)
    u_ring = cusp_complement_chow()
    t_e = GradedElement.of(exceptional_ring, "t", 1)
    zero_e = GradedElement.of(exceptional_ring, 0, 1)
    t2_u = GradedElement.of(u_ring, "t^2", 2)
    zero_u = GradedElement.of(u_ring, 0, 2)
    return {
        "x^2": (t_e, t2_u),
        "x*y": (zero_e, zero_u),
        "y^2": (exceptional_selfintersection(MODULI_BLOWUP), zero_u),
    }


def split_pieces(bound: int) -> list[AbelianGroupShape]:
    """A^(n-1)(P(4, 6)) + A^n(U) for n = 0, ..., bound.

    These are the graded pieces of the total space that the split
    localization sequence of the blow-up predicts.
    """
    exceptional_ring = chow_ring(MODULI_BLOWUP.exceptional)
    u_ring = cusp_complement_chow()
    return [
        (
            graded_piece(exceptional_ring, n - 1)
            if n >= 1
            else AbelianGroupShape.trivial()
        ).direct_sum(graded_piece(u_ring, n))
        for n in range(bound + 1)
    ]


def _require_xy(presentation: GradedPresentation) -> None:
    if presentation.generators != (("x", 1), ("y", 1)):
        raise ValueError(
            "assembly check expects generators x (pullback class) and "
            "y (exceptional class), both of degree 1"
        )


def unkilled_relations(presentation: GradedPresentation) -> list[Poly]:
    """Degree-2 relations whose split images do not both vanish.

    Each relation is mapped termwise by :func:`phi_degree2_images` into
    A^1(P(4, 6)) + A^2(U); a consistent presentation returns ``[]``.
    """
    _require_xy(presentation)
    exceptional_ring = chow_ring(MODULI_BLOWUP.exceptional)
    u_ring = cusp_complement_chow()
    images = phi_degree2_images()
    grading = presentation.grading
    survivors = []
    for relation in presentation.relations:
        if relation.is_zero or weighted_degree(relation, grading) != 2:
            continue
        e_image = GradedElement.of(exceptional_ring, 0, 1)
        u_image = GradedElement.of(u_ring, 0, 2)
        for monomial, coefficient in relation.terms():
            e_part, u_part = images[monomial.render()]
            e_image = e_image + int(coefficient) * e_part
            u_image = u_image + int(coefficient) * u_part
        if not (is_zero(e_image) and is_zero(u_image)):
            survivors.append(relation)
    return survivors


def check_split_assembly(presentation: GradedPresentation) -> None:
    """Check a candidate total-space presentation in every degree, raising
    :class:`AssemblyMismatchError` on a mismatch.

    The candidate must have x*y in its ideal.  Then its pieces above its
    largest relation degree D equal the piece in degree D + 1, and each
    side of the split decomposition is a one-generator ring whose pieces
    are constant from its largest relation degree on: both are argued in
    :func:`wpchow.graded.graded_piece`.  Comparing the pieces with
    :func:`split_pieces` for n <= 1 + the largest relation degree of the
    three presentations therefore compares them in every degree, and
    never reaches the degree that ``graded_piece`` clamps to.  Equal
    pieces do not make the split images kill the relations, so
    :func:`unkilled_relations` must then be empty as well.
    """
    _require_xy(presentation)
    if not is_zero(GradedElement.of(presentation, "x*y")):
        raise AssemblyMismatchError(f"x*y is not in the ideal of {presentation}")
    rings = (presentation, chow_ring(MODULI_BLOWUP.exceptional), cusp_complement_chow())
    top = max(weighted_degree(r, ring.grading) for ring in rings for r in ring.relations if r)
    for n, expected in enumerate(split_pieces(top + 1)):
        if (actual := graded_piece(presentation, n)) != expected:
            raise AssemblyMismatchError(
                f"degree {n}: presentation gives {actual}, split decomposition gives {expected}"
            )
    survivors = unkilled_relations(presentation)
    if survivors:
        raise AssemblyMismatchError(
            f"relation {survivors[0]} does not vanish under the split images"
        )


def m12bar_chow(bound: int = 8) -> GradedPresentation:
    """Chow ring of the compactified 2-pointed moduli: Z[x,y]/(xy, 24x^2+24y^2).

    x is the pullback of O(1) from P(2, 3, 4), y the exceptional class.
    :func:`check_split_assembly` proves that the pieces equal those of the
    split decomposition A^(n-1)(P(4, 6)) + A^n(U) in every degree, and
    that the split images kill both relations; a mismatch raises
    :class:`AssemblyMismatchError` and would signal a bug, never an
    expected outcome.  So ``bound`` is unused; it stays because the
    benchmark worker (``perfbench/worker.py``) passes it.
    """
    torsion = prod(MODULI_BLOWUP.exceptional.weights)
    presentation = GradedPresentation.make(
        [("x", 1), ("y", 1)],
        ["x*y", f"{torsion}*x^2 + {torsion}*y^2"],
    )
    check_split_assembly(presentation)
    return presentation


def m12_open_chow(bound: int = 8) -> GradedPresentation:
    """Chow ring of the open 2-pointed moduli, Z[t]/(12 t).

    Starts from A*(U) = Z[t]/(24 t^2) and kills the classes supported on
    the nodal fiber: the curve class d*t, where d = 12 is the order of
    the Picard group of the discriminant complement, and the class 12*t^2
    of each of the two mu_2-fixed points.  The result is checked against
    Z[t]/(d t) with :func:`same_ideal`, in every degree, so ``bound`` is
    unused; it stays because the benchmark worker (``perfbench/worker.py``)
    passes it.
    """
    u_ring = cusp_complement_chow()
    degree = pic_complement(discriminant_hypersurface()).character_weight
    t = Poly.variable("t")
    curve_class = GradedElement.of(u_ring, degree * t, 1)
    point = point_class(MODULI_AMBIENT, 1)
    point_in_u = GradedElement.of(u_ring, point.value, 2)
    presentation = quotient(u_ring, [curve_class, point_in_u, point_in_u])
    target = GradedPresentation.make([("t", 1)], [degree * t])
    if not same_ideal(presentation, target):
        raise AssemblyMismatchError(
            f"open-moduli quotient {presentation} does not present Z[t]/({degree}*t)"
        )
    return presentation
