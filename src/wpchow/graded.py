"""Finitely presented graded Z-algebras and their degreewise structure.

A :class:`GradedPresentation` is a polynomial ring over Z on generators of
positive degree, modulo homogeneous relations with integer coefficients.
Because every generator has degree >= 1, each graded piece is a finitely
generated abelian group presented by an integer relation lattice, so all
degreewise questions reduce to integer linear algebra on the relation
rows: invariant factors for group shapes, Hermite normal form for
membership.  No Groebner machinery is needed.

Ring equality needs no degree bound either: :func:`same_ideal` runs
:func:`hom_check` on the identity map both ways, which proves each
relation ideal contains the other, so the rings agree in every degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from ._record import field, frozen_record
from .intlinalg import AbelianGroupShape, _solve_sparse, _sparse_cokernel
from .poly import (
    _IDENTIFIER,
    InhomogeneousError,
    Monomial,
    Poly,
    parse_poly,
    substitute,
    weighted_degree,
)

__all__ = [
    "DegreeMismatchError",
    "GradedElement",
    "GradedPresentation",
    "graded_piece",
    "hom_check",
    "is_zero",
    "monomials_of_degree",
    "quotient",
    "same_ideal",
]


class DegreeMismatchError(ValueError):
    """An element was used in a degree it does not have."""


def _coerce_relation(value: Union[Poly, str]) -> Poly:
    return parse_poly(value) if isinstance(value, str) else value


@frozen_record
class GradedPresentation:
    """Generators with positive degrees plus homogeneous integer relations.

    Validation also leaves the layout that every relation matrix is built
    from: the sorted generator names and degrees, and for each nonzero
    relation its weighted degree and its terms as (exponent vector over
    the sorted names, integer coefficient).
    """

    generators: tuple[tuple[str, int], ...]
    relations: tuple[Poly, ...] = ()

    def __post_init__(self):
        seen = set()
        for name, degree in self.generators:
            if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
                raise ValueError(f"generator name {name!r} is not an identifier")
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
                raise ValueError(f"generator {name!r} must have a positive integer degree")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        grading = self.grading
        names = sorted(seen)
        slots = {name: (i, grading[name]) for i, name in enumerate(names)}
        layout = []
        for relation in self.relations:
            if not isinstance(relation, Poly):
                raise TypeError("relations must be Poly instances")
            # One pass over the terms; the refusals then come in a fixed
            # order: unknown generators, then fractions, then inhomogeneity.
            unknown = set()
            integral = True
            degrees = set()
            terms = []
            for mono, coeff in relation.terms():
                vector = [0] * len(names)
                degree = 0
                for name, exp in mono.exponents:
                    slot = slots.get(name)
                    if slot is None:
                        unknown.add(name)
                    else:
                        vector[slot[0]] = exp
                        degree += exp * slot[1]
                numerator, denominator = coeff.as_integer_ratio()
                integral = integral and denominator == 1
                degrees.add(degree)
                terms.append((tuple(vector), numerator))
            if unknown:
                raise ValueError(f"relation uses unknown generators {sorted(unknown)}")
            if not integral:
                raise ValueError(f"relation {relation} must have integer coefficients")
            if len(degrees) > 1:
                raise InhomogeneousError(degrees)
            if terms:
                layout.append((degrees.pop(), tuple(terms)))
        degrees = tuple(grading[name] for name in names)
        object.__setattr__(self, "_layout", (tuple(names), degrees, tuple(layout)))

    @classmethod
    def make(
        cls,
        generators: Iterable[tuple[str, int]],
        relations: Iterable[Union[Poly, str]] = (),
    ) -> "GradedPresentation":
        return cls(
            tuple((n, d) for n, d in generators),
            tuple(_coerce_relation(r) for r in relations),
        )

    @property
    def grading(self) -> dict[str, int]:
        return dict(self.generators)

    def render(self) -> str:
        gens = ", ".join(name for name, _ in self.generators)
        if not self.relations:
            return f"Z[{gens}]"
        rels = ", ".join(r.render() for r in self.relations)
        return f"Z[{gens}]/({rels})"

    def __str__(self) -> str:
        return self.render()

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "relations": [r.render() for r in self.relations],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GradedPresentation":
        generators = tuple(
            (field(g, "name"), field(g, "degree")) for g in field(data, "generators")
        )
        relations = tuple(parse_poly(text) for text in field(data, "relations"))
        return cls(generators, relations)


def monomials_of_degree(
    generators: Sequence[tuple[str, int]], degree: int
) -> list[Monomial]:
    """All monomials of the given degree, in descending graded-lex order.

    Generator degrees are >= 1, so the list is finite.  The ordering (and
    hence every relation matrix built on it) is reproducible: variables are
    taken in sorted name order and earlier variables carry higher exponents
    first.
    """
    if degree < 0:
        return []
    gens = sorted(generators)
    names = [name for name, _ in gens]
    return [
        Monomial.of(dict(zip(names, vector)))
        for vector in _exponent_vectors([d for _, d in gens], degree)
    ]


def _exponent_vectors(degrees: Sequence[int], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given weighted degree, earlier entries
    larger first (the order of :func:`monomials_of_degree`)."""
    if not degrees or degree < 0:
        return [()] if degree == 0 else []
    partial = [((), degree)]
    for d in degrees[:-1]:
        partial = [
            (prefix + (exp,), rest - exp * d)
            for prefix, rest in partial
            for exp in range(rest // d, -1, -1)
        ]
    last = degrees[-1]
    return [prefix + (rest // last,) for prefix, rest in partial if rest % last == 0]


@lru_cache(maxsize=128)
def _basis(
    degrees: tuple[int, ...], degree: int
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int], tuple[int, ...]]:
    """The degree-``degree`` exponent basis over generators of the given
    degrees, its packed index and the packing powers.

    A vector e is packed as sum(e_i * B^i) with B = degree + 1, so the
    target degree is part of every key.  Nothing here depends on the
    relations or the generator names: presentations that share their
    sorted generator degrees share the result, which callers only read.
    """
    powers = tuple((degree + 1) ** i for i in range(len(degrees)))
    basis = tuple(_exponent_vectors(degrees, degree))
    index = {sum(map(mul, vector, powers)): i for i, vector in enumerate(basis)}
    return basis, index, powers


@lru_cache(maxsize=512)
def _shifts(degrees: tuple[int, ...], degree: int, rel_degree: int) -> tuple[int, ...]:
    """Packed keys, in the packing of :func:`_basis` for ``degree``, of the
    multipliers that lift a relation of degree ``rel_degree`` to ``degree``."""
    powers = _basis(degrees, degree)[2]
    vectors = _exponent_vectors(degrees, degree - rel_degree)
    return tuple(sum(map(mul, vector, powers)) for vector in vectors)


def _lifts(
    presentation: GradedPresentation, degree: int
) -> Iterator[tuple[list[tuple[int, int]], tuple[int, ...]]]:
    """Each relation of degree <= ``degree``: its terms as (packed key,
    coefficient) pairs, and the packed keys of the monomials m with
    deg(m * r) == degree.

    The degree-``degree`` relation lattice is spanned by these products
    m * r, one row each.  No exponent exceeds ``degree``, so packing a
    vector as in :func:`_basis` turns multiplying by m into adding its
    key: the row of m * r holds each coefficient in column
    ``index[shift + key]``, with ``shift`` the key of m and ``index`` the
    packed index of :func:`_basis`.  Each entry is one index lookup, not
    a ``Poly`` product, and each coefficient is the layout's ``int``.
    """
    _, degrees, relations = presentation._layout
    powers = _basis(degrees, degree)[2]
    for rel_degree, terms in relations:
        if rel_degree <= degree:
            packed = [(sum(map(mul, vector, powers)), coeff) for vector, coeff in terms]
            yield packed, _shifts(degrees, degree, rel_degree)


def _relation_rows(
    presentation: GradedPresentation, degree: int
) -> tuple[list[tuple[int, ...]], list[dict[int, int]]]:
    """Degree-``degree`` exponent basis and the relation lattice rows on
    it, one ``{column: value}`` row per product of :func:`_lifts`.

    Exponent vectors follow the sorted generator names, in the order of
    :func:`monomials_of_degree`.  The basis, its index and the
    multipliers' keys depend only on the sorted generator degrees and the
    two degrees, so they come from caches shared by every presentation;
    the basis is handed out as a fresh list.
    """
    basis, index, _ = _basis(presentation._layout[1], degree)
    rows = [
        {index[shift + key]: coeff for key, coeff in packed}
        for packed, shifts in _lifts(presentation, degree)
        for shift in shifts
    ]
    return list(basis), rows


@lru_cache(maxsize=256)
def _graded_piece_cached(presentation: GradedPresentation, degree: int) -> AbelianGroupShape:
    basis, rows = _relation_rows(presentation, degree)
    return _sparse_cokernel(rows, len(basis))


# The layout terms of the relations u*v and -u*v on two generators.
_UNIT_PRODUCTS = frozenset({(((1, 1), 1),), (((1, 1), -1),)})


def graded_piece(presentation: GradedPresentation, degree: int) -> AbelianGroupShape:
    """The degree-``degree`` component as an abelian group shape.

    Two shapes of presentation are answered by rule:

    * One generator t of degree w, relations c_i*t^(k_i): the piece is 0
      unless w divides ``degree``, and else Z/gcd{c_i : w*k_i <= degree},
      which is Z when no relation qualifies.  Cost: O(relations) at any
      degree, with no matrix.
    * Two generators u, v of degree 1 with u*v or -u*v among the
      relations.  Modulo u*v, which kills every mixed monomial of degree
      n >= 2, a relation of degree d_i reads a_i*u^(d_i) + b_i*v^(d_i),
      and the piece of degree n is Z^2 on {u^n, v^n} modulo (a_i, b_i) if
      d_i = n, and (a_i, 0) and (0, b_i), through u^(n-d_i) and
      v^(n-d_i), if d_i < n.  So every piece above the largest relation
      degree D equals the piece in degree D + 1, and the degree is
      clamped to D + 1 first.  Cost: the relation lattice up to degree
      D + 1 only.

    Any other presentation eliminates the relation lattice of the degree
    itself, at a cost of about the cube of the degree.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    _, degrees, relations = presentation._layout
    if len(degrees) == 1:
        if degree % degrees[0]:
            return AbelianGroupShape.trivial()
        order = gcd(*(terms[0][1] for rel_degree, terms in relations if rel_degree <= degree))
        return AbelianGroupShape.cyclic(order)
    if degrees == (1, 1) and any(terms in _UNIT_PRODUCTS for _, terms in relations):
        degree = min(degree, 1 + max(rel_degree for rel_degree, _ in relations))
    return _graded_piece_cached(presentation, degree)


@frozen_record
class GradedElement:
    """Homogeneous integer-coefficient element of a graded presentation."""

    ambient: GradedPresentation
    value: Poly
    degree: int

    def __post_init__(self):
        if not set(self.value.variables) <= {n for n, _ in self.ambient.generators}:
            raise ValueError("element uses variables outside the ambient generators")
        if not self.value.has_integer_coefficients():
            raise ValueError("graded elements must have integer coefficients")
        if not self.value.is_zero:
            actual = weighted_degree(self.value, self.ambient.grading)
            if actual != self.degree:
                raise DegreeMismatchError(
                    f"element {self.value} has degree {actual}, not {self.degree}"
                )

    @classmethod
    def of(
        cls,
        ambient: GradedPresentation,
        value: Union[Poly, str, int, Fraction],
        degree: Optional[int] = None,
    ) -> "GradedElement":
        if isinstance(value, str):
            value = parse_poly(value)
        elif isinstance(value, (int, Fraction)):
            value = Poly.constant(value)
        if degree is None:
            if value.is_zero:
                raise ValueError("the zero element needs an explicit degree")
            degree = weighted_degree(value, ambient.grading)
        return cls(ambient, value, degree)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        if other.ambient != self.ambient:
            raise ValueError("elements live in different presentations")
        if other.degree != self.degree:
            raise DegreeMismatchError("cannot add elements of different degrees")
        return GradedElement(self.ambient, self.value + other.value, self.degree)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.ambient, -self.value, self.degree)

    def __mul__(self, other) -> "GradedElement":
        if isinstance(other, GradedElement):
            if other.ambient != self.ambient:
                raise ValueError("elements live in different presentations")
            return GradedElement(
                self.ambient, self.value * other.value, self.degree + other.degree
            )
        if isinstance(other, int):
            return GradedElement(self.ambient, self.value * other, self.degree)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self.value.render()


def is_zero(element: GradedElement) -> bool:
    """True iff the element lies in the relation lattice of its degree."""
    if element.value.is_zero:
        return True
    names, degrees, _ = element.ambient._layout
    _, index, powers = _basis(degrees, element.degree)
    power = dict(zip(names, powers))
    vector = [0] * len(index)
    for mono, coeff in element.value.terms():
        key = sum(exp * power[name] for name, exp in mono.exponents)
        vector[index[key]] = int(coeff)
    rows = _relation_rows(element.ambient, element.degree)[1]
    return _solve_sparse(rows, vector) is not None


def quotient(
    presentation: GradedPresentation,
    extra: Iterable[Union[GradedElement, Poly, str]],
) -> GradedPresentation:
    """Presentation with the extra homogeneous classes added as relations.

    Models the right-exact localization sequence: killing the classes of a
    closed substack presents the Chow ring of the open complement.
    """
    relations = list(presentation.relations)
    for item in extra:
        if isinstance(item, GradedElement):
            if item.ambient != presentation:
                raise ValueError("extra element lives in a different presentation")
            relations.append(item.value)
        else:
            poly = _coerce_relation(item)
            # validate via GradedElement (homogeneity, integrality, variables)
            if not poly.is_zero:
                GradedElement.of(presentation, poly)
            relations.append(poly)
    return GradedPresentation(presentation.generators, tuple(relations))


def _coerce_image(
    target: GradedPresentation,
    value: Union[GradedElement, Poly, str, int, Fraction],
    expected_degree: int,
    generator: str,
) -> GradedElement:
    if isinstance(value, GradedElement):
        if value.ambient != target:
            raise ValueError(f"image of {generator!r} lives in the wrong presentation")
        if value.degree != expected_degree:
            raise DegreeMismatchError(
                f"image of {generator!r} has degree {value.degree}, expected {expected_degree}"
            )
        return value
    return GradedElement.of(target, value, expected_degree)


def hom_check(
    source: GradedPresentation,
    target: GradedPresentation,
    images: Mapping[str, Union[GradedElement, Poly, str, int, Fraction]],
) -> bool:
    """Check that generator images define a graded ring homomorphism.

    Every generator of ``source`` must be assigned an image in ``target``
    of the same degree (wrong degrees raise :class:`DegreeMismatchError`).
    Returns True iff every relation of ``source`` maps to zero in
    ``target``.
    """
    mapping: dict[str, Poly] = {}
    for name, degree in source.generators:
        if name not in images:
            raise ValueError(f"no image supplied for generator {name!r}")
        element = _coerce_image(target, images[name], degree, name)
        mapping[name] = element.value
    grading = source.grading
    for relation in source.relations:
        if relation.is_zero:
            continue
        degree = weighted_degree(relation, grading)
        image = substitute(relation, mapping)
        if not is_zero(GradedElement(target, image, degree)):
            return False
    return True


def same_ideal(first: GradedPresentation, second: GradedPresentation) -> bool:
    """True iff the two presentations have the same relation ideal.

    Both must have the same generators with the same degrees (else
    ``ValueError``).  The identity map is a ring homomorphism from one to
    the other iff each of its relations lies in the other's ideal, so
    :func:`hom_check` both ways proves the rings equal in every degree.
    """
    if first.grading != second.grading:
        raise ValueError(
            f"presentations on different generators: {first.generators} "
            f"and {second.generators}"
        )
    identity = {name: Poly.variable(name) for name, _ in first.generators}
    return hom_check(first, second, identity) and hom_check(second, first, identity)
