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
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from ._record import frozen_record
from .intlinalg import AbelianGroupShape, cokernel, solve_integer
from .poly import (
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
            if not isinstance(degree, int) or degree < 1:
                raise ValueError(f"generator {name!r} must have a positive integer degree")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        grading = self.grading
        names = sorted(seen)
        layout = []
        for relation in self.relations:
            if not isinstance(relation, Poly):
                raise TypeError("relations must be Poly instances")
            if not set(relation.variables) <= seen:
                extra = sorted(set(relation.variables) - seen)
                raise ValueError(f"relation uses unknown generators {extra}")
            if not relation.has_integer_coefficients():
                raise ValueError(f"relation {relation} must have integer coefficients")
            if not relation.is_zero:
                degree = weighted_degree(relation, grading)  # raises InhomogeneousError
                terms = relation.terms()
                layout.append((degree, tuple((_exponents(m, names), int(c)) for m, c in terms)))
        degrees = tuple(grading[name] for name in names)
        object.__setattr__(self, "_layout", (tuple(names), degrees, tuple(layout)))

    @classmethod
    def make(
        cls,
        generators: Iterable[tuple[str, int]],
        relations: Iterable[Union[Poly, str]] = (),
    ) -> "GradedPresentation":
        return cls(
            tuple((str(n), int(d)) for n, d in generators),
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
        generators = tuple((g["name"], int(g["degree"])) for g in data["generators"])
        relations = tuple(parse_poly(text) for text in data["relations"])
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


def _packed_vectors(degrees: Sequence[int], powers: Sequence[int], degree: int) -> list[int]:
    """The vectors of :func:`_exponent_vectors`, in its order, each packed
    as sum(e_i * powers[i])."""
    if not degrees or degree < 0:
        return [0] if degree == 0 else []
    partial = [(0, degree)]
    for d, power in zip(degrees[:-1], powers):
        partial = [
            (key + exp * power, rest - exp * d)
            for key, rest in partial
            for exp in range(rest // d, -1, -1)
        ]
    last, power = degrees[-1], powers[-1]
    return [key + rest // last * power for key, rest in partial if rest % last == 0]


def _relation_rows(
    presentation: GradedPresentation, degree: int
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Degree-``degree`` exponent basis and the relation lattice rows on it.

    The lattice is spanned by all products m * r with r a relation and m a
    monomial such that deg(m * r) == degree.  Exponent vectors follow the
    sorted generator names, in the order of :func:`monomials_of_degree`.
    No exponent exceeds ``degree``, so packing a vector e as
    sum(e_i * B^i) with B = degree + 1 turns multiplying by m into adding
    its key: each row is a few index lookups, not a ``Poly`` product.  The
    multipliers m are enumerated as keys directly, once per relation
    degree.
    """
    names, degrees, relations = presentation._layout
    powers = [(degree + 1) ** i for i in range(len(names))]
    basis = _exponent_vectors(degrees, degree)
    index = {key: i for i, key in enumerate(_packed_vectors(degrees, powers, degree))}
    shifts: dict[int, list[int]] = {}
    rows: list[list[int]] = []
    for rel_degree, terms in relations:
        if rel_degree > degree:
            continue
        if rel_degree not in shifts:
            shifts[rel_degree] = _packed_vectors(degrees, powers, degree - rel_degree)
        packed = [(sum(map(mul, vector, powers)), coeff) for vector, coeff in terms]
        for shift in shifts[rel_degree]:
            row = [0] * len(basis)
            for key, coeff in packed:
                row[index[shift + key]] = coeff
            rows.append(row)
    return basis, rows


def _exponents(mono: Monomial, names: Sequence[str]) -> tuple[int, ...]:
    powers = dict(mono.exponents)
    return tuple(powers.get(name, 0) for name in names)


@lru_cache(maxsize=256)
def _graded_piece_cached(presentation: GradedPresentation, degree: int) -> AbelianGroupShape:
    basis, rows = _relation_rows(presentation, degree)
    return cokernel(rows, len(basis))


def graded_piece(presentation: GradedPresentation, degree: int) -> AbelianGroupShape:
    """The degree-``degree`` component as an abelian group shape."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
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
    basis, rows = _relation_rows(element.ambient, element.degree)
    names = element.ambient._layout[0]
    index = {exponents: i for i, exponents in enumerate(basis)}
    vector = [0] * len(basis)
    for mono, coeff in element.value.terms():
        vector[index[_exponents(mono, names)]] = int(coeff)
    if not rows:
        return not any(vector)
    return solve_integer(rows, vector) is not None


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
