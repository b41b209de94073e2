"""Machine-readable verification report over the full identity suite.

Each identity is one entry of the table ``_IDENTITIES``: id, description,
paper anchor, expected value and a function computing the actual value,
so adding an identity means adding one entry.  Expected values are
recorded, except the split decomposition ``m12bar-assembly`` compares
with.  :func:`build_report` runs the table; an item passes iff its
expected and actual strings match bit-exactly, and fails with the error
text as actual if computing it raises :class:`AssemblyMismatchError`.
Values that several entries read come from one :class:`SharedValues` per
run, computed on first use, so importing the table computes nothing;
``wpchow blowup 4 6`` prints its moduli section from the same values.

The ``self_test`` mode corrupts one relation coefficient (24 -> 23) in
the compactified-moduli presentation before running the assembly item;
it must produce at least one failure, guarding the suite against
vacuous passes.  All numeric content is carried as strings so that
JSON consumers cannot lose precision.
"""

from __future__ import annotations

from functools import cached_property
from operator import index
from typing import Callable, Mapping, Union

from ._record import field, frozen_record
from .blowup import (
    MODULI_AMBIENT,
    MODULI_BLOWUP,
    MODULI_RESTRICTION,
    AssemblyMismatchError,
    cusp_complement_chow,
    cusp_locus_class,
    discriminant_hypersurface,
    exceptional_selfintersection,
    invariant_ring_check,
    m12_open_chow,
    m12bar_chow,
    phi_degree2_images,
    split_pieces,
    unkilled_relations,
)
from .curves import (
    IntermediateCoeffs,
    ShortWeierstrass,
    coordinate_grading,
    discriminant,
    discriminant_polynomial,
    fiber_curve,
    j_invariant,
    mu2_fixed_points,
    short_weierstrass_coeffs,
    weierstrass_substitution_residual,
)
from .graded import GradedPresentation, graded_piece, hom_check
from .poly import weighted_degree
from .version import __version__
from .wps import chow_of_complement, chow_ring, pic_complement, point_class

__all__ = ["ReportItem", "VerificationReport", "build_report"]

REPORT_SCHEMA = 1


@frozen_record
class ReportItem:
    id: str
    description: str
    status: str
    expected: str
    actual: str
    paper_anchor: str


_ITEM_FIELDS = tuple(ReportItem.__annotations__)


def _item_from_json(entry: Mapping) -> ReportItem:
    """One item of a report's JSON form: six strings, the status ``pass``
    or ``fail``, so that the report can count and render it."""
    values = [field(entry, name) for name in _ITEM_FIELDS]
    for name, value in zip(_ITEM_FIELDS, values):
        if not isinstance(value, str):
            raise TypeError(f"field {name!r} must be a string, not {type(value).__name__}")
    item = ReportItem(*values)
    if item.status not in ("pass", "fail"):
        raise ValueError(f"status {item.status!r} is neither 'pass' nor 'fail'")
    return item


@frozen_record
class VerificationReport:
    schema: int
    version: str
    bound: int
    items: tuple[ReportItem, ...]

    @property
    def passed(self) -> int:
        return sum(1 for item in self.items if item.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for item in self.items if item.status == "fail")

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
            "bound": self.bound,
            "items": [
                {name: getattr(item, name) for name in _ITEM_FIELDS}
                for item in self.items
            ],
            "summary": {"pass": self.passed, "fail": self.failed},
        }

    def render_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "VerificationReport":
        items = tuple(_item_from_json(entry) for entry in field(data, "items"))
        report = cls(
            schema=index(field(data, "schema")),
            version=field(data, "version"),
            bound=index(field(data, "bound")),
            items=items,
        )
        summary = data.get("summary")
        if summary is not None and (
            index(field(summary, "pass")) != report.passed
            or index(field(summary, "fail")) != report.failed
        ):
            raise ValueError("summary counts are inconsistent with the items")
        return report

    @classmethod
    def parse_json(cls, text: str) -> "VerificationReport":
        import json

        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("report JSON is nested too deeply") from None
        return cls.from_json_dict(data)

    def render_text(self) -> str:
        lines = [
            f"verification report (schema {self.schema}, toolkit {self.version}, "
            f"degree bound {self.bound})"
        ]
        width = max((len(item.id) for item in self.items), default=0)
        for item in self.items:
            lines.append(
                f"{item.status.upper():4} {item.id:<{width}}  {item.description}"
            )
            lines.append(f"     {'':<{width}}  checks: {item.paper_anchor}")
            if item.status == "fail":
                lines.append(f"     {'':<{width}}  expected: {item.expected}")
                lines.append(f"     {'':<{width}}  actual:   {item.actual}")
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)


class SharedValues:
    """The values that several identities read, for one run at ``bound``.

    Each is computed on first use and kept for the run.  Library functions
    are looked up as module globals at that point, so a caller may replace
    them after import.
    """

    def __init__(self, bound: int, self_test: bool = False):
        self.bound = bound
        self.self_test = self_test

    ring234 = cached_property(lambda self: chow_ring(MODULI_AMBIENT))
    ring46 = cached_property(lambda self: chow_ring(MODULI_BLOWUP.exceptional))
    mu2_point = cached_property(lambda self: point_class(MODULI_AMBIENT, 1))
    m12open = cached_property(lambda self: m12_open_chow())
    pic = cached_property(lambda self: pic_complement(discriminant_hypersurface()))
    phi_images = cached_property(lambda self: phi_degree2_images())
    restriction_holds = cached_property(
        lambda self: hom_check(self.m12bar, self.m12open, MODULI_RESTRICTION)
    )

    @cached_property
    def _m12bar_outcome(self) -> Union[GradedPresentation, AssemblyMismatchError]:
        try:
            return m12bar_chow()
        except AssemblyMismatchError as exc:
            return exc

    @property
    def m12bar(self) -> GradedPresentation:
        """``m12bar_chow()``.  A failed assembly is kept as well and
        raised to every reader: ``cached_property`` keeps nothing when its
        getter raises."""
        outcome = self._m12bar_outcome
        if isinstance(outcome, AssemblyMismatchError):
            raise outcome
        return outcome

    def verified_restriction(self) -> Mapping:
        """``MODULI_RESTRICTION``, raising :class:`AssemblyMismatchError`
        unless it respects the relations."""
        if not self.restriction_holds:
            raise AssemblyMismatchError("restriction images do not kill the relations")
        return MODULI_RESTRICTION


@frozen_record
class _Identity:
    """One table entry.

    ``description`` is formatted with the run's ``bound`` and ``note`` (the
    self-test marker).  ``expected`` is a string or a function of the run's
    :class:`SharedValues`; ``actual`` is such a function, and its value is
    compared as a string, a bool as ``true`` or ``false``.
    """

    id: str
    description: str
    anchor: str
    expected: Union[str, Callable[[SharedValues], str]]
    actual: Callable[[SharedValues], object]


def _pieces(presentation: GradedPresentation, bound: int) -> str:
    return "; ".join(str(graded_piece(presentation, n)) for n in range(bound + 1))


def _piece_identity(item_id, description, anchor, expected, ring) -> _Identity:
    """An identity between ``expected`` and the graded pieces of
    ``ring(v)`` in degrees 0 to the run's bound."""
    return _Identity(item_id, description, anchor, expected, lambda v: _pieces(ring(v), v.bound))


def _recorded_pieces(*head: str, stable: str) -> Callable[[SharedValues], str]:
    """The recorded pattern: the pieces ``head``, then ``stable`` in every
    higher degree up to the run's bound."""
    return lambda v: "; ".join([*head] + [stable] * (v.bound + 1 - len(head)))


def _phi_identity(monomial: str, expected: str) -> _Identity:
    return _Identity(
        f"phi-{monomial.replace('^', '').replace('*', '')}",
        f"split image of {monomial} in A*(P(4,6)) + A*(U)",
        "degree-2 split images: x^2 -> (t, t^2), x*y -> (0, 0), y^2 -> (-t, 0)",
        expected,
        lambda v: "({}, {})".format(*(part.value.render() for part in v.phi_images[monomial])),
    )


def _fixed_point_string(short: ShortWeierstrass) -> str:
    parts = []
    for point in mu2_fixed_points(short):
        coords = ", ".join(str(c) for c in point.coords)
        parts.append(f"[{coords}] (mult {point.multiplicity})")
    return "; ".join(parts)


_IDENTITIES = (
    _Identity(
        "chow-ring-234", "Chow ring presentation of P(2,3,4)",
        "A*(P(a1,...,an)) = Z[t]/((a1*...*an)*t^n); here 2*3*4 = 24, n = 3",
        "Z[t]/(24*t^3)", lambda v: v.ring234.render(),
    ),
    _piece_identity(
        "chow-pieces-234", "graded pieces of A*(P(2,3,4)) for n <= {bound}",
        "pieces are Z below degree 3 and Z/24 from degree 3 on",
        _recorded_pieces("Z", "Z", "Z", stable="Z/24"), lambda v: v.ring234,
    ),
    _Identity(
        "chow-ring-46", "Chow ring presentation of P(4,6)",
        "A*(P(4,6)) = Z[t]/(24*t^2)",
        "Z[t]/(24*t^2)", lambda v: v.ring46.render(),
    ),
    _piece_identity(
        "chow-pieces-46", "graded pieces of A*(P(4,6)) for n <= {bound}",
        "pieces are Z, Z, then Z/24 in every higher degree",
        _recorded_pieces("Z", "Z", stable="Z/24"), lambda v: v.ring46,
    ),
    _Identity(
        "cusp-class", "class of the cuspidal locus {{[s^2,s^3,0]}} in A*(P(2,3,4))",
        "pushforward of the seminormalized cuspidal line is 2*3*(4t)*t = 24*t^2",
        "24*t^2", lambda v: cusp_locus_class().value.render(),
    ),
    _piece_identity(
        "cusp-complement",
        "A*(U) for U the cusp complement, degreewise vs Z[t]/(24*t^2), n <= {bound}",
        "A*(U) = Z[t]/(24*t^2)",
        _recorded_pieces("Z", "Z", stable="Z/24"), lambda v: cusp_complement_chow(),
    ),
    _Identity(
        "point-class-46-mu4", "class of the mu_4 coordinate point of P(4,6)",
        "the weight-4 point pushes forward to c1(O(6)) = 6*t",
        "6*t", lambda v: point_class(MODULI_BLOWUP.exceptional, 1).value.render(),
    ),
    _Identity(
        "point-class-46-mu6", "class of the mu_6 coordinate point of P(4,6)",
        "the weight-6 point pushes forward to c1(O(4)) = 4*t",
        "4*t", lambda v: point_class(MODULI_BLOWUP.exceptional, 2).value.render(),
    ),
    _Identity(
        "point-class-234-mu2", "class of a mu_2 point of P(2,3,4)",
        "each mu_2 point pushes forward to 3*4*t^2 = 12*t^2",
        "12*t^2", lambda v: v.mu2_point.value.render(),
    ),
    _piece_identity(
        "two-point-complement",
        "A*(P(2,3,4) minus two mu_2 points) vs Z[t]/(12*t^2), n <= {bound}",
        "A*(V) = Z[t]/(12*t^2) after removing both mu_2 points of the nodal fiber",
        _recorded_pieces("Z", "Z", stable="Z/12"),
        lambda v: chow_of_complement(MODULI_AMBIENT, [v.mu2_point] * 2),
    ),
    _Identity(
        "m12bar-ring", "presentation of the compactified 2-pointed moduli Chow ring",
        "A* of the compactified moduli is Z[x,y]/(x*y, 24*x^2 + 24*y^2)",
        "Z[x, y]/(x*y, 24*x^2 + 24*y^2)", lambda v: v.m12bar.render(),
    ),
    _piece_identity(
        "m12bar-assembly", "pieces equal A^(n-1)(P(4,6)) + A^n(U) for n <= {bound}{note}",
        "the localization sequence of the blow-up splits degreewise",
        lambda v: "; ".join(str(piece) for piece in split_pieces(v.bound)),
        lambda v: (
            GradedPresentation.make([("x", 1), ("y", 1)], ["x*y", "23*x^2 + 24*y^2"])
            if v.self_test
            else v.m12bar
        ),
    ),
    _piece_identity(
        "m12bar-pieces", "graded pieces of the compactified moduli ring for n <= {bound}",
        "pieces are Z; Z^2; Z x Z/24; then Z/24 x Z/24 stably",
        _recorded_pieces("Z", "Z^2", "Z x Z/24", stable="Z/24 x Z/24"),
        lambda v: v.m12bar,
    ),
    _Identity(
        "exceptional-square", "pushforward of the exceptional self-intersection",
        "E^2 pushes to c1(O_E(-1)) = -t on the exceptional P(4,6)",
        "-t", lambda v: exceptional_selfintersection(MODULI_BLOWUP).value.render(),
    ),
    _phi_identity("x^2", "(t, t^2)"),
    _phi_identity("x*y", "(0, 0)"),
    _phi_identity("y^2", "(-t, 0)"),
    _Identity(
        "phi-kills-relations", "both presented relations die componentwise under the split images",
        "x*y and 24*x^2 + 24*y^2 map to zero in A*(P(4,6)) + A*(U)",
        "true", lambda v: not unkilled_relations(v.m12bar),
    ),
    _Identity(
        "m12-open-inputs", "classes quotiented out of A*(U) to reach the open moduli",
        "the nodal curve class is 12*t and each mu_2 point contributes 12*t^2",
        "12*t; 12*t^2",
        lambda v: f"{v.pic.character_weight}*t; {v.mu2_point.value.render()}",
    ),
    _piece_identity(
        "m12-open-ring", "open-moduli ring degreewise vs Z[t]/(12*t), n <= {bound}",
        "A* of the open 2-pointed moduli is Z[t]/(12*t)",
        _recorded_pieces("Z", stable="Z/12"), lambda v: v.m12open,
    ),
    _Identity(
        "m12-open-degree-1", "degree-1 piece of the open moduli ring",
        "the degree-1 piece has order exactly 12 (neither 6 nor 24)",
        "Z/12", lambda v: graded_piece(v.m12open, 1),
    ),
    _Identity(
        "restriction-hom", "restriction map x -> t, y -> 0 respects the relations",
        "the restriction to the open moduli sends y -> 0 and x -> t",
        "true", lambda v: v.restriction_holds,
    ),
    _Identity(
        "restriction-hom-mutant", "mutated map x -> t, y -> t must fail",
        "t^2 is not a multiple of 12*t^2 in degree 2, so x*y cannot map to t^2",
        "false",
        lambda v: hom_check(v.m12bar, v.m12open, {**MODULI_RESTRICTION, "y": "t"}),
    ),
    _Identity(
        "disc-weighted-degree", "weighted degree of the discriminant under weights (2,3,4)",
        "the scaling character on the discriminant is lambda -> lambda^12",
        "12", lambda v: weighted_degree(discriminant_polynomial(), coordinate_grading()),
    ),
    _Identity(
        "pic-complement-disc", "Picard group of the discriminant complement in [A^3/Gm]",
        "Pic of the complement of a weight-12 hypersurface is Z/12",
        "Z/12", lambda v: v.pic.group,
    ),
    _Identity(
        "weierstrass-identity", "residual of the generic substitution into short Weierstrass form",
        "X = x + a2/3, Y = y + a3/2 turns the marked cubic into "
        "Y^2*Z = X^3 + beta4*X*Z^2 + beta6*Z^3 with beta6 = alpha3^2 - alpha2^3 - alpha2*alpha4",
        "0", lambda v: weierstrass_substitution_residual().render(),
    ),
    _Identity(
        "coefficient-map-indeterminacy", "the coefficient map sends (1,1,0) to the origin",
        "the induced map of stacks is undefined exactly on the cusp locus [1,1,0]",
        "(0, 0)",
        lambda v: "({0.beta4}, {0.beta6})".format(
            short_weierstrass_coeffs(IntermediateCoeffs(1, 1, 0))
        ),
    ),
    _Identity(
        "nodal-fiber", "affine model of the fiber over (-3, 2)",
        "the nodal cubic fiber is y^2 - x^3 + 3*x - 2",
        "-x^3 + y^2 + 3*x - 2", lambda v: fiber_curve(ShortWeierstrass(-3, 2)).render(),
    ),
    _Identity(
        "nodal-fixed-points", "mu_2-fixed points of the nodal fiber",
        "the involution y -> -y fixes [1,0,-3] and [-2,0,-3]",
        "[1, 0, -3] (mult 2); [-2, 0, -3] (mult 1)",
        lambda v: _fixed_point_string(ShortWeierstrass(-3, 2)),
    ),
    _Identity(
        "nodal-point-disc", "discriminant at the nodal parameter (1, 0, -3)",
        "the point (1,0,-3) lies on the singular (nodal) fiber",
        "0", lambda v: discriminant(IntermediateCoeffs(1, 0, -3)),
    ),
    _Identity(
        "j-special-values", "j at (1, 0) and at (0, 1)",
        "beta6 = 0 forces j = 1728 and beta4 = 0 forces j = 0",
        "1728; 0",
        lambda v: f"{j_invariant(ShortWeierstrass(1, 0))}; {j_invariant(ShortWeierstrass(0, 1))}",
    ),
    _Identity(
        "invariant-ring", "blow-up invariant ring check for all 1 <= w1 <= w2 <= 6 at bound 15",
        "the invariants of (w1, w2, -1) scaling are generated by u^w1*x and u^w2*y",
        "true",
        lambda v: all(
            invariant_ring_check(w1, w2, 15) for w1 in range(1, 7) for w2 in range(w1, 7)
        ),
    ),
)


def build_report(bound: int = 8, self_test: bool = False) -> VerificationReport:
    """Run every verification item at the given truncation bound.

    ``bound`` must be at least 4 so that all stabilized torsion patterns
    are visible; statuses are independent of the bound beyond that.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    values = SharedValues(bound, self_test)
    note = " [self-test: one 24 flipped to 23]" if self_test else ""
    items = []
    for entry in _IDENTITIES:
        expected = entry.expected if isinstance(entry.expected, str) else entry.expected(values)
        try:
            actual = entry.actual(values)
        except AssemblyMismatchError as exc:
            actual, status = str(exc), "fail"
        else:
            actual = str(actual).lower() if isinstance(actual, bool) else str(actual)
            status = "pass" if expected == actual else "fail"
        description = entry.description.format(bound=bound, note=note)
        items.append(ReportItem(entry.id, description, status, expected, actual, entry.anchor))
    return VerificationReport(
        schema=REPORT_SCHEMA,
        version=__version__,
        bound=bound,
        items=tuple(items),
    )
