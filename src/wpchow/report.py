"""Machine-readable verification report over the full identity suite.

Every item pins an exact expected value next to the freshly computed
actual value; an item passes iff the two strings match bit-exactly.  The
``paper_anchor`` field states the mathematical identity being checked so
a reader can trace the item without leaving the report.

The ``self_test`` mode corrupts one relation coefficient (24 -> 23) in
the compactified-moduli presentation before running the assembly item;
it must produce at least one failure, guarding the suite against
vacuous passes.  All numeric content is carried as strings so that
JSON consumers cannot lose precision.
"""

from __future__ import annotations

import json
from typing import Mapping

from ._record import frozen_record
from .blowup import (
    MODULI_AMBIENT,
    MODULI_BLOWUP,
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
                {
                    "id": item.id,
                    "description": item.description,
                    "status": item.status,
                    "expected": item.expected,
                    "actual": item.actual,
                    "paper_anchor": item.paper_anchor,
                }
                for item in self.items
            ],
            "summary": {"pass": self.passed, "fail": self.failed},
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "VerificationReport":
        items = tuple(
            ReportItem(
                id=entry["id"],
                description=entry["description"],
                status=entry["status"],
                expected=entry["expected"],
                actual=entry["actual"],
                paper_anchor=entry["paper_anchor"],
            )
            for entry in data["items"]
        )
        report = cls(
            schema=int(data["schema"]),
            version=data["version"],
            bound=int(data["bound"]),
            items=items,
        )
        summary = data.get("summary")
        if summary is not None and (
            int(summary["pass"]) != report.passed or int(summary["fail"]) != report.failed
        ):
            raise ValueError("summary counts are inconsistent with the items")
        return report

    @classmethod
    def parse_json(cls, text: str) -> "VerificationReport":
        return cls.from_json_dict(json.loads(text))

    def render_text(self) -> str:
        lines = [
            f"verification report (schema {self.schema}, toolkit {self.version}, "
            f"degree bound {self.bound})"
        ]
        width = max(len(item.id) for item in self.items)
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


def _pieces(presentation: GradedPresentation, bound: int) -> str:
    return "; ".join(str(graded_piece(presentation, n)) for n in range(bound + 1))


def _fixed_point_string(short: ShortWeierstrass) -> str:
    parts = []
    for point in mu2_fixed_points(short):
        coords = ", ".join(str(c) for c in point.coords)
        parts.append(f"[{coords}] (mult {point.multiplicity})")
    return "; ".join(parts)


def build_report(bound: int = 8, self_test: bool = False) -> VerificationReport:
    """Run every verification item at the given truncation bound.

    ``bound`` must be at least 4 so that all stabilized torsion patterns
    are visible; statuses are independent of the bound beyond that.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    items: list[ReportItem] = []

    def add(item_id: str, description: str, anchor: str, expected: str, actual) -> None:
        actual = str(actual)
        items.append(
            ReportItem(
                id=item_id,
                description=description,
                status="pass" if expected == actual else "fail",
                expected=expected,
                actual=actual,
                paper_anchor=anchor,
            )
        )

    p234 = MODULI_AMBIENT
    p46 = MODULI_BLOWUP.exceptional
    ring234 = chow_ring(p234)
    ring46 = chow_ring(p46)
    u_ring = cusp_complement_chow()

    add(
        "chow-ring-234",
        "Chow ring presentation of P(2,3,4)",
        "A*(P(a1,...,an)) = Z[t]/((a1*...*an)*t^n); here 2*3*4 = 24, n = 3",
        "Z[t]/(24*t^3)",
        ring234.render(),
    )
    add(
        "chow-pieces-234",
        f"graded pieces of A*(P(2,3,4)) for n <= {bound}",
        "pieces are Z below degree 3 and Z/24 from degree 3 on",
        "; ".join(["Z"] * 3 + ["Z/24"] * (bound - 2)),
        _pieces(ring234, bound),
    )
    add(
        "chow-ring-46",
        "Chow ring presentation of P(4,6)",
        "A*(P(4,6)) = Z[t]/(24*t^2)",
        "Z[t]/(24*t^2)",
        ring46.render(),
    )
    add(
        "chow-pieces-46",
        f"graded pieces of A*(P(4,6)) for n <= {bound}",
        "pieces are Z, Z, then Z/24 in every higher degree",
        "; ".join(["Z"] * 2 + ["Z/24"] * (bound - 1)),
        _pieces(ring46, bound),
    )
    add(
        "cusp-class",
        "class of the cuspidal locus {[s^2,s^3,0]} in A*(P(2,3,4))",
        "pushforward of the seminormalized cuspidal line is 2*3*(4t)*t = 24*t^2",
        "24*t^2",
        cusp_locus_class().value.render(),
    )
    add(
        "cusp-complement",
        f"A*(U) for U the cusp complement, degreewise vs Z[t]/(24*t^2), n <= {bound}",
        "A*(U) = Z[t]/(24*t^2)",
        _pieces(GradedPresentation.make([("t", 1)], ["24*t^2"]), bound),
        _pieces(u_ring, bound),
    )
    add(
        "point-class-46-mu4",
        "class of the mu_4 coordinate point of P(4,6)",
        "the weight-4 point pushes forward to c1(O(6)) = 6*t",
        "6*t",
        point_class(p46, 1).value.render(),
    )
    add(
        "point-class-46-mu6",
        "class of the mu_6 coordinate point of P(4,6)",
        "the weight-6 point pushes forward to c1(O(4)) = 4*t",
        "4*t",
        point_class(p46, 2).value.render(),
    )
    add(
        "point-class-234-mu2",
        "class of a mu_2 point of P(2,3,4)",
        "each mu_2 point pushes forward to 3*4*t^2 = 12*t^2",
        "12*t^2",
        point_class(p234, 1).value.render(),
    )
    point = point_class(p234, 1)
    add(
        "two-point-complement",
        f"A*(P(2,3,4) minus two mu_2 points) vs Z[t]/(12*t^2), n <= {bound}",
        "A*(V) = Z[t]/(12*t^2) after removing both mu_2 points of the nodal fiber",
        _pieces(GradedPresentation.make([("t", 1)], ["12*t^2"]), bound),
        _pieces(chow_of_complement(p234, [point, point]), bound),
    )

    m12bar = m12bar_chow(bound)
    add(
        "m12bar-ring",
        "presentation of the compactified 2-pointed moduli Chow ring",
        "A* of the compactified moduli is Z[x,y]/(x*y, 24*x^2 + 24*y^2)",
        "Z[x, y]/(x*y, 24*x^2 + 24*y^2)",
        m12bar.render(),
    )
    assembly_input = m12bar
    if self_test:
        assembly_input = GradedPresentation.make(
            [("x", 1), ("y", 1)], ["x*y", "23*x^2 + 24*y^2"]
        )
    add(
        "m12bar-assembly",
        f"pieces equal A^(n-1)(P(4,6)) + A^n(U) for n <= {bound}"
        + (" [self-test: one 24 flipped to 23]" if self_test else ""),
        "the localization sequence of the blow-up splits degreewise",
        "; ".join(str(piece) for piece in split_pieces(bound)),
        _pieces(assembly_input, bound),
    )
    add(
        "m12bar-pieces",
        f"graded pieces of the compactified moduli ring for n <= {bound}",
        "pieces are Z; Z^2; Z x Z/24; then Z/24 x Z/24 stably",
        "; ".join(["Z", "Z^2", "Z x Z/24"] + ["Z/24 x Z/24"] * (bound - 2)),
        _pieces(m12bar, bound),
    )
    add(
        "exceptional-square",
        "pushforward of the exceptional self-intersection",
        "E^2 pushes to c1(O_E(-1)) = -t on the exceptional P(4,6)",
        "-t",
        exceptional_selfintersection(MODULI_BLOWUP).value.render(),
    )
    images = phi_degree2_images()
    for monomial, expected in (("x^2", "(t, t^2)"), ("x*y", "(0, 0)"), ("y^2", "(-t, 0)")):
        e_part, u_part = images[monomial]
        add(
            f"phi-{monomial.replace('^', '').replace('*', '')}",
            f"split image of {monomial} in A*(P(4,6)) + A*(U)",
            "degree-2 split images: x^2 -> (t, t^2), x*y -> (0, 0), y^2 -> (-t, 0)",
            expected,
            f"({e_part.value.render()}, {u_part.value.render()})",
        )
    add(
        "phi-kills-relations",
        "both presented relations die componentwise under the split images",
        "x*y and 24*x^2 + 24*y^2 map to zero in A*(P(4,6)) + A*(U)",
        "true",
        str(not unkilled_relations(m12bar)).lower(),
    )

    pic = pic_complement(discriminant_hypersurface())
    m12open = m12_open_chow(bound)
    add(
        "m12-open-inputs",
        "classes quotiented out of A*(U) to reach the open moduli",
        "the nodal curve class is 12*t and each mu_2 point contributes 12*t^2",
        "12*t; 12*t^2",
        f"{pic.character_weight}*t; {point.value.render()}",
    )
    add(
        "m12-open-ring",
        f"open-moduli ring degreewise vs Z[t]/(12*t), n <= {bound}",
        "A* of the open 2-pointed moduli is Z[t]/(12*t)",
        _pieces(GradedPresentation.make([("t", 1)], ["12*t"]), bound),
        _pieces(m12open, bound),
    )
    add(
        "m12-open-degree-1",
        "degree-1 piece of the open moduli ring",
        "the degree-1 piece has order exactly 12 (neither 6 nor 24)",
        "Z/12",
        str(graded_piece(m12open, 1)),
    )
    add(
        "restriction-hom",
        "restriction map x -> t, y -> 0 respects the relations",
        "the restriction to the open moduli sends y -> 0 and x -> t",
        "true",
        str(hom_check(m12bar, m12open, {"x": "t", "y": 0})).lower(),
    )
    add(
        "restriction-hom-mutant",
        "mutated map x -> t, y -> t must fail",
        "t^2 is not a multiple of 12*t^2 in degree 2, so x*y cannot map to t^2",
        "false",
        str(hom_check(m12bar, m12open, {"x": "t", "y": "t"})).lower(),
    )

    add(
        "disc-weighted-degree",
        "weighted degree of the discriminant under weights (2,3,4)",
        "the scaling character on the discriminant is lambda -> lambda^12",
        "12",
        str(weighted_degree(discriminant_polynomial(), coordinate_grading())),
    )
    add(
        "pic-complement-disc",
        "Picard group of the discriminant complement in [A^3/Gm]",
        "Pic of the complement of a weight-12 hypersurface is Z/12",
        "Z/12",
        str(pic.group),
    )
    add(
        "weierstrass-identity",
        "residual of the generic substitution into short Weierstrass form",
        "X = x + a2/3, Y = y + a3/2 turns the marked cubic into "
        "Y^2*Z = X^3 + beta4*X*Z^2 + beta6*Z^3 with beta6 = alpha3^2 - alpha2^3 - alpha2*alpha4",
        "0",
        weierstrass_substitution_residual().render(),
    )
    beta = short_weierstrass_coeffs(IntermediateCoeffs(1, 1, 0))
    add(
        "coefficient-map-indeterminacy",
        "the coefficient map sends (1,1,0) to the origin",
        "the induced map of stacks is undefined exactly on the cusp locus [1,1,0]",
        "(0, 0)",
        f"({beta.beta4}, {beta.beta6})",
    )
    add(
        "nodal-fiber",
        "affine model of the fiber over (-3, 2)",
        "the nodal cubic fiber is y^2 - x^3 + 3*x - 2",
        "-x^3 + y^2 + 3*x - 2",
        fiber_curve(ShortWeierstrass(-3, 2)).render(),
    )
    add(
        "nodal-fixed-points",
        "mu_2-fixed points of the nodal fiber",
        "the involution y -> -y fixes [1,0,-3] and [-2,0,-3]",
        "[1, 0, -3] (mult 2); [-2, 0, -3] (mult 1)",
        _fixed_point_string(ShortWeierstrass(-3, 2)),
    )
    add(
        "nodal-point-disc",
        "discriminant at the nodal parameter (1, 0, -3)",
        "the point (1,0,-3) lies on the singular (nodal) fiber",
        "0",
        str(discriminant(IntermediateCoeffs(1, 0, -3))),
    )
    add(
        "j-special-values",
        "j at (1, 0) and at (0, 1)",
        "beta6 = 0 forces j = 1728 and beta4 = 0 forces j = 0",
        "1728; 0",
        f"{j_invariant(ShortWeierstrass(1, 0))}; {j_invariant(ShortWeierstrass(0, 1))}",
    )
    add(
        "invariant-ring",
        "blow-up invariant ring check for all 1 <= w1 <= w2 <= 6 at bound 15",
        "the invariants of (w1, w2, -1) scaling are generated by u^w1*x and u^w2*y",
        "true",
        str(
            all(
                invariant_ring_check(w1, w2, 15)
                for w1 in range(1, 7)
                for w2 in range(w1, 7)
            )
        ).lower(),
    )

    return VerificationReport(
        schema=REPORT_SCHEMA,
        version=__version__,
        bound=bound,
        items=tuple(items),
    )
