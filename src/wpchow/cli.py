"""Command-line entry points.

Subcommands: ``chow`` (Chow ring of a weighted projective stack with its
graded pieces), ``blowup`` (weighted blow-up data; includes the moduli
assembly for weights 4 6), ``curve`` (the marked Weierstrass pipeline),
``pic-complement`` (Picard group of a hypersurface complement) and
``verify-paper`` (the full identity suite as a text or JSON report).

Rational arguments parse as ``p/q``; use ``--`` before negative values,
e.g. ``wpchow curve fixed -- -3 2``.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .blowup import (
    AssemblyMismatchError,
    BlowupData,
    exceptional_selfintersection,
    invariant_ring_check,
    m12_open_chow,
    m12bar_chow,
)
from .curves import (
    IntermediateCoeffs,
    MarkedCurveCoeffs,
    ShortWeierstrass,
    SingularCurveError,
    discriminant,
    iso_test,
    j_invariant,
    mu2_fixed_points,
    to_short_form,
)
from .graded import graded_piece, hom_check
from .poly import parse_poly
from .report import build_report
from .version import __version__
from .wps import (
    HypersurfaceComplementInput,
    WeightedProjectiveStack,
    chow_ring,
    pic_complement,
)

__all__ = ["main", "run"]

# The invariant-ring check enumerates the degree box, quadratic in the
# bound: ~0.2 s at 300, ~0.8 s at 600 and ~3.4 s at 1200.
MAX_INVARIANT_BOUND = 600
# verify-paper --bound and the --max-degree of chow and blowup compute graded
# pieces up to that degree, at a cost about cubic in it: ~1.2 s at 200 for
# verify-paper and blowup 4 6, over 10 s at 400.
MAX_DEGREE = 200


def _refuse_long_number(text: str) -> None:
    """Refuse, without echoing it, a number longer than the interpreter
    converts (4,300 digits by default), in the words of ``parse_poly``."""
    limit = sys.get_int_max_str_digits()
    digits = max((len(run) for run in re.findall(r"\d+", text.replace("_", ""))), default=0)
    if limit and digits > limit:
        raise argparse.ArgumentTypeError(
            f"a number of {digits} digits, over the limit of {limit}"
        )


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        _refuse_long_number(text)
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        _refuse_long_number(text)
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def _print_pieces(presentation, max_degree: int) -> None:
    print(" n | piece")
    for n in range(max_degree + 1):
        print(f"{n:2} | {graded_piece(presentation, n)}")


def _cmd_chow(args) -> int:
    stack = WeightedProjectiveStack(tuple(args.weights))
    ring = chow_ring(stack)
    print(f"A*({stack}) = {ring.render()}")
    _print_pieces(ring, args.max_degree)
    return 0


def _cmd_blowup(args) -> int:
    data = BlowupData(args.w1, args.w2)
    print(f"weighted blow-up of a smooth surface point, weights ({data.w1}, {data.w2})")
    print(f"exceptional divisor: {data.exceptional} with "
          f"A* = {chow_ring(data.exceptional).render()}")
    square = exceptional_selfintersection(data)
    print(f"self-intersection: E^2 pushes to {square.value.render()} "
          "on the exceptional divisor")
    # The {x != 0} chart is A^2 / mu_w1 embedded via (a, b) -> (1, a, b); the
    # {y != 0} chart is symmetric.
    for which, order, alpha in ((1, data.w1, "(a, b) -> (1, a, b)"),
                                (2, data.w2, "(a, b) -> (a, 1, b)")):
        print(f"chart {which}: A^2 / mu_{order}, alpha: {alpha}, "
              f"beta: xi -> xi^-i for xi a {order}-th root of unity "
              "(exponent not pinned by the construction)")
    ok = invariant_ring_check(data.w1, data.w2, args.invariant_bound)
    print(f"invariant ring check up to total degree {args.invariant_bound}: "
          f"{'pass' if ok else 'FAIL'}")
    if (data.w1, data.w2) == (4, 6):
        compact = m12bar_chow(args.max_degree)
        open_part = m12_open_chow(args.max_degree)
        # The boundary class y restricts to 0, the hyperplane class x to t.
        images = {"x": "t", "y": 0}
        if not hom_check(compact, open_part, images):
            raise AssemblyMismatchError("restriction images do not kill the relations")
        print()
        print("moduli assembly (blow-up of the cusp of P(2, 3, 4)):")
        print(f"  compactified 2-pointed moduli: {compact.render()}")
        _print_pieces(compact, args.max_degree)
        print(f"  open 2-pointed moduli: {open_part.render()}")
        print(f"    degreewise equal to Z[t]/(12*t) up to degree {args.max_degree}")
        image_text = ", ".join(f"{name} -> {image}" for name, image in images.items())
        print(f"  restriction map verified: {image_text}")
    return 0 if ok else 1


def _cmd_curve(args) -> int:
    try:
        if args.curve_command == "normalize":
            marked = MarkedCurveCoeffs(args.values[0], args.values[1], args.values[2])
            alpha, beta = to_short_form(marked)
            print(f"alpha = ({alpha.alpha2}, {alpha.alpha3}, {alpha.alpha4})")
            print(f"beta  = ({beta.beta4}, {beta.beta6})")
        elif args.curve_command == "disc":
            alpha = IntermediateCoeffs(args.values[0], args.values[1], args.values[2])
            print(discriminant(alpha))
        elif args.curve_command == "j":
            short = ShortWeierstrass(args.values[0], args.values[1])
            print(j_invariant(short))
        elif args.curve_command == "iso":
            first = MarkedCurveCoeffs(*args.values[:3])
            second = MarkedCurveCoeffs(*args.values[3:])
            scale = iso_test(first, second)
            if scale is None:
                print("not isomorphic over Q (no rational scaling)")
                return 1
            print(f"lambda = {scale}")
        elif args.curve_command == "fixed":
            short = ShortWeierstrass(args.values[0], args.values[1])
            points = mu2_fixed_points(short)
            if not points:
                print("no rational fixed points")
            for point in points:
                coords = ", ".join(str(c) for c in point.coords)
                suffix = f" (multiplicity {point.multiplicity})" if point.multiplicity > 1 else ""
                print(f"x = {point.x}{suffix} -> [{coords}]")
    except SingularCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_pic_complement(args) -> int:
    try:
        polynomial = parse_poly(args.poly)
        variables = (
            tuple(v.strip() for v in args.vars.split(","))
            if args.vars
            else polynomial.variables
        )
        data = HypersurfaceComplementInput(
            weights=tuple(args.weights),
            variables=variables,
            polynomial=polynomial,
        )
        result = pic_complement(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Turning an integer into decimal text raises ValueError past the
    # interpreter's limit on digits (4300 by default); the parser accepts
    # coefficients of up to 65,536 bits and unbounded exponents.
    try:
        rendered = polynomial.render()
    except ValueError:
        return _too_long_to_print("f has a coefficient or exponent")
    try:
        lines = [
            f"f = {rendered}",
            f"weighted degree {result.character_weight} under weights "
            f"({', '.join(str(w) for w in data.weights)})",
            f"Pic = {result.group}",
            f"assumptions: {'; '.join(result.assumptions)}",
        ]
    except ValueError:
        return _too_long_to_print("the weighted degree of f is")
    print("\n".join(lines))
    return 0


def _too_long_to_print(subject: str) -> int:
    limit = sys.get_int_max_str_digits()
    print(f"error: {subject} too long to print (over {limit} decimal digits)", file=sys.stderr)
    return 2


def _cmd_verify(args) -> int:
    report = build_report(bound=args.bound, self_test=args.self_test)
    rendered = report.render_json() if args.format == "json" else report.render_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.format} report to {args.output}", file=sys.stderr)
    else:
        print(rendered)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpchow",
        description="Exact Chow-ring and Weierstrass-pipeline computations.",
    )
    parser.add_argument("--version", action="version", version=f"wpchow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    chow = sub.add_parser("chow", help="Chow ring of a weighted projective stack")
    chow.add_argument("weights", nargs="+", type=_positive_int, metavar="WEIGHT")
    chow.add_argument(
        "--max-degree",
        type=_integer,
        default=8,
        help=f"highest degree of the graded pieces (at most {MAX_DEGREE})",
    )
    chow.set_defaults(func=_cmd_chow)

    blowup = sub.add_parser("blowup", help="weighted blow-up data and charts")
    blowup.add_argument("w1", type=_positive_int)
    blowup.add_argument("w2", type=_positive_int)
    blowup.add_argument(
        "--max-degree",
        type=_integer,
        default=8,
        help=f"highest degree of the graded pieces (at most {MAX_DEGREE})",
    )
    blowup.add_argument(
        "--invariant-bound",
        type=_positive_int,
        default=15,
        help=f"total degree bound of the invariant ring check (at most {MAX_INVARIANT_BOUND})",
    )
    blowup.set_defaults(func=_cmd_blowup)

    curve = sub.add_parser("curve", help="marked Weierstrass pipeline")
    curve_sub = curve.add_subparsers(dest="curve_command", required=True)
    for name, count, description in (
        ("normalize", 3, "complete (a2, a3, a4) to short Weierstrass form"),
        ("disc", 3, "discriminant of intermediate coordinates (alpha2, alpha3, alpha4)"),
        ("j", 2, "j-invariant of short coefficients (beta4, beta6)"),
        ("iso", 6, "rational scaling between two marked cubics"),
        ("fixed", 2, "rational fixed points of y -> -y on the fiber"),
    ):
        command = curve_sub.add_parser(name, help=description)
        command.add_argument(
            "values", nargs=count, type=_fraction, metavar="RATIONAL"
        )
        command.set_defaults(func=_cmd_curve)

    pic = sub.add_parser(
        "pic-complement",
        help="Picard group of a weighted hypersurface complement",
    )
    pic.add_argument("weights", nargs="+", type=_positive_int, metavar="WEIGHT")
    pic.add_argument("--poly", required=True, help="defining polynomial, e.g. '4*a4^3 + ...'")
    pic.add_argument(
        "--vars",
        help="comma-separated variables matched to the weights "
        "(default: the polynomial's variables in sorted order)",
    )
    pic.set_defaults(func=_cmd_pic_complement)

    verify = sub.add_parser("verify-paper", help="run the full identity suite")
    verify.add_argument(
        "--bound", type=_integer, default=8, help=f"truncation degree (4 to {MAX_DEGREE})"
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--output", help="write the report to this path")
    verify.add_argument(
        "--self-test",
        action="store_true",
        help="corrupt one relation coefficient; the run must report a failure",
    )
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-paper" and args.bound < 4:
        parser.error("--bound must be at least 4")
    if args.command == "verify-paper" and args.bound > MAX_DEGREE:
        parser.error(f"--bound must be at most {MAX_DEGREE}")
    if getattr(args, "max_degree", 0) < 0:
        parser.error("--max-degree must be non-negative")
    if getattr(args, "max_degree", 0) > MAX_DEGREE:
        parser.error(f"--max-degree must be at most {MAX_DEGREE}")
    if getattr(args, "invariant_bound", 0) > MAX_INVARIANT_BOUND:
        parser.error(f"--invariant-bound must be at most {MAX_INVARIANT_BOUND}")
    try:
        code = args.func(args)
        # Output still buffered would otherwise fail at exit, out of reach.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``wpchow ... | head``): point the rest
        # of the output at devnull so the exit-time flush succeeds, and
        # exit as a shell reports a writer killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def run() -> int:
    """Process entry of the ``wpchow`` console script and of ``python -m
    wpchow.cli``: ``main`` on the process's own arguments, returning its
    exit code for the caller to exit with.

    Once ``main`` has returned, the heap it built is frozen (``gc.freeze``),
    so the interpreter's full collection at exit, which would walk every
    object of the run and find nothing to free, skips it. The rest of the
    shutdown (atexit handlers, the flush of the standard streams, module
    teardown) runs as usual. ``main`` itself never freezes: in-process
    callers keep an ordinary collector.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
