"""Command-line entry points.

Subcommands: ``chow`` (Chow ring of a weighted projective stack with its
graded pieces), ``blowup`` (weighted blow-up data; includes the moduli
assembly for weights 4 6), ``curve`` (the marked Weierstrass pipeline),
``pic-complement`` (Picard group of a hypersurface complement) and
``verify-paper`` (the full identity suite as a text or JSON report).

Rational arguments parse as ``p/q``; use ``--`` before negative values,
e.g. ``wpchow curve fixed -- -3 2``.

Every command and argument is declared once, in ``_COMMANDS``.
:func:`build_parser` builds argparse's tree from that table, and argparse
prints every help, usage and error text.  A well-formed command line is
read straight off the table instead, through the same type functions and
choices: the command words, each declared option at most once, and one
unbroken run of positionals.  Anything else (help, ``--version``, ``--``,
``--name=value``, an abbreviation, a repeated option, a refused value) is
left to argparse, and so is a value out of range.  So ``argparse``,
``gettext`` and ``locale`` load only for help, ``--version`` and errors.

The ``_cmd_*`` functions only compute and print, and each imports the
library modules it runs, so a cold process loads no more of the package
than its command needs.  :func:`main` alone turns a failure into its
message and exit code (README, "Command line"); the one local handler is
``verify-paper``'s, for an unwritable ``--output``.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from ._errors import AssemblyMismatchError, SingularCurveError
from .version import __version__

__all__ = ["main", "run"]

# The invariant-ring check enumerates the heads that fit the bound, about
# 4.5x the time per doubling of it: ~0.02 s at 300, ~0.09 s at 600 and
# ~0.4 s at 1200.  (These and the figures below are in-process times on a
# 2-CPU Linux container, Python 3.11.)
MAX_INVARIANT_BOUND = 600
# verify-paper --bound and the --max-degree of chow and blowup print graded
# pieces up to that degree.  Each ring they print has one generator or
# contains x*y, so graded_piece reads its pieces off the relations and the
# cap bounds the output: verify-paper takes ~10 ms at 200 and ~13 ms at 400,
# blowup 4 6 ~3 ms at 200.
MAX_DEGREE = 200


def _refusal(message: str) -> Exception:
    """argparse's error for a value that a type function refuses.  argparse
    is imported here, on the error path, where it prints the message."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _refuse_digits(digits: int) -> None:
    """Refuse a number of more digits than the interpreter converts (4,300
    by default; 0 means no limit), in the words of ``parse_poly``."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise _refusal(f"a number of {digits} digits, over the limit of {limit}")


def _refuse_long_number(text: str) -> None:
    """Refuse, without echoing it, a text with a run of too many digits."""
    _refuse_digits(max((len(run) for run in re.findall(r"\d+", text.replace("_", ""))), default=0))


# ``Fraction`` reads "1e10000000" by building 10**10000000, which takes
# seconds (and "1e100000000" minutes), so the digits that a mantissa and
# its exponent spell out are counted before it is called.
_EXPONENT_FORM = r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE][-+]?(\d[\d_]*)\s*"


def _fraction(text: str):
    from fractions import Fraction

    _refuse_long_number(text)
    scientific = re.fullmatch(_EXPONENT_FORM, text)
    if scientific:
        whole, decimals, exponent = (part.replace("_", "") for part in scientific.groups(""))
        _refuse_digits(len(whole) + len(decimals) + int(exponent))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _refusal(f"not a rational number: {text!r}") from exc


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        _refuse_long_number(text)
        raise _refusal(f"not an integer: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise _refusal("value must be a positive integer")
    return value


def _piece_lines(presentation, max_degree: int) -> list:
    from .graded import graded_piece

    pieces = (f"{n:2} | {graded_piece(presentation, n)}" for n in range(max_degree + 1))
    return [" n | piece", *pieces]


def _cmd_chow(args) -> int:
    from .wps import WeightedProjectiveStack, chow_ring

    stack = WeightedProjectiveStack(tuple(args.weights))
    ring = chow_ring(stack)
    print("\n".join([f"A*({stack}) = {ring.render()}", *_piece_lines(ring, args.max_degree)]))
    return 0


def _cmd_blowup(args) -> int:
    from .blowup import BlowupData, exceptional_selfintersection, invariant_ring_check
    from .wps import chow_ring

    # Each section is rendered before any of it is printed, so a failure
    # prints no part of it; a failed moduli assembly still leaves the
    # blow-up section above it.
    data = BlowupData(args.w1, args.w2)
    lines = [
        f"weighted blow-up of a smooth surface point, weights ({data.w1}, {data.w2})",
        f"exceptional divisor: {data.exceptional} with "
        f"A* = {chow_ring(data.exceptional).render()}",
        f"self-intersection: E^2 pushes to {exceptional_selfintersection(data).value.render()} "
        "on the exceptional divisor",
    ]
    # The {x != 0} chart is A^2 / mu_w1 embedded via (a, b) -> (1, a, b); the
    # {y != 0} chart is symmetric.
    for which, order, alpha in ((1, data.w1, "(a, b) -> (1, a, b)"),
                                (2, data.w2, "(a, b) -> (a, 1, b)")):
        lines.append(f"chart {which}: A^2 / mu_{order}, alpha: {alpha}, "
                     f"beta: xi -> xi^-i for xi a {order}-th root of unity "
                     "(exponent not pinned by the construction)")
    ok = invariant_ring_check(data.w1, data.w2, args.invariant_bound)
    lines.append(f"invariant ring check up to total degree {args.invariant_bound}: "
                 f"{'pass' if ok else 'FAIL'}")
    print("\n".join(lines))
    if (data.w1, data.w2) == (4, 6):
        from .report import SharedValues

        moduli = SharedValues(args.max_degree)
        images = moduli.verified_restriction()
        image_text = ", ".join(f"{name} -> {image}" for name, image in images.items())
        print("\n".join([
            "",
            "moduli assembly (blow-up of the cusp of P(2, 3, 4)):",
            f"  compactified 2-pointed moduli: {moduli.m12bar.render()}",
            *_piece_lines(moduli.m12bar, args.max_degree),
            f"  open 2-pointed moduli: {moduli.m12open.render()}",
            f"    degreewise equal to Z[t]/({moduli.pic.character_weight}*t) "
            f"up to degree {args.max_degree}",
            f"  restriction map verified: {image_text}",
        ]))
    return 0 if ok else 1


def _cmd_curve(args) -> int:
    from .curves import (
        IntermediateCoeffs,
        MarkedCurveCoeffs,
        ShortWeierstrass,
        discriminant,
        iso_test,
        j_invariant,
        mu2_fixed_points,
        to_short_form,
    )

    command, values = args.curve_command, args.values
    code = 0
    if command == "normalize":
        alpha, beta = to_short_form(MarkedCurveCoeffs(*values))
        lines = [f"alpha = ({alpha.alpha2}, {alpha.alpha3}, {alpha.alpha4})",
                 f"beta  = ({beta.beta4}, {beta.beta6})"]
    elif command == "disc":
        lines = [str(discriminant(IntermediateCoeffs(*values)))]
    elif command == "j":
        lines = [str(j_invariant(ShortWeierstrass(*values)))]
    elif command == "iso":
        scale = iso_test(MarkedCurveCoeffs(*values[:3]), MarkedCurveCoeffs(*values[3:]))
        if scale is None:
            lines, code = ["not isomorphic over Q (no rational scaling)"], 1
        else:
            lines = [f"lambda = {scale}"]
    else:
        lines = []
        for point in mu2_fixed_points(ShortWeierstrass(*values)):
            coords = ", ".join(str(c) for c in point.coords)
            suffix = f" (multiplicity {point.multiplicity})" if point.multiplicity > 1 else ""
            lines.append(f"x = {point.x}{suffix} -> [{coords}]")
        lines = lines or ["no rational fixed points"]
    # Every line is rendered before the first is printed.
    print("\n".join(lines))
    return code


def _cmd_pic_complement(args) -> int:
    from .poly import parse_poly
    from .wps import HypersurfaceComplementInput, pic_complement

    polynomial = parse_poly(args.poly)
    names = args.vars.split(",") if args.vars else polynomial.variables
    variables = tuple(name.strip() for name in names)
    data = HypersurfaceComplementInput(tuple(args.weights), variables, polynomial)
    result = pic_complement(data)
    # Every line is rendered before the first is printed.
    lines = [
        f"f = {polynomial.render()}",
        f"weighted degree {result.character_weight} under weights "
        f"({', '.join(str(w) for w in data.weights)})",
        f"Pic = {result.group}",
        f"assumptions: {'; '.join(result.assumptions)}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    from .report import build_report

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


# The one declaration of the commands.  A row is (name, help, handler,
# arguments): the handler is the command's ``_cmd_*`` function, or for
# ``curve`` the rows of its subcommands; an argument is a name and
# argparse's keywords for it.  A name that starts with "--" is an option,
# any other a positional of one value, or of ``nargs`` values ("+": one
# or more).
_MAX_DEGREE_OPTION = ("--max-degree", {
    "type": _integer,
    "default": 8,
    "help": f"highest degree of the graded pieces (at most {MAX_DEGREE})",
})
_WEIGHTS = ("weights", {"nargs": "+", "type": _positive_int, "metavar": "WEIGHT"})
_COMMANDS = (
    ("chow", "Chow ring of a weighted projective stack", _cmd_chow,
     (_WEIGHTS, _MAX_DEGREE_OPTION)),
    ("blowup", "weighted blow-up data and charts", _cmd_blowup, (
        ("w1", {"type": _positive_int}),
        ("w2", {"type": _positive_int}),
        _MAX_DEGREE_OPTION,
        ("--invariant-bound", {
            "type": _positive_int,
            "default": 15,
            "help": f"total degree bound of the invariant ring check (at most {MAX_INVARIANT_BOUND})",
        }),
    )),
    ("curve", "marked Weierstrass pipeline", tuple(
        (name, description, _cmd_curve,
         (("values", {"nargs": count, "type": _fraction, "metavar": "RATIONAL"}),))
        for name, count, description in (
            ("normalize", 3, "complete (a2, a3, a4) to short Weierstrass form"),
            ("disc", 3, "discriminant of intermediate coordinates (alpha2, alpha3, alpha4)"),
            ("j", 2, "j-invariant of short coefficients (beta4, beta6)"),
            ("iso", 6, "rational scaling between two marked cubics"),
            ("fixed", 2, "rational fixed points of y -> -y on the fiber"),
        )
    ), ()),
    ("pic-complement", "Picard group of a weighted hypersurface complement",
     _cmd_pic_complement, (
        _WEIGHTS,
        ("--poly", {"required": True, "help": "defining polynomial, e.g. '4*a4^3 + ...'"}),
        ("--vars", {
            "help": "comma-separated variables matched to the weights "
            "(default: the polynomial's variables in sorted order)",
        }),
    )),
    ("verify-paper", "run the full identity suite", _cmd_verify, (
        ("--bound", {"type": _integer, "default": 8, "help": f"truncation degree (4 to {MAX_DEGREE})"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
        ("--output", {"help": "write the report to this path"}),
        ("--self-test", {
            "action": "store_true",
            "help": "corrupt one relation coefficient; the run must report a failure",
        }),
    )),
)


def build_parser():
    """argparse's tree of ``_COMMANDS``, under ``--version``."""
    import argparse

    class OneValue(argparse.Action):
        """Store a single-value positional.  The argparse of Python 3.10.13
        to 3.13.0 strips a second ``--`` from the value it matched and hands
        the action an empty list (``wpchow blowup 8 -- --``); that is the
        positional left out.  3.13.13's hands it ``"--"``, which the type
        function refuses."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                parser.error(f"the following arguments are required: {self.dest}")
            setattr(namespace, self.dest, values)

    def add(subparsers, rows) -> None:
        for name, description, handler, arguments in rows:
            command = subparsers.add_parser(name, help=description)
            if isinstance(handler, tuple):
                add(command.add_subparsers(dest=f"{name}_command", required=True), handler)
                continue
            for argument, keywords in arguments:
                if not argument.startswith("-") and "nargs" not in keywords:
                    keywords = {**keywords, "action": OneValue}
                command.add_argument(argument, **keywords)
            command.set_defaults(func=handler)

    parser = argparse.ArgumentParser(
        prog="wpchow",
        description="Exact Chow-ring and Weierstrass-pipeline computations.",
    )
    parser.add_argument("--version", action="version", version=f"wpchow {__version__}")
    add(parser.add_subparsers(dest="command", required=True), _COMMANDS)
    return parser


def _read(argv: list) -> Optional[SimpleNamespace]:
    """What ``build_parser().parse_args(argv)`` returns, read straight off
    ``_COMMANDS``; None where ``argv`` is not plain.

    Plain is: the command words, then each declared option at most once,
    as ``--name value`` or a flag alone, before or after one unbroken run
    of positionals of the declared count.  No other token may start with
    "-", nor may an option's value, and every value must pass its type
    function and choices.  Any other command line is argparse's to read or
    refuse, with its own message.
    """
    if not all(isinstance(token, str) for token in argv):
        return None
    found, handler, dest, at = {}, _COMMANDS, "command", 0
    while isinstance(handler, tuple):
        word = argv[at] if at < len(argv) else None
        row = next((row for row in handler if row[0] == word), None)
        if row is None:
            return None
        name, _, handler, arguments = row
        found[dest], dest, at = name, f"{name}_command", at + 1
    options = {name: keywords for name, keywords in arguments if name.startswith("-")}
    given, words, run_closed = {}, [], False
    tokens = iter(argv[at:])
    for token in tokens:
        if not token.startswith("-"):
            if run_closed:
                return None
            words.append(token)
            continue
        if token not in options or token in given:
            return None
        run_closed = bool(words)
        if options[token].get("action") != "store_true":
            given[token] = next(tokens, "-")
            if given[token].startswith("-"):
                return None
        else:
            given[token] = None

    def convert(text: str, keywords: dict):
        value = keywords.get("type", str)(text)
        if "choices" in keywords and value not in keywords["choices"]:
            raise ValueError(f"{value!r} is not a choice")
        return value

    try:
        for name, keywords in arguments:
            if name in options:
                flag = keywords.get("action") == "store_true"
                if name in given:
                    value = flag or convert(given[name], keywords)
                elif keywords.get("required"):
                    return None
                else:
                    value = keywords.get("default", False if flag else None)
                found[name[2:].replace("-", "_")] = value
                continue
            nargs = keywords.get("nargs")
            count = len(words) if nargs == "+" else nargs or 1
            if not 0 < count <= len(words):
                return None
            values = [convert(word, keywords) for word in words[:count]]
            del words[:count]
            found[name] = values if nargs else values[0]
    except Exception:
        # The type function or choices refuse the value; argparse says how.
        return None
    if words:
        return None
    found["func"] = handler
    return SimpleNamespace(**found)


def _out_of_range(args) -> Optional[str]:
    """The message of the first range check that ``args`` fails, or None."""
    if args.command == "verify-paper" and args.bound < 4:
        return "--bound must be at least 4"
    if args.command == "verify-paper" and args.bound > MAX_DEGREE:
        return f"--bound must be at most {MAX_DEGREE}"
    if getattr(args, "max_degree", 0) < 0:
        return "--max-degree must be non-negative"
    if getattr(args, "max_degree", 0) > MAX_DEGREE:
        return f"--max-degree must be at most {MAX_DEGREE}"
    if getattr(args, "invariant_bound", 0) > MAX_INVARIANT_BOUND:
        return f"--invariant-bound must be at most {MAX_INVARIANT_BOUND}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or build_parser().parse_args(argv)
    problem = _out_of_range(args)
    if problem:
        build_parser().error(problem)
    try:
        try:
            code = args.func(args)
        except (AssemblyMismatchError, SingularCurveError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        except ValueError as exc:
            # Printing an integer past the interpreter's digit limit raises
            # this; matched on its opening words, as ours may quote input.
            message = str(exc)
            if message.startswith("Exceeds the limit (") and "integer string conversion" in message:
                message = ("the output has a number too long to print "
                           f"(over {sys.get_int_max_str_digits()} decimal digits)")
            print(f"error: {message}", file=sys.stderr)
            code = 2
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
