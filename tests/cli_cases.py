"""The command-line cases of ``wpchow.cli.main``: one table and its runner.

A row of :data:`CASES` is an argument vector and what ``main`` does with
it: the exit (an int, or ``"usage"`` for argparse's ``SystemExit(2)``),
the whole of stdout (a literal, or a :class:`~pathlib.Path` under
``tests/golden/``) and the last line of stderr (``""`` when stderr is
empty).  An int exit comes from ``main`` itself, which prints at most
that one line on stderr; argparse prints its usage before it.  A row may
bound the seconds that ``main(argv)`` takes; its comment gives the time
measured (in-process, 2-CPU Linux container, Python 3.11).  Every row
runs through :func:`fuzz_cli.run_case`, which also checks that nothing
escapes, that the direct reader reads the argv as argparse does or
leaves it to argparse, and that no error repeats the interpreter's own
digit-limit text.

    python tests/cli_cases.py

replays every row with the standard library alone, on any Python the
package supports, prints one line per failing row and a summary, and
exits 1 if any row fails; under pytest, ``test_report_cli`` replays the
same rows (see its ``RENAMED``).  ``python tests/fuzz_cli.py`` prints
each failure it finds as a row to paste here.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional, Union

import fuzz_cli

GOLDEN = Path(__file__).resolve().parent / "golden"


class Case(NamedTuple):
    id: str
    argv: list
    exit: Union[int, str]
    stdout: Union[str, Path]
    stderr: str
    seconds: Optional[float] = None


# Results with an integer past the interpreter's 4,300-digit limit on
# decimal text, whichever command computed them, print this and nothing
# of the answer; arguments of 4,301 digits are refused by length.
TOO_LONG_TO_PRINT = "error: the output has a number too long to print (over 4300 decimal digits)"
OVER_THE_LIMIT = "a number of 4301 digits, over the limit of 4300"
DIVISIBLE = ("error: the variable x divides every term of the polynomial, "
             "so the hypersurface is reducible or not reduced")
DISCRIMINANT = "4*a4^3 + 27*(a3^2 - a2^3 - a2*a4)^2"
EXPANSION_BUDGET = "error: polynomial text needs more than 50000 term products to expand"


def _charts(w1: int, w2: int) -> str:
    """The two chart lines of ``wpchow blowup w1 w2``."""
    return "".join(
        f"chart {which}: A^2 / mu_{order}, alpha: {alpha}, beta: xi -> xi^-i for xi a "
        f"{order}-th root of unity (exponent not pinned by the construction)\n"
        for which, order, alpha in ((1, w1, "(a, b) -> (1, a, b)"), (2, w2, "(a, b) -> (a, 1, b)"))
    )


CASES = (
    # chow: the presentation of A*(P(w)) and its graded pieces.
    Case("chow-2-3-4", ["chow", "2", "3", "4", "--max-degree", "4"], 0,
         "A*(P(2, 3, 4)) = Z[t]/(24*t^3)\n n | piece\n 0 | Z\n 1 | Z\n 2 | Z\n 3 | Z/24\n"
         " 4 | Z/24\n", ""),
    Case("chow-point", ["chow", "1"], 0,
         "A*(P(1)) = Z[t]/(t)\n n | piece\n 0 | Z\n" + "".join(f" {n} | 0\n" for n in range(1, 9)),
         ""),
    Case("chow-4-6", ["chow", "4", "6", "--max-degree", "3"], 0,
         "A*(P(4, 6)) = Z[t]/(24*t^2)\n n | piece\n 0 | Z\n 1 | Z\n 2 | Z/24\n 3 | Z/24\n", ""),
    Case("chow-2-3-4-degree200", ["chow", "2", "3", "4", "--max-degree", "200"], 0,
         GOLDEN / "chow-2-3-4-degree200.txt", ""),
    Case("chow-degree-cap", ["chow", "2", "3", "--max-degree", "200"], 0,
         GOLDEN / "chow-2-3-degree200.txt", ""),
    Case("chow-zero-weight", ["chow", "0"], "usage", "",
         "wpchow chow: error: argument WEIGHT: value must be a positive integer"),

    # blowup: the weighted blow-up, and the moduli assembly for weights 4 6.
    Case("blowup-4-6", ["blowup", "4", "6"], 0, GOLDEN / "blowup-4-6.txt", ""),
    Case("blowup-4-6-degree4", ["blowup", "4", "6", "--max-degree", "4"], 0,
         "weighted blow-up of a smooth surface point, weights (4, 6)\n"
         "exceptional divisor: P(4, 6) with A* = Z[t]/(24*t^2)\n"
         "self-intersection: E^2 pushes to -t on the exceptional divisor\n"
         + _charts(4, 6) +
         "invariant ring check up to total degree 15: pass\n"
         "\n"
         "moduli assembly (blow-up of the cusp of P(2, 3, 4)):\n"
         "  compactified 2-pointed moduli: Z[x, y]/(x*y, 24*x^2 + 24*y^2)\n"
         " n | piece\n 0 | Z\n 1 | Z^2\n 2 | Z x Z/24\n 3 | Z/24 x Z/24\n 4 | Z/24 x Z/24\n"
         "  open 2-pointed moduli: Z[t]/(24*t^3, 24*t^2, 12*t, 12*t^2, 12*t^2)\n"
         "    degreewise equal to Z[t]/(12*t) up to degree 4\n"
         "  restriction map verified: x -> t, y -> 0\n", ""),
    Case("blowup-4-6-degree200", ["blowup", "4", "6", "--max-degree", "200"], 0,
         GOLDEN / "blowup-4-6-degree200.txt", ""),
    Case("blowup-2-3", ["blowup", "2", "3"], 0,
         "weighted blow-up of a smooth surface point, weights (2, 3)\n"
         "exceptional divisor: P(2, 3) with A* = Z[t]/(6*t^2)\n"
         "self-intersection: E^2 pushes to -t on the exceptional divisor\n"
         + _charts(2, 3) +
         "invariant ring check up to total degree 15: pass\n", ""),
    Case("blowup-invariant-bound-cap", ["blowup", "1", "1", "--invariant-bound", "600"], 0,
         "weighted blow-up of a smooth surface point, weights (1, 1)\n"
         "exceptional divisor: P(1, 1) with A* = Z[t]/(t^2)\n"
         "self-intersection: E^2 pushes to -t on the exceptional divisor\n"
         + _charts(1, 1) +
         "invariant ring check up to total degree 600: pass\n", ""),
    Case("blowup-invariant-bound-0", ["blowup", "1", "1", "--invariant-bound", "0"], "usage", "",
         "wpchow blowup: error: argument --invariant-bound: value must be a positive integer"),
    # 1.5-4.5 ms.
    Case("blowup-invariant-bound-over-the-cap", ["blowup", "1", "1", "--invariant-bound", "10000"],
         "usage", "", "wpchow: error: --invariant-bound must be at most 600", seconds=1.0),
    # The argparse of Python 3.10.13 to 3.13.0 strips the second `--` and
    # handed `blowup` an empty list as w2, refused as a non-positive weight
    # instead of missing.  3.13.13's reads `--` as w2 and ends these with
    # "argument w2: not an integer: '--'".
    Case("blowup-dash-dash-as-w2", ["blowup", "--", "8", "--"], "usage", "",
         "wpchow blowup: error: the following arguments are required: w2"),
    Case("blowup-dash-dash-after-w1", ["blowup", "8", "--", "--"], "usage", "",
         "wpchow blowup: error: the following arguments are required: w2"),

    # curve: the marked Weierstrass pipeline.
    Case("curve-normalize", ["curve", "normalize", "3", "2", "0"], 0,
         "alpha = (1, 1, -3)\nbeta  = (-3, 3)\n", ""),
    Case("curve-normalize-denominator", ["curve", "normalize", "1/5", "0", "0"], 2, "",
         "error: a2 = 1/5 has a denominator not supported on {2, 3}; coefficients live in Z[1/6]"),
    Case("curve-disc", ["curve", "disc", "1", "0", "--", "-3"], 0, "0\n", ""),
    Case("curve-j", ["curve", "j", "1", "0"], 0, "1728\n", ""),
    Case("curve-j-singular", ["curve", "j", "--", "-3", "2"], 1, "",
         "error: curve (beta4, beta6) = (-3, 2) is singular: discriminant 4*beta4^3 + 27*beta6^2 = 0"),
    Case("curve-iso", ["curve", "iso", "12", "16", "0", "3", "2", "0"], 0, "lambda = 2\n", ""),
    Case("curve-iso-none", ["curve", "iso", "1", "0", "0", "0", "1", "0"], 1,
         "not isomorphic over Q (no rational scaling)\n", ""),
    Case("curve-fixed", ["curve", "fixed", "--", "-3", "2"], 0,
         "x = 1 (multiplicity 2) -> [1, 0, -3]\nx = -2 -> [-2, 0, -3]\n", ""),
    # x^3 + 2^61 - 1 has no root modulo 19: answered at once, where the root
    # search refused it as over its 10^15 limit.  0.05-0.10 ms.
    Case("curve-fixed-mersenne-rootless", ["curve", "fixed", "0", "2305843009213693951"], 0,
         "no rational fixed points\n", "", seconds=0.1),
    # Root 10^6, so the sieve lets it through to the limit.  1.6-6.1 ms.
    Case("curve-fixed-over-the-limit", ["curve", "fixed", "--", "0", "-1000000000000000000"], 2, "",
         "error: the rational root search needs |c0| and c3 of the cubic's integer model "
         "c3*x^3 + c1*x + c0 to be at most 10^15", seconds=0.1),

    # pic-complement: the Picard group of a hypersurface complement.
    Case("pic-complement", ["pic-complement", "2", "3", "4", "--poly", DISCRIMINANT], 0,
         "f = 27*a2^6 + 54*a2^4*a4 - 54*a2^3*a3^2 + 27*a2^2*a4^2 - 54*a2*a3^2*a4 + 27*a3^4"
         " + 4*a4^3\nweighted degree 12 under weights (2, 3, 4)\nPic = Z/12\n"
         "assumptions: ambient Picard group is Z; hypersurface is reduced and irreducible\n", ""),
    Case("pic-complement-discriminant",
         ["pic-complement", "2", "3", "4", "--poly", DISCRIMINANT, "--vars", "a2,a3,a4"], 0,
         GOLDEN / "pic-complement-discriminant.txt", ""),
    Case("pic-complement-inhomogeneous", ["pic-complement", "4", "6", "--poly", "x + y"], 2, "",
         "error: polynomial is not homogeneous: term degrees {4, 6}"),
    Case("pic-complement-zero-polynomial", ["pic-complement", "2", "--poly", "0"], 2, "",
         "error: the defining polynomial must be nonzero"),
    Case("pic-complement-empty-variable",
         ["pic-complement", "1", "1", "--poly", "x", "--vars", "x,"], 2, "",
         "error: variable '' is not a name of the polynomial syntax "
         "(a letter or _, then letters, digits or _)"),
    # A parse error that quotes the words of the interpreter's digit limit
    # is still the parse error, not the too-long-to-print message.
    Case("pic-complement-quotes-digit-limit-name",
         ["pic-complement", "1", "--poly", "x set_int_max_str_digits"], 2, "",
         "error: trailing input starting at 'set_int_max_str_digits'"),
    Case("pic-complement-quotes-digit-limit-text",
         ["pic-complement", "1", "--poly",
          "x Exceeds the limit (4300 digits) for integer string conversion"], 2, "",
         "error: trailing input starting at 'Exceeds'"),
    # V(f) is reducible or not reduced, so Pic is not Z/deg f: these printed
    # Z/2, Z/2 and Z/6 and exited 0.
    Case("pic-complement-square", ["pic-complement", "1", "--poly", "x^2"], 2, "", DIVISIBLE),
    Case("pic-complement-product", ["pic-complement", "1", "1", "--poly", "x*y"], 2, "", DIVISIBLE),
    Case("pic-complement-unused-variable",
         ["pic-complement", "2", "3", "--poly", "x^3", "--vars", "x,y"], 2, "", DIVISIBLE),
    # 125-215 ms.
    Case("pic-complement-expansion-over-budget",
         ["pic-complement", "1", "1", "--poly", "(x+1)^2000"], 2, "", EXPANSION_BUDGET, seconds=2.0),
    Case("pic-complement-trinomial-expansion-over-budget",
         ["pic-complement", "1", "1", "--poly", "(x+y+1)^200"], 2, "", EXPANSION_BUDGET,
         seconds=2.0),
    # Squaring a 161-term polynomial of ~8,000-bit coefficients: 1.4-2.0 s
    # when every term product counted 1 against the budget, 0.16-0.26 s
    # once products are weighed by coefficient size.
    Case("pic-complement-large-coefficient-products",
         ["pic-complement", "--poly",
          "a4 - (z^99) - (((_t*z)^1*(783234324225179)^40 * (X*z + z)^40)^40*a4 - (1)^3)^2 + z",
          "--vars", ",", "5", "10", "10", "11"], 2, "", EXPANSION_BUDGET, seconds=1.0),
    # A power of a pair only scales its exponents.
    Case("pic-complement-fermat",
         ["pic-complement", "1", "1", "1", "--poly",
          "x^1000000000000 + y^1000000000000 + z^1000000000000"], 0,
         "f = x^1000000000000 + y^1000000000000 + z^1000000000000\n"
         "weighted degree 1000000000000 under weights (1, 1, 1)\nPic = Z/1000000000000\n"
         "assumptions: ambient Picard group is Z; hypersurface is reduced and irreducible\n", ""),
    Case("pic-complement-number-too-long-to-read",
         ["pic-complement", "1", "--poly", "x/" + "7" * 4301], 2, "",
         f"error: polynomial text has {OVER_THE_LIMIT}"),

    # verify-paper: the identity suite as a report.
    Case("verify-paper", ["verify-paper"], 0, GOLDEN / "verify-paper-bound8.txt", ""),
    Case("verify-paper-json", ["verify-paper", "--format", "json"], 0,
         GOLDEN / "verify-paper-bound8.json", ""),
    Case("verify-paper-json-bound24", ["verify-paper", "--format", "json", "--bound", "24"], 0,
         GOLDEN / "verify-paper-bound24.json", ""),
    Case("verify-paper-json-bound200", ["verify-paper", "--bound", "200", "--format", "json"], 0,
         GOLDEN / "verify-paper-bound200.json", ""),
    Case("verify-paper-json-self-test", ["verify-paper", "--format", "json", "--self-test"], 1,
         GOLDEN / "verify-paper-self-test.json", ""),
    Case("verify-paper-self-test", ["verify-paper", "--self-test"], 1,
         GOLDEN / "verify-paper-self-test.txt", ""),
    Case("verify-paper-bound-3", ["verify-paper", "--bound", "3"], "usage", "",
         "wpchow: error: --bound must be at least 4"),

    # The degree flags print one line a degree, so each is capped; a refused
    # degree prints none.  1.2-2.3 ms each.
    Case("verify-paper-bound-201", ["verify-paper", "--bound", "201"], "usage", "",
         "wpchow: error: --bound must be at most 200", seconds=1.0),
    Case("chow-max-degree-201", ["chow", "2", "3", "--max-degree", "201"], "usage", "",
         "wpchow: error: --max-degree must be at most 200", seconds=1.0),
    Case("blowup-max-degree-201", ["blowup", "4", "6", "--max-degree", "201"], "usage", "",
         "wpchow: error: --max-degree must be at most 200", seconds=1.0),
    Case("verify-paper-bound-not-an-integer", ["verify-paper", "--bound", "eight"], "usage", "",
         "wpchow verify-paper: error: argument --bound: not an integer: 'eight'"),
    Case("chow-max-degree-not-an-integer", ["chow", "2", "3", "--max-degree", "2.5"], "usage", "",
         "wpchow chow: error: argument --max-degree: not an integer: '2.5'"),
    Case("blowup-max-degree-not-an-integer", ["blowup", "4", "6", "--max-degree", "x"], "usage", "",
         "wpchow blowup: error: argument --max-degree: not an integer: 'x'"),

    # Valid numbers past the interpreter's 4,300-digit limit: the error
    # names the length and the limit instead of echoing every digit.
    Case("too-long-to-read-weight", ["chow", "9" * 4301], "usage", "",
         f"wpchow chow: error: argument WEIGHT: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-rational", ["curve", "j", "9" * 4301, "1"], "usage", "",
         f"wpchow curve j: error: argument RATIONAL: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-denominator", ["curve", "j", "1/" + "9" * 4301, "1"], "usage", "",
         f"wpchow curve j: error: argument RATIONAL: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-chow-max-degree", ["chow", "2", "--max-degree", "9" * 4301], "usage",
         "", f"wpchow chow: error: argument --max-degree: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-blowup-max-degree", ["blowup", "4", "6", "--max-degree", "9" * 4301],
         "usage", "", f"wpchow blowup: error: argument --max-degree: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-verify-paper-bound", ["verify-paper", "--bound", "9" * 4301], "usage",
         "", f"wpchow verify-paper: error: argument --bound: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-exponent", ["curve", "fixed", "1e4300", "2"], "usage", "",
         f"wpchow curve fixed: error: argument RATIONAL: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-negative-exponent", ["curve", "fixed", "--", "-1E-4300", "2"], "usage",
         "", f"wpchow curve fixed: error: argument RATIONAL: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-decimal-exponent", ["curve", "j", "2.5e4_299", "1"], "usage", "",
         f"wpchow curve j: error: argument RATIONAL: {OVER_THE_LIMIT}"),
    Case("too-long-to-read-exponent-digits", ["curve", "j", "1", "1e" + "9" * 4301], "usage", "",
         f"wpchow curve j: error: argument RATIONAL: {OVER_THE_LIMIT}"),
    # Fraction("1e10000000") alone takes seconds, and "1e100000000" minutes;
    # these are refused before they are expanded, in 1.3-2.0 ms.
    Case("too-long-to-read-huge-exponent", ["curve", "fixed", "--", "1e10000000", "2"], "usage",
         "", "wpchow curve fixed: error: argument RATIONAL: "
         "a number of 10000001 digits, over the limit of 4300", seconds=0.5),
    Case("too-long-to-read-huger-exponent", ["curve", "fixed", "--", "1e100000000", "2"], "usage",
         "", "wpchow curve fixed: error: argument RATIONAL: "
         "a number of 100000001 digits, over the limit of 4300", seconds=0.5),
    Case("too-long-to-read-huger-negative-exponent",
         ["curve", "fixed", "--", "-1e-100000000", "2"], "usage", "",
         "wpchow curve fixed: error: argument RATIONAL: "
         "a number of 100000001 digits, over the limit of 4300", seconds=0.5),

    # Each argument reads, but a product of weights or a power of a
    # coefficient passes the limit.  chow and blowup ended in a traceback
    # and exit 1, curve printed the interpreter's own text, blowup printed
    # its first line (5,057 bytes) and `normalize` its alpha line first.
    Case("too-long-to-print-chow", ["chow", "7" * 2500, "7" * 2500], 2, "", TOO_LONG_TO_PRINT),
    Case("too-long-to-print-blowup", ["blowup", "7" * 2500, "7" * 2500], 2, "", TOO_LONG_TO_PRINT),
    Case("too-long-to-print-curve-normalize", ["curve", "normalize", "7" * 3000, "1", "1"], 2, "",
         TOO_LONG_TO_PRINT),
    Case("too-long-to-print-curve-normalize-beta", ["curve", "normalize", "7" * 1500, "1", "1"], 2,
         "", TOO_LONG_TO_PRINT),
    Case("too-long-to-print-curve-j", ["curve", "j", "7" * 3000, "1"], 2, "", TOO_LONG_TO_PRINT),
    Case("too-long-to-print-curve-disc", ["curve", "disc", "7" * 3000, "1", "1"], 2, "",
         TOO_LONG_TO_PRINT),
    # A 22,189-bit coefficient, under the parser's 65,536-bit cap.
    Case("too-long-to-print-coefficient", ["pic-complement", "1", "--poly", "3^14000*x"], 2, "",
         TOO_LONG_TO_PRINT),
    # A 4,357-digit exponent on x and on y, within the product budget.
    Case("too-long-to-print-exponent",
         ["pic-complement", "1", "1", "--poly",
          " + ".join("(" * 44 + name + (")^" + "9" * 99) * 44 for name in "xy")], 2, "",
         TOO_LONG_TO_PRINT),
    # f prints, but a 4,300-digit weight times a 4,300-digit exponent does not.
    Case("too-long-to-print-degree",
         ["pic-complement", "9" * 4300, "9" * 4300, "--poly",
          f"x^{'9' * 4300} + y^{'9' * 4300}"], 2, "", TOO_LONG_TO_PRINT),
)


def differences(case: Case, outcome) -> list:
    """How ``outcome``, what :func:`fuzz_cli.run_case` returned for the
    row's argv, differs from the row; empty if it does not."""
    failure, seconds, (code, out, err) = outcome
    lines = err.splitlines()
    found = [failure] if failure else []
    if code != case.exit:
        found.append(f"exit {code!r}, not {case.exit!r}")
    if out != (case.stdout.read_text(encoding="utf-8") if isinstance(case.stdout, Path)
               else case.stdout):
        found.append(f"stdout {out[:200]!r} is not the row's")
    if (lines[-1] if lines else "") != case.stderr:
        found.append(f"stderr ends {(lines or [''])[-1][:200]!r}, not {case.stderr!r}")
    if code == "usage" and not err.startswith("usage: "):
        found.append("argparse's error does not start with its usage")
    if code != "usage" and len(lines) > 1:
        found.append(f"{len(lines)} lines on stderr, not one")
    if case.seconds is not None and seconds >= case.seconds:
        found.append(f"took {seconds:.3f} s, over {case.seconds} s")
    return found


def _main() -> int:
    start = time.perf_counter()
    failed = 0
    for case in CASES:
        found = differences(case, fuzz_cli.run_case(list(case.argv)))
        if found:
            failed += 1
            print(f"FAIL {case.id}: {'; '.join(found)}")
    print(f"{len(CASES)} cases, {failed} failed, Python {sys.version.split()[0]}, "
          f"wall {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(_main())
