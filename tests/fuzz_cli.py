"""Seeded grammar fuzzer for the ``wpchow`` command line.

Each case is an argument vector for one subcommand, drawn from a small
grammar: numbers with long digit runs, exponent forms, ``p/q`` and odd
spellings, polynomial text that is nested, powered or malformed, odd
``--vars`` lists and edge values of ``--max-degree``, ``--bound`` and
``--invariant-bound``.  A case runs ``wpchow.cli.main`` in this process,
with its output captured, under a ``signal.setitimer`` limit; no thread
or subprocess is started.  The property: ``main`` returns 0, 1 or 2, or
argparse exits with ``SystemExit(2)``; nothing else escapes, no case
runs past the limit and no error repeats the interpreter's own
digit-limit text.  And ``main``'s direct reader either leaves the case
to argparse or reads it as argparse does (:func:`reader_disagreement`);
some cases spell their options as only argparse reads them.

    python tests/fuzz_cli.py --seed N --cases M

runs a campaign and prints each failing case as a row of
``tests/cli_cases.py``: an id to rename, the argument vector and what
``main`` did with it.  Pasted into ``CASES`` and its exit, stdout or
stderr corrected to what ``main`` should do, the row keeps the case.
Tier-1 runs a fixed-seed slice (``tests/test_report_cli.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import signal
import sys
import time
from pathlib import Path

# The slowest accepted case of a 20,000-case campaign (seed 40961) took
# 2.0 s: `pic-complement` refusing a text that needs over 50,000 term
# products.  The slowest `curve fixed` case, a root search near its 10^15
# cap (`curve fixed -- -870599 -825872046939450`), also took 2.0 s when run
# alone (2-CPU Linux container, Python 3.11).  The limit leaves five times
# that for a slower host.
CASE_LIMIT_S = 10.0

# An --output path that cannot be opened: its parent is not a directory.
UNWRITABLE = os.path.join(os.devnull, "report.json")

DEGREE_EDGES = ["-1", "0", "1", "3", "4", "8", "200", "201", "2147483648",
                "9" * 4301, "x", "2.5", "1e3", "", " 7 ", "+8", "0x10"]
INVARIANT_EDGES = ["-1", "0", "1", "15", "600", "601", "10000", "9" * 4301, "1.0"]
VARIABLES = ["x", "y", "z", "a2", "a3", "a4", "_t", "X"]
ODD_VARS = ["", ",", "x,", ",x", "x,x", "x y", "1x", " x , y ", "x,y,z,w", "a-b", "é"]
ODD_NUMBERS = ["", "-", "+", "--", "1/0", "0/0", "3/-2", "inf", "nan", "1.5", ".5e1",
               "1_000", "1__0", "_1", "0x10", "٣", " 7 ", "1e", "e5", "1e_1", "1/2/3"]

class CaseTimeout(BaseException):
    """Raised in a case that runs past :data:`CASE_LIMIT_S`."""


def _digits(rng: random.Random) -> str:
    length = rng.choice([1, 1, 2, 3, 5, 8, 12, 15, 19, 40, 2500, 3000, 4300, 4301])
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=length - 1))


def _integer(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.7:
        return str(rng.randint(1, 12))
    if roll < 0.9:
        return _digits(rng)
    if roll < 0.96:
        return rng.choice(["0", "-1", "-7", "1e3", "2.0", "9" * 4301])
    return rng.choice(ODD_NUMBERS)


def _rational(rng: random.Random) -> str:
    roll = rng.random()
    sign = rng.choice(["", "", "-"])
    if roll < 0.45:
        return sign + str(rng.randint(0, 30))
    if roll < 0.6:
        return f"{sign}{rng.randint(0, 40)}/{rng.choice([1, 2, 3, 4, 6, 8, 9, 5, 7, 0])}"
    if roll < 0.75:
        return sign + _digits(rng)
    if roll < 0.9:
        mantissa = rng.choice(["1", "2.5", "0.5", ".5", "1_0", ""])
        exponent = rng.choice(["3", "-2", "15", "4299", "4300", "4301", "10000000", "1_0"])
        return f"{sign}{mantissa}{rng.choice('eE')}{exponent}"
    return rng.choice(ODD_NUMBERS)


def _large_fixed_pair(rng: random.Random) -> list[str]:
    """beta4 and beta6 for `curve fixed`, |beta6| log-uniform in 10^14..10^19,
    half of them with a constructed integer root r (beta6 = -r^3 - beta4*r)."""
    beta4 = rng.randint(-10**6, 10**6)
    if rng.random() < 0.5:
        beta6 = rng.choice((1, -1)) * round(10 ** rng.uniform(14, 19))
    else:
        root = rng.choice((1, -1)) * round(10 ** rng.uniform(14 / 3, 19 / 3))
        beta6 = -root**3 - beta4 * root
    return [str(beta4), str(beta6)]


def _term(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(VARIABLES)
    if roll < 0.5:
        return rng.choice(["1", "2", "3", "12", "27", "1/2", "0", _digits(rng)])
    if roll < 0.7:
        exponent = rng.choice(["2", "3", "0", "12", "99", "1000000000000", "9" * 60, "2^3"])
        return f"{rng.choice(VARIABLES)}^{exponent}"
    if roll < 0.85 and depth < 3:
        return f"({_polynomial(rng, depth + 1)})^{rng.choice(['1', '2', '3', '5', '40'])}"
    if depth < 3:
        return f"({_polynomial(rng, depth + 1)})"
    return rng.choice(VARIABLES)


def _polynomial(rng: random.Random, depth: int = 0) -> str:
    text = _term(rng, depth)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - ", "*", " * "]) + _term(rng, depth)
    return text


def _poly_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(["", "0", "x^", "(x", "x)", "x**2", "2x", "x^(2)", "x^-1", "x^-(1)",
                           "x y", "x^1.5", "+", "x^" + "9" * 4301, "3^14000*x",
                           "(" * 500 + "x" + ")" * 500, "(" * 5000 + "x"])
    text = _polynomial(rng)
    if roll < 0.25 and text:
        # One mangled character: deleted, doubled or replaced.
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(["", text[at] * 2, rng.choice("^*()+-/ ,.9x")]) + text[at + 1:]
    return text


def _flag(rng: random.Random, options: list[list[str]], flag: str, values: list[str]) -> None:
    if rng.random() < 0.4:
        options.append([flag, rng.choice(values)])


def _respell(rng: random.Random, options: list[list[str]]) -> list[list[str]]:
    """The options with one of them written as argparse reads it and the
    direct reader does not: as ``--name=value``, abbreviated or given twice."""
    at = rng.randrange(len(options))
    flag, *value = options[at]
    roll = rng.random()
    if roll < 0.35 and value:
        spelled = [[f"{flag}={value[0]}"]]
    elif roll < 0.7:
        spelled = [[flag[:rng.randint(3, len(flag) - 1)], *value]]
    else:
        spelled = [options[at], options[at]]
    return options[:at] + spelled + options[at + 1:]


def generate(rng: random.Random) -> list[str]:
    """One argument vector; values that start with ``-`` follow a ``--``.
    One case in ten respells an option, and one in ten puts the options
    after the positionals."""
    command = rng.choice(["chow", "blowup", "curve", "curve", "pic-complement", "verify-paper"])
    options: list[list[str]] = []
    if command == "chow":
        argv = ["chow"]
        _flag(rng, options, "--max-degree", DEGREE_EDGES)
        positional = [_integer(rng) for _ in range(rng.randint(1, 4))]
    elif command == "blowup":
        argv = ["blowup"]
        _flag(rng, options, "--max-degree", DEGREE_EDGES)
        _flag(rng, options, "--invariant-bound", INVARIANT_EDGES)
        positional = [_integer(rng) for _ in range(rng.choice([2, 2, 2, 1, 3]))]
    elif command == "curve":
        name, count = rng.choice([("normalize", 3), ("disc", 3), ("j", 2), ("iso", 6),
                                  ("fixed", 2)])
        argv = ["curve", name]
        positional = [_rational(rng) for _ in range(count + rng.choice([0] * 9 + [-1, 1]))]
        if name == "fixed" and rng.random() < 0.5:
            positional = _large_fixed_pair(rng)
    elif command == "pic-complement":
        text = _poly_text(rng)
        argv, options = ["pic-complement"], [["--poly", text]]
        if rng.random() < 0.3:
            options.append(["--vars", rng.choice(ODD_VARS + [",".join(VARIABLES[:2])])])
        # Mostly one weight per variable that the text names.
        count = len({name for name in VARIABLES if name in text})
        if rng.random() < 0.2 or not count:
            count = rng.randint(1, 4)
        positional = [_integer(rng) for _ in range(count)]
    else:
        argv = ["verify-paper"]
        _flag(rng, options, "--bound", DEGREE_EDGES)
        _flag(rng, options, "--format", ["text", "json", "xml"])
        _flag(rng, options, "--output", [UNWRITABLE, os.devnull])
        if rng.random() < 0.2:
            options.append(["--self-test"])
        positional = []
    dash = ["--"] if any(value.startswith("-") for value in positional) else []
    roll = rng.random()
    if options and roll < 0.1:
        options = _respell(rng, options)
    flat = [token for option in options for token in option]
    if roll > 0.9 and not dash:
        return argv + positional + flat
    return argv + flat + dash + positional


def reader_disagreement(argv: list[str]) -> str | None:
    """None if ``main``'s direct reader leaves ``argv`` to argparse, or reads
    it as ``build_parser().parse_args`` does (the same ``vars``, ``func``
    included); otherwise how they differ."""
    from wpchow import cli

    read = cli._read(list(argv))
    if read is None:
        return None
    try:
        parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        return "the direct reader reads what argparse refuses"
    if vars(read) != vars(parsed):
        return "the direct reader and argparse read different values"
    return None


def _expire(signum, frame):
    raise CaseTimeout


def run_case(argv: list[str]) -> tuple[str | None, float, tuple[int | str, str, str]]:
    """Run one case; return ``(failure, seconds, (exit, stdout, stderr))``,
    failure ``None`` if the property held and seconds the time ``main``
    took."""
    # Imported here: run as a script, this file puts src/ on the path first.
    from wpchow.cli import main

    out, err = io.StringIO(), io.StringIO()
    disagreement = None
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            disagreement = reader_disagreement(argv)
            start = time.perf_counter()  # the seconds are main's alone
            code = main(argv)
    except SystemExit as exc:
        code = "usage" if exc.code == 2 else f"SystemExit({exc.code!r})"
    except CaseTimeout:
        code = f"over the {CASE_LIMIT_S} s limit"
    except Exception as exc:  # the property under test: nothing escapes
        code = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    result = (code, out.getvalue(), err.getvalue())
    if code not in (0, 1, 2, "usage"):
        return str(code), seconds, result
    if disagreement:
        return disagreement, seconds, result
    # The interpreter's words in every supported version; an error may
    # quote input that names the function.
    if "sys.set_int_max_str_digits()" in err.getvalue():
        return "the interpreter's digit-limit text", seconds, result
    return None, seconds, result


def _shown(argv: list[str]) -> list[str]:
    return [value if len(value) <= 60 else f"<{len(value)} chars: {value[:20]}...>"
            for value in argv]


def draw(seed: int, cases: int) -> list[list[str]]:
    """The argument vectors of a campaign of ``cases`` cases on ``seed``."""
    rng = random.Random(seed)
    return [generate(rng) for _ in range(cases)]


def campaign(
    seed: int, cases: int
) -> tuple[list[tuple[int, list[str], str, tuple]], tuple[float, list[str]]]:
    """Failures of ``cases`` cases drawn from ``seed``, each as its index,
    argument vector, failure and ``(exit, stdout, stderr)``, and the
    slowest case's time and argument vector."""
    failures, slowest = [], (0.0, [])
    for at, argv in enumerate(draw(seed, cases)):
        failure, seconds, result = run_case(argv)
        slowest = max(slowest, (seconds, argv))
        if failure:
            failures.append((at, argv, failure, result))
    return failures, slowest


def _main(arguments: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=1000)
    options = parser.parse_args(arguments)
    start = time.perf_counter()
    failures, (slowest, slowest_argv) = campaign(options.seed, options.cases)
    for at, argv, failure, (code, out, err) in failures:
        name, last = f"fuzz-{options.seed}-{at}", err.splitlines()[-1] if err else ""
        print(f"# FAIL {failure}")
        print(f"Case({name!r}, {argv!r}, {code!r}, {out!r}, {last!r}),")
    print(f"seed {options.seed}: {options.cases} cases, {len(failures)} failed, "
          f"slowest {slowest:.3f} s {_shown(slowest_argv)}, "
          f"wall {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(_main(sys.argv[1:]))
