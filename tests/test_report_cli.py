"""Verification report schema/round-trip and command-line behavior."""

from __future__ import annotations

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fuzz_cli
import wpchow
from wpchow import (
    AssemblyMismatchError,
    GradedPresentation,
    VerificationReport,
    build_report,
    cli,
    m12bar_chow,
)
from wpchow.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's ``src`` on its path."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=60,
    )


@pytest.fixture(scope="module")
def report():
    return build_report(bound=8)


@pytest.fixture(scope="module")
def self_test_report():
    return build_report(bound=8, self_test=True)


def test_report_all_pass_by_default(report):
    assert report.failed == 0
    assert report.passed == len(report.items) > 20
    assert report.all_passed
    ids = [item.id for item in report.items]
    assert len(ids) == len(set(ids))


def test_report_item_status_matches_strings(report):
    for item in report.items:
        assert item.status == ("pass" if item.expected == item.actual else "fail")


@pytest.mark.parametrize("fixture", ["report", "self_test_report"])
def test_report_json_roundtrip(fixture, request):
    report = request.getfixturevalue(fixture)
    text = report.render_json()
    parsed = VerificationReport.parse_json(text)
    assert parsed == report
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["summary"] == {"pass": report.passed, "fail": report.failed}
    assert all(isinstance(item["expected"], str) for item in payload["items"])


def test_report_parse_json_refuses_deep_nesting():
    # json.loads raises RecursionError at this depth.
    with pytest.raises(ValueError, match="nested too deeply"):
        VerificationReport.parse_json("[" * 100000 + "]" * 100000)


def test_json_loaders_name_a_missing_field():
    # Each of these raised a KeyError.
    for load, missing in (
        (lambda: VerificationReport.parse_json("{}"), "items"),
        (lambda: VerificationReport.parse_json(
            '{"schema": 1, "version": "x", "bound": 4, "items": [{}]}'), "id"),
        (lambda: GradedPresentation.from_json_dict({"generators": [{}], "relations": []}), "name"),
        (lambda: GradedPresentation.from_json_dict({}), "generators"),
    ):
        with pytest.raises(ValueError, match=f"missing field '{missing}'"):
            load()


def test_report_roundtrip_rejects_bad_summary(report):
    payload = report.to_json_dict()
    payload["summary"]["fail"] = 99
    with pytest.raises(ValueError):
        VerificationReport.from_json_dict(payload)


def test_report_roundtrip_rejects_non_integer_numbers(report):
    # The numbers are read with operator.index: a bound of 4.9 is refused,
    # not read back as 4.
    for path, value in (
        (("bound",), 4.9),
        (("schema",), 1.0),
        (("summary", "pass"), float(report.passed)),
        (("summary", "fail"), float(report.failed)),
    ):
        payload = report.to_json_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(TypeError):
            VerificationReport.from_json_dict(payload)


def test_report_bound_stability(report):
    four = build_report(bound=4)
    assert [(i.id, i.status) for i in four.items] == [
        (i.id, i.status) for i in report.items
    ]


def test_report_bound_validation():
    with pytest.raises(ValueError):
        build_report(bound=3)


def test_self_test_fails_assembly_item(self_test_report):
    assert self_test_report.failed >= 1
    failing = {item.id for item in self_test_report.items if item.status == "fail"}
    assert failing == {"m12bar-assembly"}
    assert not self_test_report.all_passed


def test_disc_weighted_degree_fails_under_another_grading(monkeypatch):
    # The item measures the discriminant by the grading it is handed, and by
    # nothing else: doubling every weight doubles the degree it reports.
    monkeypatch.setattr(
        "wpchow.report.coordinate_grading",
        lambda: {"a2": 4, "a3": 6, "a4": 8},
    )
    by_id = {item.id: item for item in build_report(bound=4).items}
    assert by_id["disc-weighted-degree"].status == "fail"
    assert by_id["disc-weighted-degree"].actual == "24"
    assert by_id["pic-complement-disc"].status == "pass"


def test_report_and_cli_read_one_restriction_map(monkeypatch, capsys):
    # The report's item and the CLI's moduli section both check the shared
    # map, so breaking it fails the one and stops the other.
    monkeypatch.setattr("wpchow.report.MODULI_RESTRICTION", {"x": "t", "y": "t"})
    by_id = {item.id: item for item in build_report(bound=4).items}
    assert by_id["restriction-hom"].status == "fail"
    assert main(["blowup", "4", "6"]) == 1
    assert "error: restriction images do not kill the relations" in capsys.readouterr().err


def test_a_failed_moduli_assembly_is_a_fail_not_a_traceback(monkeypatch, capsys):
    # Six items read the compactified moduli ring; the failed assembly is
    # computed once for the report, whatever its bound, and each item
    # reports its message.
    calls = []

    def counting(*args):
        calls.append(args)
        return m12bar_chow(*args)

    def mismatch(presentation):
        raise AssemblyMismatchError("degree 2: planted mismatch")

    monkeypatch.setattr("wpchow.report.m12bar_chow", counting)
    monkeypatch.setattr("wpchow.blowup.check_split_assembly", mismatch)
    build_report(bound=9)
    assert calls == [()]
    failing = {item.id: item.actual for item in build_report(bound=4).items if item.status == "fail"}
    assert calls == [(), ()]
    assert failing == dict.fromkeys(
        (
            "m12bar-ring",
            "m12bar-assembly",
            "m12bar-pieces",
            "phi-kills-relations",
            "restriction-hom",
            "restriction-hom-mutant",
        ),
        "degree 2: planted mismatch",
    )
    assert main(["verify-paper", "--bound", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL phi-kills-relations" in out
    assert "actual:   degree 2: planted mismatch" in out
    assert main(["blowup", "4", "6"]) == 1
    captured = capsys.readouterr()
    assert "invariant ring check" in captured.out
    assert "moduli assembly" not in captured.out
    assert captured.err == "error: degree 2: planted mismatch\n"


def test_importing_the_report_computes_nothing():
    # A report op is mostly cold start: the identity table must not compute
    # any of its values when the module is imported.
    probe = (
        "import wpchow.report\n"
        "from wpchow import blowup, graded\n"
        "print(graded._graded_piece_cached.cache_info().currsize,"
        " blowup.cusp_complement_chow.cache_info().currsize)"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [b"0", b"0"]


def test_expected_headline_values(report):
    by_id = {item.id: item for item in report.items}
    assert by_id["m12bar-ring"].expected == "Z[x, y]/(x*y, 24*x^2 + 24*y^2)"
    assert by_id["pic-complement-disc"].expected == "Z/12"
    assert by_id["disc-weighted-degree"].expected == "12"
    assert by_id["weierstrass-identity"].actual == "0"


def test_cli_chow(capsys):
    assert main(["chow", "2", "3", "4", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "Z[t]/(24*t^3)" in out
    assert "Z/24" in out


def test_cli_chow_point(capsys):
    assert main(["chow", "1"]) == 0
    assert "Z[t]/(t)" in capsys.readouterr().out


def test_cli_chow_46(capsys):
    assert main(["chow", "4", "6", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "Z[t]/(24*t^2)" in out
    assert out.count("Z/24") == 2


def test_cli_chow_rejects_bad_weight():
    with pytest.raises(SystemExit):
        main(["chow", "0"])


@pytest.mark.parametrize(
    "argv",
    [
        ["chow", "9" * 4301],
        ["curve", "j", "9" * 4301, "1"],
        ["curve", "j", "1/" + "9" * 4301, "1"],
        ["chow", "2", "--max-degree", "9" * 4301],
        ["blowup", "4", "6", "--max-degree", "9" * 4301],
        ["verify-paper", "--bound", "9" * 4301],
        ["curve", "fixed", "1e4300", "2"],
        ["curve", "fixed", "--", "-1E-4300", "2"],
        ["curve", "j", "2.5e4_299", "1"],
        ["curve", "j", "1", "1e" + "9" * 4301],
    ],
    ids=[
        "weight", "rational", "denominator",
        "chow-max-degree", "blowup-max-degree", "verify-paper-bound",
        "exponent", "negative-exponent", "decimal-exponent", "exponent-digits",
    ],
)
def test_cli_arguments_too_long_to_read_are_refused_briefly(capsys, argv):
    # Valid numbers, but past the interpreter's 4,300-digit limit: the error
    # names the length and the limit instead of echoing every digit.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err) < 300
    assert "a number of 4301 digits, over the limit of 4300" in err
    assert "set_int_max_str_digits" not in err


# The one message for a result with an integer past the interpreter's
# 4,300-digit limit on decimal text, whichever command computed it.
TOO_LONG_TO_PRINT = "error: the output has a number too long to print (over 4300 decimal digits)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["chow", "7" * 2500, "7" * 2500],
        ["blowup", "7" * 2500, "7" * 2500],
        ["curve", "normalize", "7" * 3000, "1", "1"],
        ["curve", "normalize", "7" * 1500, "1", "1"],
        ["curve", "j", "7" * 3000, "1"],
        ["curve", "disc", "7" * 3000, "1", "1"],
    ],
    ids=["chow", "blowup", "curve-normalize", "curve-normalize-beta", "curve-j", "curve-disc"],
)
def test_cli_results_too_long_to_print_are_refused_briefly(capsys, argv):
    # Each argument reads, but a product of weights or a power of a
    # coefficient passes the limit: chow and blowup ended in a traceback
    # and exit 1, and curve printed the interpreter's own text.  Nothing
    # of the answer is printed: blowup printed its first line (5,057
    # bytes) and `normalize` its alpha line before the failing one.
    assert main(argv) == 2
    assert capsys.readouterr() == ("", TOO_LONG_TO_PRINT)


# The tier-1 slice of the grammar fuzzer: its seed and number of cases.
FUZZ_SLICE = (0, 300)


def test_cli_fuzz_slice_exits_cleanly():
    # A fixed-seed slice of the grammar fuzzer; `python tests/fuzz_cli.py
    # --seed N --cases M` runs longer campaigns.
    failures, _ = fuzz_cli.campaign(*FUZZ_SLICE)
    assert failures == []


def _constant(node: ast.AST):
    """The value of an expression of constants joined by + and *."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
        left, right = _constant(node.left), _constant(node.right)
        return left + right if isinstance(node.op, ast.Add) else left * right
    raise ValueError("not a constant")


def _argv_in_this_file() -> list[list[str]]:
    """Every list of strings written out in this file, alone and after the
    prefix of each list that ends in ``*name``: so each ``main([...])``
    argument vector, and each parametrized one, is among them."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    whole, prefixes = [], [[]]
    for node in ast.walk(tree):
        if not isinstance(node, ast.List):
            continue
        starred = bool(node.elts) and isinstance(node.elts[-1], ast.Starred)
        try:
            values = [_constant(element) for element in node.elts[:len(node.elts) - starred]]
        except ValueError:
            continue
        if all(isinstance(value, str) for value in values):
            (prefixes if starred else whole).append(values)
    return [prefix + argv for prefix in prefixes for argv in whole]


# Command lines that are not plain: argparse reads or refuses each, and
# the direct reader must leave each to it.
NOT_PLAIN = [
    ["chow", "2", "--max-degree", "8", "3"],
    ["verify-paper", "--bo", "24"],
    ["verify-paper", "--bound=24"],
    ["verify-paper", "--bound", "8", "--bound", "24"],
    ["curve", "disc", "1", "0", "-3"],
    ["blowup", "8", "--", "--"],
    ["verify-paper", "--format", "xml"],
    ["verify-paper", "--self-test", "--self-test"],
    ["pic-complement", "1"],
    ["chow", "2", "-h"],
    ["--version"],
    [],
]
# Plain command lines, which the direct reader reads itself.  A value out
# of range is still plain: main checks the ranges after reading.
PLAIN = [
    ["verify-paper", "--format", "json", "--bound", "24"],
    ["verify-paper", "--self-test", "--output", "report.json", "--format", "text"],
    ["verify-paper", "--bound", "3"],
    ["chow", "--max-degree", "4", "2", "3"],
    ["chow", "2", "3", "--max-degree", "4"],
    ["blowup", "4", "6", "--invariant-bound", "600", "--max-degree", "0"],
    ["curve", "iso", "12", "16", "0", "3", "2", "0"],
    ["curve", "fixed", "1/2", "3"],
    ["pic-complement", "--poly", "x + y", "1", "1", "--vars", "x,y"],
]


def test_the_direct_reader_reads_as_argparse_or_declines():
    from_this_file = _argv_in_this_file()
    assert ["chow", "2", "3", "4", "--max-degree", "4"] in from_this_file
    assert ["pic-complement", "2", "--poly", "0"] in from_this_file
    cases = [
        *fuzz_cli.draw(*FUZZ_SLICE),
        *(argv for argv, _ in fuzz_cli.CORPUS.values()),
        *from_this_file,
        *NOT_PLAIN,
        *PLAIN,
    ]
    assert [argv for argv in cases if fuzz_cli.reader_disagreement(argv)] == []
    assert [argv for argv in NOT_PLAIN if cli._read(argv) is not None] == []
    assert [argv for argv in PLAIN if cli._read(argv) is None] == []


@pytest.mark.parametrize("name", list(fuzz_cli.CORPUS))
def test_cli_fuzz_corpus_replays_as_kept(name):
    argv, (code, stdout, last_error_line) = fuzz_cli.CORPUS[name]
    failure, _, (got_code, out, err) = fuzz_cli.run_case(argv)
    assert failure is None
    assert (got_code, out, err.splitlines()[-1] if err else "") == (code, stdout, last_error_line)


def test_cli_large_coefficient_products_are_refused_within_a_second():
    # Measured in-process at 0.17-0.26 s over 7 runs (2-CPU Linux container,
    # Python 3.11); 1.4-2.0 s when each term product counted 1.
    argv, _ = fuzz_cli.CORPUS["pic-complement-large-coefficient-products"]
    failure, seconds, _ = fuzz_cli.run_case(argv)
    assert failure is None
    assert seconds < 1.0


def test_cli_huge_exponents_are_refused_before_they_are_expanded(capsys):
    # Fraction("1e10000000") alone takes seconds, and "1e100000000" minutes.
    for value, digits in (("1e10000000", 10000001), ("1e100000000", 100000001),
                          ("-1e-100000000", 100000001)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(["curve", "fixed", "--", value, "2"])
        assert time.perf_counter() - start < 0.5
        assert excinfo.value.code == 2
        assert f"a number of {digits} digits, over the limit of 4300" in capsys.readouterr().err


def test_cli_blowup_moduli(capsys):
    assert main(["blowup", "4", "6", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "Z[x, y]/(x*y, 24*x^2 + 24*y^2)" in out
    assert "invariant ring check" in out
    assert "x -> t" in out and "y -> 0" in out


def test_cli_blowup_generic(capsys):
    assert main(["blowup", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "P(2, 3)" in out
    assert "moduli assembly" not in out


def test_cli_blowup_rejects_nonpositive_invariant_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["blowup", "1", "1", "--invariant-bound", "0"])
    assert exc.value.code == 2
    assert "--invariant-bound" in capsys.readouterr().err


def test_cli_blowup_rejects_invariant_bound_over_the_cap(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["blowup", "1", "1", "--invariant-bound", "10000"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    assert "--invariant-bound must be at most 600" in capsys.readouterr().err
    assert main(["blowup", "1", "1", "--invariant-bound", "600"]) == 0


def test_cli_curve_normalize(capsys):
    assert main(["curve", "normalize", "3", "2", "0"]) == 0
    out = capsys.readouterr().out
    assert "alpha = (1, 1, -3)" in out
    assert "beta  = (-3, 3)" in out


def test_cli_curve_disc(capsys):
    assert main(["curve", "disc", "1", "0", "--", "-3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_curve_j(capsys):
    assert main(["curve", "j", "1", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1728"


def test_cli_curve_j_singular(capsys):
    assert main(["curve", "j", "--", "-3", "2"]) == 1
    assert "discriminant" in capsys.readouterr().err


def test_cli_curve_iso(capsys):
    assert main(["curve", "iso", "12", "16", "0", "3", "2", "0"]) == 0
    assert "lambda = 2" in capsys.readouterr().out
    assert main(["curve", "iso", "1", "0", "0", "0", "1", "0"]) == 1


def test_cli_curve_fixed(capsys):
    assert main(["curve", "fixed", "--", "-3", "2"]) == 0
    out = capsys.readouterr().out
    assert "[1, 0, -3]" in out
    assert "[-2, 0, -3]" in out
    assert "multiplicity 2" in out


def test_cli_curve_rejects_bad_denominator(capsys):
    assert main(["curve", "normalize", "1/5", "0", "0"]) == 2
    assert "Z[1/6]" in capsys.readouterr().err


def test_cli_pic_complement(capsys):
    code = main(
        [
            "pic-complement",
            "2",
            "3",
            "4",
            "--poly",
            "4*a4^3 + 27*(a3^2 - a2^3 - a2*a4)^2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "weighted degree 12" in out
    assert "Pic = Z/12" in out


def test_cli_pic_complement_inhomogeneous(capsys):
    assert main(["pic-complement", "4", "6", "--poly", "x + y"]) == 2
    assert "not homogeneous" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["2", "--poly", "0"], "error: the defining polynomial must be nonzero\n"),
        (
            ["1", "1", "--poly", "x", "--vars", "x,"],
            "error: variable '' is not a name of the polynomial syntax "
            "(a letter or _, then letters, digits or _)\n",
        ),
        # A parse error quoting the words of the interpreter's digit limit
        # is still the parse error, not the too-long-to-print message.
        (
            ["1", "--poly", "x set_int_max_str_digits"],
            "error: trailing input starting at 'set_int_max_str_digits'\n",
        ),
        (
            ["1", "--poly", "x Exceeds the limit (4300 digits) for integer string conversion"],
            "error: trailing input starting at 'Exceeds'\n",
        ),
    ],
    ids=["zero-polynomial", "empty-variable", "quotes-digit-limit-name",
         "quotes-digit-limit-text"],
)
def test_cli_pic_complement_names_the_real_problem(capsys, argv, message):
    assert main(["pic-complement", *argv]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv",
    [["1", "--poly", "x^2"], ["1", "1", "--poly", "x*y"], ["2", "3", "--poly", "x^3", "--vars", "x,y"]],
    ids=["square", "product", "unused-variable"],
)
def test_cli_pic_complement_refuses_f_divisible_by_a_variable(capsys, argv):
    # Each V(f) is reducible or not reduced, so Pic is not Z/deg f; these
    # printed Z/2, Z/2 and Z/6 and exited 0.
    assert main(["pic-complement", *argv]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the variable x divides every term of the polynomial, "
        "so the hypersurface is reducible or not reduced\n",
    )


def test_cli_pic_complement_rejects_expansions_over_the_budget(capsys):
    for text in ("(x+1)^2000", "(x+y+1)^200"):
        start = time.perf_counter()
        assert main(["pic-complement", "1", "1", "--poly", text]) == 2
        assert time.perf_counter() - start < 2.0
        assert "term products" in capsys.readouterr().err
    # A pair's power only scales its exponents.  (f = x^N alone is refused:
    # x divides it, so V(f) is not reduced.)
    fermat = " + ".join(f"{name}^1000000000000" for name in "xyz")
    assert main(["pic-complement", "1", "1", "1", "--poly", fermat]) == 0
    assert "Pic = Z/1000000000000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "weights, text",
    [
        (["1"], "3^14000*x"),  # a 22,189-bit coefficient, under the parser's 65,536-bit cap
        # a 4,357-digit exponent on x and on y, within the product budget
        (["1", "1"], " + ".join("(" * 44 + name + (")^" + "9" * 99) * 44 for name in "xy")),
    ],
    ids=["coefficient", "exponent"],
)
def test_cli_pic_complement_numbers_too_long_to_print_are_an_error(capsys, weights, text):
    # Both parse, but printing them passes the interpreter's limit of 4300
    # decimal digits per integer; that used to end in a traceback and exit 1.
    assert main(["pic-complement", *weights, "--poly", text]) == 2
    assert capsys.readouterr() == ("", TOO_LONG_TO_PRINT)


def test_cli_pic_complement_refuses_numbers_too_long_to_read(capsys):
    # test_poly.py covers the coefficient, exponent and denominator cases.
    assert main(["pic-complement", "1", "--poly", "x/" + "7" * 4301]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: polynomial text has a number of 4301 digits, over the limit of 4300\n"
    )


def test_cli_pic_complement_degree_too_long_to_print_is_an_error(capsys):
    # f prints, but a 4,300-digit weight times a 4,300-digit exponent does not.
    digits = "9" * 4300
    assert main(["pic-complement", digits, digits, "--poly", f"x^{digits} + y^{digits}"]) == 2
    assert capsys.readouterr() == ("", TOO_LONG_TO_PRINT)


VERIFY_PAPER_GOLDEN = [
    (["--format", "json"], "verify-paper-bound8.json", 0),
    (["--format", "json", "--bound", "24"], "verify-paper-bound24.json", 0),
    (["--format", "json", "--self-test"], "verify-paper-self-test.json", 1),
    ([], "verify-paper-bound8.txt", 0),
]


@pytest.mark.parametrize("args, golden, code", VERIFY_PAPER_GOLDEN)
def test_cli_verify_paper_matches_golden_output(capsys, args, golden, code):
    assert main(["verify-paper", *args]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("args, golden, code", VERIFY_PAPER_GOLDEN)
def test_cli_process_matches_golden_output(args, golden, code):
    # The process entry adds the exit-time freeze to what main does.
    result = _python("-m", "wpchow.cli", "verify-paper", *args)
    assert result.returncode == code, result.stderr
    assert result.stdout == (GOLDEN / golden).read_bytes()
    assert result.stderr == b""


def test_cli_process_usage_error_exits_2():
    result = _python("-m", "wpchow.cli", "verify-paper", "--bound", "3")
    assert result.returncode == 2
    assert b"--bound must be at least 4" in result.stderr
    assert result.stdout == b""


def test_main_does_not_freeze_the_heap(capsys):
    before = gc.get_freeze_count()
    assert main(["verify-paper"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# Launches of the process entry as the console script and as
# ``python -m wpchow.cli``; an atexit hook registered first runs after
# main has returned and reports how many objects are frozen then.
ENTRY_LAUNCHES = {
    "console-script": "from wpchow.cli import run; sys.exit(run())",
    "module": "import runpy; runpy.run_module('wpchow.cli', run_name='__main__', alter_sys=True)",
}


@pytest.mark.parametrize("launch", ENTRY_LAUNCHES.values(), ids=ENTRY_LAUNCHES.keys())
def test_process_entry_freezes_the_heap_before_exit(launch):
    probe = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"{launch}\n"
    )
    result = _python("-c", probe, "verify-paper", "--format", "json")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "verify-paper-bound8.json").read_bytes()
    label, count = result.stderr.decode().split()
    assert label == "frozen" and int(count) > 1000


def test_console_script_is_the_module_entry():
    # `python -m wpchow.cli` runs cli.run under its __main__ guard; the
    # test above checks that both launches freeze and print alike.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        spec = tomllib.load(handle)["project"]["scripts"]["wpchow"]
    module, _, attr = spec.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            [
                "pic-complement", "2", "3", "4",
                "--poly", "4*a4^3 + 27*(a3^2 - a2^3 - a2*a4)^2",
                "--vars", "a2,a3,a4",
            ],
            "pic-complement-discriminant.txt",
        ),
        (["blowup", "4", "6"], "blowup-4-6.txt"),
    ],
    ids=["pic-complement-discriminant", "blowup-4-6"],
)
def test_cli_parse_heavy_output_matches_golden(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify-paper", "--bound", "200", "--format", "json"], "verify-paper-bound200.json"),
        (["blowup", "4", "6", "--max-degree", "200"], "blowup-4-6-degree200.txt"),
        (["chow", "2", "3", "4", "--max-degree", "200"], "chow-2-3-4-degree200.txt"),
    ],
    ids=["verify-paper-bound200", "blowup-4-6-degree200", "chow-2-3-4-degree200"],
)
def test_cli_high_degree_output_matches_golden(capsys, argv, golden):
    # These outputs were made by eliminating the relation lattice of every
    # piece, so they show that graded_piece's rules for one-generator and
    # x*y rings give the lattice's answers up to degree 200.
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Together they cost ~25 ms of a ~60 ms cold import of wpchow.cli.  The
    # library modules, json and fractions load only with a command that
    # runs them: importing them all took ~11 ms of every cold start.
    # argparse, with the gettext and locale it loads, is read only for
    # help, --version and errors.
    unwanted = {"dataclasses", "inspect", "json", "fractions", "argparse", "gettext", "locale"}
    unwanted |= {f"wpchow.{name}" for name in
                 ("blowup", "curves", "graded", "intlinalg", "poly", "report", "wps")}
    code = f"import sys, wpchow.cli; print(sorted({sorted(unwanted)!r} & sys.modules.keys()))"
    result = _python("-S", "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == b"[]"


def test_plain_commands_load_no_argparse(tmp_path):
    # Each plain command line is read off the command table; a range check
    # that fails still prints argparse's usage before its message.
    target = str(tmp_path / "report.json")
    runs = [
        ["verify-paper", "--format", "json", "--bound", "8", "--output", target],
        ["chow", "2", "3", "4"],
        ["curve", "j", "1", "0"],
    ]
    probe = (
        "import sys\n"
        "from wpchow.cli import main\n"
        "loaded = [(main(argv), sorted({'argparse', 'gettext', 'locale'} & sys.modules.keys()))\n"
        f"          for argv in {runs!r}]\n"
        "print(loaded)\n"
    )
    result = _python("-S", "-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().splitlines()[-1] == "[(0, []), (0, []), (0, [])]"
    assert VerificationReport.parse_json(Path(target).read_text(encoding="utf-8")).all_passed
    result = _python("-S", "-m", "wpchow.cli", "verify-paper", "--bound", "3")
    assert result.returncode == 2
    assert b" ".join(result.stderr.split()) == (
        b"usage: wpchow [-h] [--version] {chow,blowup,curve,pic-complement,verify-paper} ..."
        b" wpchow: error: --bound must be at least 4"
    )


def test_package_names_resolve_on_first_use():
    # A fresh interpreter: `import wpchow` loads no library module, and each
    # public name or submodule loads its module when first read.
    probe = (
        "import sys, wpchow\n"
        "assert 'wpchow.graded' not in sys.modules\n"
        "graded = wpchow.graded\n"
        "assert graded is sys.modules['wpchow.graded']\n"
        "assert wpchow.graded_piece is graded.graded_piece\n"
        "assert set(wpchow.__all__) <= set(dir(wpchow))\n"
        "namespace = {}\n"
        "exec('from wpchow import *', namespace)\n"
        "assert all(namespace[name] is getattr(wpchow, name) for name in wpchow.__all__)\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wpchow.no_such_name


@pytest.mark.parametrize(
    "argv",
    [["curve", "j", "1", "0"], ["verify-paper", "--format", "json"]],
    ids=["short-output", "report"],
)
def test_cli_closed_stdout_exits_nonzero_without_a_traceback(argv):
    # As in `wpchow verify-paper --format json | head -3`: the reader is
    # gone before the first write, whether that write comes from print or
    # from the flush of buffered output.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _python("-m", "wpchow.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""


def test_cli_verify_paper(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert " 0 failed" in out


def test_cli_verify_paper_self_test(capsys):
    assert main(["verify-paper", "--self-test"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_paper_json_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify-paper", "--format", "json", "--output", str(target)]) == 0
    capsys.readouterr()
    report = VerificationReport.parse_json(target.read_text(encoding="utf-8"))
    assert report.all_passed
    assert report.bound == 8


def test_cli_verify_paper_bound_validation():
    with pytest.raises(SystemExit):
        main(["verify-paper", "--bound", "3"])


def test_cli_verify_paper_unwritable_output_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify-paper", "--format", "json", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report.json" in err
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-paper", "--bound", "201"], "--bound"),
        (["chow", "2", "3", "--max-degree", "201"], "--max-degree"),
        (["blowup", "4", "6", "--max-degree", "201"], "--max-degree"),
    ],
    ids=["verify-paper-bound", "chow-max-degree", "blowup-max-degree"],
)
def test_cli_degree_flags_are_capped(capsys, argv, flag):
    # The cap bounds the lines printed, and a refused degree prints none.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert f"{flag} must be at most 200" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "--bound", "eight"],
        ["chow", "2", "3", "--max-degree", "2.5"],
        ["blowup", "4", "6", "--max-degree", "x"],
    ],
    ids=["verify-paper-bound", "chow-max-degree", "blowup-max-degree"],
)
def test_cli_degree_flags_refuse_a_non_integer(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"not an integer: {argv[-1]!r}" in err


def test_cli_chow_accepts_the_degree_cap(capsys):
    assert main(["chow", "2", "3", "--max-degree", "200"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "200 | Z/6"
