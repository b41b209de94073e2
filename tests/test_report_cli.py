"""Verification report schema/round-trip and command-line behavior."""

from __future__ import annotations

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cases
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
    # Each of the first four raised a KeyError.  A status other than pass
    # or fail loaded, counted as neither and left all_passed true, and an
    # integer field loaded and broke render_text.
    item = dict(id="a", description="b", status="maybe", expected="c", actual="d", paper_anchor="e")
    header = {"schema": 1, "version": "x", "bound": 4}
    for load, error, problem in (
        (lambda: VerificationReport.parse_json("{}"), ValueError, "missing field 'items'"),
        (lambda: VerificationReport.parse_json(
            '{"schema": 1, "version": "x", "bound": 4, "items": [{}]}'), ValueError,
         "missing field 'id'"),
        (lambda: GradedPresentation.from_json_dict({"generators": [{}], "relations": []}),
         ValueError, "missing field 'name'"),
        (lambda: GradedPresentation.from_json_dict({}), ValueError, "missing field 'generators'"),
        (lambda: VerificationReport.from_json_dict({**header, "items": [item]}), ValueError,
         "status 'maybe'"),
        (lambda: VerificationReport.from_json_dict(
            {**header, "items": [{**item, "status": "pass", "expected": 3}]}), TypeError,
         "field 'expected'"),
    ):
        with pytest.raises(error, match=problem):
            load()
    # No items renders; max() of them raised a ValueError.
    empty = VerificationReport.from_json_dict({**header, "items": []})
    assert empty.render_text() == (
        "verification report (schema 1, toolkit x, degree bound 4)\nsummary: 0 passed, 0 failed"
    )


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


# The tier-1 slice of the grammar fuzzer: its seed and number of cases.
FUZZ_SLICE = (0, 300)


def test_cli_fuzz_slice_exits_cleanly():
    # A fixed-seed slice of the grammar fuzzer; `python tests/fuzz_cli.py
    # --seed N --cases M` runs longer campaigns.
    failures, _ = fuzz_cli.campaign(*FUZZ_SLICE)
    assert failures == []


CASES = {case.id: case for case in cli_cases.CASES}


def _replay(case_id: str):
    """Replay a row of tests/cli_cases.py; what :func:`fuzz_cli.run_case` returned."""
    case = CASES[case_id]
    outcome = fuzz_cli.run_case(list(case.argv))
    assert cli_cases.differences(case, outcome) == []
    return outcome


# Rows that had tests of their own before the table are replayed under
# those tests' names and case ids, so their history carries on: each entry
# maps a test's case ids to rows.  test_cli_case replays every other row.
DEGREE_FLAGS = ("verify-paper-bound", "chow-max-degree", "blowup-max-degree")
RENAMED = {
    "too-long-to-read": {old: f"too-long-to-read-{old}" for old in (
        "weight", "rational", "denominator", *DEGREE_FLAGS, "exponent", "negative-exponent",
        "decimal-exponent", "exponent-digits")},
    "too-long-to-print": {old: f"too-long-to-print-{old}" for old in (
        "chow", "blowup", "curve-normalize", "curve-normalize-beta", "curve-j", "curve-disc")},
    "poly-too-long-to-print": {old: f"too-long-to-print-{old}" for old in ("coefficient", "exponent")},
    "poly-problem": {old: f"pic-complement-{old}" for old in (
        "zero-polynomial", "empty-variable", "quotes-digit-limit-name", "quotes-digit-limit-text")},
    "divisible": {old: f"pic-complement-{old}" for old in ("square", "product", "unused-variable")},
    "capped": {old: f"{old}-201" for old in DEGREE_FLAGS},
    "not-an-integer": {old: f"{old}-not-an-integer" for old in DEGREE_FLAGS},
    "fuzz-corpus": {"blowup-weights-too-long-to-print": "too-long-to-print-blowup", **{
        old: old for old in ("blowup-dash-dash-as-w2", "blowup-dash-dash-after-w1",
                             "curve-fixed-mersenne-rootless", "pic-complement-large-coefficient-products")}},
    "parse-heavy": {old: old for old in ("blowup-4-6", "pic-complement-discriminant")},
    "high-degree": {"verify-paper-bound200": "verify-paper-json-bound200",
                    **{old: old for old in ("blowup-4-6-degree200", "chow-2-3-4-degree200")}},
    # Ids that pytest made from the parameters of VERIFY_PAPER_GOLDEN below.
    "verify-paper-golden": {"args0-verify-paper-bound8.json-0": "verify-paper-json",
                            "args1-verify-paper-bound24.json-0": "verify-paper-json-bound24",
                            "args2-verify-paper-self-test.json-1": "verify-paper-json-self-test",
                            "args3-verify-paper-bound8.txt-0": "verify-paper"},
}
RENAMED_ROWS = {row for rows in RENAMED.values() for row in rows.values()}


@pytest.mark.parametrize("old", RENAMED["too-long-to-read"])
def test_cli_arguments_too_long_to_read_are_refused_briefly(old):
    # The error names the length and the limit, not every digit.
    _, _, (_, _, err) = _replay(RENAMED["too-long-to-read"][old])
    assert len(err) < 300


@pytest.mark.parametrize("old", RENAMED["too-long-to-print"])
def test_cli_results_too_long_to_print_are_refused_briefly(old):
    _replay(RENAMED["too-long-to-print"][old])


@pytest.mark.parametrize("old", RENAMED["poly-too-long-to-print"])
def test_cli_pic_complement_numbers_too_long_to_print_are_an_error(old):
    _replay(RENAMED["poly-too-long-to-print"][old])


@pytest.mark.parametrize("old", RENAMED["poly-problem"])
def test_cli_pic_complement_names_the_real_problem(old):
    _replay(RENAMED["poly-problem"][old])


@pytest.mark.parametrize("old", RENAMED["divisible"])
def test_cli_pic_complement_refuses_f_divisible_by_a_variable(old):
    _replay(RENAMED["divisible"][old])


@pytest.mark.parametrize("old", RENAMED["capped"])
def test_cli_degree_flags_are_capped(old):
    _replay(RENAMED["capped"][old])


@pytest.mark.parametrize("old", RENAMED["not-an-integer"])
def test_cli_degree_flags_refuse_a_non_integer(old):
    _replay(RENAMED["not-an-integer"][old])


@pytest.mark.parametrize("old", RENAMED["fuzz-corpus"])
def test_cli_fuzz_corpus_replays_as_kept(old):
    _replay(RENAMED["fuzz-corpus"][old])


@pytest.mark.parametrize("old", RENAMED["parse-heavy"])
def test_cli_parse_heavy_output_matches_golden(old):
    _replay(RENAMED["parse-heavy"][old])


@pytest.mark.parametrize("old", RENAMED["high-degree"])
def test_cli_high_degree_output_matches_golden(old):
    _replay(RENAMED["high-degree"][old])


@pytest.mark.parametrize("old", RENAMED["verify-paper-golden"])
def test_cli_verify_paper_matches_golden_output(old):
    _replay(RENAMED["verify-paper-golden"][old])


@pytest.mark.parametrize("case_id", [case_id for case_id in CASES if case_id not in RENAMED_ROWS])
def test_cli_case(case_id):
    # Each other row of tests/cli_cases.py; `python tests/cli_cases.py`
    # replays every row without pytest.
    assert len(CASES) == len(cli_cases.CASES), "two rows share an id"
    _, _, (_, _, err) = _replay(case_id)
    if case_id.startswith("too-long-to-read-"):
        assert len(err) < 300


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
    cases = [
        *fuzz_cli.draw(*FUZZ_SLICE),
        *(case.argv for case in cli_cases.CASES),
        *NOT_PLAIN,
        *PLAIN,
    ]
    assert [argv for argv in cases if fuzz_cli.reader_disagreement(argv)] == []
    assert [argv for argv in NOT_PLAIN if cli._read(argv) is not None] == []
    assert [argv for argv in PLAIN if cli._read(argv) is None] == []


VERIFY_PAPER_GOLDEN = [
    (["--format", "json"], "verify-paper-bound8.json", 0),
    (["--format", "json", "--bound", "24"], "verify-paper-bound24.json", 0),
    (["--format", "json", "--self-test"], "verify-paper-self-test.json", 1),
    ([], "verify-paper-bound8.txt", 0),
]


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


def test_cli_verify_paper_json_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify-paper", "--format", "json", "--output", str(target)]) == 0
    capsys.readouterr()
    report = VerificationReport.parse_json(target.read_text(encoding="utf-8"))
    assert report.all_passed
    assert report.bound == 8


def test_cli_verify_paper_unwritable_output_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify-paper", "--format", "json", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report.json" in err
    assert "Traceback" not in err
    assert not target.exists()

