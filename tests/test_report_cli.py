"""Verification report schema/round-trip and command-line behavior."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wpchow import VerificationReport, build_report
from wpchow.cli import main


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


def test_report_json_roundtrip(report):
    text = report.render_json()
    parsed = VerificationReport.parse_json(text)
    assert parsed == report
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["summary"] == {"pass": report.passed, "fail": report.failed}
    assert all(isinstance(item["expected"], str) for item in payload["items"])


def test_report_roundtrip_rejects_bad_summary(report):
    payload = report.to_json_dict()
    payload["summary"]["fail"] = 99
    with pytest.raises(ValueError):
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
    ],
    ids=["weight", "rational", "denominator"],
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


def test_cli_pic_complement_rejects_expansions_over_the_budget(capsys):
    for text in ("(x+1)^2000", "(x+y+1)^200"):
        start = time.perf_counter()
        assert main(["pic-complement", "1", "1", "--poly", text]) == 2
        assert time.perf_counter() - start < 2.0
        assert "term products" in capsys.readouterr().err
    assert main(["pic-complement", "1", "--poly", "x^1000000000000"]) == 0
    assert "Pic = Z/1000000000000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "3^14000*x",  # a 22,189-bit coefficient, under the parser's 65,536-bit cap
        "(" * 50 + "x" + (")^" + "9" * 99) * 50,  # a 4,950-digit exponent
    ],
    ids=["coefficient", "exponent"],
)
def test_cli_pic_complement_numbers_too_long_to_print_are_an_error(capsys, text):
    # Both parse, but printing them passes the interpreter's limit of 4300
    # decimal digits per integer; that used to end in a traceback and exit 1.
    assert main(["pic-complement", "1", "--poly", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "digits" in captured.err
    assert "set_int_max_str_digits" not in captured.err
    assert "f has a coefficient or exponent too long to print" in captured.err


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
    assert main(["pic-complement", digits, "--poly", f"x^{digits}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the weighted degree of f is too long to print")
    assert "set_int_max_str_digits" not in captured.err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "args, golden, code",
    [
        (["--format", "json"], "verify-paper-bound8.json", 0),
        (["--format", "json", "--bound", "24"], "verify-paper-bound24.json", 0),
        (["--format", "json", "--self-test"], "verify-paper-self-test.json", 1),
        ([], "verify-paper-bound8.txt", 0),
    ],
)
def test_cli_verify_paper_matches_golden_output(capsys, args, golden, code):
    assert main(["verify-paper", *args]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Together they cost ~25 ms of a ~60 ms cold import of wpchow.cli.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, wpchow.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [["curve", "j", "1", "0"], ["verify-paper", "--format", "json"]],
    ids=["short-output", "report"],
)
def test_cli_closed_stdout_exits_nonzero_without_a_traceback(argv):
    # As in `wpchow verify-paper --format json | head -3`: the reader is
    # gone before the first write, whether that write comes from print or
    # from the flush of buffered output.
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "wpchow.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
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
    # The graded pieces cost about the cube of the degree: over 10 s at 400.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert f"{flag} must be at most 200" in capsys.readouterr().err


def test_cli_chow_accepts_the_degree_cap(capsys):
    assert main(["chow", "2", "3", "--max-degree", "200"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "200 | Z/6"
