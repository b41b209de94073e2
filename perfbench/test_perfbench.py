"""Tests of the benchmark itself: its expected answers and its checks.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _shape(factors: list[int], cols: int) -> dict:
    """Pinned-table form of Z^cols modulo a lattice with these factors."""
    nonzero = [f for f in factors if f]
    torsion: dict[int, int] = {}
    for f in nonzero:
        if f > 1:
            torsion[f] = torsion.get(f, 0) + 1
    return {"free": cols - len(nonzero), "torsion": [[d, n] for d, n in sorted(torsion.items())]}


def _matrix(ring: str, degree: int, images=None):
    """Rows m*r (every relation has degree 2) over the degree-``degree`` basis."""
    gens, texts = workloads.PIECE_RINGS[ring]
    relations = [workloads.parse_terms(t, gens) for t in texts]
    if images is not None:
        relations = [workloads.substitute_linear(r, images) for r in relations]
    basis = workloads.monomials(len(gens), degree)
    index = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for relation in relations:
        for mono in workloads.monomials(len(gens), degree - 2):
            row = [0] * len(basis)
            for key, value in workloads.poly_mul({mono: 1}, relation).items():
                row[index[key]] = value
            rows.append(row)
    return rows, len(basis)


def _sympy_factors(rows) -> list[int]:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    return [int(f) for f in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]


def _det(matrix) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    a = [list(row) for row in matrix]
    n, sign, previous = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


def _minor_gcd_factors(rows) -> list[int]:
    """Invariant factors D_k / D_(k-1) from gcds of all k x k minors."""
    m, n = len(rows), len(rows[0])
    factors, previous = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for r in combinations(range(m), k):
            for c in combinations(range(n), k):
                g = gcd(g, _det([[rows[i][j] for j in c] for i in r]))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


@pytest.mark.parametrize("ring", sorted(workloads.PIECE_RINGS))
def test_pieces_table_matches_sympy_smith_form(ring):
    for degree, expected in workloads.pieces_table()[ring].items():
        rows, cols = _matrix(ring, int(degree))
        assert _shape(_sympy_factors(rows), cols) == expected, (ring, degree)


@pytest.mark.parametrize("ring", sorted(workloads.PIECE_RINGS))
def test_pieces_table_matches_minor_gcds_at_degree_2(ring):
    rows, cols = _matrix(ring, 2)
    assert _shape(_minor_gcd_factors(rows), cols) == workloads.pieces_table()[ring]["2"]


def test_sheared_presentations_keep_the_pinned_shape():
    n = 3
    unit = [{tuple(int(i == j) for j in range(n)): 1} for i in range(n)]
    for target, source in ((0, 2), (2, 0), (0, 1)):
        images = list(unit)
        images[target] = workloads.poly_add(unit[target], unit[source])
        for degree in (4, 5):
            rows, cols = _matrix("roadmap", degree, images)
            assert _shape(_sympy_factors(rows), cols) == workloads.pieces_table()["roadmap"][str(degree)]


def test_membership_orders_rest_on_ring_maps():
    """b = c = 0 sends the roadmap relations into (6*a^2); y = 0 sends the
    m12bar relations into (24*x^2).  These maps prove the non-members."""
    for ring, divisor in (("roadmap", 6), ("m12bar", 24)):
        gens, texts = workloads.MEMBERSHIP_RINGS[ring]
        for text in texts:
            relation = workloads.parse_terms(text, gens)
            image = {k: v for k, v in relation.items() if not any(k[1:])}
            assert all(v % divisor == 0 for v in image.values()), (ring, text)
            assert set(image) <= {(2,) + (0,) * (len(gens) - 1)}


def test_curve_answers_hold_by_construction():
    for op in islice(workloads.curve_ops(5), 60):
        expected = op.expected
        beta4, beta6 = (Fraction(v) for v in expected["beta"])
        assert Fraction(expected["disc"]) == 4 * beta4**3 + 27 * beta6**2
        for x, multiplicity, coords in expected["fixed"]:
            x = Fraction(x)
            assert x**3 + beta4 * x + beta6 == 0 and multiplicity == 1
            assert coords == [str(x), "0", str(beta4)]
        if not expected["fixed"]:
            p, q = int(beta4), int(beta6)
            assert any(workloads._no_root_mod(p, q, prime) for prime in (5, 7, 11, 13))


def test_balanced_order_is_a_permutation():
    for size in range(1, 20):
        assert sorted(workloads._balanced_order(size)) == list(range(size))


def test_host_clock_scales_by_the_samples_around_an_interval():
    clock = calibrate.HostClock()
    ref = calibrate.REFERENCE_S
    # (harness time, kernel seconds): the host runs at half speed around t = 10.
    clock.samples = [(0.0, ref), (1.0, ref), (9.5, 2 * ref), (10.5, 2 * ref), (20.0, ref)]
    assert clock.scale(0.2, 0.8) == pytest.approx(1.0)
    assert clock.scale(9.8, 10.2) == pytest.approx(0.5)
    assert clock.scale(14.0, 15.0) == pytest.approx(2 / 3)  # the samples at 10.5 and 20
    assert clock.scale(25.0, 26.0) == pytest.approx(1.0)  # after the last sample: that one
    assert calibrate.sample() > 0


def test_summary_self_busy_and_cache_hits():
    tracer = Tracer()
    tracer.spans[:] = [
        ("graded.graded_piece", 0.0, 10.0, -1, 0),
        ("intlinalg.cokernel", 1.0, 9.0, 0, 0),
        ("intlinalg.cokernel", 2.0, 5.0, 1, 0),
        ("graded.graded_piece", 11.0, 12.0, -1, 1),
    ]
    summary = tracer.summary()
    assert summary["names"]["graded.graded_piece"] == [2, 11.0, 3.0]
    assert summary["names"]["intlinalg.cokernel"] == [2, 8.0, 8.0]
    assert summary["layers"] == {"graded": 11.0, "intlinalg": 8.0}
    assert (summary["counters"]["piece_calls"], summary["counters"]["piece_hits"]) == (2, 1)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_injected_wrong_answers_count_as_failed(workload):
    result = _result(_run("--workload", workload, "--seconds", "1", "--inject-wrong"))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


@pytest.mark.parametrize("workload", ["report", "pieces"])
def test_ops_over_the_limit_are_stopped_and_failed(monkeypatch, workload):
    import run

    monkeypatch.setattr(run, "OP_LIMIT_S", 0.02)
    phase = run.run_phase(workload, 1, 0.5, False, False)
    assert len(phase["times"]) >= 1
    assert phase["failed"] == len(phase["times"])
    assert max(phase["times"]) <= 0.02


def test_runs_print_the_metrics_benchmark_json_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = _result(_run("--workload", "curves", "--seconds", "2", "--trace", "0"))
    traced = _result(_run("--workload", "curves", "--seconds", "2", "--trace", "1"))
    assert plain["correct"] and traced["correct"]
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    for group, result in (("end_to_end", plain), ("per_layer", traced)):
        for metric in spec[group]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "pieces", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
