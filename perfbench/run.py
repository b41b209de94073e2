"""Benchmark harness for wpchow.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads are ``report``, ``pieces``, ``membership`` and ``curves`` (see
``workloads.py`` and ``NOTES.md``).  Each is a closed loop with one client:
the next op is sent when the previous one has answered.  Every answer is
checked; a wrong answer, an exception or an op over ``OP_LIMIT_S`` counts
as failed.

With ``--trace 0`` the run measures the end-to-end metrics.  Their times
are scaled by the host's speed, sampled between ops with the kernel of
``calibrate.py``, so that they read as seconds on one reference host; the
table on stderr gives the unscaled figures too.  With
``--trace 1`` it first runs a third of the time untraced, then replays the
same ops from the start with the wrappers of ``tracer.py`` installed, and
reports the per-layer metrics plus the tracing overhead.  A table goes to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it ``run.py`` exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS, corrupt

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench"  # spans of the latest traced run
OP_LIMIT_S = 10.0  # an op over this is stopped and counted as failed
SETUP_REPEATS = 12
CALIBRATE_EVERY_S = 0.1  # least harness time between two host-speed samples


class SetupError(Exception):
    """The program cannot be measured here; no result is printed."""


def child_env() -> dict:
    """Children import wpchow from ``src/`` with the bytecode cache on, as an
    installed package has it, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(command: list[str], capture: bool = True) -> tuple[int, str, float]:
    """Run a child to completion; return its exit code, stdout and wall time.

    ``subprocess.run(timeout=...)`` polls for the exit in sleeps of up to
    50 ms, which rounds short wall times onto a 50 ms grid.  Here the wait
    blocks, and a timer thread kills the child at ``OP_LIMIT_S`` instead.
    """
    pipe = subprocess.PIPE if capture else None
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=pipe, stderr=pipe, text=True, env=child_env(), cwd=ROOT)
    killed = threading.Event()

    def stop() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(OP_LIMIT_S, stop)
    timer.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    if killed.is_set():
        raise subprocess.TimeoutExpired(command, OP_LIMIT_S)
    return proc.returncode, stdout or "", seconds


def check_program() -> None:
    """Import wpchow once: this writes the bytecode cache, as an installed
    package has it, and shows that the checkout's copy is the one imported."""
    code, stdout, _ = run_child([sys.executable, "-c", "import wpchow.cli; print(wpchow.cli.__file__)"])
    where = Path(stdout.strip() or "?").resolve()
    if code != 0 or ROOT / "src" not in where.parents:
        raise SetupError(f"cannot import wpchow.cli from {ROOT / 'src'}")


def measure_setup(repeats: int) -> list[float]:
    """Scaled times for a fresh interpreter to import ``wpchow.cli``."""
    clock = calibrate.HostClock()
    spans = []
    for _ in range(repeats):
        clock.add(calibrate.sample())
        start = time.perf_counter()
        code, _, seconds = run_child([sys.executable, "-c", "import wpchow.cli"], capture=False)
        if code != 0:
            raise SetupError(f"importing wpchow.cli exited with code {code}")
        spans.append((start, time.perf_counter(), seconds))
    clock.add(calibrate.sample())
    return [seconds * clock.scale(start, end) for start, end, seconds in spans]


# -- op runners ----------------------------------------------------------------


class CliRunner:
    """report: every op is ``python -m wpchow.cli ...`` in a fresh interpreter."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.summaries: list[dict] = []

    def run(self, op, index: int) -> tuple[bool, float]:
        if self.trace:
            summary = OUT / f"report-{index}.json"
            command = [sys.executable, str(BENCH / "worker.py"), "--cli-trace", str(index),
                       str(summary), str(OUT / f"report-{index}.tsv"), *op.request]
        else:
            command = [sys.executable, "-m", "wpchow.cli", *op.request]
        try:
            code, stdout, seconds = run_child(command)
        except subprocess.TimeoutExpired:  # killed and reaped
            return False, OP_LIMIT_S
        if self.trace and summary.exists():
            self.summaries.append(json.loads(summary.read_text()))
        return op.judge((code, stdout)), seconds

    def calibrate(self) -> float:
        """Ops here take about a second, so five samples between two cost 1 %."""
        return statistics.median(calibrate.sample() for _ in range(5))

    def finish(self) -> list[dict]:
        return self.summaries


class Worker:
    """One ``worker.py --serve`` process."""

    def __init__(self, trace: bool, spans: Path | None):
        command = [sys.executable, str(BENCH / "worker.py"), "--serve"]
        if trace:
            command += ["--trace", "--spans", str(spans)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        self.answered = False

    def request(self, payload: dict, timeout: float) -> dict:
        """Send one request and wait for its reply.

        Raises TimeoutError when no reply comes in time, and EOFError when
        the process has died.
        """
        try:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise EOFError from exc
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError
        line = self.proc.stdout.readline()
        if not line:
            raise EOFError
        self.answered = True
        return json.loads(line)

    def stop(self, grace: float = 0.0) -> None:
        """Close stdin, which ends the serve loop, then kill after ``grace``."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class WorkerRunner:
    """pieces, membership, curves: ops go to one long-lived worker process."""

    def __init__(self, trace: bool, name: str):
        self.trace, self.name, self.restarts = trace, name, 0
        self.summaries: list[dict] = []
        self.worker = self._start()

    def _start(self) -> Worker:
        return Worker(self.trace, OUT / f"{self.name}-{self.restarts}.tsv")

    def run(self, op, index: int) -> tuple[bool, float]:
        start = time.perf_counter()
        try:
            reply = self.worker.request(op.request, OP_LIMIT_S)
        except (TimeoutError, EOFError) as exc:
            if isinstance(exc, EOFError) and not self.worker.answered:
                raise SetupError(f"worker exited with code {self.worker.proc.wait()}") from exc
            # The op hung or killed the worker: stop it and go on with a new one.
            self.worker.stop()
            self.restarts += 1
            self.worker = self._start()
            return False, min(time.perf_counter() - start, OP_LIMIT_S)
        if "error" in reply:
            print(f"op {index} ({op.tag}): {reply['error']}", file=sys.stderr)
            return False, reply["seconds"]
        return op.judge(reply["answer"]), reply["seconds"]

    def calibrate(self) -> float:
        """The kernel runs in the worker, the process that runs the ops."""
        return self.worker.request({"kind": "calibrate"}, 60)["seconds"]

    def finish(self) -> list[dict]:
        try:
            reply = self.worker.request({"kind": "quit"}, 60)
        except (TimeoutError, EOFError):
            reply = {}
        self.worker.stop(grace=10.0)
        if "trace" in reply:
            self.summaries.append(reply["trace"])
        return self.summaries


def run_phase(workload: str, seed: int, seconds: float, trace: bool, inject: bool) -> dict:
    """Closed loop over the workload's ops for ``seconds`` of wall time.

    Untraced phases sample the host's speed between ops (``calibrate.py``);
    traced phases do not, so that op ids stay harness indices.
    """
    runner = CliRunner(trace) if workload == "report" else WorkerRunner(trace, workload)
    clock = None if trace else calibrate.HostClock()
    times, spans, tags, failed = [], [], [], 0
    start = time.perf_counter()
    for index, op in enumerate(WORKLOADS[workload](seed)):
        now = time.perf_counter()
        if index and now - start >= seconds:
            break
        if clock is not None and (not clock.samples or now - clock.samples[-1][0] >= CALIBRATE_EVERY_S):
            clock.add(runner.calibrate())
        if inject:
            op = corrupt(op)
        op_start = time.perf_counter()
        ok, op_seconds = runner.run(op, index)
        spans.append((op_start, time.perf_counter()))
        failed += not ok
        times.append(op_seconds)
        tags.append(op.tag)
    if clock is not None:
        clock.add(runner.calibrate())
    wall = time.perf_counter() - start
    return {"times": times, "spans": spans, "tags": tags, "failed": failed, "wall": wall,
            "clock": clock, "trace": runner.finish()}


# -- metrics -------------------------------------------------------------------


def end_to_end(phase: dict, setup_s: float) -> dict:
    """Times are scaled to the reference host (``calibrate.py``); ops_per_s
    divides by the scaled time of the loop's ops, host-speed samples left out."""
    scales = [phase["clock"].scale(start, end) for start, end in phase["spans"]]
    times = [seconds * scale for seconds, scale in zip(phase["times"], scales)]
    loop_s = sum((end - start) * scale for (start, end), scale in zip(phase["spans"], scales))
    completed = len(times) - phase["failed"]
    return {
        "ops_per_s": (completed / loop_s, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        # Inclusive: with the 18-30 ops of a report run the exclusive
        # method lands next to the maximum; with hundreds both agree.
        "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1]
                     if len(times) > 1 else times[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(merged: dict, untraced: dict, traced: dict) -> dict:
    names, layers, c = merged["names"], merged["layers"], merged["counters"]

    def get(name: str, field: int) -> float:
        return names.get(name, [0, 0.0, 0.0])[field]

    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (get(name, 0), "count")
    for name in PER_LAYER_BUSY:
        metrics[f"{name}.busy_s"] = (get(name, 1), "s")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (get(name, 2), "s")
    shared = min(len(untraced["times"]), len(traced["times"]))
    metrics.update({
        "wps.busy_s": (layers.get("wps", 0.0), "s"),
        "graded.piece_cache_hit_ratio": (_ratio(c.get("piece_hits", 0), c.get("piece_calls", 0)), "ratio"),
        "graded.lattice_queries": (c.get("graded_queries", 0), "count"),
        "graded.repeat_share": (_ratio(c.get("graded_repeats", 0), c.get("graded_queries", 0)), "ratio"),
        "intlinalg.smith_normal_form.max_transform_bits": (c.get("smith_transform_bits", 0), "bits"),
        "intlinalg.hermite_normal_form.max_transform_bits": (c.get("hermite_transform_bits", 0), "bits"),
        "intlinalg.max_rows": (c.get("max_rows", 0), "count"),
        "intlinalg.max_cols": (c.get("max_cols", 0), "count"),
        "intlinalg.max_input_bits": (c.get("max_input_bits", 0), "bits"),
        "intlinalg.entries": (c.get("entries", 0), "count"),
        "intlinalg.nonzero_ratio": (_ratio(c.get("nonzeros", 0), c.get("entries", 0)), "ratio"),
        "curves.max_beta6_bits": (c.get("max_beta6_bits", 0), "bits"),
        "trace.ops": (len(traced["times"]), "count"),
        "trace.op_s": (sum(traced["times"]), "s"),
        "trace.overhead_ratio": (
            _ratio(sum(traced["times"][:shared]), sum(untraced["times"][:shared])), "ratio"),
    })
    return metrics


PER_LAYER_CALLS = [
    "blowup.invariant_ring_check", "graded.graded_piece", "graded.monomials_of_degree",
    "graded.is_zero", "graded.hom_check", "intlinalg.smith_normal_form", "intlinalg.cokernel",
    "intlinalg.hermite_normal_form", "intlinalg.solve_integer", "poly.Poly.mul",
    "poly.substitute", "poly.parse_poly", "curves.mu2_fixed_points", "cli.main",
]
PER_LAYER_BUSY = PER_LAYER_CALLS + [
    "blowup.check_split_assembly", "blowup.m12bar_chow", "blowup.m12_open_chow",
    "curves.to_short_form", "curves.iso_test", "curves.j_invariant", "curves.discriminant",
]
PER_LAYER_SELF = ["report.build_report", "graded.graded_piece", "graded.is_zero"]


def _by_tag(phase: dict, merged: dict) -> str:
    """Largest Smith transform and Smith share of op time, per op tag that
    reached Smith."""
    groups: dict[str, list] = {}
    for index, (tag, seconds) in enumerate(zip(phase["tags"], phase["times"])):
        group = groups.setdefault(tag, [0, 0.0, 0.0])
        group[0] = max(group[0], merged["op_smith_bits"].get(index, 0))
        group[1] += merged["op_smith_s"].get(index, 0.0)
        group[2] += seconds
    return "; ".join(
        f"{tag} {bits} bits {_ratio(smith, total):.0%}"
        for tag, (bits, smith, total) in sorted(groups.items())
        if smith
    ) or "none"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, inject: bool) -> dict:
    check_program()
    if trace:
        if OUT.exists():
            shutil.rmtree(OUT)
        OUT.mkdir()
        untraced = run_phase(workload, seed, seconds / 3, False, inject)
        traced = run_phase(workload, seed, seconds - seconds / 3, True, inject)
        from tracer import merge

        merged = merge(traced["trace"])
        metrics = per_layer(merged, untraced, traced)
        phases = [untraced, traced]
        notes = [f"per op tag, largest Smith transform and Smith share of op time: {_by_tag(traced, merged)}"]
    else:
        # Import times drift with the host's load over seconds, so half the
        # set-up samples come before the loop and half after it.
        setup = measure_setup(SETUP_REPEATS // 2)
        phase = run_phase(workload, seed, seconds, False, inject)
        setup += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = end_to_end(phase, statistics.median(setup))
        phases = [phase]
        samples = len(phase["times"])
        kernel = [seconds for _, seconds in phase["clock"].samples]
        notes = [
            f"op_p50_s and op_p90_s from {samples} samples",
            f"unscaled: ops_per_s {(samples - phase['failed']) / phase['wall']:.4g} 1/s, "
            f"op_p50_s {statistics.median(phase['times']):.4g} s; host kernel "
            f"{statistics.median(kernel) * 1e3:.4g} ms (reference {calibrate.REFERENCE_S * 1e3:.4g} ms) "
            f"over {len(kernel)} samples",
        ]
        if samples < 100:
            notes.append("op_p90_s has fewer than 10 samples beyond it: read it as indicative")
    attempted = sum(len(p["times"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    notes.append(f"failed_ops_ratio {failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": notes,
    }


def _table(workload: str, result: dict) -> str:
    lines = [f"workload {workload}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    lines.extend(f"  note: {note}" for note in result["notes"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt every expected answer; each op must then count as failed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wpchow" / "cli.py").is_file():
        print(f"error: no wpchow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One CPU for the harness and every child it starts: the host-speed
    # samples then come from the CPU that runs the ops.  A closed loop with
    # one client keeps one CPU busy at a time anyway.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.inject_wrong)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_table(args.workload, result), file=sys.stderr)
    print(json.dumps({k: v for k, v in result.items() if k != "notes"}))
    return 0


def run_all(args) -> int:
    """Every workload in its own ``run.py`` process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.inject_wrong:
            command.append("--inject-wrong")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
