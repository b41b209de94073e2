"""Runs benchmark ops against wpchow in a process of its own.

Two modes:

* ``worker.py --serve [--trace]``: read one JSON request per line from
  stdin, run it through wpchow's public API and answer with one JSON line
  ``{"answer": ..., "seconds": ...}``.  The time covers the API calls only.
  The process lives for a whole run, so caches persist between ops as they
  would in a user's process.  A ``{"kind": "calibrate"}`` request runs the
  host-speed kernel of ``calibrate.py`` and answers with its time.  A
  ``{"kind": "quit"}`` request ends it; with ``--trace`` the reply then
  carries the trace summary.
* ``worker.py --cli-trace OP_ID SUMMARY_JSON SPANS_TSV ARGS...``: run
  ``wpchow.cli.main(ARGS)`` under the tracer in a fresh interpreter, as a
  traced stand-in for ``python -m wpchow.cli ARGS``.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import calibrate


def _rings(graded, blowup) -> dict:
    """The fixed lattices of the membership workload."""
    from workloads import PIECE_RINGS

    gens, rels = PIECE_RINGS["roadmap"]
    return {
        "roadmap": graded.GradedPresentation.make([(g, 1) for g in gens], rels),
        # The moduli pair comes from the public constructors, as a user gets it.
        "m12bar": blowup.m12bar_chow(8),
        "m12open": blowup.m12_open_chow(8),
    }


def serve(trace: bool, spans_path: str | None) -> None:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from wpchow import blowup, curves, graded

    rings = None
    for op_id, line in enumerate(sys.stdin):
        request = json.loads(line)
        kind = request["kind"]
        if kind == "quit":
            reply = {}
            if tracer is not None:
                reply["trace"] = tracer.summary()
                if spans_path:
                    tracer.write_spans(spans_path)
            print(json.dumps(reply), flush=True)
            return
        if kind == "calibrate":
            print(json.dumps({"seconds": calibrate.sample()}), flush=True)
            continue
        if tracer is not None:
            tracer.op = op_id
        if kind in ("is_zero", "hom") and rings is None:
            rings = _rings(graded, blowup)
        start = time.perf_counter()
        try:
            answer = run_op(request, graded, curves, rings)
            reply = {"answer": answer, "seconds": time.perf_counter() - start}
        except Exception as exc:  # a failed op is reported, and the run goes on
            reply = {"error": f"{type(exc).__name__}: {exc}", "seconds": time.perf_counter() - start}
        print(json.dumps(reply), flush=True)


def run_op(request: dict, graded, curves, rings):
    kind = request["kind"]
    if kind == "piece":
        presentation = graded.GradedPresentation.make(request["gens"], request["rels"])
        shape = graded.graded_piece(presentation, request["degree"])
        torsion: dict[int, int] = {}
        for factor in shape.torsion:
            torsion[factor] = torsion.get(factor, 0) + 1
        return {"free": shape.free_rank, "torsion": [[d, n] for d, n in torsion.items()]}
    if kind == "is_zero":
        ring = rings[request["ring"]]
        element = graded.GradedElement.of(ring, request["element"], request["degree"])
        return graded.is_zero(element)
    if kind == "hom":
        return graded.hom_check(rings[request["source"]], rings[request["target"]], request["images"])
    if kind == "curve":
        marked, scaled, mutant = (
            curves.MarkedCurveCoeffs(*map(Fraction, request[key]))
            for key in ("marked", "scaled", "mutant")
        )
        alpha, beta = curves.to_short_form(marked)
        lam = curves.iso_test(scaled, marked)
        lam_mutant = curves.iso_test(mutant, marked)
        return {
            "alpha": [str(alpha.alpha2), str(alpha.alpha3), str(alpha.alpha4)],
            "beta": [str(beta.beta4), str(beta.beta6)],
            "disc": str(curves.discriminant(alpha)),
            "j": str(curves.j_invariant(beta)),
            "iso": None if lam is None else str(lam),
            "iso_mutant": None if lam_mutant is None else str(lam_mutant),
            "fixed": [
                [str(p.x), p.multiplicity, [str(c) for c in p.coords]]
                for p in curves.mu2_fixed_points(beta)
            ],
        }
    raise ValueError(f"unknown op kind {kind!r}")


def cli_trace(op_id: int, summary_path: str, spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from wpchow import cli

    tracer.op = op_id
    code = cli.main(argv)
    sys.stdout.flush()
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    tracer.write_spans(spans_path)
    return code


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--cli-trace"]:
        return cli_trace(int(args[1]), args[2], args[3], args[4:])
    if args[:1] == ["--serve"]:
        trace = "--trace" in args
        spans = args[args.index("--spans") + 1] if "--spans" in args else None
        serve(trace, spans)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
