"""Spans around the public entry points of each wpchow layer.

The program has no tracing of its own, so the benchmark wraps the public
functions that the per-layer metrics name.  Each wrapper is installed at
every name a caller looks up: a function imported into another module
(``graded.cokernel``, ``report.graded_piece``) is replaced there too, and
``Poly.__mul__`` is replaced on the class.

A span records (name, start, end, parent, op id).  Spans stay in memory
until :meth:`Tracer.summary`, which derives per-name call counts, busy time
(spans with no ancestor of the same name) and self time (span minus its
child spans).  Size probes run just outside the span they describe, so
their cost lands in the caller's self time and in the tracing overhead,
never in the callee's time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) of every traced entry point.  The metric name is
# "<module>.<attribute>", except Poly.__mul__, which is "poly.Poly.mul".
TRACED = [
    ("cli", "main"),
    ("report", "build_report"),
    ("blowup", "invariant_ring_check"),
    ("blowup", "check_split_assembly"),
    ("blowup", "m12bar_chow"),
    ("blowup", "m12_open_chow"),
    ("wps", "chow_ring"),
    ("wps", "point_class"),
    ("wps", "line_image_class"),
    ("wps", "chow_of_complement"),
    ("wps", "pic_complement"),
    ("graded", "graded_piece"),
    ("graded", "monomials_of_degree"),
    ("graded", "is_zero"),
    ("graded", "hom_check"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "hermite_normal_form"),
    ("intlinalg", "cokernel"),
    ("intlinalg", "solve_integer"),
    ("poly", "substitute"),
    ("poly", "parse_poly"),
    ("curves", "mu2_fixed_points"),
    ("curves", "to_short_form"),
    ("curves", "iso_test"),
    ("curves", "j_invariant"),
    ("curves", "discriminant"),
]


def _bits(matrix) -> int:
    return max((abs(v).bit_length() for row in matrix for v in row), default=0)


class Tracer:
    """Collects spans and boundary counters for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.depth: Counter = Counter()  # open spans per layer
        self.counters: Counter = Counter()
        self.op_smith_bits: dict[int, int] = {}
        self._seen_lattices: set = set()

    def install(self) -> None:
        """Replace every traced function at every wpchow name bound to it."""
        for module_name, attr in TRACED:
            module = importlib.import_module(f"wpchow.{module_name}")
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for name, loaded in list(sys.modules.items()):
                if name == "wpchow" or name.startswith("wpchow."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)
        poly_class = importlib.import_module("wpchow.poly").Poly
        mul = self._wrap("poly.Poly.mul", poly_class.__mul__)
        poly_class.__mul__ = mul
        poly_class.__rmul__ = mul

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        layer = name.split(".")[0]
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + layer, None)
        after = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            depth[layer] += 1
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.op)
            if after is not None:
                after(args, return_value)
            return return_value

        return wrapper

    # -- boundary probes ----------------------------------------------------

    def _before_intlinalg(self, args) -> None:
        """Size and density of every matrix entering the intlinalg layer."""
        if not args or not isinstance(args[0], list):
            return
        matrix, c = args[0], self.counters
        c["max_rows"] = max(c["max_rows"], len(matrix))
        c["max_cols"] = max(c["max_cols"], max((len(row) for row in matrix), default=0))
        c["max_input_bits"] = max(c["max_input_bits"], _bits(matrix))
        if self.depth["intlinalg"] == 0:  # count each matrix once, at entry
            c["entries"] += sum(len(row) for row in matrix)
            c["nonzeros"] += sum(1 for row in matrix for v in row if v)

    def _after_intlinalg_smith_normal_form(self, args, result) -> None:
        u, _, v = result
        bits = max(_bits(u), _bits(v))
        self.counters["smith_transform_bits"] = max(self.counters["smith_transform_bits"], bits)
        self.op_smith_bits[self.op] = max(self.op_smith_bits.get(self.op, 0), bits)

    def _after_intlinalg_hermite_normal_form(self, args, result) -> None:
        bits = _bits(result[1])
        self.counters["hermite_transform_bits"] = max(self.counters["hermite_transform_bits"], bits)

    def _lattice_query(self, presentation, degree) -> None:
        """Count graded queries whose (presentation, degree) came up before."""
        key = (presentation, degree)
        self.counters["graded_queries"] += 1
        if key in self._seen_lattices:
            self.counters["graded_repeats"] += 1
        else:
            self._seen_lattices.add(key)

    def _after_graded_graded_piece(self, args, result) -> None:
        self._lattice_query(*args[:2])

    def _after_graded_is_zero(self, args, result) -> None:
        self._lattice_query(args[0].ambient, args[0].degree)

    def _after_curves_mu2_fixed_points(self, args, result) -> None:
        beta6 = args[0].beta6
        bits = max(abs(beta6.numerator).bit_length(), beta6.denominator.bit_length())
        self.counters["max_beta6_bits"] = max(self.counters["max_beta6_bits"], bits)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name [calls, busy_s, self_s], per-layer busy_s and counters.

        A graded_piece span with no cokernel span below it was answered by
        the piece cache.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, list] = {}
        layers: Counter = Counter()
        missed = set()
        op_smith_s: dict[int, float] = {}
        for index, (name, start, end, parent, op) in enumerate(spans):
            layer = name.split(".")[0]
            same_name = same_layer = False
            ancestor = parent
            while ancestor >= 0:
                ancestor_name = spans[ancestor][0]
                same_name |= ancestor_name == name
                same_layer |= ancestor_name.split(".")[0] == layer
                if name == "intlinalg.cokernel" and ancestor_name == "graded.graded_piece":
                    missed.add(ancestor)
                ancestor = spans[ancestor][3]
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[2] += end - start - child_time[index]
            if not same_name:
                entry[1] += end - start
                if name == "intlinalg.smith_normal_form":
                    op_smith_s[op] = op_smith_s.get(op, 0.0) + end - start
            if not same_layer:
                layers[layer] += end - start
        counters = dict(self.counters)
        counters["piece_calls"] = names.get("graded.graded_piece", [0])[0]
        counters["piece_hits"] = counters["piece_calls"] - len(missed)
        return {
            "names": names,
            "layers": dict(layers),
            "counters": counters,
            "op_smith_bits": self.op_smith_bits,
            "op_smith_s": op_smith_s,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Combine process summaries: counts and times add, maxima take the max."""
    names: dict[str, list] = {}
    layers: Counter = Counter()
    counters: Counter = Counter()
    op_bits: dict[int, int] = {}
    op_smith_s: dict[int, float] = {}
    for s in summaries:
        for name, values in s["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                entry[i] += v
        layers.update(s["layers"])
        for key, value in s["counters"].items():
            if key.startswith("max_") or key.endswith("_bits"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for op, bits in s["op_smith_bits"].items():
            op_bits[int(op)] = max(op_bits.get(int(op), 0), bits)
        for op, seconds in s["op_smith_s"].items():
            op_smith_s[int(op)] = op_smith_s.get(int(op), 0.0) + seconds
    return {
        "names": names,
        "layers": dict(layers),
        "counters": dict(counters),
        "op_smith_bits": op_bits,
        "op_smith_s": op_smith_s,
    }
