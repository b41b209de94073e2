"""Seeded inputs and expected answers for the wpchow benchmark workloads.

Every expected answer is known by construction, never by asking wpchow:

* ``pieces``: graded pieces are invariant under ring automorphisms, so a
  renamed or sheared presentation has the shape pinned for its base ring in
  ``data/pieces_table.json`` (cross-checked against sympy's Smith form by
  ``test_perfbench.py``).
* ``membership``: members are integer combinations of monomial multiples
  of the relations; non-members add ``e*m`` for a monomial ``m`` whose
  image under a ring map to ``Z[a]/(6*a^2)`` (or ``Z[x]/(24*x^2)``) has
  order not dividing ``e``.
* ``curves``: cubics are built from chosen integer roots, or chosen to have
  no root modulo a small prime.
* ``report``: item ids, statuses and expected strings must equal a golden
  copy in ``data/golden_report.json``.

Polynomials here are dicts from exponent tuples to integers over a fixed
generator order; this tiny arithmetic builds the inputs independently of
``wpchow.poly``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, permutations
from pathlib import Path
from typing import Any, Callable, Iterator

DATA = Path(__file__).resolve().parent / "data"

# -- tiny exact polynomial arithmetic -------------------------------------

Poly = dict  # {exponent tuple: nonzero int}


def parse_terms(text: str, gens: tuple[str, ...]) -> Poly:
    """Parse a sum of terms like ``6*a^2 - 15*a*c`` over ``gens``."""
    poly: Poly = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        coeff = -1 if term[0] == "-" else 1
        exps = [0] * len(gens)
        for factor in term.lstrip("+-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, power = factor.partition("^")
                exps[gens.index(name)] += int(power or 1)
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + coeff
    return {k: v for k, v in poly.items() if v}


def poly_add(p: Poly, q: Poly, scale: int = 1) -> Poly:
    out = dict(p)
    for key, value in q.items():
        out[key] = out.get(key, 0) + scale * value
    return {k: v for k, v in out.items() if v}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def substitute_linear(p: Poly, images: list[Poly]) -> Poly:
    """Replace generator ``i`` by the polynomial ``images[i]``."""
    n = len(images)
    out: Poly = {}
    for exps, coeff in p.items():
        term: Poly = {(0,) * n: coeff}
        for i, e in enumerate(exps):
            for _ in range(e):
                term = poly_mul(term, images[i])
        out = poly_add(out, term)
    return out


def render(p: Poly, names: list[str]) -> str:
    """Text in the syntax ``wpchow.poly.parse_poly`` reads ("0" if empty)."""
    parts = []
    for exps, coeff in sorted(p.items(), reverse=True):
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        ]
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, "*".join(factors)))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree ``degree`` (all generators degree 1)."""
    if nvars == 1:
        return [(degree,)]
    return [
        (e,) + rest
        for e in range(degree, -1, -1)
        for rest in monomials(nvars - 1, degree - e)
    ]


# -- operations -------------------------------------------------------------


@dataclass
class Op:
    """One request to the program plus the way its answer is judged."""

    request: Any
    expected: Any
    tag: str
    check: Callable[[Any, Any, Any], bool] = field(repr=False)

    def judge(self, answer: Any) -> bool:
        return self.check(self.request, self.expected, answer)


def equal_check(request, expected, answer) -> bool:
    return answer == expected


def _balanced_order(size: int) -> list[int]:
    """Bit-reversal order of ``range(size)``.

    Cells are listed roughly by cost, so every prefix of this order mixes
    cheap and dear cells; a run cut mid-cycle then keeps the cycle's mix.
    """
    bits = max(1, (size - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [i for i in order if i < size]


def _cycle(cells: list, rng: random.Random) -> Iterator[tuple[int, Any]]:
    """Endless closed-loop schedule: each cycle visits every cell once."""
    order = _balanced_order(len(cells))
    shift = rng.randrange(len(order))
    order = order[shift:] + order[:shift]
    for cycle in count():
        for position in order:
            yield cycle, cells[position]


# -- pieces -----------------------------------------------------------------

PIECE_RINGS = {
    # The ROADMAP ring Z[a,b,c]/(a*b - c^2, 6*a^2 + 10*b^2, 15*a*c).
    "roadmap": (("a", "b", "c"), ("a*b - c^2", "6*a^2 + 10*b^2", "15*a*c")),
    # Four generators: wider matrices whose entries stay small under Smith.
    "quad4": (("a", "b", "c", "d"), ("a*d - b*c", "4*a^2 + 6*c^2", "10*b*d")),
}

# (ring, degree, shear) with shear = (target, source): target -> target +- source.
# Listed roughly by cost.  Sheared cells stop at degree 6: at degree 7 the
# shear a -> a + c takes ~5.8 s per op with 149,266-bit transforms, and at
# degree 10 it runs past 5 minutes.  The sheared cells keep the generator
# order fixed because a permuted shear varies 20 ms .. 3.4 s per op.
PIECE_CELLS = [
    ("roadmap", 4, ("a", "c")),
    ("roadmap", 5, ("a", "c")),
    ("quad4", 5, None),
    ("roadmap", 8, None),
    ("roadmap", 6, ("a", "b")),
    ("roadmap", 6, ("a", "c")),
    ("roadmap", 6, ("c", "a")),
    ("quad4", 6, None),
    ("roadmap", 10, None),
    ("quad4", 7, None),
    ("roadmap", 12, None),
    ("roadmap", 14, None),
    ("quad4", 8, None),
]


def pieces_table() -> dict:
    return json.loads((DATA / "pieces_table.json").read_text())


def piece_ops(seed: int) -> Iterator[Op]:
    """Each op asks for a graded piece of a presentation new to the run."""
    rng = random.Random(seed)
    table = pieces_table()
    # Each sparse cell walks its own seeded shuffle of the generator orders,
    # one per cycle, so a run sees every order about equally often (their
    # costs differ by up to 1.7x).
    orders = {}
    for cell in PIECE_CELLS:
        orders[cell] = list(permutations(range(len(PIECE_RINGS[cell[0]][0]))))
        rng.shuffle(orders[cell])
    for index, (cycle, cell) in enumerate(_cycle(PIECE_CELLS, rng)):
        ring, degree, shear = cell
        gens, texts = PIECE_RINGS[ring]
        relations = [parse_terms(t, gens) for t in texts]
        n = len(gens)
        unit = [{tuple(int(i == j) for j in range(n)): 1} for i in range(n)]
        if shear is None:
            # Sparse family: a renaming that also permutes the order.
            perm = orders[cell][cycle % len(orders[cell])]
            family = "sparse"
        else:
            # Sheared family: target -> target +- source, order kept.
            perm = list(range(n))
            target, source = (gens.index(g) for g in shear)
            images = list(unit)
            images[target] = poly_add(unit[target], unit[source], rng.choice((1, -1)))
            relations = [substitute_linear(r, images) for r in relations]
            family = f"sheared-{shear[0]}{shear[1]}"
        # Fresh names make every presentation unseen, so no cache can answer.
        names = [f"g{index}_{perm[i]}" for i in range(n)]
        request = {
            "kind": "piece",
            "gens": [[name, 1] for name in names],
            "rels": [render(r, names) for r in relations],
            "degree": degree,
        }
        expected = table[ring][str(degree)]
        yield Op(request, expected, f"{family}:{ring}:{degree}", equal_check)


# -- membership ---------------------------------------------------------------

MEMBERSHIP_RINGS = {
    "roadmap": PIECE_RINGS["roadmap"],
    "m12bar": (("x", "y"), ("x*y", "24*x^2 + 24*y^2")),
}

# Known orders: under b = c = 0 the roadmap ring maps onto Z[a]/(6*a^2), where
# a^d (d >= 2) has order 6; under y = 0 the compactified moduli ring maps onto
# Z[x]/(24*x^2), where x^d has order 24, and 24*x^d lies in the lattice from
# degree 3 on.  In the open moduli ring Z[t]/(12*t) every t^d has order 12.
MEMBERSHIP_CELLS = (
    [("open", d) for d in (8, 16, 24, 32)]
    + [("hom", "m12"), ("hom", "roadmap")]
    + [("m12bar", d) for d in (8, 16, 24, 32)]
    + [("roadmap", d) for d in range(6, 13)]
)

# Degree-1 images of the roadmap generators under the self-maps checked by
# hom_check; the answer says whether the images respect the relations.
ROADMAP_SELF_MAPS = [
    ({"a": "a", "b": "b", "c": "c"}, True),
    ({"a": "-a", "b": "-b", "c": "c"}, True),
    ({"a": "a", "b": "b", "c": "-c"}, True),
    ({"a": "b", "b": "a", "c": "c"}, False),  # 6a^2 + 10b^2 -> 6b^2 + 10a^2
    ({"a": "a", "b": "b", "c": "2*c"}, False),  # a*b - c^2 -> a*b - 4*c^2
]


def _lattice_member(rng: random.Random, gens, relations, degree) -> Poly:
    member: Poly = {}
    for _ in range(4):
        mono = rng.choice(monomials(len(gens), degree - 2))
        relation = rng.choice(relations)
        member = poly_add(member, poly_mul({mono: 1}, relation), rng.choice((-3, -2, -1, 1, 2, 3)))
    return member


def membership_ops(seed: int) -> Iterator[Op]:
    """is_zero / hom_check queries on a handful of fixed lattices."""
    rng = random.Random(seed)
    for cycle, (ring, arg) in _cycle(MEMBERSHIP_CELLS, rng):
        if ring == "hom" and arg == "m12":
            # x -> k*t, y -> j*t kills x*y iff 12 | k*j; 24*x^2 + 24*y^2
            # always dies because 12*t = 0.
            k, j = rng.randrange(1, 12), rng.choice((0, 12, 24, rng.randrange(1, 40)))
            request = {
                "kind": "hom",
                "source": "m12bar",
                "target": "m12open",
                "images": {"x": f"{k}*t", "y": f"{j}*t"},
            }
            yield Op(request, (k * j) % 12 == 0, "hom:m12", equal_check)
        elif ring == "hom":
            images, expected = rng.choice(ROADMAP_SELF_MAPS)
            request = {"kind": "hom", "source": "roadmap", "target": "roadmap", "images": images}
            yield Op(request, expected, "hom:roadmap", equal_check)
        elif ring == "open":
            e = rng.randrange(1, 200)
            request = {"kind": "is_zero", "ring": "m12open", "element": f"{e}*t^{arg}", "degree": arg}
            yield Op(request, e % 12 == 0, f"is_zero:open:{arg}", equal_check)
        else:
            gens, texts = MEMBERSHIP_RINGS[ring]
            relations = [parse_terms(t, gens) for t in texts]
            element = _lattice_member(rng, gens, relations, arg)
            # e*lead is a member when e is a multiple of the order (24 is the
            # exact order of x^d in m12bar); in the roadmap ring 6*a^d is not
            # a member, so there only e = 0 and 6 not dividing e are known.
            order = 6 if ring == "roadmap" else 24
            multiple = 0 if ring == "roadmap" else order * rng.randrange(1, 5)
            other = rng.randrange(1, 100 // order) * order + rng.randrange(1, order)
            e = rng.choice((0, multiple, other))
            lead = (arg,) + (0,) * (len(gens) - 1)
            element = poly_add(element, {lead: e})
            request = {
                "kind": "is_zero",
                "ring": ring,
                "element": render(element, list(gens)),
                "degree": arg,
            }
            yield Op(request, e % order == 0, f"is_zero:{ring}:{arg}", equal_check)


# -- curves -------------------------------------------------------------------

CURVE_STRATA = 15
# |beta6| runs log-uniformly over 10^7 .. 10^13: one op per stratum per cycle,
# placed inside the stratum by a van der Corput sequence, so the sizes of a
# run fill the range evenly and the median op sits at ~10^10.  Root search
# costs about sqrt(|beta6|); below 10^7 an op is fixed overhead (~2 ms), whose
# median moved 11 % between runs.
BETA6_LOG10 = (7.0, 13.0)


def _van_der_corput(i: int) -> float:
    value, scale = 0.0, 0.5
    while i:
        value += scale * (i & 1)
        i >>= 1
        scale /= 2
    return value


def _no_root_mod(p: int, q: int, prime: int) -> bool:
    return all((x * x * x + p * x + q) % prime for x in range(prime))


def curve_check(request, expected, answer) -> bool:
    """Exact comparison, plus the defining property of the iso scaling."""
    if answer is None or not isinstance(answer, dict):
        return False
    if {k: answer.get(k) for k in expected} != expected:
        return False
    lam = answer.get("iso")
    if lam is None:
        return False
    lam = Fraction(lam)
    base = [Fraction(v) for v in request["marked"]]
    scaled = [Fraction(v) for v in request["scaled"]]
    return [lam**w * v for w, v in zip((2, 3, 4), base)] == scaled


def curve_ops(seed: int) -> Iterator[Op]:
    """One marked Weierstrass pipeline per op, with |beta6| set by stratum."""
    rng = random.Random(seed)
    low, high = BETA6_LOG10
    width = (high - low) / CURVE_STRATA
    offsets = [rng.randrange(1 << 10) for _ in range(CURVE_STRATA)]
    for cycle, stratum in _cycle(list(range(CURVE_STRATA)), rng):
        position = _van_der_corput(cycle + offsets[stratum])
        target = 10 ** (low + (stratum + position) * width)
        # The two families alternate per stratum, so each run holds both
        # equally at every size.
        if (cycle + stratum) % 2 == 0:
            # Roots r1, r2, r3 = -(r1 + r2): beta4 = -(r1^2 + r1*r2 + r2^2),
            # beta6 = r1*r2*(r1 + r2); alpha = (r1, 0, beta4) puts the marked
            # point on the root r1.
            while True:
                u = rng.uniform(0.3, 0.9)
                r1 = max(2, round((target / (u * (1 + u))) ** (1 / 3)))
                r2 = max(1, round(u * r1))
                sign = rng.choice((1, -1))
                r1, r2 = sign * r1, sign * r2
                r3 = -(r1 + r2)
                if len({r1, r2, r3}) == 3:
                    break
            beta4, beta6 = -(r1 * r1 + r1 * r2 + r2 * r2), r1 * r2 * (r1 + r2)
            alpha = (r1, 0, beta4)
            disc = -((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2
            roots = sorted((r1, r2, r3), reverse=True)
            fixed = [[str(r), 1, [str(r), "0", str(beta4)]] for r in roots]
            family = "roots"
        else:
            # beta6 = s^2 with alpha = (0, s, beta4), and no root modulo a
            # small prime, hence no rational root at all.
            prime = rng.choice((5, 7, 11, 13))
            s = max(2, round(math.sqrt(target) * rng.uniform(0.97, 1.03)))
            s += s % prime == 0  # x = 0 is a root modulo any prime dividing s
            beta4 = rng.randrange(-1000, 1000)
            while not _no_root_mod(beta4, s * s, prime):
                beta4 += 1
            beta6 = s * s
            alpha = (0, s, beta4)
            disc = 4 * beta4**3 + 27 * beta6**2
            fixed = []
            family = "noroot"
        a2, a3, a4 = 3 * alpha[0], 2 * alpha[1], alpha[2] + 3 * alpha[0] ** 2
        lam = Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3))) * rng.choice((1, -1))
        scaled = [lam**2 * a2, lam**3 * a3, lam**4 * a4]
        request = {
            "kind": "curve",
            "marked": [str(a2), str(a3), str(a4)],
            "scaled": [str(v) for v in scaled],
            # Same curve with a4 moved: no rational scaling relates it.
            "mutant": [str(a2), str(a3), str(a4 + 1)],
        }
        expected = {
            "alpha": [str(Fraction(v)) for v in alpha],
            "beta": [str(beta4), str(beta6)],
            "disc": str(disc),
            "j": str(Fraction(1728 * 4 * beta4**3, disc)),
            "iso_mutant": None,
            "fixed": fixed,
        }
        yield Op(request, expected, f"{family}:1e{int(math.log10(target))}", curve_check)


# -- report -------------------------------------------------------------------


def golden_report() -> dict:
    return json.loads((DATA / "golden_report.json").read_text())


def report_check(request, expected, answer) -> bool:
    """``answer`` is (exit code, stdout); compare ids, statuses, expected."""
    code, stdout = answer
    try:
        data = json.loads(stdout)
        items = [[i["id"], i["status"], i["expected"]] for i in data["items"]]
        consistent = all((i["status"] == "pass") == (i["expected"] == i["actual"]) for i in data["items"])
        summary = data["summary"]
    except (ValueError, KeyError, TypeError):
        return False
    fails = sum(1 for item in items if item[1] == "fail")
    return (
        code == expected["exit"]
        and items == expected["items"]
        and consistent
        and summary == {"pass": len(items) - fails, "fail": fails}
    )


def report_ops(seed: int) -> Iterator[Op]:
    """verify-paper at bounds 8 and 24 in turn, plus one self-test op.

    The seed picks the starting bound and where the self-test op falls
    among the first four ops.
    """
    rng = random.Random(seed)
    golden = golden_report()
    first = rng.choice((8, 24))
    self_test_at = rng.randrange(4)
    bounds = [first, 32 - first]
    for index in count():
        if index == self_test_at:
            request = ["verify-paper", "--format", "json", "--self-test"]
            yield Op(request, golden["self_test"], "self-test", report_check)
            continue
        bound = bounds[index % 2]
        request = ["verify-paper", "--format", "json", "--bound", str(bound)]
        yield Op(request, golden[str(bound)], f"bound:{bound}", report_check)


WORKLOADS = {
    "report": report_ops,
    "pieces": piece_ops,
    "membership": membership_ops,
    "curves": curve_ops,
}


def corrupt(op: Op) -> Op:
    """The same op with a wrong expected answer, to show the check fails."""
    expected = op.expected
    if isinstance(expected, bool):
        wrong = not expected
    elif op.check is report_check:
        items = [list(item) for item in expected["items"]]
        items[0][2] += " "
        wrong = {"exit": expected["exit"], "items": items}
    elif op.check is curve_check:
        wrong = dict(expected, beta=[expected["beta"][0], str(int(expected["beta"][1]) + 1)])
    else:
        wrong = dict(expected, free=expected["free"] + 1)
    return Op(op.request, wrong, op.tag, op.check)
