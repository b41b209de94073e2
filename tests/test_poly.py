"""Exact polynomial arithmetic, substitution, gradings, parse/render."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from oracles import parse_by_products
from wpchow import (
    InhomogeneousError,
    Monomial,
    Poly,
    WeightedGrading,
    parse_poly,
    substitute,
    weighted_degree,
)


def _random_poly(rng, variables, max_terms=4, max_exp=3, coeff_bound=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial.of({v: rng.randint(0, max_exp) for v in variables})
        numerator = rng.randint(-coeff_bound, coeff_bound)
        denominator = rng.randint(1, 4)
        terms[mono] = terms.get(mono, 0) + Fraction(numerator, denominator)
    return Poly(terms)


def test_ring_identities():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert (x + y) * (x - y) == x**2 - y**2
    p = 3 * x**2 * y - y + 7
    assert p * Poly.zero() == 0
    assert p * 0 == Poly.zero()
    assert p**0 == 1
    assert -(-p) == p


def test_canonical_term_order_and_render():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert ((x + y) * (x - y)).render() == "x^2 - y^2"
    p = y**2 - x**3 + 3 * x - 2
    assert p.render() == "-x^3 + y^2 + 3*x - 2"
    assert Poly.zero().render() == "0"
    assert (Fraction(1, 2) * x).render() == "1/2*x"


def test_term_order_matches_dense_exponent_vectors_random():
    # Canonical order: total degree first, then the exponent vectors over
    # the sorted variables, both descending.
    rng = random.Random(11)
    for _ in range(300):
        poly = _random_poly(rng, ["a", "b", "x", "x1", "y"], max_terms=7)
        names = sorted({v for mono in poly.monomials() for v in mono.variables})
        ordered = poly.monomials()
        dense = sorted(
            ordered,
            key=lambda m: (m.total_degree, tuple(m.exponent(v) for v in names)),
            reverse=True,
        )
        assert list(ordered) == dense


def test_beta6_correction_term_has_three_terms():
    # alpha3^2 - alpha2^3 - alpha2*alpha4, the second short-form coefficient
    p = parse_poly("a3^2 - a2^3 - a2*a4")
    assert len(p) == 3
    grading = WeightedGrading({"a2": 2, "a3": 3, "a4": 4})
    assert weighted_degree(p, grading) == 6


def test_substitute_identity_and_cusp():
    x, y = Poly.variable("x"), Poly.variable("y")
    p = x**3 - 2 * x * y + Fraction(1, 2)
    assert substitute(p, {}) == p
    assert substitute(p, {"x": x, "y": y}) == p
    t = Poly.variable("t")
    cusp = substitute(y**2 - x**3, {"x": t**2, "y": t**3})
    assert cusp.is_zero


def test_substitute_simultaneous_swap():
    x, y = Poly.variable("x"), Poly.variable("y")
    swapped = substitute(x**2 - y, {"x": y, "y": x})
    assert swapped == y**2 - x


def test_weighted_degree_examples():
    t = Poly.variable("t")
    assert weighted_degree(t, WeightedGrading({"t": 1})) == 1
    grading = WeightedGrading({"x": 4, "y": 6})
    with pytest.raises(InhomogeneousError) as excinfo:
        weighted_degree(Poly.variable("x") + Poly.variable("y"), grading)
    assert excinfo.value.degrees == frozenset({4, 6})


def test_weighted_degree_zero_poly_rejected():
    with pytest.raises(ValueError):
        weighted_degree(Poly.zero(), WeightedGrading({"x": 1}))


def test_negative_weights_accepted():
    grading = WeightedGrading({"x": 4, "y": 6, "u": -1})
    mono = Poly.variable("x") * Poly.variable("u") ** 4
    assert weighted_degree(mono, grading) == 0
    with pytest.raises(ValueError):
        WeightedGrading({"x": 0})


def test_weighted_degree_takes_an_explicit_grading():
    grading = WeightedGrading({"a2": 2, "a4": 4})
    assert weighted_degree(parse_poly("a2^2 + a4"), grading) == 4
    with pytest.raises(KeyError):
        weighted_degree(parse_poly("a2 + b"), grading)


def test_constant_hash_matches_number():
    five = Poly.constant(5)
    assert five == 5
    assert hash(five) == hash(5)
    assert {five: "a"}[5] == "a"
    half = Poly.constant(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))


def test_commutativity_and_distributivity_random():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_poly(rng, ("x", "y", "z"))
        q = _random_poly(rng, ("x", "y", "z"))
        r = _random_poly(rng, ("x", "y"))
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_substitute_is_ring_homomorphism_random():
    rng = random.Random(11)
    for _ in range(60):
        p = _random_poly(rng, ("x", "y"))
        q = _random_poly(rng, ("x", "y"))
        assignment = {
            "x": _random_poly(rng, ("s", "t"), max_terms=3, max_exp=2),
            "y": _random_poly(rng, ("s", "t"), max_terms=3, max_exp=2),
        }
        assert substitute(p * q, assignment) == substitute(p, assignment) * substitute(
            q, assignment
        )
        assert substitute(p + q, assignment) == substitute(p, assignment) + substitute(
            q, assignment
        )


def test_weighted_degree_additive_on_products():
    rng = random.Random(13)
    grading = WeightedGrading({"x": 2, "y": 3})
    for _ in range(60):
        dp, dq = rng.randint(1, 8), rng.randint(1, 8)
        p = _homogeneous(rng, grading, dp)
        q = _homogeneous(rng, grading, dq)
        if p.is_zero or q.is_zero:
            continue
        assert weighted_degree(p * q, grading) == weighted_degree(p, grading) + weighted_degree(q, grading)


def _homogeneous(rng, grading, degree):
    terms = {}
    for i in range(degree // 2 + 1):
        rest = degree - 2 * i
        if rest % 3 == 0:
            mono = Monomial.of({"x": i, "y": rest // 3})
            if rng.random() < 0.6:
                terms[mono] = rng.randint(-5, 5)
    return Poly(terms)


def test_parse_render_roundtrip_random():
    rng = random.Random(17)
    for _ in range(120):
        p = _random_poly(rng, ("a", "b2", "c_3"))
        assert parse_poly(p.render()) == p


def test_parser_accepts_canonical_syntax():
    assert parse_poly("24*t^3") == 24 * Poly.variable("t") ** 3
    assert parse_poly("(x + y)^2") == (Poly.variable("x") + Poly.variable("y")) ** 2
    assert parse_poly("-x + 1/2") == -Poly.variable("x") + Fraction(1, 2)
    assert parse_poly("3/4*x^2") == Fraction(3, 4) * Poly.variable("x") ** 2
    assert parse_poly("2^3") == 8
    assert parse_poly("0") == 0


@pytest.mark.parametrize(
    "bad",
    ["x/2", "3/0", "x^-1", "x +", "(x", "x y", "4 * * x", "x^y", ""],
)
def test_parser_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


def test_parser_deep_nesting_is_a_value_error():
    assert parse_poly("(" * 100 + "x" + ")" * 100) == Poly.variable("x")
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_poly("(" * 2000 + "x" + ")" * 2000)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(x+1)^2000", "term products"),
        ("(x+y+1)^200", "term products"),
        ("*".join(f"(x{i} + 1)" for i in range(30)), "term products"),
        ("2^1000000000000", "bits"),
    ],
    ids=["binomial-power", "trinomial-power", "product-chain", "coefficient-growth"],
)
def test_parser_expansion_budget_is_a_value_error(text, message):
    # Expanding any of these takes minutes or exhausts memory; over the
    # parser's fixed budget each fails after well under a second (~0.35 s
    # for the first on a 2-CPU container).
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        parse_poly(text)
    assert time.perf_counter() - start < 2.0


def test_parser_long_sums_stay_cheap():
    # A sum over 1000 variables took 33 s when every "+" copied and
    # re-sorted the partial sum over dense exponent vectors; 4000 now take
    # ~0.1 s.
    text = " + ".join(f"x{i}" for i in range(4000))
    start = time.perf_counter()
    poly = parse_poly(text)
    assert time.perf_counter() - start < 2.0
    assert len(poly) == 4000
    x, y = Poly.variable("x"), Poly.variable("y")
    assert parse_poly("x - y + 2*x - x*y - 3*x") == -x * y - y


def test_parser_monomial_powers_stay_cheap():
    x = Poly.variable("x")
    assert parse_poly("x^1000000000000") == Poly({Monomial.of({"x": 10**12}): 1})
    assert parse_poly("(-2*x*y)^3") == -8 * x**3 * Poly.variable("y") ** 3
    assert parse_poly("(x+1)^200") == (x + 1) ** 200


def _outcome(parse, text):
    """The parsed polynomial with its render and term order, or the
    ``ValueError`` text."""
    try:
        poly = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    assert all(type(coeff) is Fraction for _, coeff in poly.terms())
    return poly, poly.render(), poly.monomials()


def _random_rendered(rng):
    """Canonical text of a random polynomial: rational and negative
    coefficients, up to 4 variables, degree at most 12."""
    variables = rng.sample(["a", "b2", "c_3", "x", "y", "Z"], rng.randint(1, 4))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exponents = {}
        for name in variables:
            exponents[name] = rng.randint(0, 12 - sum(exponents.values()))
        mono = Monomial.of(exponents)
        numerator = rng.choice((rng.randint(-9, 9), rng.randint(-(10**30), 10**30)))
        terms[mono] = terms.get(mono, 0) + Fraction(numerator, rng.choice((1, 1, 2, 3, 7, 10)))
    return Poly(terms).render()


def _random_expression(rng, depth=0):
    """Non-canonical text: nested parentheses, powers of any factor, rational
    literals, signs and repeated variables."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.35:
                factor = rng.choice(["x", "y", "x1", "z"])
            elif kind < 0.6:
                factor = str(rng.randint(0, 30))
            elif kind < 0.75:
                factor = f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
            elif depth < 2:
                factor = f"({_random_expression(rng, depth + 1)})"
            else:
                factor = "y"
            if rng.random() < 0.3:
                factor += f"^{rng.randint(0, 3 if factor[0] == '(' else 9)}"
            factors.append(factor)
        terms.append(rng.choice(["", "-", "+"]) * (not terms) + "*".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + term
    return text


@pytest.mark.parametrize(
    "text",
    [
        "x*x", "x^0", "0*x", "2/4*x", "(-2*x*y)^3", "3*(x+1)^2*y", "1/0", "x/2",
        "--x", "0^0", "0*(x+1)^3", "(0)^3*x", "7/7*x^1*y^0", "x^2*x^3 - x^5",
        "2^65536", "(1/2)^65536", "3^41348*x", "0*3^41348", "0/5*3^41348",
        "3^41348 - 3^41348",
        "*".join(["(x + 1)"] * 4) + "^3", "x^3^2", "(x", "x)", "x y", " ", "2x",
        "x^-1", "1/", "x + ?",
    ],
)
def test_parse_poly_matches_factor_by_factor_parser_on_edge_cases(text):
    assert _outcome(parse_poly, text) == _outcome(parse_by_products, text)


def test_parse_poly_matches_factor_by_factor_parser_random():
    rng = random.Random(23)
    texts = [_random_rendered(rng) for _ in range(2000)]
    texts += [_random_expression(rng) for _ in range(500)]
    alphabet = ["x", "y", "2", "0", "12", "/", "*", "^", "+", "-", "(", ")", " ", "3/4", "^0"]
    texts += ["".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(2000)]
    for text in texts:
        assert _outcome(parse_poly, text) == _outcome(parse_by_products, text), text


def test_canonical_terms_parse_without_poly_products(monkeypatch):
    calls = []
    product = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    poly = parse_poly("-12*a^3*b^2*c^5 + 3/4*a*b - a*a + 7 - x^1000000000000")
    assert poly.render() == "-x^1000000000000 - 12*a^3*b^2*c^5 - a^2 + 3/4*a*b + 7"
    assert calls == []
    parse_poly("3*(x+1)^2*y")
    assert calls


def test_parser_budget_boundary_on_factor_chains():
    # A chain of n factors takes n - 1 term products; the budget is 50,000.
    assert parse_poly("*".join(["x"] * 50_001)) == Poly({Monomial.of({"x": 50_001}): 1})
    with pytest.raises(ValueError, match="term products"):
        parse_poly("*".join(["x"] * 50_002))
    # A zero factor makes every later product free, as for the zero polynomial.
    assert parse_poly("0*" + "*".join(["x"] * 60_000)) == 0
    # x^3 takes three: 1 * x, x * x and x * x^2.
    assert len(parse_poly("*".join(["x"] * 49_997) + "*x^3")) == 1
    with pytest.raises(ValueError, match="term products"):
        parse_poly("*".join(["x"] * 49_998) + "*x^3")
    start = time.perf_counter()
    assert len(parse_poly("x^1000000000000")) == 1
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="bits"):
        parse_poly("2^1000000000000")


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial.of({"x": -1})
    with pytest.raises(ValueError):
        Monomial((("x", 0),))
    assert Monomial.of({"x": 0}) == Monomial.ONE
    assert (Monomial.of({"x": 2}) * Monomial.of({"x": 1, "y": 1})).render() == "x^3*y"
