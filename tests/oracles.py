"""Independent oracles used by the test suite.

Nothing here shares a code path with the library routines under test:
determinants are cofactor expansions, or fraction-free (Bareiss)
elimination for matrices too big to expand, invariant factors come from
gcds of minors, and a diagonal becomes a divisibility chain by prime
factorization.  Lattice membership is exhaustive search over a bounded
coefficient box.  Invariant exponent vectors are found by filtering the
whole degree box, and monoid membership by closing the basis under
addition.  Relation rows of a graded piece come from ``Poly`` products
over monomials found by filtering the exponent box, and polynomial text
is parsed with one ``Poly`` product per factor.  Rational roots of a
polynomial come from a divisor search over every p/q candidate of the
rational root theorem, with synthetic division.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from wpchow.poly import _COEFFICIENT_BITS, _PRODUCT_BUDGET, Monomial, Poly


def mat_mul(a, b):
    """Matrix product by the definition."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for row in a
    ]


def det_cofactor(matrix) -> int:
    """Determinant by cofactor expansion (exact, small matrices only)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    rest = matrix[1:]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rest]
        term = matrix[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def determinant(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    previous = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
            a[i][k] = 0
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors_via_minor_gcds(matrix) -> list[int]:
    """Invariant factors d_k = D_k / D_(k-1), D_k = gcd of all k x k minors.

    This is the determinantal-divisor characterization of the Smith form,
    computed without any row or column operations.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det_cofactor([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def chain_by_prime_powers(diagonal) -> list[int]:
    """Invariant factors of a diagonal of small positive integers.

    Each entry is factored by trial division; the k-th largest power of
    every prime goes into the k-th largest factor.
    """
    exponents: dict[int, list[int]] = {}
    for value in diagonal:
        p = 2
        while value > 1:
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    chain = [1] * len(diagonal)
    for p, powers in exponents.items():
        for k, e in enumerate(sorted(powers, reverse=True)):
            chain[-1 - k] *= p**e
    return chain


def unimodular_matrices(size: int, bound: int):
    """All integer matrices of the given size, entries in [-bound, bound],
    with determinant +-1."""
    entries = range(-bound, bound + 1)
    for flat in product(entries, repeat=size * size):
        matrix = [list(flat[i * size : (i + 1) * size]) for i in range(size)]
        if abs(det_cofactor(matrix)) == 1:
            yield matrix


def brute_force_diagonalizations(matrix, bound: int):
    """All diagonal forms U @ M @ V over unimodular U, V with small entries.

    Yields the diagonal entry tuples of every product that is diagonal
    with non-negative entries.
    """
    m = len(matrix)
    n = len(matrix[0])
    for u in unimodular_matrices(m, bound):
        um = [[sum(u[i][k] * matrix[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        for v in unimodular_matrices(n, bound):
            umv = [[sum(um[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
            if all(umv[i][j] == 0 for i in range(m) for j in range(n) if i != j) and all(
                umv[i][i] >= 0 for i in range(min(m, n))
            ):
                yield tuple(umv[i][i] for i in range(min(m, n)))


def in_row_lattice_brute(matrix, target, bound: int) -> bool:
    """Search x in [-bound, bound]^rows with x @ M == target.

    One-sided: True proves membership, False only means no witness in the
    box.
    """
    m = len(matrix)
    n = len(target)
    for x in product(range(-bound, bound + 1), repeat=m):
        if all(
            sum(x[i] * matrix[i][j] for i in range(m)) == target[j] for j in range(n)
        ):
            return True
    return False


def invariant_vectors_brute(weights, bound: int) -> set:
    """Every nonzero e in N^n with sum(e) <= bound and sum(w * e) == 0."""
    return {
        e
        for e in product(range(bound + 1), repeat=len(weights))
        if 0 < sum(e) <= bound and sum(w * x for w, x in zip(weights, e)) == 0
    }


def invariant_basis_by_box(weights, bound: int) -> list:
    """Hilbert basis of the invariant monoid, found by walking the whole box
    [0, bound]^(n-1) of free entries and solving for the last; listed in
    increasing total degree, ties in box order."""
    *free_weights, last = weights
    invariants = []
    for head in product(range(bound + 1), repeat=len(free_weights)):
        degree = sum(w * e for w, e in zip(free_weights, head))
        power, remainder = divmod(-degree, last)
        vector = (*head, power)
        if remainder == 0 and 0 <= power <= bound - sum(head) and any(vector):
            invariants.append(vector)
    invariants.sort(key=sum)
    basis = []
    for vector in invariants:
        if not any(all(b <= v for b, v in zip(element, vector)) for element in basis):
            basis.append(vector)
    return basis


def monoid_closure(generators, bound: int) -> set:
    """Every nonnegative combination of the generators of total degree
    <= bound, the zero vector included."""
    generators = [tuple(g) for g in generators]
    length = len(generators[0]) if generators else 0
    reached = {(0,) * length}
    frontier = list(reached)
    while frontier:
        vector = frontier.pop()
        for g in generators:
            total = tuple(a + b for a, b in zip(vector, g))
            if sum(total) <= bound and total not in reached:
                reached.add(total)
                frontier.append(total)
    return reached


def relation_rows_by_products(generators, relations, degree: int):
    """Exponent basis and dense relation rows of one degree of a graded
    presentation: one row per ``Poly`` product m * r with deg(m * r) ==
    degree, monomials in descending lex order on the sorted names."""
    weight = dict(generators)
    names = sorted(weight)

    def vectors(total):
        box = product(*(range(max(total, 0) // weight[n] + 1) for n in names))
        found = (e for e in box if sum(weight[n] * x for n, x in zip(names, e)) == total)
        return sorted(found, reverse=True)

    basis = vectors(degree)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for relation in relations:
        if relation.is_zero:
            continue
        mono, _ = next(iter(relation.terms()))
        rel_degree = sum(weight[name] * exp for name, exp in mono.exponents)
        if rel_degree > degree:
            continue
        for e in vectors(degree - rel_degree):
            multiplier = Poly({Monomial.of(dict(zip(names, e))): 1})
            row = [0] * len(basis)
            for term, coeff in (multiplier * relation).terms():
                powers = dict(term.exponents)
                row[index[tuple(powers.get(name, 0) for name in names)]] = int(coeff)
            rows.append(row)
    return basis, rows


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")


def parse_by_products(text: str) -> Poly:
    """Parse polynomial text with one ``Poly`` per factor and one ``Poly``
    product per ``*`` and per squaring step, under the same weighed product
    budget and coefficient-size limit as ``wpchow.poly.parse_poly``."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            remainder = text[pos:].lstrip()
            if not remainder:
                break
            raise ValueError(f"unexpected character {remainder[0]!r} in polynomial text")
        tokens.append(match.group(1) or match.group(2) or match.group(3))
        pos = match.end()
    try:
        return _ProductParser(tokens).parse()
    except RecursionError:
        raise ValueError("polynomial text is nested too deeply") from None


class _ProductParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.budget = _PRODUCT_BUDGET

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return token

    def parse(self):
        result = self.expression()
        if self.peek() is not None:
            raise ValueError(f"trailing input starting at {self.peek()!r}")
        return result

    def expression(self):
        negative = self.peek() in ("+", "-") and self.take() == "-"
        total = Poly.zero()
        while True:
            term = self.term()
            total = total - term if negative else total + term
            if self.peek() not in ("+", "-"):
                return total
            negative = self.take() == "-"

    def term(self):
        result = self.factor()
        while self.peek() == "*":
            self.take()
            result = self.multiply(result, self.factor())
        return result

    def factor(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        exponent = self.take()
        if not exponent.isdigit():
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        exponent = int(exponent)
        result = Poly.constant(1)
        while exponent:
            if exponent & 1:
                result = self.multiply(result, base)
            exponent >>= 1
            if exponent:
                base = self.multiply(base, base)
        return result

    def multiply(self, left, right):
        # Each term product counts 1 + (a + b) // 2^14 + a*b // 2^22, for the
        # largest coefficients of a and b bits on either side.
        a, b = (
            max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in p.terms()),
                default=0)
            for p in (left, right)
        )
        self.budget -= len(left) * len(right) * (1 + (a + b) // 2**14 + a * b // 2**22)
        if self.budget < 0:
            raise ValueError(
                f"polynomial text needs more than {_PRODUCT_BUDGET} term products to expand"
            )
        if a + b > _COEFFICIENT_BITS:
            raise ValueError(
                f"polynomial text has coefficients of more than {_COEFFICIENT_BITS} bits"
            )
        return left * right

    def atom(self):
        token = self.take()
        if token.isdigit():
            numerator = int(token)
            if self.peek() == "/":
                self.take()
                denominator = self.take()
                if not denominator.isdigit() or int(denominator) == 0:
                    raise ValueError(f"invalid rational denominator {denominator!r}")
                return Poly.constant(Fraction(numerator, int(denominator)))
            return Poly.constant(numerator)
        if token == "(":
            inner = self.expression()
            closing = self.take()
            if closing != ")":
                raise ValueError(f"expected ')' but found {closing!r}")
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            return Poly.variable(token)
        raise ValueError(f"unexpected token {token!r}")


def _divisors(value: int) -> list[int]:
    value = abs(value)
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return small + large[::-1]


def _divide_by_linear(coeffs, root):
    """Synthetic division of sum(coeffs[i] * x^i) by (x - root)."""
    quotient = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + root * carry
        quotient[i - 1] = carry
    remainder = coeffs[0] + root * carry
    return quotient, remainder


def _find_rational_root(coeffs):
    """One rational root via divisor search on the primitive integer model."""
    denominator_lcm = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denominator_lcm) for c in coeffs]
    content = gcd(*ints)
    if content:
        ints = [v // content for v in ints]
    if ints[0] == 0:
        return Fraction(0)
    n = len(ints) - 1
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for signed in (p, -p):
                # q^n * f(signed / q), in integers
                if sum(c * signed**i * q ** (n - i) for i, c in enumerate(ints)) == 0:
                    return Fraction(signed, q)
    return None


def rational_roots_by_divisor_search(coeffs) -> list[tuple[Fraction, int]]:
    """All rational roots of sum(coeffs[i] * x^i) with multiplicities,
    highest root first: candidates p/q with p dividing the constant and q
    the leading coefficient of the primitive integer model, each root
    divided out by synthetic division as often as it divides."""
    work = [Fraction(c) for c in coeffs]
    while work and work[-1] == 0:
        work.pop()
    roots: dict[Fraction, int] = {}
    while len(work) > 1:
        root = _find_rational_root(work)
        if root is None:
            break
        multiplicity = 0
        while len(work) > 1:
            quotient, remainder = _divide_by_linear(work, root)
            if remainder != 0:
                break
            work = quotient
            multiplicity += 1
        roots[root] = roots.get(root, 0) + multiplicity
    return sorted(roots.items(), key=lambda item: item[0], reverse=True)
