"""Exact multivariate polynomials over Q with optional weighted gradings.

A polynomial is a sparse map from monomials to nonzero rational
coefficients (``fractions.Fraction``).  Terms are kept in a fixed
graded-lex order: higher degree first, lexicographic tie-break on
exponent vectors with variables sorted by name.  Rendering the same
polynomial therefore always produces the same text, and the parser
accepts exactly the rendered syntax (integers, rational literals
``p/q``, ``+ - * ^`` and parentheses).

A :class:`WeightedGrading` assigns an integer weight to every variable;
attached to a polynomial it drives the term order and degree bookkeeping,
otherwise every variable counts with weight 1.

All values are immutable after construction and safe to share between
threads; arithmetic always returns new objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

Coeff = Union[int, Fraction]

__all__ = [
    "Coeff",
    "InhomogeneousError",
    "Monomial",
    "Poly",
    "WeightedGrading",
    "is_homogeneous",
    "parse_poly",
    "substitute",
    "weighted_degree",
]


class InhomogeneousError(ValueError):
    """A polynomial expected to be homogeneous has terms of several degrees.

    ``degrees`` carries the set of distinct term degrees that were found.
    """

    def __init__(self, degrees):
        self.degrees = frozenset(degrees)
        listing = ", ".join(str(d) for d in sorted(self.degrees))
        super().__init__(f"polynomial is not homogeneous: term degrees {{{listing}}}")


class WeightedGrading:
    """Map from variable names to nonzero integer weights.

    Weights are positive for every geometric grading in this package; the
    one negative-weight use is the contracting coordinate of the blow-up
    ambient space, so negative values are accepted as well.
    """

    __slots__ = ("_items", "_map")

    def __init__(self, weights: Mapping[str, int]):
        mapping: dict[str, int] = {}
        for name, w in weights.items():
            if not isinstance(w, int) or isinstance(w, bool) or w == 0:
                raise ValueError(f"weight of {name!r} must be a nonzero integer, got {w!r}")
            mapping[str(name)] = w
        self._map = mapping
        self._items = tuple(sorted(mapping.items()))

    @property
    def weights(self) -> dict[str, int]:
        return dict(self._items)

    def weight(self, name: str) -> int:
        try:
            return self._map[name]
        except KeyError:
            raise KeyError(f"no weight assigned to variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGrading):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {w}" for name, w in self._items)
        return f"WeightedGrading({{{inner}}})"


class Monomial:
    """Product of variable powers; exponents positive, variables sorted.

    Immutable and hashed once: monomials are the keys of every
    polynomial's term map.
    """

    __slots__ = ("exponents", "_hash")

    def __init__(self, exponents: tuple[tuple[str, int], ...] = ()):
        exponents = tuple((name, exp) for name, exp in exponents)
        previous = None
        for name, exp in exponents:
            if not isinstance(exp, int) or isinstance(exp, bool) or exp <= 0:
                raise ValueError(f"exponent of {name!r} must be a positive integer")
            if previous is not None and name <= previous:
                raise ValueError("monomial variables must be strictly sorted")
            previous = name
        _set_exponents(self, exponents)
        _set_hash(self, hash(exponents))

    @classmethod
    def of(cls, exponents: Mapping[str, int]) -> "Monomial":
        """Build a monomial from a variable -> exponent mapping, dropping zeros."""
        items = []
        for name, exp in sorted(exponents.items()):
            if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
                raise ValueError(f"exponent of {name!r} must be a non-negative integer")
            if exp:
                items.append((str(name), exp))
        return cls(tuple(items))

    def exponent(self, name: str) -> int:
        for var, exp in self.exponents:
            if var == name:
                return exp
        return 0

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.exponents)

    @property
    def total_degree(self) -> int:
        return sum(exp for _, exp in self.exponents)

    def degree(self, grading: Optional[WeightedGrading]) -> int:
        if grading is None:
            return self.total_degree
        return sum(exp * grading.weight(name) for name, exp in self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other.exponents:
            return self
        if not self.exponents:
            return other
        exps = dict(self.exponents)
        for name, exp in other.exponents:
            exps[name] = exps.get(name, 0) + exp
        return _valid_monomial(tuple(sorted(exps.items())))

    def __pow__(self, power: int) -> "Monomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("monomial powers must be non-negative integers")
        return Monomial.of({name: exp * power for name, exp in self.exponents})

    def __eq__(self, other) -> bool:
        if other.__class__ is Monomial:
            return self._hash == other._hash and self.exponents == other.exponents
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen Monomial")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen Monomial")

    def __reduce__(self):
        return (Monomial, (self.exponents,))

    def __repr__(self) -> str:
        return f"Monomial(exponents={self.exponents!r})"

    def render(self) -> str:
        if not self.exponents:
            return "1"
        return "*".join(
            name if exp == 1 else f"{name}^{exp}" for name, exp in self.exponents
        )

    def __str__(self) -> str:
        return self.render()


_set_exponents = Monomial.exponents.__set__
_set_hash = Monomial._hash.__set__


def _valid_monomial(exponents: tuple[tuple[str, int], ...]) -> Monomial:
    """A monomial from exponents already known to be positive and sorted."""
    mono = object.__new__(Monomial)
    _set_exponents(mono, exponents)
    _set_hash(mono, hash(exponents))
    return mono


Monomial.ONE = Monomial(())


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_grading", "_hash")

    def __init__(self, terms=(), grading: Optional[WeightedGrading] = None):
        accumulated: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise TypeError(f"term keys must be Monomial, got {type(mono).__name__}")
            if coeff.__class__ is not Fraction:
                if isinstance(coeff, float):
                    raise TypeError("coefficients must be exact (int or Fraction), not float")
                coeff = Fraction(coeff)
            previous = accumulated.get(mono)
            accumulated[mono] = coeff if previous is None else previous + coeff
        self._set_terms(accumulated, grading)

    def _set_terms(self, accumulated: dict, grading: Optional[WeightedGrading]) -> None:
        """Drop zero coefficients, check the grading covers every variable
        and store the terms in canonical order."""
        nonzero = [mono for mono, coeff in accumulated.items() if coeff]
        if grading is not None:
            for mono in nonzero:
                for name, _ in mono.exponents:
                    grading.weight(name)
        if len(nonzero) > 1:
            # Ties in degree are broken lexicographically on the exponent
            # vectors over the sorted variables.  Comparing the sparse pairs
            # (-rank of variable, exponent) orders the same way, at a cost
            # per monomial that does not grow with the number of variables.
            rank = {
                name: -i
                for i, name in enumerate(
                    sorted({name for mono in nonzero for name, _ in mono.exponents})
                )
            }

            def term_key(mono: Monomial):
                return (
                    mono.degree(grading),
                    tuple([(rank[name], exp) for name, exp in mono.exponents]),
                )

            nonzero.sort(key=term_key, reverse=True)
        self._terms = {mono: accumulated[mono] for mono in nonzero}
        self._grading = grading
        self._hash = None

    @classmethod
    def _from_sums(cls, accumulated: dict, grading: Optional[WeightedGrading]) -> "Poly":
        """A polynomial from a map of monomials to ``Fraction`` sums, which
        may be zero; skips the per-term checks of the public constructor."""
        poly = object.__new__(cls)
        poly._set_terms(accumulated, grading)
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, grading: Optional[WeightedGrading] = None) -> "Poly":
        return cls((), grading)

    @classmethod
    def constant(cls, value: Coeff, grading: Optional[WeightedGrading] = None) -> "Poly":
        return cls({Monomial.ONE: Fraction(value)}, grading)

    @classmethod
    def variable(cls, name: str, grading: Optional[WeightedGrading] = None) -> "Poly":
        return cls({Monomial.of({name: 1}): Fraction(1)}, grading)

    # -- inspection -----------------------------------------------------

    @property
    def grading(self) -> Optional[WeightedGrading]:
        return self._grading

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({name for mono in self._terms for name in mono.variables}))

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate over (monomial, coefficient) pairs in canonical order."""
        return iter(self._terms.items())

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def with_grading(self, grading: Optional[WeightedGrading]) -> "Poly":
        return Poly(self._terms, grading)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(value) -> Optional["Poly"]:
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return None

    def _merged_grading(self, other: "Poly") -> Optional[WeightedGrading]:
        left, right = self._grading, other._grading
        if left is None:
            return right
        if right is None or left == right:
            return left
        merged = left.weights
        for name, weight in right.weights.items():
            if merged.setdefault(name, weight) != weight:
                raise ValueError(
                    f"incompatible gradings: variable {name!r} has weights "
                    f"{merged[name]} and {weight}"
                )
        return WeightedGrading(merged)

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        result = dict(self._terms)
        for mono, coeff in other._terms.items():
            previous = result.get(mono)
            result[mono] = coeff if previous is None else previous + coeff
        return Poly._from_sums(result, self._merged_grading(other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_sums({m: -c for m, c in self._terms.items()}, self._grading)

    def __sub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        result: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = mono_a * mono_b
                product = coeff_a * coeff_b
                previous = result.get(mono)
                result[mono] = product if previous is None else previous + product
        return Poly._from_sums(result, self._merged_grading(other))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(1, self._grading)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    # -- equality and hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Constants hash like their numeric value so that mixed comparisons
        # with int/Fraction stay consistent with __eq__.
        if self._hash is None:
            if not self._terms:
                h = hash(0)
            elif len(self._terms) == 1 and Monomial.ONE in self._terms:
                h = hash(self._terms[Monomial.ONE])
            else:
                h = hash(frozenset(self._terms.items()))
            self._hash = h
        return self._hash

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, graded-lex term order."""
        if not self._terms:
            return "0"
        parts = []
        for index, (mono, coeff) in enumerate(self._terms.items()):
            negative = coeff < 0
            magnitude = -coeff if negative else coeff
            if mono is Monomial.ONE or not mono.exponents:
                body = str(magnitude)
            elif magnitude == 1:
                body = mono.render()
            else:
                body = f"{magnitude}*{mono.render()}"
            if index == 0:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self.render()!r})"


def substitute(poly: Poly, assignment: Mapping[str, Union[Poly, Coeff]]) -> Poly:
    """Simultaneously substitute polynomials for variables.

    Variables absent from ``assignment`` are kept fixed, so the empty
    assignment is the identity.  The substitution is a ring homomorphism;
    the result carries no grading context (the target variables are new).
    """
    images: dict[str, Poly] = {}
    for name, value in assignment.items():
        image = Poly._coerce(value)
        if image is None:
            raise TypeError(f"image of {name!r} must be a Poly or rational value")
        images[name] = image
    total = Poly.zero()
    for mono, coeff in poly.terms():
        term = Poly.constant(coeff)
        for name, exp in mono.exponents:
            image = images.get(name)
            if image is None:
                image = Poly.variable(name)
            term = term * image**exp
        total = total + term
    return total


def weighted_degree(poly: Poly, grading: Optional[WeightedGrading] = None) -> int:
    """Degree of a homogeneous polynomial under ``grading``.

    Falls back to the polynomial's attached grading context when none is
    passed.  Raises :class:`InhomogeneousError` (carrying the set of term
    degrees) if the terms do not all have the same degree, and
    ``ValueError`` for the zero polynomial, which has no degree.
    """
    g = grading if grading is not None else poly.grading
    if g is None:
        raise ValueError("no grading supplied and the polynomial carries none")
    if poly.is_zero:
        raise ValueError("the zero polynomial has no weighted degree")
    degrees = {mono.degree(g) for mono in poly.monomials()}
    if len(degrees) > 1:
        raise InhomogeneousError(degrees)
    return degrees.pop()


def is_homogeneous(poly: Poly, grading: Optional[WeightedGrading] = None) -> bool:
    if poly.is_zero:
        return True
    try:
        weighted_degree(poly, grading)
    except InhomogeneousError:
        return False
    return True


# Each product of two terms costs a coefficient product, about 10 us in
# CPython: one parse may spend at most this many, about half a second, so
# "(x+1)^2000" or "(x+y+1)^200" fails at once instead of running for minutes.
_PRODUCT_BUDGET = 50_000
# Coefficients may reach this many bits through products and powers, so
# "2^1000000000000" fails instead of exhausting memory.
_COEFFICIENT_BITS = 1 << 16

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].lstrip()
            if not remainder:
                break
            raise ValueError(f"unexpected character {remainder[0]!r} in polynomial text")
        tokens.append(match.group(1) or match.group(2) or match.group(3))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.budget = _PRODUCT_BUDGET

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise ValueError(f"expected {token!r} but found {got!r}")

    def parse(self) -> Poly:
        result = self.expression()
        if self.peek() is not None:
            raise ValueError(f"trailing input starting at {self.peek()!r}")
        return result

    def expression(self) -> Poly:
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -1
        # One running sum for the whole expression: adding term by term
        # would copy and re-sort the partial sum once per term.
        sums: dict[Monomial, Fraction] = {}
        while True:
            for mono, coeff in self.term().terms():
                value = coeff if sign > 0 else -coeff
                previous = sums.get(mono)
                sums[mono] = value if previous is None else previous + value
            if self.peek() not in ("+", "-"):
                return Poly._from_sums(sums, None)
            sign = 1 if self.take() == "+" else -1

    def term(self) -> Poly:
        result = self.factor()
        while self.peek() == "*":
            self.take()
            result = self.multiply(result, self.factor())
        return result

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.take()
            if not exponent.isdigit():
                raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
            return self.power(base, int(exponent))
        return base

    def multiply(self, left: Poly, right: Poly) -> Poly:
        """``left * right``, charged to the parse's product budget."""
        self.budget -= len(left) * len(right)
        if self.budget < 0:
            raise ValueError(
                f"polynomial text needs more than {_PRODUCT_BUDGET} term products to expand"
            )
        if _coefficient_bits(left) + _coefficient_bits(right) > _COEFFICIENT_BITS:
            raise ValueError(
                f"polynomial text has coefficients of more than {_COEFFICIENT_BITS} bits"
            )
        return left * right

    def power(self, base: Poly, exponent: int) -> Poly:
        """``base ** exponent`` by squaring, each product charged; a
        monomial base costs one term product per step, so ``x^(10^12)``
        stays cheap."""
        result = Poly.constant(1)
        while exponent:
            if exponent & 1:
                result = self.multiply(result, base)
            exponent >>= 1
            if exponent:
                base = self.multiply(base, base)
        return result

    def atom(self) -> Poly:
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
            self.expect(")")
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            return Poly.variable(token)
        raise ValueError(f"unexpected token {token!r}")


def _coefficient_bits(poly: Poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in poly.terms()),
        default=0,
    )


def parse_poly(text: str, grading: Optional[WeightedGrading] = None) -> Poly:
    """Parse the canonical text syntax back into a polynomial.

    Raises ``ValueError`` on malformed text, including nesting deeper than
    the recursive-descent parser can follow, and on text whose products
    and powers would take more than a fixed budget of term products or
    grow coefficients past a fixed size to expand.
    """
    try:
        poly = _Parser(text).parse()
    except RecursionError:
        raise ValueError("polynomial text is nested too deeply") from None
    return poly.with_grading(grading) if grading is not None else poly
