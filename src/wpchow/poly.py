"""Exact multivariate polynomials over Q and their weighted degrees.

A polynomial is a sparse map from monomials to nonzero rational
coefficients (``fractions.Fraction``).  Terms are kept in a fixed
graded-lex order: higher total degree first, lexicographic tie-break on
exponent vectors with variables sorted by name.  Rendering the same
polynomial therefore always produces the same text, and the parser
accepts exactly the rendered syntax (integers, rational literals
``p/q``, ``+ - * ^`` and parentheses).

The parser reads text term by term: the numbers, variables and powers of
a term multiply into one coefficient and one exponent map, and only a
parenthesised factor is expanded with ``Poly`` products.  Every product,
of either kind, is charged to a fixed budget of term products and
checked against a coefficient size limit, so hostile text fails fast.

A grading is a ``{variable: weight}`` mapping of integers, negative only
for the contracting coordinate of a weighted blow-up.  A polynomial
carries no grading of its own: :func:`weighted_degree` takes the
polynomial and the grading to measure it by.

All values are immutable after construction and safe to share between
threads; arithmetic always returns new objects.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import mul
from typing import Iterator, Mapping, Optional, Union

Coeff = Union[int, Fraction]

__all__ = [
    "Coeff",
    "InhomogeneousError",
    "Monomial",
    "Poly",
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

    def degree(self, grading: Mapping[str, int]) -> int:
        return sum(exp * grading[name] for name, exp in self.exponents)

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


def _term_order(mono: Monomial) -> tuple:
    """Ascending sort key of the canonical term order.

    Higher total degree comes first.  Ties are broken lexicographically on
    the exponent vectors over the sorted variables, larger first: on the
    sparse pairs that is (variable, -exponent) ascending, since the first
    variable where two monomials differ is present in the larger one, or
    present in both with a larger exponent there.  Monomials of one total
    degree cannot be proper prefixes of one another, so the pairs decide.
    """
    total = 0
    pairs = []
    for name, exp in mono.exponents:
        total -= exp
        pairs.append((name, -exp))
    return total, tuple(pairs)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=()):
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
        self._set_terms(accumulated)

    def _set_terms(self, accumulated: dict) -> None:
        """Drop zero coefficients and store the terms in canonical order."""
        nonzero = [mono for mono, coeff in accumulated.items() if coeff]
        if len(nonzero) > 1:
            nonzero.sort(key=_term_order)
        self._terms = {mono: accumulated[mono] for mono in nonzero}
        self._hash = None

    @classmethod
    def _from_sums(cls, accumulated: dict) -> "Poly":
        """A polynomial from a map of monomials to ``Fraction`` sums, which
        may be zero; skips the per-term checks of the public constructor."""
        poly = object.__new__(cls)
        poly._set_terms(accumulated)
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, value: Coeff) -> "Poly":
        return cls({Monomial.ONE: Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({Monomial.of({name: 1}): Fraction(1)})

    # -- inspection -----------------------------------------------------

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

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(value) -> Optional["Poly"]:
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return None

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        result = dict(self._terms)
        for mono, coeff in other._terms.items():
            previous = result.get(mono)
            result[mono] = coeff if previous is None else previous + coeff
        return Poly._from_sums(result)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_sums({m: -c for m, c in self._terms.items()})

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
        return Poly._from_sums(result)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        return _square_and_multiply(self, power, Poly.constant(1), mul)

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
    assignment is the identity.  The substitution is a ring homomorphism.
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


def weighted_degree(poly: Poly, grading: Mapping[str, int]) -> int:
    """Degree of a homogeneous polynomial under ``grading``.

    Raises :class:`InhomogeneousError` (carrying the set of term degrees)
    if the terms do not all have the same degree, ``ValueError`` for the
    zero polynomial, which has no degree, and ``KeyError`` for a variable
    that ``grading`` does not weigh.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial has no weighted degree")
    degrees = {mono.degree(grading) for mono in poly.monomials()}
    if len(degrees) > 1:
        raise InhomogeneousError(degrees)
    return degrees.pop()


# Each product of two terms costs a coefficient product, 5.5-6.6 us in
# CPython 3.11 on a 2-CPU Linux container (squaring "(x+1)^128", 16,641
# products, takes 0.09-0.11 s): one parse may spend at most this many, about
# a third of a second, so "(x+1)^2000" or "(x+y+1)^200" fails in 0.15-0.2 s
# instead of running for minutes.  A product of an a-bit and a b-bit
# coefficient counts as 1 + (a + b) // 2^14 + a*b // 2^22 of them: copying
# and adding coefficients is linear in their size, multiplying them at
# most quadratic.  Against ~4-6 us for small coefficients, a term product
# took, on the same host, ~12 us at 2,048 x 2,048 bits (counted 2), ~22 us
# at 4,096 x 4,096 (5), ~55 us at 8,192 x 8,192 (18), ~450 us at 32,768 x
# 32,768 (261), ~27 us at 65,000 x 8 (4) and ~86 us at 65,000 x 1,024
# (20); one of at most 2,047 bits a side still counts 1.
_PRODUCT_BUDGET = 50_000
# Coefficients may reach this many bits through products and powers, so
# "2^1000000000000" fails instead of exhausting memory.
_COEFFICIENT_BITS = 1 << 16

# Token kinds, in the order of the groups of ``_TOKEN``; its last group
# catches any other character, so no text is skipped.
_NUMBER, _NAME, _SYMBOL = 1, 2, 3
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a variable name
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_IDENTIFIER.pattern})|([+\-*/^()])|(\S))")
_END = (None, None)


def _tokenize(text: str) -> list[tuple[int, str]]:
    """``(kind, text)`` pairs, ``kind`` one of ``_NUMBER``, ``_NAME`` and
    ``_SYMBOL``.  A number longer than the interpreter converts to an
    integer (4,300 digits by default; 0 means no limit) is refused here."""
    tokens = []
    digits = sys.get_int_max_str_digits()
    for number, name, symbol, other in _TOKEN.findall(text):
        if number:
            if digits and len(number) > digits:
                raise ValueError(
                    f"polynomial text has a number of {len(number)} digits, "
                    f"over the limit of {digits}"
                )
            tokens.append((_NUMBER, number))
        elif name:
            tokens.append((_NAME, name))
        elif symbol:
            tokens.append((_SYMBOL, symbol))
        else:
            raise ValueError(f"unexpected character {other!r} in polynomial text")
    return tokens


class _Parser:
    """Recursive descent over the tokens of one polynomial text.

    A term is built as a plain ``(coefficient, {variable: exponent})`` pair
    while its factors are numbers, ``p/q`` literals, variables and their
    powers; it becomes a ``Poly`` only when a parenthesised factor is
    multiplied in.  A pair's exponent map belongs to the term being built
    and is updated in place.  Every product, of pairs or of polynomials, is
    charged to the budget as the ``Poly`` product it stands for: the
    product of the numbers of terms, weighed by the bits of the largest
    coefficient on each side, with the same coefficient-size check.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.tokens.append(_END)
        self.pos = 0
        self.budget = _PRODUCT_BUDGET

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][1]

    def take(self) -> tuple[int, str]:
        token = self.tokens[self.pos]
        if token is _END:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return token

    def expect(self, text: str) -> None:
        _, got = self.take()
        if got != text:
            raise ValueError(f"expected {text!r} but found {got!r}")

    def parse(self) -> dict[Monomial, Coeff]:
        sums = self.expression()
        if self.peek() is not None:
            raise ValueError(f"trailing input starting at {self.peek()!r}")
        return sums

    def expression(self) -> dict[Monomial, Coeff]:
        """The sum as one map of monomials to coefficients: adding term by
        term would copy and re-sort the partial sum once per term."""
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take()[1] == "-":
                sign = -1
        sums: dict[Monomial, Coeff] = {}
        while True:
            term = self.term()
            if term.__class__ is Poly:
                items = term.terms()
            else:
                coeff, exps = term
                items = ((_monomial(exps), coeff),)
            for mono, coeff in items:
                if sign < 0:
                    coeff = -coeff
                previous = sums.get(mono)
                sums[mono] = coeff if previous is None else previous + coeff
            if self.peek() not in ("+", "-"):
                return sums
            sign = 1 if self.take()[1] == "+" else -1

    def term(self) -> Poly | tuple[Coeff, dict[str, int]]:
        result = self.factor()
        while self.peek() == "*":
            self.pos += 1
            result = self.multiply(result, self.factor())
        return result

    def factor(self) -> Poly | tuple[Coeff, dict[str, int]]:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            kind, exponent = self.take()
            if kind != _NUMBER:
                raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
            return self.power(base, int(exponent))
        return base

    def atom(self) -> Poly | tuple[Coeff, dict[str, int]]:
        kind, token = self.take()
        if kind == _NUMBER:
            numerator = int(token)
            if self.peek() == "/":
                self.pos += 1
                kind, denominator = self.take()
                if kind != _NUMBER or int(denominator) == 0:
                    raise ValueError(f"invalid rational denominator {denominator!r}")
                return Fraction(numerator, int(denominator)), {}
            return numerator, {}
        if kind == _NAME:
            return 1, {token: 1}
        if token == "(":
            inner = self.expression()
            self.expect(")")
            return _poly(inner)
        raise ValueError(f"unexpected token {token!r}")

    def charge(self, products: int, left_bits: int, right_bits: int) -> None:
        bits = left_bits + right_bits
        self.budget -= products * (1 + (bits >> 14) + (left_bits * right_bits >> 22))
        if self.budget < 0:
            raise ValueError(
                f"polynomial text needs more than {_PRODUCT_BUDGET} term products to expand"
            )
        if bits > _COEFFICIENT_BITS:
            raise ValueError(
                f"polynomial text has coefficients of more than {_COEFFICIENT_BITS} bits"
            )

    def multiply(self, left, right) -> Poly | tuple[Coeff, dict[str, int]]:
        """``left * right`` for two pairs or polynomials, charged."""
        if left.__class__ is Poly or right.__class__ is Poly:
            left, right = _as_poly(left), _as_poly(right)
            self.charge(len(left) * len(right), _coefficient_bits(left), _coefficient_bits(right))
            return left * right
        (a, exps), (b, right_exps) = left, right
        for name, exp in right_exps.items():
            exps[name] = exps.get(name, 0) + exp
        return self.scale(a, b), exps

    def scale(self, a: Coeff, b: Coeff) -> Coeff:
        """The coefficient product ``a * b`` of two pairs, charged."""
        self.charge(1 if a and b else 0, _bits(a), _bits(b))
        return a * b

    def power(self, base, exponent: int) -> Poly | tuple[Coeff, dict[str, int]]:
        """``base ** exponent`` by squaring, each product charged.  A pair's
        variables only scale their exponents, so ``x^(10^12)`` stays cheap."""
        if base.__class__ is Poly:
            return _square_and_multiply(base, exponent, Poly.constant(1), self.multiply)
        coeff, exps = base
        if not exponent:
            return 1, {}
        if coeff == 1:
            # Every step multiplies 1 by 1: one term product each, and no
            # coefficient can grow.
            self.charge(exponent.bit_count() + exponent.bit_length() - 1, 0, 0)
        else:
            coeff = _square_and_multiply(coeff, exponent, 1, self.scale)
        return coeff, {name: exp * exponent for name, exp in exps.items()}


def _square_and_multiply(base, exponent: int, one, multiply):
    result = one
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if exponent:
            base = multiply(base, base)
    return result


def _bits(coeff: Coeff) -> int:
    """Bits of one coefficient for the size check; zero has none, as the
    zero polynomial has no terms."""
    if coeff.__class__ is int:
        return coeff.bit_length()
    if not coeff:
        return 0
    return max(coeff.numerator.bit_length(), coeff.denominator.bit_length())


def _coefficient_bits(poly: Poly) -> int:
    return max((_bits(c) for _, c in poly.terms()), default=0)


def _poly(sums: dict[Monomial, Coeff]) -> Poly:
    return Poly._from_sums(
        {mono: c if c.__class__ is Fraction else Fraction(c) for mono, c in sums.items() if c}
    )


def _as_poly(value) -> Poly:
    if value.__class__ is Poly:
        return value
    coeff, exps = value
    return _poly({_monomial(exps): coeff})


def _monomial(exps: dict[str, int]) -> Monomial:
    return _valid_monomial(tuple(sorted(exps.items())))


def parse_poly(text: str) -> Poly:
    """Parse the canonical text syntax back into a polynomial.

    Raises ``ValueError`` on malformed text, including nesting deeper than
    the recursive-descent parser can follow, and on text whose products
    and powers would take more than a fixed budget of term products or
    grow coefficients past a fixed size to expand.
    """
    try:
        sums = _Parser(text).parse()
    except RecursionError:
        raise ValueError("polynomial text is nested too deeply") from None
    return _poly(sums)
