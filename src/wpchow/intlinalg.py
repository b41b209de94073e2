"""Integer matrix normal forms and abelian-group cokernels.

Everything here runs over Python's arbitrary-precision integers.  The
public functions take and return plain lists of lists in row-major order;
inside, rows are held sparsely as ``{column: value}``.  The graded pieces
of :mod:`wpchow.graded` hand their relation rows over in that sparse form,
to :func:`_sparse_cokernel` and :func:`_solve_sparse`, which skip the
dense-input checks of :func:`cokernel` and :func:`solve_integer`.

Entries are read through ``operator.index``: a ``Fraction`` or ``float``
raises ``TypeError`` rather than being truncated.

Hermite normal form answers lattice-membership questions (is a vector an
integer combination of the rows?).  Group shapes come from
:func:`cokernel`, which builds no transform.  It first
eliminates every +-1 pivot: each one removes a row and a column and
contributes the factor 1.  The rows are visited shortest first from a
worklist; a row that a later pivot changes goes back on it, since it may
have gained a unit, and no other row is visited twice.  The relation
matrices of graded pieces (a few hundred rows and columns) are mostly
+-1 entries, so what remains is small, and it is also block-diagonal
with many repeated rows.  So the repeats are dropped and the remainder
is split into blocks that share no column (the sparse elimination
strategy of Dumas, Saunders and Villard, 2001).  A block of one row
contributes the gcd of its entries; any other is diagonalized by
alternating row and column Hermite forms, once per block pattern per
process: blocks that are equal after renumbering their columns in order
have one pattern, and its diagonal is kept in a bounded cache, since the
same patterns recur from piece to piece.  Those blocks are mostly
monomial translates of one another (the degree-8 piece of a
four-generator ring has 14 blocks of more than one row, of only 4
patterns).  After each Hermite pass a pivot
equal to 1 has zeros below it and, reduced into [0, 1), above it, so
its row splits off as a factor 1 before the rest is transposed (over
1,300 graded pieces of the benchmark, 9,411 passes become 8,319).  The
diagonal of all blocks is returned as it is when its sorted entries
already form a divisibility chain, and normalized with pairwise gcd/lcm
otherwise.  The Hermite loop
reduces the rows below and the entries above each pivot as it goes,
which keeps entries small (the reduced elimination of Kannan and Bachem,
1979).

:func:`smith_normal_form` runs the same alternation with both unimodular
transforms: each Hermite pass carries its row operations into ``U`` or
into ``V`` transposed.  It then turns the diagonal into a chain pair by
pair with a unimodular 2 x 2 step.  Its transforms stay as small as the
Hermite passes keep them: 59 bits on the 63 x 36 relation matrix of a
sheared degree-7 piece, where least-entry pivoting over the whole matrix
reached 149,266 bits.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd
from operator import index, mod
from typing import Iterable, Optional, Sequence

from ._record import frozen_record

IntMatrix = list[list[int]]

__all__ = [
    "AbelianGroupShape",
    "IntMatrix",
    "cokernel",
    "hermite_normal_form",
    "smith_normal_form",
    "solve_integer",
]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(U, D, V)`` with ``U @ M @ V == D``.

    ``D`` is diagonal with non-negative entries satisfying the divisibility
    chain d1 | d2 | ..., nonzero entries first.  Row Hermite forms of the
    matrix and of its transpose alternate, as in :func:`cokernel`, until
    each row has at most one entry; each pass carries its row operations
    into ``U`` or into the rows of ``V`` transposed.  The pivot columns
    then move to the front, and every pair (a, b) on the diagonal with
    a not dividing b becomes (g, ab/g), g = gcd(a, b) = sa + tb, through
    ``[[s, t], [-b/g, a/g]] @ diag(a, b) @ [[1, -tb/g], [1, sa/g]]``.
    """
    h, n = _sparse(matrix)
    m = len(h)
    u = [{i: 1} for i in range(m)]
    vt = [{j: 1} for j in range(n)]  # the rows of V transposed
    while any(len(row) > 1 for row in _hermite(h, u)):
        h = _transpose(_hermite(_transpose(h, n), vt), m)
    pivots = [next(iter(row)) for row in h if row]
    d = [h[i][c] for i, c in enumerate(pivots)]
    u = _dense(u, m)
    rest = sorted(set(range(n)).difference(pivots))
    vt = _dense([vt[j] for j in pivots + rest], n)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                _mix(u, i, j, s, t, -b // g, a // g)
                _mix(vt, i, j, 1, 1, -t * b // g, s * a // g)
                d[i], d[j] = g, a // g * b
    diagonal = [[0] * n for _ in range(m)]
    for i, value in enumerate(d):
        diagonal[i][i] = value
    return u, diagonal, [list(column) for column in zip(*vt)]


def _transpose(rows: list[dict[int, int]], width: int) -> list[dict[int, int]]:
    """The ``width`` columns of ``{column: value}`` rows, as rows."""
    columns: list[dict[int, int]] = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, value in row.items():
            columns[j][i] = value
    return columns


def _mix(rows: IntMatrix, i: int, j: int, p: int, q: int, r: int, s: int) -> None:
    """Replace rows i and j by ``p*row_i + q*row_j`` and ``r*row_i + s*row_j``."""
    rows[i], rows[j] = (
        [p * x + q * y for x, y in zip(rows[i], rows[j])],
        [r * x + s * y for x, y in zip(rows[i], rows[j])],
    )


def _sparse(matrix: Iterable[Sequence[int]]) -> tuple[list[dict[int, int]], int]:
    """``{column: value}`` rows of an integer matrix, and its width."""
    rows = []
    width = None
    for row in matrix:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        rows.append({j: index(row[j]) for j in compress(range(width), row)})
    return rows, width or 0


def _sparse_invariant_factors(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors of the lattice spanned by ``{column: value}`` rows.

    The rows are consumed.  Blocks with the same pattern (see
    :func:`_pattern`) share one diagonalization per process, held by
    :func:`_pattern_diagonal`.
    """
    units = _eliminate_unit_pivots(rows)
    diagonal = []
    for block in _blocks(rows):
        if len(block) == 1:
            diagonal.append(gcd(*block[0].values()))
        else:
            diagonal += _pattern_diagonal(_pattern(block))
    return [1] * units + _divisibility_chain(diagonal)


@lru_cache(maxsize=512)
def _pattern_diagonal(pattern: tuple) -> tuple[int, ...]:
    """:func:`_diagonal` of the block that ``pattern`` describes.

    The rows are rebuilt from the pattern itself, so the stored diagonal
    is a function of its key alone.
    """
    return tuple(_diagonal([dict(row) for row in pattern]))


def _pattern(block: list[dict[int, int]]) -> tuple:
    """The rows of a block with its columns renumbered 0, 1, ... in order.

    Each row is its ``(column, value)`` pairs in column order, and the
    rows are sorted, so the pattern does not depend on the order in which
    rows or entries come.  Two blocks with the same pattern are the same
    matrix up to a permutation of their rows and columns, so they have
    the same invariant factors.  The blocks of a relation matrix are
    mostly monomial translates of one another: multiplying by a monomial
    keeps the relative order of the basis columns, so translates share a
    pattern.
    """
    columns = sorted({j for row in block for j in row})
    rank = dict(zip(columns, range(len(columns))))
    rows = (tuple(sorted([(rank[j], value) for j, value in row.items()])) for row in block)
    return tuple(sorted(rows))


def _eliminate_unit_pivots(rows: list[dict[int, int]]) -> int:
    """Eliminate every +-1 pivot in place and return how many there were.

    A pivot at (row i, column c) first clears column c from every other
    row.  Column operations would then clear the rest of row i without
    touching any other row, so row i and column c split off as a factor
    1: row i is emptied and column c is gone from every row.  Short rows
    go first and, within a row, the unit column held by the fewest rows
    (the first such in the row's order on a tie), which keeps fill-in
    low.  A row changed by a pivot after its own visit may have gained a
    unit, so it goes back on the worklist; no other row is visited twice.

    The loop does little work per row (the degree-14 piece of a
    three-generator ring takes 339 row visits and 247 row updates), so
    per-row overhead is what it costs: a row without a +-1 is skipped on
    two membership tests, before any list is built.
    """
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            held = holders.get(j)
            if held is None:
                holders[j] = {i}
            else:
                held.add(i)
    work = sorted(range(len(rows)), key=[len(row) for row in rows].__getitem__)
    waiting = [True] * len(rows)  # row is in the unvisited part of work
    count = 0
    for i in work:
        waiting[i] = False
        row = rows[i]
        values = row.values()
        if 1 not in values and -1 not in values:
            continue
        c = least = None  # the first unit column held by the fewest rows
        for j, value in row.items():
            if value == 1 or value == -1:
                held = len(holders[j])
                if c is None or held < least:
                    c, least = j, held
        sign = row.pop(c)
        rest = row.items()
        for k in holders.pop(c):
            if k == i:
                continue
            other = rows[k]
            q = other.pop(c) * sign
            for j, value in rest:
                if j in other:
                    updated = other[j] - q * value
                    if updated:
                        other[j] = updated
                    else:
                        del other[j]
                        holders[j].discard(k)
                else:
                    other[j] = -q * value
                    holders[j].add(k)
            if not waiting[k]:
                waiting[k] = True
                work.append(k)
        for j in row:
            holders[j].discard(i)
        row.clear()
        count += 1
    return count


def _blocks(rows: list[dict[int, int]]) -> list[list[dict[int, int]]]:
    """The distinct nonzero rows, split into blocks that share no column.

    A repeated row adds nothing to the lattice, and the lattice of rows
    that fall into column-disjoint blocks is the direct sum of the blocks'
    lattices, so the invariant factors of the whole are the chain of the
    blocks' diagonals together.  Blocks are the connected components of
    the graph that links the columns of each row (a union-find over
    column indices, with path halving; a column not yet seen is its own
    root).
    """
    distinct = {frozenset(row.items()): row for row in rows if row}
    parent: dict[int, int] = {}
    for row in distinct.values():
        first = None
        for j in row:
            up = parent.setdefault(j, j)
            while up != j:
                parent[j] = grand = parent[up]
                j, up = grand, parent[grand]
            if first is None:
                first = j
            elif j != first:
                parent[j] = first
    blocks: dict[int, list[dict[int, int]]] = {}
    for row in distinct.values():
        j = next(iter(row))
        while parent[j] != j:
            j = parent[j]
        block = blocks.get(j)
        if block is None:
            blocks[j] = [row]
        else:
            block.append(row)
    return list(blocks.values())


def _diagonal(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero entries of a diagonal form of the rows, not yet a chain.

    Alternates the row Hermite forms of the matrix and of its transpose
    until every row has a single nonzero entry.  The Hermite form is
    unique, so each round replaces the leading pivot of the unfinished
    block by a divisor of it, and a round that keeps the pivot leaves its
    row and column clear for good; hence the loop ends.

    After each pass a pivot equal to 1 is alone in its column: the rows
    below are zero there and the entries above are reduced into [0, 1).
    Column operations would clear the rest of its row without touching
    any other row, so the row splits off as a factor 1 before the rest is
    transposed.
    """
    ones = 0
    h = _hermite(rows)
    while True:
        rest = []
        for row in h:
            if row:
                if row[min(row)] == 1:
                    ones += 1
                else:
                    rest.append(row)
        if all(len(row) == 1 for row in rest):
            return [1] * ones + [value for row in rest for value in row.values()]
        columns: dict[int, dict[int, int]] = {}
        for i, row in enumerate(rest):
            for j, value in row.items():
                columns.setdefault(j, {})[i] = value
        h = _hermite(list(columns.values()))


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """Invariant factors of a positive diagonal.

    A diagonal whose sorted entries already divide one another is its own
    chain; any other is normalized by pairwise gcd/lcm, which skips the
    pairs that already divide.
    """
    d = sorted(diagonal)
    if not any(map(mod, d[1:], d)):
        return d
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def hermite_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns ``(H, U)`` with ``H == U @ M``.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, and zero rows sit at the bottom.  ``U`` is the
    identity rows, carried through the row operations of the elimination.
    """
    h, n = _sparse(matrix)
    u = [{i: 1} for i in range(len(h))]
    _hermite(h, u)
    return _dense(h, n), _dense(u, len(h))


def _dense(rows: list[dict[int, int]], width: int) -> IntMatrix:
    dense = []
    for row in rows:
        line = [0] * width
        for j, value in row.items():
            line[j] = value
        dense.append(line)
    return dense


def _hermite(
    h: list[dict[int, int]], carried: Optional[list[dict[int, int]]] = None
) -> list[dict[int, int]]:
    """Row Hermite form of ``{column: value}`` rows, in place; returns ``h``.

    Every row swap, addition and sign change is also made to the
    ``carried`` rows, one per row of ``h``, if given: identity rows come
    out as the transform ``U`` with ``H == U @ M``.

    In each column the entry of least absolute value is the pivot, and
    every row below is reduced modulo it, until the pivot is alone; then
    the entries above it are reduced.  Only the rows below change while a
    column is cleared, which keeps entries small: on the relation matrix
    of a sheared degree-14 piece they peak at 370 bits, where pairing the
    pivot row with one row at a time reached 332,204 bits.
    """
    m = len(h)
    pairs = (h,) if carried is None else (h, carried)

    def swap(i, j):
        for rows in pairs:
            rows[i], rows[j] = rows[j], rows[i]

    def add(src, dst, q):
        # row dst += q * row src
        for rows in pairs:
            target = rows[dst]
            for j, value in rows[src].items():
                updated = target.get(j, 0) + q * value
                if updated:
                    target[j] = updated
                else:
                    del target[j]

    r = 0
    for c in sorted({j for row in h for j in row}):
        nonzero = [i for i in range(r, m) if c in h[i]]
        if not nonzero:
            continue
        while nonzero:  # rows below the pivot still nonzero in column c
            best = min(nonzero, key=lambda i: abs(h[i][c]))
            if best != r:
                swap(r, best)
            nonzero = []
            for i in range(r + 1, m):
                if c in h[i]:
                    add(r, i, -(h[i][c] // h[r][c]))
                    if c in h[i]:
                        nonzero.append(i)
        if h[r][c] < 0:
            for rows in pairs:
                rows[r] = {j: -value for j, value in rows[r].items()}
        for k in range(r):
            q = h[k].get(c, 0) // h[r][c]
            if q:
                add(r, k, -q)
        r += 1
    return h


def solve_integer(matrix: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[list[int]]:
    """Solve ``x @ M == b`` over the integers, or return ``None``.

    ``x`` ranges over integer row vectors of length ``rows(M)``; ``b`` must
    have length ``cols(M)``.  A returned solution is exact; ``None`` means
    ``b`` is not in the row lattice of ``M``.
    """
    b = [index(value) for value in target]
    h, n = _sparse(matrix)
    if h and n != len(b):
        raise ValueError("target length must equal the number of matrix columns")
    return _solve_sparse(h, b)


def _solve_sparse(h: list[dict[int, int]], b: list[int]) -> Optional[list[int]]:
    """:func:`solve_integer` on ``{column: value}`` rows; consumes ``h`` and ``b``.

    Once ``h`` is in Hermite form, ``b`` is in its lattice iff reducing it
    along the pivots, in column order, leaves nothing.
    """
    u = [{i: 1} for i in range(len(h))]
    _hermite(h, u)
    pivot_row = {min(row): i for i, row in enumerate(h) if row}
    x = [0] * len(h)
    for c, value in enumerate(b):
        if value == 0:
            continue
        i = pivot_row.get(c)
        if i is None or value % h[i][c] != 0:
            return None
        q = value // h[i][c]
        for j, hv in h[i].items():
            b[j] -= q * hv
        for j, uv in u[i].items():
            x[j] += q * uv
    return x


@frozen_record
class AbelianGroupShape:
    """Finitely generated abelian group: free rank plus invariant factors.

    ``torsion`` is the chain d1 | d2 | ... with every factor >= 2; the
    trivial factor 1 is never stored.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        previous = None
        for factor in self.torsion:
            if factor < 2:
                raise ValueError("torsion factors must be >= 2")
            if previous is not None and factor % previous != 0:
                raise ValueError("torsion factors must form a divisibility chain")
            previous = factor

    @classmethod
    def trivial(cls) -> "AbelianGroupShape":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbelianGroupShape":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "AbelianGroupShape":
        """Z/order, with Z/0 = Z and Z/1 trivial."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if order == 0:
            return cls(1, ())
        if order == 1:
            return cls(0, ())
        return cls(0, (order,))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroupShape") -> "AbelianGroupShape":
        groups = (self, *others)
        rank = sum(g.free_rank for g in groups)
        chain = _divisibility_chain([d for g in groups for d in g.torsion])
        return AbelianGroupShape(rank, tuple(d for d in chain if d >= 2))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel(rows: Iterable[Sequence[int]], ambient_rank: int) -> AbelianGroupShape:
    """Shape of Z^n modulo the lattice spanned by the given rows."""
    if ambient_rank < 0:
        raise ValueError("ambient rank must be non-negative")
    lattice = list(rows)
    if any(len(row) != ambient_rank for row in lattice):
        raise ValueError("every row must have length equal to the ambient rank")
    return _sparse_cokernel(_sparse(lattice)[0], ambient_rank)


def _sparse_cokernel(rows: list[dict[int, int]], ambient_rank: int) -> AbelianGroupShape:
    """:func:`cokernel` of ``{column: value}`` rows, which are consumed.

    Nothing is checked: every value must be a nonzero ``int`` and every
    column in ``range(ambient_rank)``.
    """
    factors = _sparse_invariant_factors(rows)
    torsion = tuple(d for d in factors if d >= 2)
    return AbelianGroupShape(ambient_rank - len(factors), torsion)
