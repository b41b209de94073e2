"""Smith/Hermite normal forms, cokernels and integer solving."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    brute_force_diagonalizations,
    chain_by_prime_powers,
    determinant,
    in_row_lattice_brute,
    invariant_factors_via_minor_gcds,
    mat_mul,
    relation_rows_by_products,
)
from wpchow import (
    AbelianGroupShape,
    cokernel,
    hermite_normal_form,
    parse_poly,
    smith_normal_form,
    solve_integer,
)
from wpchow import intlinalg
from wpchow.intlinalg import _blocks, _eliminate_unit_pivots, _pattern


def invariant_factors(matrix):
    """The nonzero Smith diagonal, read off ``cokernel``: its torsion,
    after as many 1s as the lattice's rank leaves over."""
    width = len(matrix[0]) if matrix else 0
    shape = cokernel(matrix, width)
    return [1] * (width - shape.free_rank - len(shape.torsion)) + list(shape.torsion)


def _assert_snf_contract(matrix):
    u, d, v = smith_normal_form(matrix)
    assert mat_mul(mat_mul(u, matrix), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diagonal = [d[i][i] for i in range(min(m, n))]
    assert all(value >= 0 for value in diagonal)
    nonzero = [value for value in diagonal if value]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # nonzero entries must come first on the diagonal
    seen_zero = False
    for value in diagonal:
        if value == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return diagonal


def test_snf_identity():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    u, d, v = smith_normal_form(identity)
    assert d == identity


def test_snf_2x3_diag_case():
    # oracle: determinantal divisors D1 = gcd(2, 3) = 1, D2 = det = 6
    diagonal = _assert_snf_contract([[2, 0], [0, 3]])
    assert diagonal == [1, 6]
    assert invariant_factors_via_minor_gcds([[2, 0], [0, 3]]) == [1, 6]


def test_snf_gcd_row():
    # oracle: brute force over unimodular transforms with entries <= 2
    diagonal = _assert_snf_contract([[24, 24]])
    assert diagonal == [24]
    _, d, _ = smith_normal_form([[24, 24]])
    assert d == [[24, 0]]
    assert set(brute_force_diagonalizations([[24, 24]], 2)) == {(24,)}


def test_snf_empty_and_zero():
    _assert_snf_contract([[0, 0], [0, 0]])
    u, d, v = smith_normal_form([])
    assert (u, d, v) == ([], [], [])


def test_snf_input_is_checked_and_left_alone():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])
    matrix = [(4, 6), (6, 9)]
    u, d, v = smith_normal_form(matrix)
    assert matrix == [(4, 6), (6, 9)]
    assert d == [[1, 0], [0, 0]]
    assert mat_mul(mat_mul(u, matrix), v) == d


def test_snf_random_vs_minor_oracle():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diagonal = _assert_snf_contract(matrix)
        assert [v for v in diagonal if v] == invariant_factors_via_minor_gcds(matrix)
        assert invariant_factors(matrix) == [v for v in diagonal if v]


def test_determinant_matches_cofactor_expansion():
    from oracles import det_cofactor

    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(0, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(matrix) == det_cofactor(matrix)
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_cokernel_examples():
    assert cokernel([[24, 24]], 2) == AbelianGroupShape(1, (24,))
    assert cokernel([], 2) == AbelianGroupShape(2, ())
    assert cokernel([[24, 0], [0, 24]], 2) == AbelianGroupShape(0, (24, 24))


def test_cokernel_validation():
    with pytest.raises(ValueError):
        cokernel([[1, 2, 3]], 2)


def test_cokernel_invariance_random():
    rng = random.Random(29)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        base = cokernel(rows, n)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert cokernel(shuffled, n) == base
        negated = [[-v for v in row] if rng.random() < 0.5 else row for row in rows]
        assert cokernel(negated, n) == base
        if m >= 2:
            added = [row[:] for row in rows]
            i, j = rng.sample(range(m), 2)
            added[i] = [a + b for a, b in zip(added[i], added[j])]
            assert cokernel(added, n) == base


def test_hermite_normal_form_contract():
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        h, u = hermite_normal_form(matrix)
        assert mat_mul(u, matrix) == h
        assert abs(determinant(u)) == 1
        pivots = []
        for row in h:
            cols = [j for j, v in enumerate(row) if v]
            if cols:
                pivots.append(cols[0])
                assert row[cols[0]] > 0
            else:
                pivots.append(n)
        assert pivots == sorted(pivots)


def test_solve_integer_examples():
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[2]], [3]) is None
    # the degree-3 relation lattice of Z[x,y]/(x*y, 24x^2 + 24y^2) on the
    # basis (x^3, x^2 y, x y^2, y^3); 24*x^3 is a member
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [24, 0, 24, 0], [0, 24, 0, 24]]
    solution = solve_integer(rows, [24, 0, 0, 0])
    assert solution is not None
    assert [
        sum(solution[i] * rows[i][j] for i in range(4)) for j in range(4)
    ] == [24, 0, 0, 0]
    # brute-force witness over the sublattice actually used:
    # 1*(24,0,24,0) - 24*(0,0,1,0) = (24,0,0,0)
    assert in_row_lattice_brute([[0, 0, 1, 0], [24, 0, 24, 0]], [24, 0, 0, 0], 24)
    # x^3 itself is not in the lattice
    assert solve_integer(rows, [1, 0, 0, 0]) is None


def test_solve_integer_shape_checks():
    assert solve_integer([], [0, 0]) == []
    assert solve_integer([], [1]) is None
    with pytest.raises(ValueError):
        solve_integer([[1, 2]], [1])


def test_solve_integer_random_cross_check():
    rng = random.Random(37)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        target = [rng.randint(-6, 6) for _ in range(n)]
        solution = solve_integer(matrix, target)
        if solution is not None:
            assert [
                sum(solution[i] * matrix[i][j] for i in range(m)) for j in range(n)
            ] == target
        else:
            # a witness inside the box would contradict the solver
            assert not in_row_lattice_brute(matrix, target, 4)


def test_solve_integer_solvable_instances():
    rng = random.Random(41)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        witness = [rng.randint(-3, 3) for _ in range(m)]
        target = [sum(witness[i] * matrix[i][j] for i in range(m)) for j in range(n)]
        solution = solve_integer(matrix, target)
        assert solution is not None
        assert [
            sum(solution[i] * matrix[i][j] for i in range(m)) for j in range(n)
        ] == target


def test_group_shape_canonicalization():
    assert str(AbelianGroupShape(2, (24,))) == "Z^2 x Z/24"
    assert str(AbelianGroupShape(0, ())) == "0"
    assert str(AbelianGroupShape(1, ())) == "Z"
    assert AbelianGroupShape.cyclic(1).is_trivial
    assert AbelianGroupShape.cyclic(0) == AbelianGroupShape.free(1)
    with pytest.raises(ValueError):
        AbelianGroupShape(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianGroupShape(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupShape(-1, ())


def test_direct_sum_recombines_invariant_factors():
    # oracle: determinantal divisors of diag(12, 8) give [4, 24]
    left = AbelianGroupShape.cyclic(12)
    right = AbelianGroupShape.cyclic(8)
    assert left.direct_sum(right) == AbelianGroupShape(0, (4, 24))
    assert invariant_factors_via_minor_gcds([[12, 0], [0, 8]]) == [4, 24]
    assert AbelianGroupShape.free(1).direct_sum(AbelianGroupShape.cyclic(24)) == AbelianGroupShape(1, (24,))
    assert AbelianGroupShape.cyclic(24).direct_sum(AbelianGroupShape.cyclic(24)) == AbelianGroupShape(0, (24, 24))


def _smith_diagonal(matrix):
    """The nonzero Smith diagonal, certified by the full contract."""
    return [value for value in _assert_snf_contract(matrix) if value]


def _random_matrix(rng, kind, m, n):
    if kind == "unit-heavy":
        # sparse rows that are mostly +-1, like graded relation rows
        values = [1, -1, 1, -1, 2, -3, 6, 10, 15]
        return [
            [rng.choice(values) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(m)
        ]
    if kind == "rank-deficient":
        k = rng.randint(1, max(1, min(m, n) - 1))
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    if kind == "zero-lines":
        matrix = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), rng.randint(1, m)):
            matrix[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n - 1)):
            for row in matrix:
                row[j] = 0
        return matrix
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["unit-heavy", "rank-deficient", "zero-lines"])
def test_invariant_factors_match_smith_diagonal(kind):
    rng = random.Random(f"factors-{kind}")
    for _ in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        matrix = _random_matrix(rng, kind, m, n)
        diagonal = _smith_diagonal(matrix)
        assert invariant_factors(matrix) == diagonal
        torsion = tuple(d for d in diagonal if d >= 2)
        assert cokernel(matrix, n) == AbelianGroupShape(n - len(diagonal), torsion)


def test_invariant_factors_of_degenerate_shapes():
    assert invariant_factors([]) == []
    assert invariant_factors([[]]) == []
    assert invariant_factors([[], [], []]) == []
    assert invariant_factors([[0, 0, 0]]) == []
    assert invariant_factors([[0], [0]]) == []
    assert invariant_factors([[0, 0, 0], [0, 0, 0]]) == []
    assert _blocks([]) == []
    assert _blocks([{}, {}]) == []
    assert invariant_factors([[6, -4, 10]]) == [2]
    assert invariant_factors([[0, -1, 7]]) == [1]
    assert invariant_factors([[-12]]) == [12]
    assert cokernel([], 3) == AbelianGroupShape(3, ())
    assert cokernel([[0, 0]], 2) == AbelianGroupShape(2, ())
    assert cokernel([[]], 0) == AbelianGroupShape(0, ())
    rng = random.Random(59)
    for _ in range(50):
        row = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        g = gcd(*row)
        assert invariant_factors([row]) == ([g] if g else [])
        assert invariant_factors([row, row]) == ([g] if g else [])
        assert invariant_factors([[v] for v in row]) == ([g] if g else [])
    with pytest.raises(ValueError):
        invariant_factors([[1, 2], [3]])


def test_invariant_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(61)
    values = [1, -1, 2, 3, -4, 6]
    # Denser matrices of this size take sympy minutes.
    for m, n, density in ((100, 100, 0.02), (100, 60, 0.02), (60, 100, 0.03), (40, 40, 0.06)):
        matrix = [
            [rng.choice(values) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        expected = sympy_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert invariant_factors(matrix) == [int(f) for f in expected if f]


def test_hermite_form_depends_only_on_the_lattice():
    # The Hermite form is unique: shuffling the rows or adding one row to
    # another must not change H, on matrices large enough for the sparse
    # elimination to fill in.
    rng = random.Random(67)
    for _ in range(20):
        m, n = rng.randint(10, 30), rng.randint(5, 20)
        matrix = _random_matrix(rng, "unit-heavy", m, n)
        h, u = hermite_normal_form(matrix)
        assert mat_mul(u, matrix) == h
        assert abs(determinant(u)) == 1
        mixed = [row[:] for row in matrix]
        rng.shuffle(mixed)
        i, j = rng.sample(range(m), 2)
        mixed[i] = [a + 3 * b for a, b in zip(mixed[i], mixed[j])]
        assert hermite_normal_form(mixed)[0] == h


# -- the block split after unit elimination ---------------------------------


def _block_diagonal(rng, shapes, values, repeat=False):
    """A block-diagonal matrix with blocks of the given shapes and entries,
    its rows and columns shuffled; also returns the blocks.

    With ``repeat``, a block may copy an earlier block of its shape, and
    half the time the columns move block by block, each block keeping the
    order of its own columns, so that the copies are translates.
    """
    m, n = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    matrix = [[0] * n for _ in range(m)]
    blocks = []
    spans = []
    top = left = 0
    for r, c in shapes:
        earlier = [b for b in blocks if (len(b), len(b[0])) == (r, c)]
        if repeat and earlier and rng.random() < 0.5:
            block = [row[:] for row in rng.choice(earlier)]
        else:
            block = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
        for i, row in enumerate(block):
            matrix[top + i][left : left + c] = row
        blocks.append(block)
        spans.append(range(left, left + c))
        top, left = top + r, left + c
    rng.shuffle(matrix)
    if repeat and rng.random() < 0.5:
        rng.shuffle(spans)
        columns = [j for span in spans for j in span]
    else:
        columns = list(range(n))
        rng.shuffle(columns)
    return [[row[j] for j in columns] for row in matrix], blocks


def _factors_by_blocks(blocks):
    """Invariant factors of a block-diagonal matrix, from the minor gcds
    of each block."""
    return chain_by_prime_powers(
        [d for block in blocks for d in invariant_factors_via_minor_gcds(block)]
    )


def test_invariant_factors_of_shuffled_block_diagonal_matrices(monkeypatch):
    rng = random.Random(71)
    values = [0, 0, 1, -1, 2, -2, 3, 4, -6, 10, 15]
    for _ in range(300):
        shapes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        matrix, blocks = _block_diagonal(rng, shapes, values)
        expected = _factors_by_blocks(blocks)
        assert invariant_factors(matrix) == expected
        assert _smith_diagonal(matrix) == expected
        if len(matrix) <= 6 and len(matrix[0]) <= 6:
            assert invariant_factors_via_minor_gcds(matrix) == expected
    # Repeated shapes and copied blocks, so that equal blocks come both as
    # translates, which share one diagonalization, and under arbitrary
    # column permutations.
    calls = {"blocks": 0, "diagonals": 0}
    blocks_of, diagonal_of = intlinalg._blocks, intlinalg._diagonal

    def count_blocks(rows):
        found = blocks_of(rows)
        calls["blocks"] += sum(len(block) > 1 for block in found)
        return found

    def count_diagonals(rows):
        calls["diagonals"] += 1
        return diagonal_of(rows)

    monkeypatch.setattr(intlinalg, "_blocks", count_blocks)
    monkeypatch.setattr(intlinalg, "_diagonal", count_diagonals)
    rng = random.Random(72)
    values = [0, 2, -2, 3, 4, -6, 10, 15]
    for _ in range(200):
        shapes = [rng.choice([(2, 2), (3, 2), (2, 3)]) for _ in range(rng.randint(2, 7))]
        matrix, blocks = _block_diagonal(rng, shapes, values, repeat=True)
        expected = _factors_by_blocks(blocks)
        assert invariant_factors(matrix) == expected
        assert _smith_diagonal(matrix) == expected
        if len(matrix) <= 6 and len(matrix[0]) <= 6:
            assert invariant_factors_via_minor_gcds(matrix) == expected
    assert calls["diagonals"] < calls["blocks"]


def test_translated_blocks_share_one_diagonal(monkeypatch):
    calls = []
    diagonal_of = intlinalg._diagonal

    def count_diagonals(rows):
        calls.append(len(rows))
        return diagonal_of(rows)

    monkeypatch.setattr(intlinalg, "_diagonal", count_diagonals)
    intlinalg._pattern_diagonal.cache_clear()
    base = [[2, 4], [6, 8]]  # factors 2, 4
    other = [[2, 4], [6, 10]]  # the same support, one value apart: 2, 2
    swapped = [row[::-1] for row in base]  # base with its columns swapped
    blocks = [base, base, swapped, other]
    matrix = [[0] * 8 for _ in range(8)]
    for b, block in enumerate(blocks):
        for i, row in enumerate(block):
            matrix[2 * b + i][2 * b : 2 * b + 2] = row
    sparse = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    assert _pattern(sparse[0:2]) == _pattern(sparse[2:4])
    assert _pattern(sparse[0:2]) != _pattern(sparse[4:6])
    assert _pattern(sparse[0:2]) != _pattern(sparse[6:8])
    expected = chain_by_prime_powers([2, 4, 2, 4, 2, 4, 2, 2])
    assert _factors_by_blocks(blocks) == expected
    assert invariant_factors(matrix) == expected
    # The translate reuses the first block's diagonal; the swapped copy and
    # the block one value apart are diagonalized on their own.
    assert len(calls) == 3


def test_blocks_with_one_support_keep_their_own_diagonals():
    # Neither block has a unit entry, so each reaches the pattern cache
    # whole.  Their supports agree and their values do not: a key that
    # forgot the values would hand the second block the first one's
    # factors, in whichever order they come.
    first = [[2, 4], [4, 2]]  # Z/2 x Z/6
    second = [[2, 4], [4, 6]]  # Z/2 x Z/2
    assert invariant_factors_via_minor_gcds(first) == [2, 6]
    assert invariant_factors_via_minor_gcds(second) == [2, 2]
    for order in ((first, second), (second, first)):
        intlinalg._pattern_diagonal.cache_clear()
        for matrix in order:
            assert invariant_factors(matrix) == invariant_factors_via_minor_gcds(matrix)
        assert intlinalg._pattern_diagonal.cache_info().misses == 2


def test_a_block_with_relabelled_columns_is_a_cache_hit():
    # The same block on columns 0 and 2 and on columns 1 and 2: renumbering
    # the columns in order makes the two one pattern, diagonalized once.
    intlinalg._pattern_diagonal.cache_clear()
    shape = cokernel([[2, 0, 4], [4, 0, 2]], 3)
    assert shape == AbelianGroupShape(1, (2, 6))
    hits = intlinalg._pattern_diagonal.cache_info().hits
    assert cokernel([[0, 2, 4], [0, 4, 2]], 3) == shape
    assert intlinalg._pattern_diagonal.cache_info().hits == hits + 1
    assert intlinalg._pattern_diagonal.cache_info().misses == 1


def test_duplicate_and_zero_rows_leave_the_factors_unchanged():
    # Rows with the same columns but other values span more than either.
    assert invariant_factors([[2, 3], [4, 5]]) == [1, 2]
    assert invariant_factors([[2, 3], [4, 5], [2, 3], [0, 0], [4, 5]]) == [1, 2]
    assert invariant_factors([[6, 10], [6, 10], [-6, -10]]) == [2]
    rows = [{0: 2, 1: 3}, {}, {0: 2, 1: 3}, {0: 4, 1: 5}, {1: 3, 0: 2}]
    assert _blocks(rows) == [[{0: 2, 1: 3}, {0: 4, 1: 5}]]
    rng = random.Random(73)
    for kind in ("unit-heavy", "rank-deficient", "zero-lines"):
        for _ in range(60):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            matrix = _random_matrix(rng, kind, m, n)
            padded = matrix + [rng.choice(matrix)[:] for _ in range(rng.randint(1, m))]
            padded += [[0] * n for _ in range(rng.randint(0, 2))]
            rng.shuffle(padded)
            assert invariant_factors(padded) == _smith_diagonal(matrix)


def test_a_unit_exposed_in_a_visited_row_is_eliminated():
    # Row 0 has no unit when it is visited; the pivot of row 1 leaves it
    # {1: 1}, which must be eliminated too.
    rows = [{0: 2, 1: 3}, {0: 1, 1: 1}]
    assert _eliminate_unit_pivots(rows) == 2
    assert rows == [{}, {}]
    assert invariant_factors([[2, 3], [1, 1]]) == [1, 1]


def test_unit_pivots_cascade_through_visited_rows():
    # Only the fifth row holds a unit.  Each pivot leaves a unit in the row
    # visited just before it, so the elimination runs back up the list;
    # the last row keeps its factor 2.
    rows = [
        {3: 2, 4: 5, 5: 2},
        {2: 2, 3: 5, 4: 2},
        {1: 2, 2: 5, 3: 2},
        {0: 2, 1: 3, 2: 2},
        {0: 1, 1: 1, 6: 6},
        {5: 6, 6: 4},
    ]
    matrix = [[row.get(j, 0) for j in range(7)] for row in rows]
    assert _eliminate_unit_pivots(rows) == 5
    assert rows == [{}, {}, {}, {}, {}, {5: 6, 6: 4}]
    assert invariant_factors(matrix) == invariant_factors_via_minor_gcds(matrix) == [1] * 5 + [2]


def test_an_entry_of_two_beside_a_unit_is_not_a_pivot():
    # Column 0 is held by fewer rows, but its 2 is no unit: the pivot is the
    # 1 in column 1, which turns row 1 into {0: -6}.
    rows = [{0: 2, 1: 1}, {1: 3}]
    assert intlinalg._eliminate_unit_pivots(rows) == 1
    assert rows == [{}, {0: -6}]
    assert invariant_factors([[2, 1], [0, 3]]) == [1, 6]


def test_fill_in_is_cleared_by_a_later_pivot():
    # The pivot of row 0 leaves row 1 an entry in column 1, where it had
    # none; the pivot of row 2 in column 1 must then clear it.
    rows = [{0: -1, 1: 2}, {0: 2}, {0: 1, 1: -1}]
    assert intlinalg._eliminate_unit_pivots(rows) == 2
    assert rows == [{}, {}, {}]
    assert cokernel([[-1, 2], [2, 0], [1, -1]], 2) == AbelianGroupShape.trivial()


# -- pivots equal to 1 split off between Hermite passes ------------------------


def _sparse_rows(matrix):
    return [{j: value for j, value in enumerate(row) if value} for row in matrix]


def _first_pass_units(matrix):
    """How many pivots equal to 1 the first row Hermite pass leaves."""
    return sum(row[min(row)] == 1 for row in intlinalg._hermite(_sparse_rows(matrix)) if row)


def _count_hermite_passes(monkeypatch):
    passes = []
    hermite = intlinalg._hermite

    def count(h, carried=None):
        passes.append(len(h))
        return hermite(h, carried)

    monkeypatch.setattr(intlinalg, "_hermite", count)
    return passes


def test_a_pivot_of_one_splits_off_after_its_hermite_pass(monkeypatch):
    # No entry is +-1, so unit elimination leaves each matrix whole.  The
    # first pass turns [[2, 3], [3, 2]] into [[1, 4], [0, 5]]; the pivot 1
    # splits off as a factor 1 and [5] is diagonal, with no second pass.
    passes = _count_hermite_passes(monkeypatch)
    assert intlinalg._diagonal(_sparse_rows([[2, 3], [3, 2]])) == [1, 5]
    assert len(passes) == 1
    assert invariant_factors([[2, 3], [3, 2]]) == [1, 5]
    # The first pass of [[2, 3], [0, 2]] is [[2, 1], [0, 2]]: pivots 2 do
    # not split off, since the 1 beside the first couples the rows (Z/4,
    # not Z/2 x Z/2).
    assert _first_pass_units([[2, 3], [0, 2]]) == 0
    assert invariant_factors([[2, 3], [0, 2]]) == [1, 4]
    assert invariant_factors_via_minor_gcds([[2, 3], [0, 2]]) == [1, 4]


def test_blocks_whose_hermite_pass_leaves_pivots_of_one_against_minor_gcds():
    rng = random.Random(103)
    values = [0, 0, 2, -2, 3, -3, 4, 5, -6, 10, 15]
    tried = 0
    for _ in range(150):
        while True:
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            matrix = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
            tried += 1
            if _first_pass_units(matrix):
                break
        expected = invariant_factors_via_minor_gcds(matrix)
        assert invariant_factors(matrix) == expected, matrix
        assert cokernel(matrix, n).free_rank == n - len(expected)
    assert tried > 150


def _sheared_degree_6_block():
    """Degree 6 of the ROADMAP ring sheared by c -> c + a, and the one
    block of more than one row that its unit pivots leave, dense."""
    matrix = _roadmap_rows(6, ["a*b - (c + a)^2", "6*a^2 + 10*b^2", "15*a*(c + a)"])
    rows = _sparse_rows(matrix)
    _eliminate_unit_pivots(rows)
    (block,) = [block for block in _blocks(rows) if len(block) > 1]
    columns = sorted({j for row in block for j in row})
    return matrix, [[row.get(j, 0) for j in columns] for row in block]


def test_the_sheared_degree_6_block_splits_its_unit_pivots(monkeypatch):
    # The block's first Hermite pass leaves pivots equal to 1; splitting
    # them off takes it from 4 passes to 3.
    matrix, dense = _sheared_degree_6_block()
    assert (len(dense), len(dense[0])) == (30, 13)
    assert _first_pass_units(dense) > 0
    passes = _count_hermite_passes(monkeypatch)
    diagonal = intlinalg._diagonal(_sparse_rows(dense))
    assert len(passes) == 3
    assert 1 in diagonal
    assert invariant_factors(dense) == chain_by_prime_powers(diagonal)
    # The piece is the ROADMAP ring's, since a shear is an automorphism.
    assert invariant_factors(matrix)[-4:] == [30, 150, 150, 450]
    assert cokernel(matrix, len(matrix[0])) == AbelianGroupShape(0, (30, 150, 150, 450))


def test_the_sheared_degree_6_block_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    _, dense = _sheared_degree_6_block()
    expected = [int(f) for f in sympy_factors(sympy.Matrix(dense), domain=sympy.ZZ) if f]
    assert invariant_factors(dense) == expected


def test_non_integer_entries_are_refused():
    # int() would truncate these to the trivial group, Z/2 and [1].
    with pytest.raises(TypeError):
        cokernel([[Fraction(3, 2)]], 1)
    with pytest.raises(TypeError):
        cokernel([[2.7]], 1)
    with pytest.raises(TypeError):
        solve_integer([[2]], [Fraction(5, 2)])
    with pytest.raises(TypeError):
        solve_integer([[Fraction(1, 2)]], [1])
    with pytest.raises(TypeError):
        hermite_normal_form([[1, 0.5]])
    with pytest.raises(TypeError):
        smith_normal_form([[Fraction(1, 3)]])
    assert cokernel([[True, 2], [0, 0.0]], 2) == AbelianGroupShape(1, ())


def test_blocks_linked_through_one_column_stay_one_block():
    # The first four rows form two groups, on columns 0-1 and 3-4.  The
    # last row holds column 1 of one and column 3 of the other, so all
    # five rows are one block, and the union-find must merge two roots.
    rows = [{0: 2, 1: 4}, {0: 6}, {3: 10, 4: 4}, {4: 6}, {1: 3, 3: 9}]
    blocks = _blocks([dict(row) for row in rows])
    assert len(blocks) == 1 and len(blocks[0]) == 5
    rng = random.Random(79)
    values = [2, -2, 3, 4, 6, -9, 10]
    for _ in range(100):
        shapes = [(rng.randint(1, 3), rng.randint(2, 3)) for _ in range(2)]
        matrix, _ = _block_diagonal(rng, shapes, values)
        # One entry puts a column of one block into a row of the other.
        for row in matrix:
            zero = [j for j, v in enumerate(row) if v == 0]
            if zero:
                row[rng.choice(zero)] = rng.choice(values)
                break
        sparse = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        assert len(_blocks(sparse)) == 1
        expected = _smith_diagonal(matrix)
        assert invariant_factors(matrix) == expected
        if len(matrix) <= 6:
            assert invariant_factors_via_minor_gcds(matrix) == expected


def test_diagonals_become_a_divisibility_chain():
    assert invariant_factors([[4, 0], [0, 6]]) == [2, 12]
    assert invariant_factors([[6, 0], [0, 2]]) == [2, 6]
    assert invariant_factors([[0, 9], [3, 0]]) == [3, 9]
    assert invariant_factors([[12, 0, 0], [0, 18, 0], [0, 0, 8]]) == [2, 12, 72]
    assert AbelianGroupShape.cyclic(6).direct_sum(AbelianGroupShape.cyclic(2)) == AbelianGroupShape(0, (2, 6))
    rng = random.Random(83)
    for _ in range(200):
        diagonal = [rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 30, 60]) for _ in range(rng.randint(1, 12))]
        matrix = [[d if i == j else 0 for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
        rng.shuffle(matrix)
        assert invariant_factors(matrix) == chain_by_prime_powers(diagonal)


def test_shuffled_block_diagonal_matrices_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(97)
    values = [0, 1, -1, 2, -3, 4, 6, 10]
    for count in (8, 16):
        shapes = [(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(count)]
        matrix, blocks = _block_diagonal(rng, shapes, values)
        matrix += [row[:] for row in rng.sample(matrix, 5)]
        expected = [int(f) for f in sympy_factors(sympy.Matrix(matrix), domain=sympy.ZZ) if f]
        assert expected == _factors_by_blocks(blocks)
        assert invariant_factors(matrix) == expected
    rng = random.Random(98)
    for _ in range(6):
        shapes = [rng.choice([(2, 2), (3, 2)]) for _ in range(10)]
        matrix, blocks = _block_diagonal(rng, shapes, values, repeat=True)
        expected = [int(f) for f in sympy_factors(sympy.Matrix(matrix), domain=sympy.ZZ) if f]
        assert expected == _factors_by_blocks(blocks)
        assert invariant_factors(matrix) == expected


def test_many_block_lattice_finishes_in_bounded_time():
    # 400 blocks of 3 x 2 with no +-1 entry, rows and columns shuffled:
    # 1,200 x 800.  Diagonalizing it as one matrix took 0.4-0.56 s; block
    # by block it takes ~0.05 s (2-CPU Linux container, Python 3.11).
    rng = random.Random(400)
    values = [2, 3, 4, 5, 6, -2, -3, -4, -6, 10, 15]
    matrix, blocks = _block_diagonal(rng, [(3, 2)] * 400, values)
    start = time.perf_counter()
    factors = invariant_factors(matrix)
    assert time.perf_counter() - start < 0.3
    assert factors == _factors_by_blocks(blocks)


# -- Smith form of graded relation matrices ----------------------------------


def _roadmap_rows(degree, relations):
    """Relation rows of one degree of Z[a,b,c] modulo the given relations."""
    generators = [("a", 1), ("b", 1), ("c", 1)]
    _, rows = relation_rows_by_products(generators, [parse_poly(t) for t in relations], degree)
    return rows


def _largest_bits(*matrices):
    return max(abs(x).bit_length() for m in matrices for row in m for x in row)


def test_smith_form_of_a_sheared_relation_matrix_keeps_transforms_small():
    # Degree 7 of Z[a,b,c]/(a*b - c^2, 6*a^2 + 10*b^2, 15*a*c) sheared by
    # a -> a + c: 63 x 36 with 4-bit entries.  The dense Euclid Smith form
    # took 3.1-5.8 s and built 149,266-bit transforms; alternating Hermite
    # passes take 3-6 ms and stay at 59 bits (2-CPU Linux container,
    # Python 3.11).
    matrix = _roadmap_rows(7, ["(a + c)*b - c^2", "6*(a + c)^2 + 10*b^2", "15*(a + c)*c"])
    assert (len(matrix), len(matrix[0])) == (63, 36)
    start = time.perf_counter()
    u, _, v = smith_normal_form(matrix)
    assert time.perf_counter() - start < 0.5
    assert _largest_bits(u, v) < 1000
    assert _smith_diagonal(matrix) == invariant_factors(matrix)


def test_smith_form_of_the_degree_24_piece_matches_cokernel():
    # 828 x 325.  The dense Euclid Smith form took 5.5-8.2 s and built
    # 33,801-bit transforms; this one takes 0.18-0.27 s with 83-bit ones.
    matrix = _roadmap_rows(24, ["a*b - c^2", "6*a^2 + 10*b^2", "15*a*c"])
    u, d, v = smith_normal_form(matrix)
    assert _largest_bits(u, v) < 1000
    diagonal = [d[i][i] for i in range(325) if d[i][i]]
    assert diagonal == invariant_factors(matrix)
    assert diagonal[-4:] == [30, 150, 150, 450]
