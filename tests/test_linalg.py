import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbprelie.linalg import (
    RationalMatrix,
    column_space,
    echelon_basis,
    is_zero_vector,
    kernel_basis,
    rank,
    same_subspace,
    solve_linear,
    unit_vector,
)

from oracles import (
    dense_echelon,
    dense_kernel_basis,
    dense_rank,
    dense_reduce,
    dense_solve,
    mat_mat,
    mat_vec,
    sympy_rank,
)


def test_rank_identity_and_zero():
    assert rank(RationalMatrix.identity(2)) == 2
    assert rank(RationalMatrix.zeros(3, 4)) == 0
    assert rank(RationalMatrix(0, 0, ())) == 0


def test_rank_dependent_rows():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(RationalMatrix.identity(2)) == []


def test_kernel_zero_matrix_spans_plane():
    basis = kernel_basis(RationalMatrix.zeros(2, 2))
    assert len(basis) == 2
    assert rank(RationalMatrix.from_cols(basis, 2)) == 2


def test_kernel_dependent_rows_direction():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    (v,) = kernel_basis(m)
    # proportional to (2, -1): 1·x + 2·y = 0
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert is_zero_vector(m.apply(v))


def test_solve_identity():
    m = RationalMatrix.identity(2)
    assert solve_linear(m, [3, Fraction(-1, 2)]) == (Fraction(3), Fraction(-1, 2))


def test_solve_inconsistent():
    assert solve_linear(RationalMatrix.zeros(2, 2), [1, 0]) is None


def test_solve_underdetermined_verifies():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    x = solve_linear(m, [1, 2])
    assert x is not None
    assert m.apply(x) == (Fraction(1), Fraction(2))


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(RationalMatrix.identity(2), [1, 2, 3])


def _random_matrix(rng, rows, cols):
    if rows == 0:
        return RationalMatrix(0, cols, ())
    return RationalMatrix.from_rows(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_rank_nullity_and_solutions_randomized():
    rng = random.Random(1)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == cols
        for v in basis:
            assert is_zero_vector(m.apply(v))
        # solvable rhs built from a known solution must verify exactly
        if rows:
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols))
            b = m.apply(x)
            y = solve_linear(m, b)
            assert y is not None and m.apply(y) == b


def test_rank_transpose_up_to_30():
    rng = random.Random(2)
    for _ in range(12):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        m = _random_matrix(rng, rows, cols)
        assert rank(m) == rank(m.transpose())


def test_rank_matches_independent_elimination():
    rng = random.Random(3)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == sympy_rank(m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(max_denominator=6), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_transpose_property(rows):
    m = RationalMatrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


def test_unit_vector_and_identity():
    assert unit_vector(1, 3) == (Fraction(0), Fraction(1), Fraction(0))
    assert unit_vector(0, 1) == (Fraction(1),)
    assert RationalMatrix.identity(3).entries == tuple(unit_vector(i, 3) for i in range(3))
    assert RationalMatrix.identity(0) == RationalMatrix(0, 0, ())


def test_block_degree_zero_combined_layout():
    # the combined coboundary in degree 0 is [[δ₀], [−Φ₀]], with Φ₀ = Id
    delta = RationalMatrix.from_rows([[1, 2], [0, 3], [4, 0]])
    m = RationalMatrix.block([[delta], [RationalMatrix.identity(2).scale(-1)]])
    assert m == RationalMatrix.from_rows([[1, 2], [0, 3], [4, 0], [-1, 0], [0, -1]])


def test_block_two_by_two_grid():
    a = RationalMatrix.from_rows([[1, 2]])
    b = RationalMatrix.from_rows([[3], [4]])
    c = RationalMatrix.from_rows([[5, 6], [7, 8]])
    grid = [[a, RationalMatrix.zeros(1, 1)], [c, b]]
    assert RationalMatrix.block(grid) == RationalMatrix.from_rows(
        [[1, 2, 0], [5, 6, 3], [7, 8, 4]]
    )


def test_block_bands_with_zero_rows_or_columns():
    # a level of dimension 0 gives a band of height 0 or a block column of width 0
    a = RationalMatrix.from_rows([[1, 2]])
    zeros = RationalMatrix.zeros
    assert RationalMatrix.block([[a, zeros(1, 0)], [zeros(0, 2), zeros(0, 0)]]) == a
    stacked = RationalMatrix.block([[RationalMatrix.zeros(0, 3)], [RationalMatrix.identity(3)]])
    assert stacked == RationalMatrix.identity(3)
    side = RationalMatrix.block([[RationalMatrix.zeros(2, 0), RationalMatrix.zeros(2, 0)]])
    assert (side.rows, side.cols, side.entries) == (2, 0, ((), ()))
    empty = RationalMatrix.block([[RationalMatrix.zeros(0, 0)], [RationalMatrix.zeros(0, 0)]])
    assert (empty.rows, empty.cols) == (0, 0)


def test_block_rejects_mismatched_shapes():
    one, two = RationalMatrix.zeros(1, 1), RationalMatrix.zeros(2, 1)
    with pytest.raises(ValueError, match="row count"):
        RationalMatrix.block([[one, two]])
    with pytest.raises(ValueError, match="column count"):
        RationalMatrix.block([[one], [RationalMatrix.zeros(1, 2)]])
    with pytest.raises(ValueError, match="column count"):
        RationalMatrix.block([[one, one], [two]])


def test_block_reassembles_any_cut():
    rng = random.Random(12)
    for _ in range(50):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        entries = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols))
            for _ in range(rows)
        )
        m = RationalMatrix(rows, cols, entries)
        row_cuts = [0, *sorted(rng.randint(0, rows) for _ in range(2)), rows]
        col_cuts = [0, *sorted(rng.randint(0, cols) for _ in range(2)), cols]
        grid = [
            [
                RationalMatrix(r1 - r0, c1 - c0, tuple(row[c0:c1] for row in m.entries[r0:r1]))
                for c0, c1 in zip(col_cuts, col_cuts[1:])
            ]
            for r0, r1 in zip(row_cuts, row_cuts[1:])
        ]
        assert RationalMatrix.block(grid) == m


def test_echelon_subspace_membership():
    basis = echelon_basis([(1, 0, 1), (0, 1, 1)], 3)
    assert basis.dim == 2
    assert basis.contains((1, 1, 2))
    assert not basis.contains((0, 0, 1))
    residue = basis.reduce((0, 0, 1))
    assert any(x != 0 for x in residue)


def test_same_subspace():
    a = echelon_basis([(1, 0), (0, 1)], 2)
    b = echelon_basis([(1, 1), (1, -1)], 2)
    c = echelon_basis([(1, 1)], 2)
    assert same_subspace(a, b)
    assert not same_subspace(a, c)


def test_column_space_reduce_deterministic():
    m = RationalMatrix.from_cols([(1, 2, 0), (0, 0, 1)], 3)
    space = column_space(m)
    r1 = space.reduce((1, 0, 0))
    r2 = space.reduce((1, 0, 0))
    assert r1 == r2
    assert not is_zero_vector(r1)


def _sparse_random_matrix(rng, rows, cols, density, big=False):
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        if big:
            return Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**15))
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return RationalMatrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def _random_vector(rng, n, density):
    return _sparse_random_matrix(rng, 1, n, density).entries[0]


def _oracle_cases(rng):
    """Named shapes first, then seeded random matrices of mixed density."""
    yield RationalMatrix(0, 4, ())
    yield RationalMatrix(3, 0, ((),) * 3)
    yield RationalMatrix(0, 0, ())
    yield RationalMatrix.zeros(3, 5)
    yield RationalMatrix.identity(4)
    yield RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])  # rank 2
    base = _sparse_random_matrix(rng, 3, 6, 0.5)
    yield RationalMatrix(6, 6, base.entries + base.entries)  # duplicated rows
    yield _sparse_random_matrix(rng, 5, 5, 0.6, big=True)
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = _sparse_random_matrix(rng, rows, cols, rng.choice((0.1, 0.3, 0.6, 1.0)),
                                  big=rng.random() < 0.1)
        if rows > 1 and rng.random() < 0.3:  # force a dependent row
            r0, r1 = rng.sample(range(rows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            entries = list(m.entries)
            entries[r1] = tuple(c * x for x in entries[r0])
            m = RationalMatrix(rows, cols, tuple(entries))
        yield m


def test_sparse_core_equals_dense_oracle():
    """Every result of the sparse core is equal (==, not just the same span)
    to the former dense elimination and dense products."""
    rng = random.Random(6)
    inconsistent = 0
    for m in _oracle_cases(rng):
        transposed = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
        assert m.transpose().entries == transposed
        assert all(m.col(j) == transposed[j] for j in range(m.cols))
        other = _sparse_random_matrix(rng, m.cols, rng.randint(0, 5), 0.4)
        assert m.matmul(other).entries == tuple(tuple(row) for row in mat_mat(m, other))
        x = _random_vector(rng, m.cols, 0.5)
        assert m.apply(x) == tuple(mat_vec(m, x))

        assert rank(m) == dense_rank(m)
        assert kernel_basis(m) == dense_kernel_basis(m)
        for b in (m.apply(x), _random_vector(rng, m.rows, 0.7)):
            got = solve_linear(m, b)
            assert got == dense_solve(m, b)
            inconsistent += got is None

        cs = column_space(m)
        assert (cs.vectors, cs.pivots) == dense_echelon(transposed)
        space = echelon_basis(m.entries, m.cols)
        want_vectors, want_pivots = dense_echelon(m.entries)
        assert (space.vectors, space.pivots) == (want_vectors, want_pivots)
        in_span = m.transpose().apply(_random_vector(rng, m.rows, 0.6))
        for v in (in_span, _random_vector(rng, m.cols, 0.6)):
            residue = space.reduce(v)
            assert residue == dense_reduce(want_vectors, want_pivots, v)
            assert space.contains(v) == all(a == 0 for a in residue)
        assert space.contains(in_span)
    assert inconsistent > 0
