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
