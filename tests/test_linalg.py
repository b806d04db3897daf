import copy
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbprelie.complexes import ComplexData, ComplexKind
from rbprelie.generators import coadjoint_module, random_invertible, random_valid_pair
from rbprelie.linalg import (
    Elimination,
    IntegerEchelon,
    RationalMatrix,
    column_space,
    echelon_basis,
    fractions_over,
    int_apply,
    int_columns,
    int_matmul,
    int_matrix_sum,
    int_matvec,
    int_pullback,
    int_sum,
    int_transpose,
    integer_form,
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
    matmul_by_fractions,
    pullback_by_fractions,
    sympy_rank,
)


def test_rank_identity_and_zero():
    assert rank(RationalMatrix.identity(2)) == 2
    assert rank(RationalMatrix.zeros(3, 4)) == 0
    assert rank(RationalMatrix.from_rows([])) == 0


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
        return RationalMatrix.from_rows([], cols)
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
    assert RationalMatrix.identity(0) == RationalMatrix.from_rows([])


def test_from_rows_edge_cases():
    with pytest.raises(ValueError, match="column count mismatch"):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="column count mismatch"):
        RationalMatrix.from_rows([[1, 2]], 3)
    m = RationalMatrix.from_rows([[0, Fraction(0, 5), 2], [Fraction(0), 1, 0]])
    assert m.sparse_rows == (((2, Fraction(2)),), ((1, Fraction(1)),))
    assert all(type(x) is Fraction for row in m.sparse_rows for _, x in row)
    assert m == RationalMatrix.from_sparse([((2, Fraction(2)),), ((1, Fraction(1)),)], 3)
    empty = RationalMatrix.from_rows([], 4)
    assert (empty.rows, empty.cols, empty.entries) == (0, 4, ())
    assert empty == RationalMatrix.zeros(0, 4) != RationalMatrix.zeros(0, 3)


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
        m = RationalMatrix.from_rows(entries, cols)
        row_cuts = [0, *sorted(rng.randint(0, rows) for _ in range(2)), rows]
        col_cuts = [0, *sorted(rng.randint(0, cols) for _ in range(2)), cols]
        grid = [
            [
                RationalMatrix.from_rows([row[c0:c1] for row in m.entries[r0:r1]], c1 - c0)
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

    return RationalMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], cols)


def _random_vector(rng, n, density):
    return _sparse_random_matrix(rng, 1, n, density).entries[0]


def _oracle_cases(rng):
    """Named shapes first, then seeded random matrices of mixed density."""
    yield RationalMatrix.from_rows([], 4)
    yield RationalMatrix.from_rows(((),) * 3)
    yield RationalMatrix.from_rows([])
    yield RationalMatrix.zeros(3, 5)
    yield RationalMatrix.identity(4)
    yield RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])  # rank 2
    base = _sparse_random_matrix(rng, 3, 6, 0.5)
    yield RationalMatrix.from_rows(base.entries + base.entries)  # duplicated rows
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
            m = RationalMatrix.from_rows(entries, cols)
        yield m
    # assembled coboundary and chain-map matrices (from_sparse) and combined ones (block)
    r, module = random_valid_pair(random.Random(3), 2)
    for data in (ComplexData(r, module), ComplexData(r, coadjoint_module(r))):
        for n in range(3):
            yield from (data.d(kind, n) for kind in ComplexKind)
            yield data.phi(n)


def _assert_canonical(x):
    """x holds nonzero ``Fraction`` values only, by strictly increasing
    column, so it equals the matrix of its own dense entries."""
    assert x == RationalMatrix.from_rows(x.entries, x.cols)
    for row in x.sparse_rows:
        assert all(j < k for (j, _), (k, _) in zip(row, row[1:])), row
        assert all(type(v) is Fraction and v != 0 for _, v in row), row


def test_sparse_core_equals_dense_oracle():
    """Every result of the sparse core is equal (==, not just the same span)
    to the former dense elimination and dense products, and every matrix
    builder stores its nonzeros in the one canonical form."""
    rng = random.Random(6)
    inconsistent = 0
    for m in _oracle_cases(rng):
        transposed = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
        assert m.transpose().entries == transposed
        assert all(m.col(j) == transposed[j] for j in range(m.cols))
        other = _sparse_random_matrix(rng, m.cols, rng.randint(0, 5), 0.4)
        assert m.matmul(other).entries == tuple(tuple(row) for row in mat_mat(m, other))
        built = [
            m, other, m.transpose(), m.matmul(other), -m, m.scale(Fraction(-3, 2)), m.scale(0),
            m.add(m), m.sub(m), RationalMatrix.from_cols(transposed, m.rows),
            RationalMatrix.block([[m, m], [m, m]]),
            RationalMatrix.identity(m.cols), RationalMatrix.zeros(m.rows, m.cols),
        ]
        for matrix in built:
            _assert_canonical(matrix)
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


def _returned_entries(m, rhs):
    """Every entry the elimination functions return for m and the rhs."""
    yield from (x for v in kernel_basis(m) for x in v)
    yield from solve_linear(m, rhs) or ()
    yield from (x for v in column_space(m).vectors for x in v)
    space = echelon_basis(m.entries, m.cols)
    yield from (x for v in space.vectors for x in v)
    yield from space.reduce((1,) * m.cols)
    yield from space.reduce(tuple(Fraction(k + 1, 3) for k in range(m.cols)))


def test_elimination_returns_fractions_only():
    # Fraction(3) == 3, so the equality tests would not see an int leak out
    # of the integer elimination; repr (the block pins) and Vector would
    rng = random.Random(21)
    ints = RationalMatrix.from_rows(((2, 4, 0, 6), (1, 2, 0, 3), (0, 0, 5, 1)))
    cases = [
        RationalMatrix.identity(3),
        RationalMatrix.zeros(2, 3),
        ints,
        RationalMatrix.from_rows(ints.entries),
        _sparse_random_matrix(rng, 5, 6, 0.6),
        _sparse_random_matrix(rng, 4, 4, 1.0, big=True),
    ]
    for m in cases:
        rhs = m.apply((1,) * m.cols)
        found = [x for x in _returned_entries(m, rhs) if type(x) is not Fraction]
        assert not found, f"{m}: {found}"
        assert all(type(x) is Fraction for x in solve_linear(m, (3,) * m.rows) or ())


M61 = 2**61 - 1


def _adversarial_cases(rng):
    """Matrices that stress integer rows: large coprime denominators,
    coefficient growth, proportional rows, zero rows and empty shapes."""
    yield RationalMatrix.from_rows([], 7)
    yield RationalMatrix.from_rows(((),) * 7)
    for _ in range(4):  # entries with large coprime denominators
        rows, cols = rng.randint(3, 8), rng.randint(3, 8)
        yield RationalMatrix.from_rows(
            [
                [Fraction(rng.randint(-M61, M61), rng.choice((1, 97, 101, M61)))
                 if rng.random() < 0.7 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
        )
    for n in (20, 25, 30):  # rank-deficient products: coefficients grow
        k = rng.randint(n // 3, n - 2)
        a = _sparse_random_matrix(rng, n, k, 0.7)
        b = _sparse_random_matrix(rng, k, n + rng.randint(-3, 3), 0.7)
        yield a.matmul(b)
    for _ in range(3):  # rational multiples of one row, and of two
        base = _sparse_random_matrix(rng, 2, rng.randint(4, 9), 0.8, big=True).entries
        factors = [Fraction(rng.randint(1, 9), rng.choice((-1, 97, 101, M61))) for _ in range(4)]
        multiples = [tuple(c * x for x in base[0]) for c in factors]
        yield RationalMatrix.from_rows(multiples)
        yield RationalMatrix.from_rows(multiples[:2] + [base[1]] + multiples[2:] + [base[1]])
    for _ in range(3):  # zero rows interleaved with a random block
        m = _sparse_random_matrix(rng, rng.randint(2, 6), rng.randint(2, 8), 0.6)
        zero = (Fraction(0),) * m.cols
        rows = [row for row in m.entries for row in (zero, row)] + [zero]
        yield RationalMatrix.from_rows(rows)


def _assert_equals_dense_oracle(m, rhs):
    transposed = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
    assert rank(m) == dense_rank(m)
    assert kernel_basis(m) == dense_kernel_basis(m)
    for b in rhs:
        want = dense_solve(m, b)
        assert solve_linear(m, b) == want
        if want is None:  # the residue modulo im m, as the dense reduced basis gives it
            residue = dense_reduce(*dense_echelon(transposed), b)
            assert Elimination(m).solve(b) == (None, tuple((i, v) for i, v in enumerate(residue) if v))
    cs = column_space(m)
    assert (cs.vectors, cs.pivots) == dense_echelon(transposed)
    space = echelon_basis(m.entries, m.cols)
    want_vectors, want_pivots = dense_echelon(m.entries)
    assert (space.vectors, space.pivots) == (want_vectors, want_pivots)
    for v in (*m.entries, tuple(Fraction(1, M61 + j) for j in range(m.cols))):
        assert space.reduce(v) == dense_reduce(want_vectors, want_pivots, v)


def _inconsistent_rhs(rng, m):
    """A rhs off the column space of m, or None if m has full row rank."""
    left = kernel_basis(m.transpose())  # y with yᵀm = 0
    if not left:
        return None
    y = left[rng.randrange(len(left))]
    # b with y·b ≠ 0: the unit vector at a nonzero of y, times a big prime ratio
    i = next(i for i, x in enumerate(y) if x)
    return tuple(Fraction(M61, 101) if k == i else Fraction(0) for k in range(m.rows))


def test_adversarial_elimination_equals_dense_oracle():
    """Integer-row elimination against the dense Fraction oracle, result for
    result, on matrices chosen to break a fraction-free update."""
    rng = random.Random(19)
    inconsistent = 0
    for m in _adversarial_cases(rng):
        x = tuple(Fraction(rng.randint(-M61, M61), rng.choice((1, 97, M61))) for _ in range(m.cols))
        rhs = [m.apply(x)]
        off = _inconsistent_rhs(rng, m) if m.rows and m.cols else None
        if off is not None:
            assert dense_solve(m, off) is None
            rhs.append(off)
            inconsistent += 1
        _assert_equals_dense_oracle(m, rhs)
    assert inconsistent >= 10


def _record_cases(rng):
    yield from _oracle_cases(rng)
    yield from _adversarial_cases(rng)


def test_elimination_holds_each_pivot_row_once():
    """The record of an elimination is its image, transforms and kernel, and
    each pivot row is held once, split in two: its image part keyed below
    m.rows, its transform keyed in [m.rows, m.rows + m.cols), and the
    transform, shifted down by m.rows and applied to the integer columns,
    is the image row exactly (E·(s·Mᵀ) = R).  Each kernel row maps to zero."""
    rng = random.Random(34)
    for m in _record_cases(rng):
        e = Elimination(m)
        _, columns = m.integer_columns
        assert {k for k in vars(e) if not k.startswith("_")} == {"image", "transforms", "kernel"}
        assert all(type(v) is int for k, v in vars(e).items() if k.startswith("_"))
        assert len(e.image.rows) == len(e.image.pivots) == len(e.transforms) == dense_rank(m)
        assert len(e.kernel) == m.cols - dense_rank(m)
        for p, row, transform in zip(e.image.pivots, e.image.rows, e.transforms):
            assert row and transform and min(row) == p
            assert all(0 <= i < m.rows for i in row), row
            assert all(m.rows <= j < m.rows + m.cols for j in transform), transform
            assert int_apply(columns, {j - m.rows: x for j, x in transform.items()}) == row
        for z in e.kernel:
            assert all(0 <= j < m.cols for j in z) and not int_apply(columns, z)


def test_solve_leaves_the_record_as_it_found_it():
    """Solving a consistent and an inconsistent right-hand side, twice each,
    writes nothing to the record and gives the same answer each time."""
    rng = random.Random(35)
    checked = 0
    for m in _record_cases(rng):
        off = _inconsistent_rhs(rng, m) if m.rows and m.cols else None
        if off is None or not rank(m):
            continue
        e = Elimination(m)

        def record():
            return e.image.pivots, e.image.rows, e.transforms, e.kernel

        snapshot = copy.deepcopy(record())
        x = tuple(Fraction(rng.randint(-M61, M61), rng.choice((1, 97, M61))) for _ in range(m.cols))
        answers = {}
        for b in (m.apply(x), off) * 2:
            answers.setdefault(b, []).append(e.solve(b))
            assert record() == snapshot
        consistent, inconsistent = answers.values()
        assert consistent[0] == consistent[1] and consistent[0][0] is not None
        assert inconsistent[0] == inconsistent[1] and inconsistent[0][0] is None
        checked += 1
    assert checked >= 20


def _column_order_cases(rng):
    """``_record_cases``, then the coboundaries of seeded complexes at d = 2, 3."""
    yield from _record_cases(rng)
    for seed in range(3):
        for dim in (2, 3):
            data = ComplexData(*random_valid_pair(random.Random(seed), dim))
            yield from (data.d(kind, n) for kind in ComplexKind for n in range(3))


def _eliminated_in_order(m, perm):
    """The elimination of M·P, column k of M·P being column perm[k] of M,
    with its kernel rows and transforms mapped back through P (y ↦ P·y): a
    record of M whose columns entered in the order perm."""
    e = Elimination(RationalMatrix.from_cols([m.col(j) for j in perm], m.rows))
    e.kernel = [{perm[k]: x for k, x in z.items()} for z in e.kernel]
    e.transforms = [{m.rows + perm[k - m.rows]: x for k, x in t.items()} for t in e.transforms]
    return e


def test_canonical_readers_do_not_depend_on_the_column_order():
    """Columns entered in a seeded shuffled order, the record mapped back:
    the readers give the kernel basis, solutions and residues of M itself.
    Those are fixed by M, against the free columns of the dense oracle: each
    kernel vector is 1 at its own free column and 0 at every other, and each
    solution is zero at every free column."""
    rng = random.Random(36)
    checked = inconsistent = 0
    for m in _column_order_cases(rng):
        perm = list(range(m.cols))
        rng.shuffle(perm)
        shuffled, e = _eliminated_in_order(m, perm), Elimination(m)
        free = [j for j in range(m.cols) if j not in dense_echelon(m.entries)[1]]
        basis = kernel_basis(m)
        assert shuffled.kernel_vectors() == basis
        assert [[v[f] for f in free] for v in basis] == [list(unit_vector(k, len(free)))
                                                          for k in range(len(free))]
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m.cols))
        b = m.apply(x)
        solution = solve_linear(m, b)
        assert shuffled.solve(b) == e.solve(b) == (solution, None)
        assert m.apply(solution) == b and not any(solution[f] for f in free)
        off = _inconsistent_rhs(rng, m) if m.rows and m.cols else None
        if off is not None:
            assert shuffled.solve(off) == e.solve(off) and e.solve(off)[0] is None
            inconsistent += 1
        checked += perm != sorted(perm) and bool(free)
    assert checked >= 150 and inconsistent >= 150


def test_the_kernel_echelon_is_built_once(monkeypatch):
    """Two kernel_vectors() calls and several solves on one Elimination build
    the reduced kernel echelon once; a failed solve builds none."""
    built = []
    real = IntegerEchelon.reduced
    monkeypatch.setattr(IntegerEchelon, "reduced", lambda self: built.append(self) or real(self))
    m = RationalMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, Fraction(1, 2)]])
    e = Elimination(m)
    assert e.solve((1, 0, 0))[0] is None and not built
    assert e.kernel_vectors() == e.kernel_vectors() == dense_kernel_basis(m)
    for x in ((1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 2, Fraction(1, 3))):
        assert e.solve(m.apply(x)) == (dense_solve(m, m.apply(x)), None)
    assert e.solve((1, 0, 0))[0] is None
    assert len(built) == 1


def _kernel_cases(rng):
    """(matrix, vectors) pairs for the integer dot kernel: int-only vectors,
    large coprime denominators, zero vectors and zero rows, empty shapes, and
    vectors in and out of the row span."""
    big = (1, 97, 101, M61)

    def coprime(n):
        return tuple(
            Fraction(rng.randint(-M61, M61), rng.choice(big)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(n)
        )

    yield RationalMatrix.from_rows([], 5), [(1, 2, 3, 4, 5), (0,) * 5]
    yield RationalMatrix.from_rows(((),) * 4), [()]
    yield RationalMatrix.from_rows([]), [()]
    yield RationalMatrix.zeros(3, 4), [(1, -2, 0, 7), coprime(4)]
    for _ in range(6):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = RationalMatrix.from_rows([coprime(cols) for _ in range(rows)])
        zero_row = (Fraction(0),) * cols
        with_zero_rows = RationalMatrix.from_rows([zero_row, *m.entries, zero_row])
        ints = tuple(rng.randint(-10**20, 10**20) for _ in range(cols))
        thirds = tuple(Fraction(1, 3) * rng.randint(-2, 2) for _ in range(cols))
        vectors = [ints, (0,) * cols, zero_row, coprime(cols), thirds,
                   tuple(Fraction(1, b) for b, _ in zip(big * cols, range(cols)))]
        yield m, vectors
        yield with_zero_rows, vectors


def _in_span(rng, m):
    """A combination of the rows of m with large coprime coefficients."""
    coeffs = [Fraction(rng.randint(-M61, M61), rng.choice((1, 97, 101, M61))) for _ in m.entries]
    return tuple(sum((c * row[j] for c, row in zip(coeffs, m.entries)), Fraction(0))
                 for j in range(m.cols))


def test_integer_dot_kernel_equals_dense_oracle():
    """apply and reduce on integer rows return, entry for entry, what the
    dense Fraction oracles return, and only Fractions (Fraction(3) == 3, so
    equality alone would not see an int leak)."""
    rng = random.Random(20)
    reduced_off_span = 0
    for m, vectors in _kernel_cases(rng):
        space = echelon_basis(m.entries, m.cols)
        want_vectors, want_pivots = dense_echelon(m.entries)
        span = [_in_span(rng, m)] if m.rows else []
        for v in [*vectors, *span]:
            got = m.apply(v)
            assert got == tuple(mat_vec(m, v))
            assert all(type(x) is Fraction for x in got), got
            residue = space.reduce(v)
            assert residue == dense_reduce(want_vectors, want_pivots, v)
            assert all(type(x) is Fraction for x in residue), residue
            reduced_off_span += not is_zero_vector(residue)
        for v in span:
            assert is_zero_vector(space.reduce(v)) and space.contains(v)
    assert reduced_off_span > 0


def test_integer_dot_kernel_on_fraction_basis():
    """A basis whose pivot rows need scaling (q/g ≠ 1 at every step) and a
    matrix whose row denominators differ: the scaled residue and each row's
    own denominator both show in the results."""
    space = echelon_basis([(3, 1, 0, 2), (0, 5, 1, 0), (0, 0, 7, 1)], 4)
    assert space.pivots == (0, 1, 2)
    v = (Fraction(1, 97), Fraction(2, 101), Fraction(-3, M61), Fraction(5))
    want = dense_reduce(space.vectors, space.pivots, v)
    assert space.reduce(v) == want and want[3] != 0
    m = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 0], [0, 7]])
    assert m.apply((1, 1)) == (Fraction(5, 6), Fraction(1, 5), Fraction(7))
    assert m.apply((Fraction(1, 7), 0)) == (Fraction(1, 14), Fraction(1, 35), Fraction(0))


_small_fractions = st.fractions(max_denominator=12, min_value=-20, max_value=20)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_small_fractions, min_size=n, max_size=n), min_size=0, max_size=5),
            st.lists(_small_fractions, min_size=n, max_size=n),
            st.lists(_small_fractions, min_size=n, max_size=n),
            st.lists(_small_fractions, min_size=0, max_size=5),
        )
    ),
    _small_fractions,
)
def test_integer_dot_kernel_is_linear(data, alpha):
    """A(αu + v) = αAu + Av, and reduce(v + b) = reduce(v) for b in the span."""
    rows, u, v, coeffs = data
    n = len(u)
    m = RationalMatrix.from_rows(rows, n)
    combined = tuple(alpha * a + b for a, b in zip(u, v))
    assert m.apply(combined) == tuple(alpha * a + b for a, b in zip(m.apply(u), m.apply(v)))
    space = echelon_basis(rows, n)
    b = tuple(sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(n))
    shifted = tuple(x + y for x, y in zip(v, b))
    assert space.reduce(shifted) == space.reduce(v)


def _coprime_rows(rng, rows, cols, density=0.7):
    """Rows whose entries have large coprime denominators, with ``int``
    entries and zero rows mixed in."""
    out = []
    for i in range(rows):
        if i % 3 == 2:
            out.append([0] * cols)
            continue
        out.append([
            Fraction(rng.randint(-M61, M61), rng.choice((1, 97, 101, M61)))
            if rng.random() < density else rng.choice((0, rng.randint(-9, 9)))
            for _ in range(cols)
        ])
    return out


def _product_cases(rng):
    """Factor pairs (a, b) for matmul: every n×k·k×m shape with a zero among
    n, k, m (n×0·0×m, 0×k·k×m, n×k·k×0 and their overlaps), zero factors,
    zero rows, ``int`` entries and coprime denominators across rows."""
    for n, k, m in product((0, 3), (0, 4), (0, 2)):
        if not n * k * m:
            yield (
                RationalMatrix.from_rows(_coprime_rows(rng, n, k), k),
                RationalMatrix.from_rows(_coprime_rows(rng, k, m), m),
            )
    yield RationalMatrix.zeros(3, 4), RationalMatrix.from_rows(_coprime_rows(rng, 4, 2))
    yield RationalMatrix.from_rows(_coprime_rows(rng, 2, 4)), RationalMatrix.zeros(4, 3)
    yield RationalMatrix.from_rows([[1, 2], [3, 4]]), RationalMatrix.from_rows([[5, 0], [-7, 1]])
    # each right-hand row over its own prime: only their lcm clears them all
    primes = RationalMatrix.from_rows(
        [[Fraction(k + 1, p), Fraction(1, p)] for k, p in enumerate((2, 3, 5, 7))]
    )
    yield RationalMatrix.from_rows([[1, 1, 1, 1], [Fraction(1, 11), 0, 3, 0]]), primes
    for _ in range(25):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        yield (
            RationalMatrix.from_rows(_coprime_rows(rng, n, k, rng.choice((0.3, 0.7, 1.0)))),
            RationalMatrix.from_rows(_coprime_rows(rng, k, m, rng.choice((0.3, 0.7, 1.0)))),
        )


def test_matmul_on_integer_columns_equals_fraction_oracle():
    rng = random.Random(26)
    for a, b in _product_cases(rng):
        got = a.matmul(b)
        assert got == matmul_by_fractions(a, b)
        assert got.entries == tuple(tuple(row) for row in mat_mat(a, b))
        _assert_canonical(got)


def _read(rng, rows, cols):
    """A rational matrix as nested lists, and its integer form."""
    values = _coprime_rows(rng, rows, cols)
    return values, integer_form([RationalMatrix.from_rows(values, cols)])


def test_integer_readers_equal_fraction_oracle():
    rng = random.Random(27)
    for v in ([], [0, 0], [3, -4], [Fraction(1, 97), 2, Fraction(-5, 101)],
              *(row for row in _coprime_rows(rng, 9, 5))):
        den, w = integer_form(v)
        assert den == lcm(*(Fraction(x).denominator for x in v))
        assert [Fraction(x, den) for x in w] == v and all(type(x) is int for x in w)
    table = [[_coprime_rows(rng, 1, 3)[0] for _ in range(2)] for _ in range(3)]
    for shape in ((0, 4), (3, 0), (4, 3)):
        values = _coprime_rows(rng, *shape)
        matrix = RationalMatrix.from_rows(values, shape[1])
        den, (m, t, z) = integer_form([matrix, table, RationalMatrix.zeros(2, 2)])
        entries = [x for row in values for x in row] + [x for r in table for v in r for x in v]
        assert den == lcm(*(Fraction(x).denominator for x in entries))
        assert [[Fraction(x, den) for x in row] for row in m] == values
        assert [[[Fraction(x, den) for x in v] for v in r] for r in t] == table
        assert z == [[0, 0], [0, 0]]


def test_fractions_over_equals_fraction_oracle():
    for nums, den in (([], 5), ([0, 0], 1), ([3, 0, -6], 9), ([M61, -1], M61 * 97)):
        got = fractions_over(nums, den)
        assert got == tuple(Fraction(x, den) for x in nums)
        assert all(type(x) is Fraction for x in got)


def test_integer_operations_equal_fraction_oracle():
    """Each int_* operation, read back over its denominator, equals the
    same operation done in Fraction arithmetic."""
    rng = random.Random(28)
    for n, k, m in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (4, 3, 5), (5, 5, 5)):
        a_values, (d_a, (a,)) = _read(rng, n, k)
        b_values, (d_b, (b,)) = _read(rng, k, m)
        got = [fractions_over(row, d_a * d_b) for row in int_matmul(a, b, m)]
        want = mat_mat(RationalMatrix.from_rows(a_values, k), RationalMatrix.from_rows(b_values, m))
        # b with no rows (k = 0) included: the given width makes rows of zeros
        assert got == [tuple(row) for row in want]
        v_values = _coprime_rows(rng, 1, k)[0]
        d_v, v = integer_form(v_values)
        got = fractions_over(int_matvec(a, v), d_a * d_v)
        assert got == tuple(mat_vec(RationalMatrix.from_rows(a_values, k), v_values))
        assert int_transpose(a, k) == [[row[j] for row in a] for j in range(k)]
        assert [[Fraction(x, d_a) for x in col] for col in int_transpose(a, k)] == [
            list(col) for col in RationalMatrix.from_rows(a_values, k).transpose().entries
        ]
        # weighted sums of vectors and of matrices, zero and unit weights included
        weights = [rng.choice((0, 1, -1, rng.randint(-M61, M61))) for _ in range(3)]
        vectors = [_coprime_rows(rng, 1, m)[0] for _ in range(3)]
        den, (((*ints,),),) = integer_form([[vectors]])  # a table of one row
        got = fractions_over(int_sum(weights, ints, m), den)
        assert got == tuple(sum((w * v[j] for w, v in zip(weights, vectors)), Fraction(0))
                            for j in range(m))
        mats = [_coprime_rows(rng, n, m) for _ in range(3)]
        den, ints = integer_form([RationalMatrix.from_rows(x, m) for x in mats])
        got = [fractions_over(row, den) for row in int_matrix_sum(weights, ints, n, m)]
        assert got == [
            tuple(sum((w * x[i][j] for w, x in zip(weights, mats)), Fraction(0)) for j in range(m))
            for i in range(n)
        ]
        # the pullback Σ c·μ(A·, B·) through n × k matrices, like the crossed
        # module's d: zero rows and zero widths among the shapes, a first term
        # of weight 0 (it still gives the shape), tables over one D_μ and
        # matrices over one D_A, both with coprime denominators
        tables = [[_coprime_rows(rng, n, m) for _ in range(n)] for _ in range(2)]
        d_mu, (mu1, mu2) = integer_form(tables)
        mats = [_coprime_rows(rng, n, k) for _ in range(2)]
        d_op, (a1, a2) = integer_form([RationalMatrix.from_rows(x, k) for x in mats])
        cols1, cols2 = int_columns(a1, k), int_columns(a2, k)
        assert cols1 == [[(x, v) for x, v in enumerate(col) if v] for col in int_transpose(a1, k)]
        weights = [0, rng.randint(-M61, M61), rng.choice((1, -1))]
        terms = [(mu2, cols2, cols1), (mu1, cols1, cols2), (mu2, cols2, cols2)]
        got = [
            [fractions_over(v, d_mu * d_op * d_op) for v in row]
            for row in int_pullback([(w, *term) for w, term in zip(weights, terms)], m)
        ]
        values = [(tables[1], mats[1], mats[0]), (tables[0], *mats), (tables[1], mats[1], mats[1])]
        want = pullback_by_fractions(
            [(w, *term) for w, term in zip(weights, values)], k, k, m
        )
        assert got == [[tuple(v) for v in row] for row in want]
        # through identity columns the pullback is the table itself
        units = int_columns(None, n)
        assert int_pullback([(1, mu1, units, units)], m) == mu1
    assert int_sum([0, 0], [[1, 2], [3, 4]], 2) == [0, 0]
    assert int_sum([], [], 3) == [0, 0, 0]


def test_integer_products_and_sums_keep_their_shape_with_no_rows():
    # a factor with no rows, and a sum of no matrices, still have the given
    # width: nested lists alone could not show it
    assert int_matmul([[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]
    assert int_matmul([], [[1, 2]], 2) == []
    assert int_matrix_sum([], [], 2, 3) == [[0, 0, 0], [0, 0, 0]]
    assert int_matrix_sum([0, 0], [[[1]], [[2]]], 1, 1) == [[0]]


def _elimination_cases(rng):
    """The seeded grid of ``_oracle_cases`` (0×n, n×0, zero, dependent rows,
    identity, random and assembled matrices), plus rank-1 outer products and
    invertible matrices."""
    yield from _oracle_cases(rng)
    for _ in range(20):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        u, v = _random_vector(rng, rows, 0.8), _random_vector(rng, cols, 0.8)
        yield RationalMatrix.from_rows([[a * b for b in v] for a in u], cols)  # rank ≤ 1
        yield random_invertible(rng, rows)


def _as_fractions(w: dict, size: int) -> tuple:
    return tuple(Fraction(w.get(j, 0)) for j in range(size))


def _proportional(got: tuple, want: tuple) -> bool:
    """got = c·want for some c > 0 (both zero included)."""
    lead = next((j for j, x in enumerate(want) if x), None)
    if lead is None:
        return not any(got)
    c = got[lead] / want[lead]
    return c > 0 and all(x == c * y for x, y in zip(got, want))


def test_elimination_equals_rank_kernel_and_column_space():
    """One forward-only reduction of [Mᵀ | I] gives what dense rational
    elimination gives: rank(M), a basis of ker M, and the pivots of the
    reduced echelon basis of im M with its residues up to a positive scalar.
    The package's readers take all three from this one object, so the
    comparison is with the dense oracles."""
    rng = random.Random(31)
    shapes, residues = set(), 0
    for m in _elimination_cases(rng):
        e = Elimination(m)
        r = dense_rank(m)
        assert len(e.image.pivots) == len(e.image.rows) == r
        shapes.add((m.rows == 0, m.cols == 0, r == 0, r == 1, r == min(m.rows, m.cols)))
        # the kernel: M·z = 0 on every row, cols − rank of them, spanning ker M
        kernel = [_as_fractions(z, m.cols) for z in e.kernel]
        assert len(kernel) == m.cols - r
        assert all(is_zero_vector(m.apply(z)) for z in kernel)
        assert dense_echelon(kernel) == dense_echelon(dense_kernel_basis(m))
        assert not any(int_apply(m.integer_columns[1], z) for z in e.kernel)
        # the image: the reduced basis's pivots, an echelon basis, the same residues
        space, pivots = dense_echelon(m.transpose().entries)
        assert tuple(e.image.pivots) == pivots
        for p, row in zip(e.image.pivots, e.image.rows):
            assert min(row) == p
        for _ in range(3):
            v = _random_vector(rng, m.rows, rng.choice((0.3, 1.0)))
            _, ints = integer_form(v)
            got = e.image.reduce({j: x for j, x in enumerate(ints) if x})
            assert _proportional(_as_fractions(got, m.rows), dense_reduce(space, pivots, v))
            residues += bool(got)
        if m.cols:
            x = _random_vector(rng, m.cols, 1.0)
            _, ints = integer_form(m.apply(x))
            assert not e.image.reduce({j: x for j, x in enumerate(ints) if x})
        # an IntegerEchelon of the rows of M (the columns of Mᵀ) has rank(M) pivots
        rows = IntegerEchelon()
        for pairs in m.transpose().integer_columns[1]:
            rows.add(dict(pairs))
        assert len(rows.pivots) == r
    assert residues
    # 0×n, n×0, zero, rank-1 and full-rank matrices are all on the grid
    for flag in range(5):
        assert any(shape[flag] for shape in shapes)


def test_int_apply_over_the_matrix_scale_equals_mat_vec():
    """With M = columns/s and v = n/D, int_apply(columns, n) over s·D is M·v
    of the dense Fraction oracle, entry for entry."""
    rng = random.Random(32)
    for m in _elimination_cases(rng):
        v = _random_vector(rng, m.cols, rng.choice((0.3, 1.0)))
        den, ints = integer_form(v)
        scale, columns = m.integer_columns
        got = int_apply(columns, {j: x for j, x in enumerate(ints) if x})
        assert all(x for x in got.values())
        assert [Fraction(got.get(i, 0), scale * den) for i in range(m.rows)] == mat_vec(m, v)
