"""Every bilinear table is read through its left and right multiplication
matrices (L, R): ``L[i]·y = e_i·y``, ``R[k]·x = x·e_k``, except in the law
kernels and the gauge transform, which read their tables and matrices as
integer tensors over one common denominator per family.

Each routine rewritten onto either reading is compared with its former
route, transcribed over the dense kernel ``apply_table`` in
``tests/oracles.py``, on seeded *arbitrary* tables, operators and actions.
They satisfy no law, so most compared defects are nonzero (asserted per
test): the equality is not a comparison of zeros.  The integer routines are
also compared on coprime denominators that differ per order and family,
weights with a denominator, all-zero top-order coefficients and list-typed
tables of ``int`` entries, and return only ``Fraction`` entries.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from rbprelie.algebras import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    bilinear,
    bimodule_defects,
    derived_bimodule,
    multiplication_matrices,
    pre_lie_defects,
    rb_bimodule_defects,
    rota_baxter_defects,
    star_algebra,
    zero_table,
)
from rbprelie.cochains import Cochain
from rbprelie.deformations import GaugeSeries, TruncatedDeformation, gauge_transform
from rbprelie.generators import random_gauge, random_matrix, random_vector
from rbprelie.linalg import RationalMatrix, is_zero_vector
from rbprelie.twoalg import TwoAlgebra

from oracles import (
    apply_table,
    bimodule_defects_by_table,
    derived_bimodule_by_table,
    gauge_transform_by_table,
    mul00,
    mul01,
    mul10,
    pre_lie_defects_by_table,
    rb_bimodule_defects_by_table,
    rota_baxter_defects_by_table,
    star_algebra_by_table,
    t2_apply,
)

DIMS = (1, 2, 3, 4)
ORDERS = (0, 1, 2, 3)
WEIGHTS = tuple(Fraction(x) for x in (0, 1, -1, 2, Fraction(-7, 3), Fraction(1, 2)))


def _table(rng, dim_left, dim_right, dim_out):
    return tuple(
        tuple(random_vector(rng, dim_out) for _ in range(dim_right)) for _ in range(dim_left)
    )


def _arbitrary(rng, d, md, lam):
    """An algebra and a module with random tables, actions and operators."""
    r = RBPreLieAlgebra(PreLieAlgebra(d, _table(rng, d, d, d)), lam, random_matrix(rng, d, d))
    actions = [tuple(random_matrix(rng, md, md) for _ in range(d)) for _ in range(2)]
    return r, RBBimodule(Bimodule(d, md, *actions), random_matrix(rng, md, md))


class Tally:
    """Counts compared defect vectors and the nonzero ones among them."""

    def __init__(self):
        self.total = self.nonzero = 0

    def add(self, vectors):
        for v in vectors:
            self.total += 1
            self.nonzero += not is_zero_vector(v)

    def assert_mostly_nonzero(self):
        assert self.total and self.nonzero > self.total / 2, (self.nonzero, self.total)


@pytest.mark.parametrize("shape", list(product(range(4), repeat=3)), ids=str)
def test_multiplication_matrices_hold_the_table(shape):
    dim_left, dim_right, dim_out = shape
    rng = random.Random(str(shape))
    table = _table(rng, dim_left, dim_right, dim_out)
    left, right = multiplication_matrices(table, dim_right, dim_out)
    assert [(m.rows, m.cols) for m in left] == [(dim_out, dim_right)] * dim_left
    assert [(m.rows, m.cols) for m in right] == [(dim_out, dim_left)] * dim_right
    for i, j in product(range(dim_left), range(dim_right)):
        assert left[i].col(j) == table[i][j] == right[j].col(i)
    for _ in range(5):
        x, y = random_vector(rng, dim_left), random_vector(rng, dim_right)
        expected = apply_table(table, x, y, dim_out)
        assert bilinear(left, x, y, dim_out) == expected
        assert bilinear(right, y, x, dim_out) == expected


@pytest.mark.parametrize("dims", [(1, 0), (1, 1), (2, 1), (1, 3), (3, 2)], ids=str)
def test_two_term_products_are_their_tables(dims):
    d0, d1 = dims
    rng = random.Random(str(dims))
    t = TwoAlgebra(
        d0, d1, random_matrix(rng, d0, d1), _table(rng, d0, d0, d0), _table(rng, d0, d1, d1),
        _table(rng, d1, d0, d1), Cochain.zero(3, d0, d1), random_matrix(rng, d0, d0),
        random_matrix(rng, d1, d1), _table(rng, d0, d0, d1),
    )
    for _ in range(5):
        x, y = random_vector(rng, d0), random_vector(rng, d0)
        alpha = random_vector(rng, d1)
        assert mul00(t, x, y) == apply_table(t.l2_00, x, y, d0)
        assert mul01(t, x, alpha) == apply_table(t.l2_01, x, alpha, d1)
        assert mul10(t, alpha, x) == apply_table(t.l2_10, alpha, x, d1)
        assert t2_apply(t, x, y) == apply_table(t.t2, x, y, d1)


def test_pre_lie_kernel_equals_its_transcription():
    tally = Tally()
    for d, n in product(DIMS, ORDERS):
        rng = random.Random(f"pre-lie {d} {n}")
        mus = [_table(rng, d, d, d) for _ in range(n + 1)]
        got = pre_lie_defects(mus, n)
        assert got == pre_lie_defects_by_table(mus, n), (d, n)
        tally.add(got.values())
    tally.assert_mostly_nonzero()


def test_rota_baxter_kernel_equals_its_transcription():
    tally = Tally()
    for d, n, lam in product(DIMS, ORDERS, WEIGHTS):
        rng = random.Random(f"rota-baxter {d} {n} {lam}")
        mus = [_table(rng, d, d, d) for _ in range(n + 1)]
        ts = [random_matrix(rng, d, d) for _ in range(n + 1)]
        got = rota_baxter_defects(mus, ts, lam, n)
        assert got == rota_baxter_defects_by_table(mus, ts, lam, n), (d, n, lam)
        tally.add(got.values())
    tally.assert_mostly_nonzero()


def test_bimodule_laws_equal_their_transcriptions():
    tally = Tally()
    for d, md, lam in product(DIMS, (1, 2, 3), WEIGHTS):
        r, m = _arbitrary(random.Random(f"bimodule {d} {md} {lam}"), d, md, lam)
        got = list(bimodule_defects(r.algebra, m.bimodule))
        assert got == list(bimodule_defects_by_table(r.algebra, m.bimodule)), (d, md, lam)
        tally.add(defect for _, _, defect in got)
        got = list(rb_bimodule_defects(r, m))
        assert got == list(rb_bimodule_defects_by_table(r, m)), (d, md, lam)
        tally.add(defect for _, _, defect in got)
    tally.assert_mostly_nonzero()


def test_derived_structures_equal_their_transcriptions():
    tally = Tally()
    for d, md, lam in product(DIMS, (1, 2, 3), WEIGHTS):
        r, m = _arbitrary(random.Random(f"derived {d} {md} {lam}"), d, md, lam)
        star = star_algebra(r, trusted=True)
        assert star == star_algebra_by_table(r), (d, md, lam)
        derived = derived_bimodule(r, m, trusted=True)
        assert derived == derived_bimodule_by_table(r, m), (d, md, lam)
        tally.add(v for row in star.algebra.c for v in row)
        tally.add(mat.col(u) for mat in derived.bimodule.S + derived.bimodule.P for u in range(md))
    tally.assert_mostly_nonzero()


def test_gauge_transform_equals_its_transcription():
    tally = Tally()
    for d, order, lam in product(DIMS, ORDERS, WEIGHTS):
        rng = random.Random(f"gauge {d} {order} {lam}")
        r, _ = _arbitrary(rng, d, 1, lam)
        products = (r.algebra.c,) + tuple(_table(rng, d, d, d) for _ in range(order))
        operators = (r.operator,) + tuple(random_matrix(rng, d, d) for _ in range(order))
        deformation = TruncatedDeformation(r, products, operators)
        psi = random_gauge(rng, d, order)
        got = gauge_transform(r, deformation, psi)
        assert got == gauge_transform_by_table(r, deformation, psi), (d, order, lam)
        tally.add(v for table in got.products for row in table for v in row)
    tally.assert_mostly_nonzero()


# Coprime denominators, one per order and family: a kernel that reads one
# order or family at the wrong scale returns a different value.
DENOMINATORS = (97, 101, 2**61 - 1)
STRESS_WEIGHTS = (Fraction(-7, 3), Fraction(1, 2))
ZEROS = (None, "mu", "t", "psi")  # the coefficient left all zero at the top order


def _over(rng, den, size):
    return tuple(Fraction(rng.randint(-10**6, 10**6), den) for _ in range(size))


def _table_over(rng, d, den):
    return tuple(tuple(_over(rng, den, d) for _ in range(d)) for _ in range(d))


def _matrix_over(rng, rows, cols, den):
    return RationalMatrix.from_rows([_over(rng, den, cols) for _ in range(rows)])


def _stressed(d, n, lam, zero):
    """μ₀…μₙ, T₀…Tₙ and ψ₀…ψₙ, each order over its own denominator; μ₁ is a
    list-typed table of ``int`` entries, and ``zero`` names the coefficient
    left all zero at order n, as ``solve_next_order`` appends them."""
    rng = random.Random(f"stress {d} {n} {lam} {zero}")
    mus = [_table_over(rng, d, DENOMINATORS[a % 3]) for a in range(n + 1)]
    mus[1] = [[[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    ts = [_matrix_over(rng, d, d, DENOMINATORS[(a + 1) % 3]) for a in range(n + 1)]
    psis = [RationalMatrix.identity(d)]
    psis += [_matrix_over(rng, d, d, DENOMINATORS[(a + 2) % 3]) for a in range(1, n + 1)]
    if zero == "mu":
        mus[n] = zero_table(d, d, d)
    elif zero == "t":
        ts[n] = RationalMatrix.zeros(d, d)
    elif zero == "psi":
        psis[n] = RationalMatrix.zeros(d, d)
    return mus, ts, psis


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


STRESS_CASES = list(product((1, 2, 3), (1, 2, 3), STRESS_WEIGHTS, ZEROS))


def test_law_kernels_hold_under_mixed_denominators():
    tally = Tally()
    for d, n, lam, zero in STRESS_CASES:
        mus, ts, _ = _stressed(d, n, lam, zero)
        got = pre_lie_defects(mus, n)
        assert got == pre_lie_defects_by_table(mus, n), (d, n, zero)
        assert _all_fractions(got.values())
        tally.add(got.values())
        got = rota_baxter_defects(mus, ts, lam, n)
        assert got == rota_baxter_defects_by_table(mus, ts, lam, n), (d, n, lam, zero)
        assert _all_fractions(got.values())
        tally.add(got.values())
    tally.assert_mostly_nonzero()


def test_gauge_transform_holds_under_mixed_denominators():
    tally = Tally()
    for d, n, lam, zero in STRESS_CASES:
        mus, ts, psis = _stressed(d, n, lam, zero)
        r = RBPreLieAlgebra(PreLieAlgebra(d, mus[0]), lam, ts[0])
        deformation = TruncatedDeformation(r, tuple(mus), tuple(ts))
        psi = GaugeSeries(tuple(psis))
        got = gauge_transform(r, deformation, psi)
        assert got == gauge_transform_by_table(r, deformation, psi), (d, n, lam, zero)
        entries = [v for table in got.products for row in table for v in row]
        assert _all_fractions(entries)
        assert _all_fractions(row for op in got.operators for row in op.entries)
        tally.add(entries)
    tally.assert_mostly_nonzero()


def test_module_laws_hold_under_mixed_denominators():
    tally = Tally()
    for d, md, lam in product((1, 2, 3), (1, 2, 3), STRESS_WEIGHTS):
        rng = random.Random(f"stress module {d} {md} {lam}")
        table = _table_over(rng, d, DENOMINATORS[0])
        r = RBPreLieAlgebra(PreLieAlgebra(d, table), lam, _matrix_over(rng, d, d, DENOMINATORS[1]))
        # the two actions share a family but not a denominator
        left = tuple(_matrix_over(rng, md, md, DENOMINATORS[2]) for _ in range(d))
        right = tuple(_matrix_over(rng, md, md, DENOMINATORS[0]) for _ in range(d))
        m = RBBimodule(Bimodule(d, md, left, right), _matrix_over(rng, md, md, DENOMINATORS[1]))
        a, bm = r.algebra, m.bimodule
        for got, want in (
            (bimodule_defects(a, bm), bimodule_defects_by_table(a, bm)),
            (rb_bimodule_defects(r, m), rb_bimodule_defects_by_table(r, m)),
        ):
            got = list(got)
            assert got == list(want), (d, md, lam)
            assert _all_fractions(defect for _, _, defect in got)
            tally.add(defect for _, _, defect in got)
    tally.assert_mostly_nonzero()
