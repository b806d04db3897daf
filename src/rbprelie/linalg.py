"""Sparse exact linear algebra over the rationals.

Everything in this package reduces to ranks, kernels and linear solves of
matrices with ``fractions.Fraction`` entries, and the coboundary and
chain-map matrices are mostly zeros.  A matrix keeps its dense ``entries``
as its value (equality, ``repr`` and serialization read them) and derives
its sparse rows, the (column, value) pairs of its nonzeros, once, on first
use.  Every product and every elimination step reads those rows, so no
``Fraction`` zero is ever multiplied.

Elimination is rational Gauss-Jordan elimination on rows held as dicts
(column → nonzero value), with the fixed pivot scan order of the textbook
dense algorithm: columns in increasing order, and in each the topmost
remaining row with a nonzero there.  The storage therefore does not show in
any result: kernel bases, particular solutions and echelon bases are
deterministic and the same as dense elimination gives.  Matrices are
immutable; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]
SparseRow = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(i: int, n: int) -> Vector:
    """The i-th standard basis vector of length n."""
    return tuple(_ONE if k == i else _ZERO for k in range(n))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _sparse(v: Sequence) -> SparseRow:
    return tuple((j, x) for j, x in enumerate(v) if x)


def _dense(row: Iterable[tuple[int, Fraction]], n: int) -> Vector:
    out = [_ZERO] * n
    for j, x in row:
        out[j] = x
    return tuple(out)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix of rationals, row-major, with cached sparse rows."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @cached_property
    def sparse_rows(self) -> tuple[SparseRow, ...]:
        """The nonzeros of each row as (column, value) pairs, by increasing column."""
        return tuple(_sparse(row) for row in self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        return RationalMatrix(len(data), ncols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int | None = None) -> "RationalMatrix":
        cols = [tuple(Fraction(x) for x in c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for a matrix with no columns")
            nrows = len(cols[0])
        data = tuple(tuple(c[r] for c in cols) for r in range(nrows))
        return RationalMatrix(nrows, len(cols), data)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(n, n, tuple(unit_vector(i, n) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, tuple((_ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def block(grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        """The matrix of a grid of blocks, given band by band (a band is one
        row of blocks).  The blocks of a band share their row count and the
        blocks of a block column their column count; either may be zero.
        """
        widths = [b.cols for b in grid[0]] if grid else []
        entries: list[Vector] = []
        for band in grid:
            if [b.cols for b in band] != widths:
                raise ValueError("blocks of one block column differ in column count")
            height = band[0].rows if band else 0
            if any(b.rows != height for b in band):
                raise ValueError("blocks of one band differ in row count")
            entries.extend(
                tuple(chain.from_iterable(b.entries[i] for b in band)) for i in range(height)
            )
        return RationalMatrix(len(entries), sum(widths), tuple(entries))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times coordinate column; only products of two nonzeros are formed."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times {len(v)}")
        out = []
        for row in self.sparse_rows:
            acc = _ZERO
            for j, x in row:
                y = v[j]
                if y:
                    acc += x * y
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        right = other.sparse_rows
        product = []
        for row in self.sparse_rows:
            acc: dict[int, Fraction] = {}
            for k, a in row:
                for j, b in right[k]:
                    acc[j] = acc.get(j, _ZERO) + a * b
            product.append(_dense(acc.items(), other.cols))
        return RationalMatrix(self.rows, other.cols, tuple(product))

    def transpose(self) -> "RationalMatrix":
        columns: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                columns[j].append((i, x))
        return RationalMatrix(self.cols, self.rows, tuple(_dense(c, self.rows) for c in columns))

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add")
        total = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(r1)
            for j, b in r2:
                acc[j] = acc.get(j, _ZERO) + b
            total.append(_dense(acc.items(), self.cols))
        return RationalMatrix(self.rows, self.cols, tuple(total))

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(_dense(((j, c * x) for j, x in row), self.cols) for row in self.sparse_rows),
        )

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)


def _reduced_echelon(rows: list[dict[int, Fraction]], ncols: int) -> list[int]:
    """Reduce dict rows (column → nonzero value) in place to reduced row
    echelon form; returns the pivot columns.

    The pivot of column c is the topmost row at or below the current one with
    a nonzero in column c, as in dense elimination; a row update loops only
    over the pivot row's nonzeros and drops the entries it cancels.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][c]
        pivot = {j: inv * x for j, x in rows[r].items()}
        rows[r] = pivot
        pivot_items = list(pivot.items())
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            f = row[c]
            for j, y in pivot_items:
                x = row.get(j, _ZERO) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _dict_rows(m: RationalMatrix) -> list[dict[int, Fraction]]:
    return [dict(row) for row in m.sparse_rows]


def rank(m: RationalMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_reduced_echelon(_dict_rows(m), m.cols))


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """Basis of the right null space, one vector per free column.

    Deterministic: free columns are scanned in increasing order and each
    basis vector has entry 1 at its free column.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [unit_vector(j, m.cols) for j in range(m.cols)]
    rows = _dict_rows(m)
    pivots = _reduced_echelon(rows, m.cols)
    pivot_set = set(pivots)
    basis: dict[int, list[Fraction]] = {}
    for free in range(m.cols):
        if free not in pivot_set:
            basis[free] = [_ZERO] * m.cols
            basis[free][free] = _ONE
    # a reduced pivot row is zero at every other pivot column, so each of
    # its other nonzeros sits at a free column
    for r, c in enumerate(pivots):
        for j, x in rows[r].items():
            if j != c:
                basis[j][c] = -x
    return [tuple(v) for v in basis.values()]


def solve_linear(a: RationalMatrix, b: Sequence) -> Vector | None:
    """Some x with a·x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is the deterministic
    "first solution of the elimination".
    """
    if len(b) != a.rows:
        raise ValueError(f"dimension mismatch: got rhs of length {len(b)} for {a.rows} rows")
    if a.rows == 0:
        return zero_vector(a.cols)
    rows = _dict_rows(a)
    for row, bi in zip(rows, b):
        bi = Fraction(bi)
        if bi:
            row[a.cols] = bi
    pivots = _reduced_echelon(rows, a.cols + 1)
    if a.cols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r].get(a.cols, _ZERO)
    return tuple(x)


@dataclass(frozen=True)
class EchelonBasis:
    """Reduced echelon basis of a subspace, for membership and residue tests."""

    dim_ambient: int
    vectors: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def sparse_vectors(self) -> tuple[SparseRow, ...]:
        """The nonzeros of each basis vector as (coordinate, value) pairs."""
        return tuple(_sparse(v) for v in self.vectors)

    def reduce(self, v: Sequence) -> Vector:
        """Residue of v modulo the subspace, supported on non-pivot coordinates."""
        w = [Fraction(x) for x in v]
        if len(w) != self.dim_ambient:
            raise ValueError("dimension mismatch in reduce")
        for basis_vec, p in zip(self.sparse_vectors, self.pivots):
            f = w[p]
            if f:
                for j, x in basis_vec:
                    w[j] -= f * x
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))


def _echelon(rows: list[dict[int, Fraction]], dim_ambient: int) -> EchelonBasis:
    if not rows:
        return EchelonBasis(dim_ambient, (), ())
    pivots = _reduced_echelon(rows, dim_ambient)
    kept = tuple(_dense(rows[i].items(), dim_ambient) for i in range(len(pivots)))
    return EchelonBasis(dim_ambient, kept, tuple(pivots))


def echelon_basis(vectors: Iterable[Sequence], dim_ambient: int) -> EchelonBasis:
    """Reduced echelon span of the given vectors (deterministic)."""
    rows = []
    for v in vectors:
        if len(v) != dim_ambient:
            raise ValueError("dimension mismatch in echelon_basis")
        rows.append({j: Fraction(x) for j, x in enumerate(v) if x})
    return _echelon(rows, dim_ambient)


def column_space(m: RationalMatrix) -> EchelonBasis:
    return _echelon(_dict_rows(m.transpose()), m.rows)


def same_subspace(a: EchelonBasis, b: EchelonBasis) -> bool:
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimension mismatch")
    if a.dim != b.dim:
        return False
    return all(a.contains(v) for v in b.vectors) and all(b.contains(v) for v in a.vectors)
