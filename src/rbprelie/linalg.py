"""Dense exact linear algebra over the rationals.

Everything in this package reduces to ranks, kernels and linear solves of
dense matrices with ``fractions.Fraction`` entries.  Matrices are immutable;
all functions are pure.  Elimination is plain rational Gaussian elimination
with a fixed pivot scan order, so results (kernel bases, particular
solutions, echelon bases) are deterministic.

Sizes here are desk scale (a few hundred rows at most), which is why dense
storage and textbook elimination are the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

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
        return RationalMatrix(
            n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, tuple((_ZERO,) * cols for _ in range(rows)))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times coordinate column."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times {len(v)}")
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), _ZERO) for row in self.entries)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        data = tuple(
            tuple(
                sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), _ZERO)
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return RationalMatrix(self.rows, other.cols, data)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows, tuple(self.col(j) for j in range(self.cols))
        )

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add")
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix(
            self.rows, self.cols, tuple(tuple(c * a for a in row) for row in self.entries)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)


def _reduced_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: RationalMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _reduced_echelon([list(row) for row in m.entries])
    return len(pivots)


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """Basis of the right null space, one vector per free column.

    Deterministic: free columns are scanned in increasing order and each
    basis vector has entry 1 at its free column.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [tuple(_ONE if i == j else _ZERO for i in range(m.cols)) for j in range(m.cols)]
    rows, pivots = _reduced_echelon([list(row) for row in m.entries])
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def solve_linear(a: RationalMatrix, b: Sequence) -> Vector | None:
    """Some x with a·x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is the deterministic
    "first solution of the elimination".
    """
    if len(b) != a.rows:
        raise ValueError(f"dimension mismatch: got rhs of length {len(b)} for {a.rows} rows")
    if a.rows == 0:
        return zero_vector(a.cols)
    aug = [list(row) + [Fraction(b[i])] for i, row in enumerate(a.entries)]
    rows, pivots = _reduced_echelon(aug)
    if a.cols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][a.cols]
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

    def reduce(self, v: Sequence) -> Vector:
        """Residue of v modulo the subspace, supported on non-pivot coordinates."""
        w = [Fraction(x) for x in v]
        if len(w) != self.dim_ambient:
            raise ValueError("dimension mismatch in reduce")
        for basis_vec, p in zip(self.vectors, self.pivots):
            f = w[p]
            if f != 0:
                for i in range(self.dim_ambient):
                    w[i] -= f * basis_vec[i]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))


def echelon_basis(vectors: Iterable[Sequence], dim_ambient: int) -> EchelonBasis:
    """Reduced echelon span of the given vectors (deterministic)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    for v in rows:
        if len(v) != dim_ambient:
            raise ValueError("dimension mismatch in echelon_basis")
    if not rows:
        return EchelonBasis(dim_ambient, (), ())
    reduced, pivots = _reduced_echelon(rows)
    kept = tuple(tuple(reduced[i]) for i in range(len(pivots)))
    return EchelonBasis(dim_ambient, kept, tuple(pivots))


def column_space(m: RationalMatrix) -> EchelonBasis:
    return echelon_basis([m.col(j) for j in range(m.cols)], m.rows)


def same_subspace(a: EchelonBasis, b: EchelonBasis) -> bool:
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimension mismatch")
    if a.dim != b.dim:
        return False
    return all(a.contains(v) for v in b.vectors) and all(b.contains(v) for v in a.vectors)
