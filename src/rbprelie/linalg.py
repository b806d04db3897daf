"""Sparse exact linear algebra over the rationals.

Everything in this package reduces to ranks, kernels, linear solves and
matrix-vector products of matrices with ``fractions.Fraction`` entries, and
the coboundary and chain-map matrices are mostly zeros.  A matrix's value is
its sparse rows: the (column, nonzero value) pairs of each row by increasing
column, built directly by every constructor and read by equality and hashing.
Derived from them once, on first use, are its dense ``entries`` (for ``repr``,
``col`` and serialization), its integer rows, each row as (d, pairs) with
the row's nonzeros x/d for its (column, integer x) pairs and d the lcm of
their denominators, and its integer columns, the (row, int) nonzeros of each
column of the matrix times the lcm of all its denominators.

The integer form of rationals is a pair (D, n): nested ``int`` lists n
over one denominator D, the values n/D.  Only this module reads rationals
into that form, and it holds the operations on it.  :func:`integer_form`
is the one reader, of a vector, of each sparse row (``integer_rows``) and
of tables and matrices over one shared D; :func:`fractions_over` makes one
``Fraction`` per nonzero entry on the way back; :func:`int_matvec`,
:func:`int_matmul`, the weighted sums :func:`int_sum` (vectors) and
:func:`int_matrix_sum` (matrices), each given its width so that an operand
with no rows keeps its shape, :func:`int_transpose` and the pullback
:func:`int_pullback` are the arithmetic.  The pullback is the table
Σ c·μ(A·, B·) of bilinear tables μ through matrices A, B given by their
columns' nonzeros (:func:`int_columns`), the one place that sum is written.
This is exact rational arithmetic done in another order, and a
``Fraction``'s normal form is unique, so every value made from it equals
the one ``Fraction`` arithmetic gives.

Products and residues run on integers.  ``apply`` scales its vector once by
the lcm D of the vector's denominators, forms each row's dot product as an
``int`` and makes one ``Fraction(dot, d·D)`` per nonzero output entry.
``matmul`` scales the right factor's integer rows to one lcm D, accumulates
each output row as ``int``s and makes one ``Fraction(acc, d·D)`` per nonzero
output entry.  An echelon basis is the matrix whose rows are its basis
vectors; ``reduce`` reads that matrix's integer rows, each B/q with q at
its pivot (the pivot entry is 1), and holds the residue as w/den:
eliminating a basis vector with f = w[p] at its pivot p is
w ← (q/g)·w − (f/g)·B, den ← (q/g)·den with g = gcd(q, f), the update
elimination uses below.

The canonical results (``rank``, ``kernel_basis``, ``solve_linear``,
``echelon_basis``, ``column_space``) come from one Gauss-Jordan kernel on
integer rows held as dicts (column → nonzero int), with the fixed pivot
scan order of the textbook dense algorithm: columns in increasing order,
and in each the topmost remaining row with a nonzero there.  A rational row
enters scaled by the lcm of its denominators; eliminating column c from a
row with entry f there, against the pivot entry p, is
row ← (p/g)·row − (f/g)·pivot with g = gcd(p, f), and each updated row is
divided by the gcd of its entries (content normalisation), which keeps the
coefficients from growing.  Only what a caller returns becomes ``Fraction``
values, each entry of a pivot row divided by its pivot entry; ``rank`` makes
none.  Every row is at every step a nonzero rational multiple of the row
rational elimination would hold, so the nonzero pattern, the swaps and the
pivots are the same; the reduced row echelon form is unique, so the returned
rows are equal too.  Neither the
storage nor the integer arithmetic shows in any result: kernel bases,
particular solutions and echelon bases are deterministic and the same as
dense rational elimination gives.

Where only ranks and zero tests are read, a vector may carry any nonzero
scalar, and the work stays on sparse ``int`` rows with no ``Fraction`` at
all: :func:`int_apply` multiplies by a matrix's integer columns, and an
:class:`IntegerEchelon` grows an echelon basis by forward-only elimination
(each new row reduced against the rows before it with the same
fraction-free update, none reduced afterwards), so its size is a rank and
its ``reduce`` a residue up to a positive scalar.  :class:`Elimination` runs
it once on [Mᵀ | I] and reads both ker M and an echelon basis of im M off
the result.  Matrices are immutable, and all functions are pure; an
:class:`IntegerEchelon` changes only as rows join it.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]
SparseRow = tuple[tuple[int, Fraction], ...]
# (d, pairs): the row whose nonzeros are x/d for its (column, integer x) pairs
IntegerRow = tuple[int, tuple[tuple[int, int], ...]]

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
    """The nonzeros of v as (column, ``Fraction``) pairs, converting only non-Fractions."""
    return tuple([(j, x if type(x) is Fraction else Fraction(x)) for j, x in enumerate(v) if x])


def _dense(row: Iterable[tuple[int, Fraction]], n: int) -> Vector:
    out = [_ZERO] * n
    for j, x in row:
        out[j] = x
    return tuple(out)


@dataclass(frozen=True, repr=False)
class RationalMatrix:
    """Immutable matrix of rationals, built by ``from_rows``, ``from_cols``,
    ``from_sparse``, ``identity``, ``zeros`` or ``block``.  Its value is its
    sparse rows, the nonzeros of each row as (column, ``Fraction``) pairs by
    increasing column; its dense entries and integer rows derive from them."""

    rows: int
    cols: int
    sparse_rows: tuple[SparseRow, ...]

    def __repr__(self) -> str:
        return f"RationalMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        """The dense rows, zeros included."""
        return tuple(_dense(row, self.cols) for row in self.sparse_rows)

    @cached_property
    def integer_rows(self) -> tuple[IntegerRow, ...]:
        """Each row as (d, pairs): its nonzeros are x/d for the (column,
        integer x) pairs, d the lcm of their denominators."""
        rows = []
        for row in self.sparse_rows:
            if row:
                columns, values = zip(*row)
                d, nums = integer_form(values)
                rows.append((d, tuple(zip(columns, nums))))
            else:
                rows.append((1, ()))
        return tuple(rows)

    @cached_property
    def integer_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzeros of each column of s·M as (row, ``int``) pairs by
        increasing row, s the lcm of every denominator of M: the matrix up to
        one positive scalar, for ranks and zero tests (:func:`int_apply`,
        :class:`Elimination`)."""
        scale = lcm(*[d for d, _ in self.integer_rows])
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, (d, pairs) in enumerate(self.integer_rows):
            for j, x in pairs:
                columns[j].append((i, x * (scale // d)))
        return tuple(map(tuple, columns))

    @staticmethod
    def from_sparse(rows: Iterable[SparseRow], ncols: int) -> "RationalMatrix":
        """The matrix whose rows have the given nonzeros, (column, nonzero
        ``Fraction``) pairs by increasing column."""
        rows = tuple(rows)
        return RationalMatrix(len(rows), ncols, rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: int | None = None) -> "RationalMatrix":
        """The matrix of the given rows; ``ncols`` is needed only when there are none."""
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("column count mismatch")
        return RationalMatrix.from_sparse(map(_sparse, rows), ncols)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int | None = None) -> "RationalMatrix":
        if nrows is None and not cols:
            raise ValueError("need nrows for a matrix with no columns")
        return RationalMatrix.from_rows(cols, nrows).transpose()

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.from_sparse([((i, _ONE),) for i in range(n)], n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix.from_sparse(((),) * rows, cols)

    @staticmethod
    def block(grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        """The matrix of a grid of blocks, given band by band (a band is one
        row of blocks).  The blocks of a band share their row count and the
        blocks of a block column their column count; either may be zero.
        """
        widths = [b.cols for b in grid[0]] if grid else []
        offsets = [sum(widths[:k]) for k in range(len(widths))]
        rows: list[SparseRow] = []
        for band in grid:
            if [b.cols for b in band] != widths:
                raise ValueError("blocks of one block column differ in column count")
            height = band[0].rows if band else 0
            if any(b.rows != height for b in band):
                raise ValueError("blocks of one band differ in row count")
            parts = [(offset, b.sparse_rows) for offset, b in zip(offsets, band)]
            rows.extend(
                tuple((offset + j, x) for offset, block in parts for j, x in block[i])
                for i in range(height)
            )
        return RationalMatrix.from_sparse(rows, sum(widths))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times coordinate column, on integer rows: v is scaled once
        by the lcm D of its denominators, each row's dot product is an int,
        and each nonzero output entry is one ``Fraction(dot, d·D)``."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times {len(v)}")
        out, w = [], None
        for d, pairs in self.integer_rows:
            if not pairs:
                out.append(_ZERO)
                continue
            if w is None:  # scaled on first use: a zero matrix never reads v
                scale, w = integer_form(v)
            acc = 0
            for j, x in pairs:
                acc += x * w[j]
            if not acc:
                out.append(_ZERO)
            else:
                den = d * scale
                out.append(Fraction(acc, den) if den != 1 else Fraction(acc))
        return tuple(out)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product on integer rows: the right factor's rows are scaled to
        the lcm D of their denominators, each output row accumulates ``int``s
        and each nonzero output entry is one ``Fraction(acc, d·D)``."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        scale = lcm(*[d for d, _ in other.integer_rows])
        right = [
            pairs if d == scale else tuple([(j, x * (scale // d)) for j, x in pairs])
            for d, pairs in other.integer_rows
        ]
        product = []
        for d, row in self.integer_rows:
            acc: dict[int, int] = {}
            for k, a in row:
                for j, b in right[k]:
                    acc[j] = acc.get(j, 0) + a * b
            den = d * scale
            product.append(tuple(sorted([(j, Fraction(x, den)) for j, x in acc.items() if x])))
        return RationalMatrix.from_sparse(product, other.cols)

    def transpose(self) -> "RationalMatrix":
        columns: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                columns[j].append((i, x))
        return RationalMatrix.from_sparse(map(tuple, columns), self.rows)

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add")
        total = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(r1)
            for j, b in r2:
                acc[j] = acc.get(j, _ZERO) + b
            total.append(_nonzeros(acc))
        return RationalMatrix.from_sparse(total, self.cols)

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        return self.add(-other)

    def __neg__(self) -> "RationalMatrix":
        """−M by unary minus on each nonzero, which needs no gcd."""
        return RationalMatrix.from_sparse(
            (tuple((j, -x) for j, x in row) for row in self.sparse_rows), self.cols
        )

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        if not c:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix.from_sparse(
            (tuple((j, c * x) for j, x in row) for row in self.sparse_rows), self.cols
        )

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)


def _nonzeros(acc: dict[int, Fraction]) -> SparseRow:
    """The nonzero entries of a row held as a dict, by increasing column."""
    return tuple(sorted((j, x) for j, x in acc.items() if x))


def integer_form(values: Sequence) -> tuple[int, list]:
    """(D, n) with values = n/D, D the lcm of every denominator and n nested
    ``int`` lists of the same shape.  ``values`` is a vector of rationals
    (``int`` entries read as themselves), or a sequence of tensors read over
    one D: matrices, from their nonzeros as dense rows (``n[t][row][col]``),
    and tables, rows of vectors (``n[t][i][j][k]``)."""
    if values and not isinstance(values[0], (Fraction, int)):
        mats = [t for t in values if isinstance(t, RationalMatrix)]
        tables = [t for t in values if not isinstance(t, RationalMatrix)]
        den = lcm(
            *{x.denominator for m in mats for row in m.sparse_rows for _, x in row},
            *{x.denominator for table in tables for row in table for v in row for x in v},
        )
        ints = []
        for t in values:
            if isinstance(t, RationalMatrix):
                rows = [[0] * t.cols for _ in range(t.rows)]
                for dense, row in zip(rows, t.sparse_rows):
                    for j, x in row:
                        dense[j] = x.numerator * (den // x.denominator)
            else:
                rows = [[[x.numerator * (den // x.denominator) for x in v] for v in row] for row in t]
            ints.append(rows)
        return den, ints
    scale, nums = 1, []
    for x in values:
        e = x.denominator
        if e != 1:
            scale = lcm(scale, e)
        nums.append(x.numerator)
    if scale == 1:
        return 1, nums
    return scale, [n * (scale // x.denominator) for n, x in zip(nums, values)]


def fractions_over(nums: Sequence[int], den: int) -> Vector:
    """The vector nums/den: one ``Fraction`` per nonzero entry and the shared
    zero for each zero."""
    return tuple([Fraction(x, den) if x else _ZERO for x in nums])


def int_matvec(mat: list[list[int]], v: Sequence[int]) -> list[int]:
    """M·v for a nested ``int`` matrix and vector."""
    return [sum(map(mul, row, v)) for row in mat]


def int_matmul(a: list[list[int]], b: list[list[int]], width: int) -> list[list[int]]:
    """The product of two nested ``int`` matrices, b with ``width`` columns
    (given, since a b with no rows cannot show it: then the rows are zeros)."""
    cols = int_transpose(b, width)
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_sum(weights: Sequence[int], vectors: Sequence[Sequence[int]], size: int) -> list[int]:
    """Σ wₖ·vₖ over the nonzero weights, for ``int`` vectors of ``size``
    entries."""
    acc = None
    for w, v in zip(weights, vectors):
        if w:
            acc = [w * x for x in v] if acc is None else [s + w * x for s, x in zip(acc, v)]
    return [0] * size if acc is None else acc


def int_matrix_sum(
    weights: Sequence[int], mats: Sequence[list[list[int]]], rows: int, width: int
) -> list[list[int]]:
    """Σ wₖ·Mₖ over the nonzero weights, for nested ``int`` matrices of
    ``rows`` rows and ``width`` columns (given, so that a sum of no matrices
    is the zero matrix of that shape)."""
    if not mats:
        return [[0] * width for _ in range(rows)]
    return [int_sum(weights, summands, width) for summands in zip(*mats)]


def int_apply(columns: Sequence[Sequence[tuple[int, int]]], v: dict[int, int]) -> dict[int, int]:
    """M·v for a sparse ``int`` vector (column → nonzero ``int``) and a
    matrix given by the (row, ``int``) nonzeros of its columns
    (:attr:`RationalMatrix.integer_columns`): Σ vⱼ·(column j), its nonzeros."""
    acc: dict[int, int] = {}
    for j, x in v.items():
        for i, y in columns[j]:
            acc[i] = acc.get(i, 0) + x * y
    return {i: x for i, x in acc.items() if x}


def int_transpose(rows: Sequence[Sequence], width: int) -> list[list]:
    """The columns of a nested matrix whose rows have ``width`` entries (its
    entries may be vectors: then the columns are lists of vectors)."""
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]


def int_columns(m: list[list[int]] | None, width: int) -> list[list[tuple[int, int]]]:
    """The nonzeros of each column of a nested ``int`` matrix with ``width``
    columns, as (row, value) pairs by increasing row; when m is None, of the
    ``width`` × ``width`` identity."""
    if m is None:
        return [[(j, 1)] for j in range(width)]
    return [[(x, v) for x, v in enumerate(col) if v] for col in int_transpose(m, width)]


def int_pullback(terms: Sequence[tuple], size: int) -> list[list[list[int]]]:
    """Σ c·μ(A·, B·) over the terms (c, μ, A, B): entry (i, j) is
    Σ c·A[x][i]·B[y][j]·μ[x][y] for an ``int`` table μ of vectors with
    ``size`` entries and ``int`` matrices A, B given by :func:`int_columns`.
    Terms of weight 0 are skipped; the shape is that of the first term's
    A and B."""
    _, _, first_left, first_right = terms[0]
    out = [[[0] * size for _ in first_right] for _ in first_left]
    for c, mu, left, right in terms:
        if not c:
            continue
        for row, xs in zip(out, left):
            for j, ys in enumerate(right):
                acc = row[j]
                for x, u in xs:
                    mu_x = mu[x]
                    for y, v in ys:
                        w = c * u * v
                        acc = [s + w * z for s, z in zip(acc, mu_x[y])]
                row[j] = acc
    return out


def _divide_by_content(row: dict[int, int]) -> dict[int, int]:
    content = gcd(*row.values())
    if content > 1:
        for j, x in row.items():
            row[j] = x // content
    return row


def _reduced_echelon(rows: list[dict], ncols: int) -> list[int]:
    """Reduce primitive integer rows in place to a row echelon form whose
    rows are rational multiples of the reduced row echelon form's, as the
    module docstring describes; returns the pivot columns.  Pivot row r,
    divided by its entry at pivot column r, is row r of the reduced form;
    the rows below the last pivot row are empty.

    A row update loops over the pivot row's nonzeros only (and over the
    updated row's when it is scaled) and drops the entries it cancels.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        pivot_items = list(pivot.items())
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            f = row[c]
            # g takes p's sign: a > 0, and a row needs no scaling when p divides f
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j, x in row.items():
                    row[j] = a * x
            for j, y in pivot_items:
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            _divide_by_content(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m: RationalMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = [_divide_by_content(dict(pairs)) for _, pairs in m.integer_rows]
    return len(_reduced_echelon(rows, m.cols))


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """Basis of the right null space, one vector per free column.

    Deterministic: free columns are scanned in increasing order and each
    basis vector has entry 1 at its free column.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [unit_vector(j, m.cols) for j in range(m.cols)]
    rows = [_divide_by_content(dict(pairs)) for _, pairs in m.integer_rows]
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
        p = rows[r][c]
        for j, x in rows[r].items():
            if j != c:
                basis[j][c] = Fraction(-x, p)
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
    rows = []
    for (d, pairs), bi in zip(a.integer_rows, b):
        row = dict(pairs)
        if bi:
            scale = lcm(d, bi.denominator)
            if scale != d:
                row = {j: x * (scale // d) for j, x in row.items()}
            row[a.cols] = bi.numerator * (scale // bi.denominator)
        rows.append(_divide_by_content(row))
    pivots = _reduced_echelon(rows, a.cols + 1)
    if a.cols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        if a.cols in rows[r]:
            x[c] = Fraction(rows[r][a.cols], rows[r][c])
    return tuple(x)


@dataclass(frozen=True)
class EchelonBasis:
    """Reduced echelon basis of a subspace, for membership and residue tests:
    the matrix whose rows are the basis vectors, and their pivot columns."""

    basis: RationalMatrix
    pivots: tuple[int, ...]

    @property
    def dim_ambient(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def reduce(self, v: Sequence) -> Vector:
        """Residue of v modulo the subspace, supported on non-pivot coordinates.

        Fraction-free: the residue is held as w/den with w integer.  A basis
        vector B/q with f = w[p] at its pivot p is eliminated as
        w ← (q/g)·w − (f/g)·B, den ← (q/g)·den, g = gcd(q, f).
        """
        if len(v) != self.dim_ambient:
            raise ValueError("dimension mismatch in reduce")
        den, w = integer_form(v)
        for p, (q, pairs) in zip(self.pivots, self.basis.integer_rows):
            f = w[p]
            if not f:
                continue
            g = gcd(q, f)
            a, b = q // g, f // g
            if a != 1:
                w = [a * x for x in w]
                den *= a
            for j, y in pairs:
                w[j] -= b * y
            if a != 1:
                common = gcd(den, *w)
                if common > 1:
                    den //= common
                    w = [x // common for x in w]
        return fractions_over(w, den)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))


def _echelon(rows: list[dict[int, int]], dim_ambient: int) -> EchelonBasis:
    pivots = _reduced_echelon(rows, dim_ambient) if rows else []
    kept = (
        tuple((j, Fraction(x, rows[r][c])) for j, x in sorted(rows[r].items()))
        for r, c in enumerate(pivots)
    )
    return EchelonBasis(RationalMatrix.from_sparse(kept, dim_ambient), tuple(pivots))


def echelon_basis(vectors: Iterable[Sequence], dim_ambient: int) -> EchelonBasis:
    """Reduced echelon span of the given vectors (deterministic)."""
    rows = []
    for v in vectors:
        if len(v) != dim_ambient:
            raise ValueError("dimension mismatch in echelon_basis")
        rows.append(_divide_by_content({j: x for j, x in enumerate(integer_form(v)[1]) if x}))
    return _echelon(rows, dim_ambient)


def column_space(m: RationalMatrix) -> EchelonBasis:
    rows = [_divide_by_content(dict(pairs)) for _, pairs in m.transpose().integer_rows]
    return _echelon(rows, m.rows)


def same_subspace(a: EchelonBasis, b: EchelonBasis) -> bool:
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimension mismatch")
    if a.dim != b.dim:
        return False
    return all(a.contains(v) for v in b.vectors) and all(b.contains(v) for v in a.vectors)


class IntegerEchelon:
    """An echelon basis of sparse ``int`` rows (column → nonzero ``int``),
    grown one row at a time by forward-only fraction-free elimination: a row
    is reduced against the basis and, if anything is left, joins it with its
    lowest column as pivot.  No basis row changes once it is in, and each has
    nothing left of its pivot."""

    def __init__(self) -> None:
        self.pivots: list[int] = []  # increasing
        self.rows: list[dict[int, int]] = []  # the row of each pivot

    def reduce(self, w: dict[int, int]) -> dict[int, int]:
        """w, in place, reduced to zero at every pivot column: a positive
        multiple of its residue modulo the span.  The pivots are taken in
        increasing order, a row B with q = B[p] at its pivot p and f = w[p]
        as w ← (q/g)·w − (f/g)·B, g = gcd(q, f) with q's sign, and a scaled
        w is divided by the gcd of its entries."""
        for p, row in zip(self.pivots, self.rows):
            f = w.get(p)
            if not f:
                continue
            q = row[p]
            g = gcd(q, f) if q > 0 else -gcd(q, f)
            a, b = q // g, f // g
            if a != 1:
                for j, x in w.items():
                    w[j] = a * x
            for j, y in row.items():
                x = w.get(j, 0) - b * y
                if x:
                    w[j] = x
                else:
                    del w[j]
            if a != 1:
                _divide_by_content(w)
        return w

    def add(self, w: dict[int, int], width: int | None = None) -> bool:
        """Reduce w in place; whether it joins the basis, which it does,
        pivoting on its lowest column, when a nonzero is left in a column
        below ``width`` (in any column, when None)."""
        self.reduce(w)
        lead = min(w, default=None)
        if lead is None or width is not None and lead >= width:
            return False
        k = bisect(self.pivots, lead)
        self.pivots.insert(k, lead)
        self.rows.insert(k, _divide_by_content(w))
        return True


class Elimination:
    """The forward-only fraction-free reduction of [Mᵀ | I] for a matrix M,
    run once and read twice.  Row j starts as (s·column j of M, e_j), s the
    lcm of M's denominators (:attr:`RationalMatrix.integer_columns`), and is
    reduced against the pivot rows before it (:class:`IntegerEchelon`, with
    pivots in the Mᵀ part only).  Every row stays (s·M·x, x) for some x:

      * ``kernel``: the x of the rows whose Mᵀ part vanished, a basis of
        ker M (sparse ``int`` rows, cols − rank of them);
      * ``image``: the Mᵀ parts of the pivot rows, an echelon basis of the
        column space im M with its pivots.

    Both are right up to nonzero scalars per row, which is all a rank or a
    zero test reads; the canonical bases are :func:`kernel_basis` and
    :func:`column_space`."""

    def __init__(self, m: RationalMatrix) -> None:
        offset = m.rows
        self.image = IntegerEchelon()
        self.kernel: list[dict[int, int]] = []
        for j, column in enumerate(m.integer_columns):
            w = dict(column)
            w[offset + j] = 1
            if not self.image.add(w, offset):
                self.kernel.append({i - offset: x for i, x in w.items()})
        self.image.rows = [{j: x for j, x in row.items() if j < offset} for row in self.image.rows]
