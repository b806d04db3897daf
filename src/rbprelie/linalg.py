"""Sparse exact linear algebra over the rationals.

Everything in this package reduces to ranks, kernels, linear solves and
matrix-vector products of matrices with ``fractions.Fraction`` entries, and
the coboundary and chain-map matrices are mostly zeros.  A matrix's value is
its sparse rows: the (column, nonzero value) pairs of each row by increasing
column, built directly by every constructor and read by equality and hashing.
Derived from them once, on first use, are its dense ``entries`` (for ``repr``,
``col`` and serialization) and its one integer view, ``integer_columns``:
the pair (s, columns), s the lcm of all its denominators and ``columns`` the
(row, int) nonzeros of each column of s·M.

The integer form of rationals is a pair (D, n): nested ``int`` lists n
over one denominator D, the values n/D.  Only this module reads rationals
into that form, and it holds the operations on it.  :func:`integer_form`
is the one reader, of a vector and of tables and matrices over one shared
D, and a matrix's ``integer_columns`` is its (D, n) with n by columns, the
sparse form :func:`int_apply` reads; :func:`fractions_over` makes one
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

Products run on integers, through the one kernel :func:`int_apply`, a sum
of the integer columns of M weighted by a sparse ``int`` vector.  ``apply``
reads its vector as n/D and makes one ``Fraction`` over s·D per nonzero
entry of ``int_apply(columns, n)``; ``matmul`` applies the left factor's
columns to each integer column of the right factor, over the product of
the two scales, and appends the entries to the output rows by increasing
column, so they need no sorting.

There is one elimination, and it runs on sparse ``int`` rows (column →
nonzero ``int``) with no ``Fraction`` at all: an :class:`IntegerEchelon`
grows an echelon basis by forward-only fraction-free elimination (Bareiss,
*Math. Comp.* 22, 1968).  A new row w is reduced against the rows before it
in increasing pivot order: a row B with q = B[p] at its pivot p and
f = w[p] is eliminated as w ← (q/g)·w − (f/g)·B, g = gcd(q, f) with q's
sign, and a scaled w is divided by the gcd of its entries, which keeps the
coefficients from growing.  No row is reduced again once it is in.  Where
only ranks and zero tests are read, that is enough, since a vector may
carry any nonzero scalar: an ``IntegerEchelon``'s size is a rank, its
``reduce`` a residue up to a positive scalar, and :func:`int_apply`
multiplies by a matrix's integer columns.  Where an exact value is read
(:meth:`IntegerEchelon.residue`), a rational vector n/D enters as n with D
in one sentinel coordinate past the others, which no pivot reaches; every
update scales it with w, so the reduced w over its sentinel is the exact
residue.

:class:`Elimination` runs that elimination once on [Mᵀ | I], and every
result (``rank``, ``kernel_basis``, ``solve_linear``, ``column_space``,
``echelon_basis``) is read off that one object.  Each is an invariant of M,
so neither the storage, the integer arithmetic nor the order the columns
enter shows in it, and each is what dense elimination gives.  Ranks are,
and the pivots of im M, its leading coordinates: a residue modulo im M zero
at every pivot is the one such vector in its coset.  The rest come from the
one reduced-echelon step :meth:`IntegerEchelon.reduced`, unique once each
row is divided by its pivot entry: ``column_space`` is that form of im M,
and ``kernel_basis`` that form of ker M with pivots at the highest column,
which are exactly the free columns (column j is free when it lies in the
span of the columns before it).  A solution reduced modulo it is the one
zero at every free column.

Its record is ``image``, ``transforms`` and ``kernel``, and each pivot row
is held once: after the loop it is split into its Mᵀ part in ``image``
(what ranks, ``column_space`` and the LES walk read) and its I part in
``transforms``.  Only ``solve`` joins the two, into fresh rows it drops on
return.  Matrices are immutable, and all functions are pure; an
:class:`IntegerEchelon` changes only as rows join it or are split.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
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
    increasing column; its dense entries and its integer columns derive
    from them."""

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
    def integer_columns(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """The integer form (s, columns) of M = columns/s: s the lcm of every
        denominator of M and ``columns`` the nonzeros of each column of s·M
        as (row, ``int``) pairs by increasing row (:func:`int_apply`)."""
        scale = lcm(*{x.denominator for row in self.sparse_rows for _, x in row})
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                columns[j].append((i, x.numerator * (scale // x.denominator)))
        return scale, tuple(map(tuple, columns))

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
        """Matrix times coordinate column on the integer form: with v = n/D
        and M = columns/s, M·v is ``int_apply(columns, n)`` over s·D, one
        ``Fraction`` per nonzero entry."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times {len(v)}")
        scale, columns = self.integer_columns
        den, nums = integer_form(v)
        out = [0] * self.rows
        for i, x in int_apply(columns, {j: x for j, x in enumerate(nums) if x}).items():
            out[i] = x
        return fractions_over(out, scale * den)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product on the integer forms A = a/s and B = b/t: column j of
        A·B is ``int_apply(a, column j of b)`` over s·t, its entries appended
        to the output rows by increasing j."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        (s, left), (t, right) = self.integer_columns, other.integer_columns
        den = s * t
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.rows)]
        for j, column in enumerate(right):
            for i, x in int_apply(left, dict(column)).items():
                rows[i].append((j, Fraction(x, den)))
        return RationalMatrix.from_sparse(map(tuple, rows), other.cols)

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
    and tables, rows of vectors (``n[t][i][j][k]``).  One matrix on its own
    has the same (D, n) sparse and by columns, as
    :attr:`RationalMatrix.integer_columns`."""
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
    matrix given by the (row, ``int``) nonzeros of its columns (the
    columns of :attr:`RationalMatrix.integer_columns`): Σ vⱼ·(column j), its
    nonzeros."""
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


def rank(m: RationalMatrix) -> int:
    return len(Elimination(m).image.pivots)


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """The reduced basis of the right null space, one vector per free column
    by increasing column: 1 at its free column and 0 at every other."""
    return Elimination(m).kernel_vectors()


def solve_linear(a: RationalMatrix, b: Sequence) -> Vector | None:
    """The x with a·x = b that is zero at every free column (free variables
    zero), or None if the system is inconsistent."""
    return Elimination(a).solve(b)[0]


@dataclass(frozen=True)
class EchelonBasis:
    """Reduced echelon basis of a subspace, for membership and residue tests:
    the matrix whose rows are the basis vectors, their pivot columns, and
    the :class:`IntegerEchelon` of those rows (up to scale) that ``reduce``
    runs, the one :func:`column_space` built."""

    basis: RationalMatrix
    pivots: tuple[int, ...]
    _echelon: IntegerEchelon = field(compare=False, repr=False)

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
        """Residue of v modulo the subspace, supported on non-pivot
        coordinates: the :meth:`IntegerEchelon.residue` of v, its sentinel
        at the ambient dimension."""
        if len(v) != self.dim_ambient:
            raise ValueError("dimension mismatch in reduce")
        w, sigma = self._echelon.residue(v, self.dim_ambient)
        return fractions_over([w.get(j, 0) for j in range(self.dim_ambient)], sigma)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))


def echelon_basis(vectors: Iterable[Sequence], dim_ambient: int) -> EchelonBasis:
    """Reduced echelon span of the given vectors (deterministic): the column
    space of the matrix whose columns they are."""
    return column_space(RationalMatrix.from_cols(list(vectors), dim_ambient))


def column_space(m: RationalMatrix) -> EchelonBasis:
    """Reduced echelon basis of im m: the :meth:`IntegerEchelon.reduced` of
    m's image rows, each divided by its pivot entry."""
    reduced = Elimination(m).image.reduced()
    kept = (
        tuple((j, Fraction(x, row[p])) for j, x in sorted(row.items()))
        for p, row in zip(reduced.pivots, reduced.rows)
    )
    return EchelonBasis(RationalMatrix.from_sparse(kept, m.rows), tuple(reduced.pivots), reduced)


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
        w is divided by the gcd of its entries.  This is the one row update
        of the module."""
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

    def residue(self, v: Sequence, sentinel: int, scale: int = 1) -> tuple[dict[int, int], int]:
        """(w, σ), w/σ the residue of scale·v: v = n/D enters as the row
        scale·n with D at ``sentinel``, past every other coordinate, and σ
        is what is left there after :meth:`reduce`."""
        den, nums = integer_form(v)
        w = {j: scale * x for j, x in enumerate(nums) if x}
        w[sentinel] = den
        self.reduce(w)
        return w, w.pop(sentinel)

    def reduced(self) -> "IntegerEchelon":
        """The reduced echelon of the same span, each row zero at every other
        pivot: the rows re-added to a fresh echelon by decreasing pivot, each
        reduced against the rows of higher pivot, already reduced."""
        out = IntegerEchelon()
        for row in reversed(self.rows):
            out.add(dict(row))
        return out

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
    """The one elimination of a matrix M: the forward-only fraction-free
    reduction of [Mᵀ | I], run once and read by every rank, kernel, solve
    and span.  It reads M only as its integer form (s, columns)
    (:attr:`RationalMatrix.integer_columns`, s the lcm of M's denominators):
    row j starts as (column j of s·M, e_j), e_j at coordinate rows + j, and
    is reduced against the pivot rows before it (pivots in the Mᵀ part
    only).  Every row stays (s·M·x, x) for some x, its transform.  After the
    loop each pivot row is split in two, each part held once.  Up to a
    nonzero scalar per row, which is all a rank or a zero test sees, the
    record is:

      * ``image``: the Mᵀ parts of the pivot rows (keys below rows), an
        echelon basis of the column space im M with its pivots;
      * ``transforms``: the I part of each, keys rows + j; as a matrix E,
        E·(s·Mᵀ) = R, the image rows;
      * ``kernel``: the transforms of the rows whose Mᵀ part vanished, a
        basis of ker M (keys j, cols − rank of them).

    :meth:`kernel_vectors` and a successful :meth:`solve` read the reduced
    echelon of ``kernel``, built on first read, and a failed :meth:`solve`
    the residue modulo ``image``, zero at its pivots (module docstring)."""

    def __init__(self, m: RationalMatrix) -> None:
        offset = self._offset = m.rows
        self._cols = m.cols
        self._scale, columns = m.integer_columns
        self.image = IntegerEchelon()
        self.kernel: list[dict[int, int]] = []
        for j, column in enumerate(columns):
            w = dict(column)
            w[offset + j] = 1
            if not self.image.add(w, offset):
                self.kernel.append({i - offset: x for i, x in w.items()})
        self.transforms: list[dict[int, int]] = []
        for k, row in enumerate(self.image.rows):
            self.transforms.append({j: x for j, x in row.items() if j >= offset})
            self.image.rows[k] = {j: x for j, x in row.items() if j < offset}

    @cached_property
    def _kernel_echelon(self) -> IntegerEchelon:
        """The reduced echelon of ``kernel``, pivots at the highest column:
        coordinate j is held at −j, so the pivots are −f for the free columns f."""
        echelon = IntegerEchelon()
        for z in self.kernel:
            echelon.add({-j: x for j, x in z.items()})
        return echelon.reduced()

    def kernel_vectors(self) -> list[Vector]:
        """:func:`kernel_basis`: the kernel echelon's rows by free column, each over its pivot."""
        echelon = self._kernel_echelon
        return [
            fractions_over([z.get(-j, 0) for j in range(self._cols)], z[p])
            for p, z in zip(reversed(echelon.pivots), reversed(echelon.rows))
        ]

    def solve(self, b: Sequence) -> tuple[Vector | None, SparseRow | None]:
        """(x, None) with M·x = b and x zero at every free column, the
        solution of :func:`solve_linear`; otherwise (None, residue), the
        nonzero (coordinate, value) pairs of the residue of b modulo im M, as
        :func:`column_space`'s ``reduce`` gives it.

        b's :meth:`IntegerEchelon.residue` at scale s, its sentinel past the
        transform, against fresh rows ``image row | transform`` is
        (s·(σ·b + M·v), v) over σ.  If its Mᵀ part vanishes, x is −v/σ
        reduced modulo the kernel echelon, with σ at 1, past its coordinates
        −j; otherwise that part over s·σ is the residue."""
        offset, cols = self._offset, self._cols
        if len(b) != offset:
            raise ValueError(f"dimension mismatch: got rhs of length {len(b)} for {offset} rows")
        joined = IntegerEchelon()
        joined.pivots = self.image.pivots
        joined.rows = [row | t for row, t in zip(self.image.rows, self.transforms)]
        w, sigma = joined.residue(b, offset + cols, self._scale)
        if min(w, default=offset) >= offset:
            x = self._kernel_echelon.reduce({offset - j: -y for j, y in w.items()} | {1: sigma})
            return fractions_over([x.get(-j, 0) for j in range(cols)], x[1]), None
        scale = self._scale * sigma
        return None, tuple((i, Fraction(x, scale)) for i, x in sorted(w.items()) if i < offset)
