"""Cochains on the skew-times-free basis.

A degree-``n`` cochain is a multilinear map on ``n`` algebra arguments,
antisymmetric in the first ``n−1`` of them, with values in an ``m``
dimensional module.  It is stored sparsely on the canonical basis: keys are
tuples ``(i₁, …, i_{n−1}, j)`` with ``i₁ < … < i_{n−1}`` and ``j`` free
(0-based).  Degree 0 stores a single vector under the empty key.

Coordinates are taken in lexicographic order on (skew tuple, last index,
module coordinate); that order is normative for all differential matrices
and for the file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Mapping, Sequence

from .linalg import RationalMatrix, Vector, is_zero_vector, vadd, vscale, zero_vector

Key = tuple[int, ...]

# An evaluation argument: a basis index or a coordinate vector.
Arg = int | Sequence


def normalize_skew(indices: Sequence[int]) -> tuple[Key, int] | None:
    """Sort a skew block; returns (sorted tuple, sign), or None on a repeat."""
    idx = list(indices)
    sign = 1
    # insertion sort, counting transpositions; blocks here have length ≤ 5
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return None
    return tuple(idx), sign


def basis_keys(degree: int, base_dim: int) -> Iterator[Key]:
    if degree == 0:
        yield ()
        return
    for skew in combinations(range(base_dim), degree - 1):
        for j in range(base_dim):
            yield (*skew, j)


def space_dim(degree: int, base_dim: int, mod_dim: int) -> int:
    if degree == 0:
        return mod_dim
    return comb(base_dim, degree - 1) * base_dim * mod_dim


@dataclass(frozen=True)
class Cochain:
    degree: int
    base_dim: int
    mod_dim: int
    values: Mapping[Key, Vector]

    def __post_init__(self) -> None:
        clean: dict[Key, Vector] = {}
        for key, val in self.values.items():
            if len(key) != self.degree:
                raise ValueError(f"key {key} has wrong length for degree {self.degree}")
            skew = key[:-1] if self.degree else ()
            if any(skew[i] >= skew[i + 1] for i in range(len(skew) - 1)):
                raise ValueError(f"key {key} is not strictly increasing in its skew block")
            if any(not (0 <= i < self.base_dim) for i in key):
                raise ValueError(f"key {key} out of range")
            val = tuple(x if type(x) is Fraction else Fraction(x) for x in val)
            if len(val) != self.mod_dim:
                raise ValueError("value has wrong module dimension")
            if not is_zero_vector(val):
                clean[key] = val
        object.__setattr__(self, "values", clean)

    @staticmethod
    def zero(degree: int, base_dim: int, mod_dim: int) -> "Cochain":
        return Cochain(degree, base_dim, mod_dim, {})

    def value(self, key: Key) -> Vector:
        return self.values.get(key, zero_vector(self.mod_dim))

    def is_zero(self) -> bool:
        return not self.values

    def map_values(self, fn) -> "Cochain":
        return Cochain(
            self.degree,
            self.base_dim,
            self.mod_dim,
            {k: fn(v) for k, v in self.values.items()},
        )

    def add(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        vals = dict(self.values)
        for k, v in other.values.items():
            vals[k] = vadd(vals.get(k, zero_vector(self.mod_dim)), v)
        return Cochain(self.degree, self.base_dim, self.mod_dim, vals)

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        if c == 0:
            return Cochain.zero(self.degree, self.base_dim, self.mod_dim)
        return self.map_values(lambda v: vscale(c, v))

    def _check_compatible(self, other: "Cochain") -> None:
        if (self.degree, self.base_dim, self.mod_dim) != (
            other.degree,
            other.base_dim,
            other.mod_dim,
        ):
            raise ValueError("cochain shape mismatch")

    def eval_basis(self, skew: Sequence[int], last: int) -> Vector:
        """Evaluate at basis arguments, normalizing the skew block."""
        norm = normalize_skew(skew)
        if norm is None:
            return zero_vector(self.mod_dim)
        sorted_skew, sign = norm
        val = self.value((*sorted_skew, last))
        return val if sign == 1 else vscale(Fraction(-1), val)

    def eval(self, args: Sequence[Arg]) -> Vector:
        """Multilinear evaluation; each argument is a basis index or a vector.

        Expands only the vector arguments over the basis, so evaluation at
        mostly-basis arguments stays cheap.
        """
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        if self.degree == 0:
            return self.value(())
        return self._eval_rec(list(args), 0, Fraction(1))

    def _eval_rec(self, args: list[Arg], pos: int, coeff: Fraction) -> Vector:
        for p in range(pos, len(args)):
            if not isinstance(args[p], int):
                vector = args[p]
                total = zero_vector(self.mod_dim)
                for idx, c in enumerate(vector):
                    if c == 0:
                        continue
                    args[p] = idx
                    total = vadd(total, self._eval_rec(args, p + 1, coeff * c))
                args[p] = vector
                return total
        return vscale(coeff, self.eval_basis(args[:-1], args[-1]))  # type: ignore[arg-type]

    def coords(self) -> Vector:
        out: list[Fraction] = []
        for key in basis_keys(self.degree, self.base_dim):
            out.extend(self.value(key))
        return tuple(out)

    @staticmethod
    def from_coords(degree: int, base_dim: int, mod_dim: int, coords: Sequence) -> "Cochain":
        expected = space_dim(degree, base_dim, mod_dim)
        if len(coords) != expected:
            raise ValueError(f"expected {expected} coordinates, got {len(coords)}")
        vals = {}
        pos = 0
        for key in basis_keys(degree, base_dim):
            vals[key] = coords[pos : pos + mod_dim]
            pos += mod_dim
        return Cochain(degree, base_dim, mod_dim, vals)


def cochain_from_matrix(mat) -> Cochain:
    """Degree-1 cochain from a matrix whose column j is the value at e_j."""
    return Cochain(1, mat.cols, mat.rows, {(j,): mat.col(j) for j in range(mat.cols)})


def matrix_from_cochain(f: Cochain) -> RationalMatrix:
    if f.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    return RationalMatrix.from_cols([f.value((j,)) for j in range(f.base_dim)], f.mod_dim)


def cochain_from_bilinear(table: Sequence[Sequence[Sequence]], mod_dim: int) -> Cochain:
    """Degree-2 cochain from a d×d table of module vectors."""
    d = len(table)
    return Cochain(2, d, mod_dim, {(i, j): table[i][j] for i in range(d) for j in range(d)})


def bilinear_from_cochain(f: Cochain) -> tuple[tuple[Vector, ...], ...]:
    if f.degree != 2:
        raise ValueError("expected a degree-2 cochain")
    return tuple(
        tuple(f.value((i, j)) for j in range(f.base_dim)) for i in range(f.base_dim)
    )


@dataclass(frozen=True)
class RBACochain:
    """A pair (f, g) with deg g = deg f − 1; degree 0 has no second part."""

    pla_part: Cochain
    rbo_part: Cochain | None

    def __post_init__(self) -> None:
        f, g = self.pla_part, self.rbo_part
        if f.degree == 0:
            if g is not None:
                raise ValueError("degree-0 pair cannot carry an operator component")
            return
        if g is None:
            raise ValueError("positive-degree pair needs an operator component")
        if g.degree != f.degree - 1:
            raise ValueError("component degrees must differ by one")
        if (g.base_dim, g.mod_dim) != (f.base_dim, f.mod_dim):
            raise ValueError("component dimensions must agree")

    @property
    def degree(self) -> int:
        return self.pla_part.degree

    @property
    def base_dim(self) -> int:
        return self.pla_part.base_dim

    @property
    def mod_dim(self) -> int:
        return self.pla_part.mod_dim

    def is_zero(self) -> bool:
        return self.pla_part.is_zero() and (self.rbo_part is None or self.rbo_part.is_zero())

    def add(self, other: "RBACochain") -> "RBACochain":
        if self.degree == 0:
            return RBACochain(self.pla_part.add(other.pla_part), None)
        return RBACochain(
            self.pla_part.add(other.pla_part), self.rbo_part.add(other.rbo_part)
        )

    def sub(self, other: "RBACochain") -> "RBACochain":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, c) -> "RBACochain":
        if self.degree == 0:
            return RBACochain(self.pla_part.scale(c), None)
        return RBACochain(self.pla_part.scale(c), self.rbo_part.scale(c))

    def coords(self) -> Vector:
        if self.degree == 0:
            return self.pla_part.coords()
        return self.pla_part.coords() + self.rbo_part.coords()

    @staticmethod
    def from_coords(degree: int, base_dim: int, mod_dim: int, coords: Sequence) -> "RBACochain":
        if degree == 0:
            return RBACochain(Cochain.from_coords(0, base_dim, mod_dim, coords), None)
        split = space_dim(degree, base_dim, mod_dim)
        return RBACochain(
            Cochain.from_coords(degree, base_dim, mod_dim, coords[:split]),
            Cochain.from_coords(degree - 1, base_dim, mod_dim, coords[split:]),
        )
