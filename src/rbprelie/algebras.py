"""Pre-Lie algebras, Rota-Baxter operators and (Rota-Baxter) bimodules.

Structures are plain immutable data; validity is never cached.  Every
checker returns a :class:`Verdict` listing *all* violated basis tuples with
their defect vectors (1-based indices, since they are diagnostics).
Operations that require valid input re-check it unless called with
``trusted=True``.

Conventions:
  * structure constants ``c[i][j][k]`` = coefficient of ``e_k`` in
    ``e_i · e_j`` (0-based in code);
  * an operator matrix acts on coordinate columns, i.e. column ``j`` holds
    the coordinates of the image of ``e_j``;
  * ``S[i]`` is the left action of ``e_i`` on the module, ``P[i]`` the
    right action ``u ↦ u · e_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    RationalMatrix,
    Vector,
    is_zero_vector,
    vadd,
    vscale,
    vsub,
    zero_vector,
)

ProductTable = tuple[tuple[Vector, ...], ...]


class InvalidStructureError(ValueError):
    """Raised when an operation requiring valid input receives invalid data."""


@dataclass(frozen=True)
class Violation:
    law: str
    indices: tuple[int, ...]  # 1-based basis indices
    defect: Vector


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _verdict(violations: list[Violation], notes: Sequence[str] = ()) -> Verdict:
    return Verdict(ok=not violations, violations=tuple(violations), notes=tuple(notes))


def zero_table(dim_left: int, dim_right: int, dim_out: int) -> ProductTable:
    return tuple(tuple(zero_vector(dim_out) for _ in range(dim_right)) for _ in range(dim_left))


def apply_table(table: ProductTable, x: Sequence, y: Sequence, out_dim: int) -> Vector:
    """Bilinear extension of a table: table[i][j] holds the image of (e_i, e_j)."""
    out = [Fraction(0)] * out_dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coeff = xi * yj
            for k, ck in enumerate(table[i][j]):
                if ck != 0:
                    out[k] += coeff * ck
    return tuple(out)


@dataclass(frozen=True)
class PreLieAlgebra:
    dim: int
    c: ProductTable  # c[i][j] = coordinates of e_i · e_j

    def __post_init__(self) -> None:
        if len(self.c) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row) for row in self.c
        ):
            raise ValueError("structure constant table has wrong shape")

    def product(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure constants."""
        return apply_table(self.c, x, y, self.dim)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(self.dim))


@dataclass(frozen=True)
class RBPreLieAlgebra:
    algebra: PreLieAlgebra
    weight: Fraction
    operator: RationalMatrix  # column j = coordinates of T(e_j)

    def __post_init__(self) -> None:
        d = self.algebra.dim
        if (self.operator.rows, self.operator.cols) != (d, d):
            raise ValueError("operator must be square of the algebra dimension")
        object.__setattr__(self, "weight", Fraction(self.weight))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def t(self, x: Sequence) -> Vector:
        return self.operator.apply(x)


@dataclass(frozen=True)
class Bimodule:
    base_dim: int
    mod_dim: int
    S: tuple[RationalMatrix, ...]  # S[i]: left action of e_i
    P: tuple[RationalMatrix, ...]  # P[i]: right action u ↦ u · e_i

    def __post_init__(self) -> None:
        if len(self.S) != self.base_dim or len(self.P) != self.base_dim:
            raise ValueError("need one action matrix per algebra basis vector")
        for mat in (*self.S, *self.P):
            if (mat.rows, mat.cols) != (self.mod_dim, self.mod_dim):
                raise ValueError("action matrices must be square of the module dimension")

    def left(self, x: Sequence, u: Sequence) -> Vector:
        """x · u for an algebra vector x and module vector u."""
        out = zero_vector(self.mod_dim)
        for i, xi in enumerate(x):
            if xi != 0:
                out = vadd(out, vscale(xi, self.S[i].apply(u)))
        return out

    def right(self, u: Sequence, y: Sequence) -> Vector:
        """u · y for a module vector u and algebra vector y."""
        out = zero_vector(self.mod_dim)
        for j, yj in enumerate(y):
            if yj != 0:
                out = vadd(out, vscale(yj, self.P[j].apply(u)))
        return out

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(self.mod_dim))


@dataclass(frozen=True)
class RBBimodule:
    bimodule: Bimodule
    t_m: RationalMatrix

    def __post_init__(self) -> None:
        m = self.bimodule.mod_dim
        if (self.t_m.rows, self.t_m.cols) != (m, m):
            raise ValueError("module operator must be square of the module dimension")

    @property
    def base_dim(self) -> int:
        return self.bimodule.base_dim

    @property
    def mod_dim(self) -> int:
        return self.bimodule.mod_dim


def regular_bimodule(r: RBPreLieAlgebra) -> RBBimodule:
    """The algebra acting on itself, with the same operator."""
    d = r.dim
    S = tuple(
        RationalMatrix.from_cols([r.algebra.c[i][j] for j in range(d)], d) for i in range(d)
    )
    P = tuple(
        RationalMatrix.from_cols([r.algebra.c[i][j] for i in range(d)], d) for j in range(d)
    )
    return RBBimodule(Bimodule(d, d, S, P), r.operator)


def check_pre_lie(a: PreLieAlgebra) -> Verdict:
    """Associator symmetry on all basis triples."""
    bad: list[Violation] = []
    for i in range(a.dim):
        ei = a.basis_vector(i)
        for j in range(a.dim):
            ej = a.basis_vector(j)
            for k in range(a.dim):
                ek = a.basis_vector(k)
                lhs = vsub(a.product(a.c[i][j], ek), a.product(ei, a.c[j][k]))
                rhs = vsub(a.product(a.c[j][i], ek), a.product(ej, a.c[i][k]))
                defect = vsub(lhs, rhs)
                if not is_zero_vector(defect):
                    bad.append(Violation("pre_lie", (i + 1, j + 1, k + 1), defect))
    return _verdict(bad)


def check_rb_operator(r: RBPreLieAlgebra, *, pre_lie: Verdict | None = None) -> Verdict:
    """Weighted Rota-Baxter law on all basis pairs.

    ``pre_lie`` is the verdict of ``check_pre_lie(r.algebra)`` when the caller
    already has it; it is computed here otherwise.
    """
    a, t, lam = r.algebra, r.operator, r.weight
    if pre_lie is None:
        pre_lie = check_pre_lie(a)
    notes = []
    if not pre_lie.ok:
        notes.append("underlying product fails the pre-Lie check")
    bad: list[Violation] = []
    for i in range(a.dim):
        ei = a.basis_vector(i)
        ti = t.col(i)
        for j in range(a.dim):
            ej = a.basis_vector(j)
            tj = t.col(j)
            lhs = a.product(ti, tj)
            inner = vadd(vadd(a.product(ei, tj), a.product(ti, ej)), vscale(lam, a.c[i][j]))
            defect = vsub(lhs, t.apply(inner))
            if not is_zero_vector(defect):
                bad.append(Violation("rota_baxter", (i + 1, j + 1), defect))
    return _verdict(bad, notes)


def check_bimodule(a: PreLieAlgebra, m: Bimodule) -> Verdict:
    """Both pre-Lie representation laws on basis pairs acting on basis vectors."""
    if m.base_dim != a.dim:
        raise ValueError("module base dimension does not match the algebra")
    bad: list[Violation] = []
    for i in range(a.dim):
        ei = a.basis_vector(i)
        for j in range(a.dim):
            ej = a.basis_vector(j)
            cij, cji = a.c[i][j], a.c[j][i]
            for u in range(m.mod_dim):
                eu = m.basis_vector(u)
                # x·(y·u) − (x·y)·u symmetric in x, y
                lhs = vsub(m.left(ei, m.left(ej, eu)), m.left(cij, eu))
                rhs = vsub(m.left(ej, m.left(ei, eu)), m.left(cji, eu))
                defect = vsub(lhs, rhs)
                if not is_zero_vector(defect):
                    bad.append(Violation("left_action", (i + 1, j + 1, u + 1), defect))
                # x·(u·y) − (x·u)·y = u·(x·y) − (u·x)·y
                lhs = vsub(m.left(ei, m.right(eu, ej)), m.right(m.left(ei, eu), ej))
                rhs = vsub(m.right(eu, cij), m.right(m.right(eu, ei), ej))
                defect = vsub(lhs, rhs)
                if not is_zero_vector(defect):
                    bad.append(Violation("mixed_action", (i + 1, j + 1, u + 1), defect))
    return _verdict(bad)


def check_rb_bimodule(
    r: RBPreLieAlgebra, m: RBBimodule, *, bimodule: Verdict | None = None
) -> Verdict:
    """Both weighted compatibility laws between T and the module operator.

    ``bimodule`` is the verdict of ``check_bimodule(r.algebra, m.bimodule)``
    when the caller already has it; it is computed here otherwise.
    """
    bm, tm, t, lam = m.bimodule, m.t_m, r.operator, r.weight
    if bm.base_dim != r.dim:
        raise ValueError("module base dimension does not match the algebra")
    if bimodule is None:
        bimodule = check_bimodule(r.algebra, bm)
    notes = []
    if not bimodule.ok:
        notes.append("underlying actions fail the bimodule check")
    bad: list[Violation] = []
    for i in range(r.dim):
        ei = r.algebra.basis_vector(i)
        ti = t.col(i)
        for u in range(bm.mod_dim):
            eu = bm.basis_vector(u)
            tu = tm.col(u)
            # T(a)·T_M(u) = T_M(a·T_M(u) + T(a)·u + λ a·u)
            inner = vadd(vadd(bm.left(ei, tu), bm.left(ti, eu)), vscale(lam, bm.left(ei, eu)))
            defect = vsub(bm.left(ti, tu), tm.apply(inner))
            if not is_zero_vector(defect):
                bad.append(Violation("rb_left", (i + 1, u + 1), defect))
            # T_M(u)·T(a) = T_M(u·T(a) + T_M(u)·a + λ u·a)
            inner = vadd(vadd(bm.right(eu, ti), bm.right(tu, ei)), vscale(lam, bm.right(eu, ei)))
            defect = vsub(bm.right(tu, ti), tm.apply(inner))
            if not is_zero_vector(defect):
                bad.append(Violation("rb_right", (i + 1, u + 1), defect))
    return _verdict(bad, notes)


def sub_adjacent_bracket(a: PreLieAlgebra) -> ProductTable:
    """Commutator bracket table b[i][j] = e_i·e_j − e_j·e_i."""
    return tuple(
        tuple(vsub(a.c[i][j], a.c[j][i]) for j in range(a.dim)) for i in range(a.dim)
    )


def check_jacobi(bracket: ProductTable) -> Verdict:
    """Jacobi identity for an antisymmetric bracket table."""
    dim = len(bracket)

    def basis(i: int) -> Vector:
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))

    bad: list[Violation] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                defect = apply_table(bracket, basis(i), bracket[j][k], dim)
                defect = vadd(defect, apply_table(bracket, basis(j), bracket[k][i], dim))
                defect = vadd(defect, apply_table(bracket, basis(k), bracket[i][j], dim))
                if not is_zero_vector(defect):
                    bad.append(Violation("jacobi", (i + 1, j + 1, k + 1), defect))
    return _verdict(bad)


def _require_valid_rb(r: RBPreLieAlgebra) -> None:
    pre_lie = check_pre_lie(r.algebra)
    if not pre_lie.ok:
        raise InvalidStructureError("product does not satisfy the pre-Lie identity")
    if not check_rb_operator(r, pre_lie=pre_lie).ok:
        raise InvalidStructureError("operator does not satisfy the Rota-Baxter law")


def star_algebra(r: RBPreLieAlgebra, *, trusted: bool = False) -> RBPreLieAlgebra:
    """The induced product a⋆b = a·T(b) + T(a)·b + λ a·b, same operator and weight."""
    if not trusted:
        _require_valid_rb(r)
    a, t, lam = r.algebra, r.operator, r.weight
    table = []
    for i in range(a.dim):
        ei = a.basis_vector(i)
        ti = t.col(i)
        row = []
        for j in range(a.dim):
            ej = a.basis_vector(j)
            tj = t.col(j)
            row.append(vadd(vadd(a.product(ei, tj), a.product(ti, ej)), vscale(lam, a.c[i][j])))
        table.append(tuple(row))
    return RBPreLieAlgebra(PreLieAlgebra(a.dim, tuple(table)), lam, t)


def derived_bimodule(r: RBPreLieAlgebra, m: RBBimodule, *, trusted: bool = False) -> RBBimodule:
    """Actions a▷u = T(a)·u − T_M(a·u), u◁a = u·T(a) − T_M(u·a); operator unchanged.

    The result is a Rota-Baxter bimodule over ``star_algebra(r)``.
    """
    if not trusted:
        _require_valid_rb(r)
        if not check_rb_bimodule(r, m).ok:
            raise InvalidStructureError("input does not satisfy the Rota-Baxter bimodule laws")
    bm, tm, t = m.bimodule, m.t_m, r.operator
    d, md = bm.base_dim, bm.mod_dim
    S_new = []
    P_new = []
    for i in range(d):
        ei = r.algebra.basis_vector(i)
        ti = t.col(i)
        s_cols = []
        p_cols = []
        for u in range(md):
            eu = bm.basis_vector(u)
            s_cols.append(vsub(bm.left(ti, eu), tm.apply(bm.left(ei, eu))))
            p_cols.append(vsub(bm.right(eu, ti), tm.apply(bm.right(eu, ei))))
        S_new.append(RationalMatrix.from_cols(s_cols, md))
        P_new.append(RationalMatrix.from_cols(p_cols, md))
    return RBBimodule(Bimodule(d, md, tuple(S_new), tuple(P_new)), tm)


def check_morphism(r1: RBPreLieAlgebra, r2: RBPreLieAlgebra, phi: RationalMatrix) -> Verdict:
    """φ(a·₁b) = φ(a)·₂φ(b) on basis pairs, and φ∘T₁ = T₂∘φ."""
    if r1.weight != r2.weight:
        raise ValueError("weight mismatch between source and target")
    if (phi.rows, phi.cols) != (r2.dim, r1.dim):
        raise ValueError("morphism matrix has wrong shape")
    bad: list[Violation] = []
    for i in range(r1.dim):
        pi = phi.col(i)
        for j in range(r1.dim):
            pj = phi.col(j)
            defect = vsub(phi.apply(r1.algebra.c[i][j]), r2.algebra.product(pi, pj))
            if not is_zero_vector(defect):
                bad.append(Violation("product", (i + 1, j + 1), defect))
    comm = phi.matmul(r1.operator).sub(r2.operator.matmul(phi))
    for j in range(r1.dim):
        col = comm.col(j)
        if not is_zero_vector(col):
            bad.append(Violation("operator", (j + 1,), col))
    notes = ("degenerate: zero map",) if phi.is_zero() else ()
    return _verdict(bad, notes)
