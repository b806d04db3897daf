"""Pre-Lie algebras, Rota-Baxter operators and (Rota-Baxter) bimodules.

Structures are plain immutable data; validity is never cached.  Every
checker checks one family of laws: it produces a (law, 0-based basis tuple,
defect) triple per basis tuple, and :func:`verdict` turns them into a
:class:`Verdict` listing *all* violated basis tuples with their defect
vectors (1-based indices, since they are diagnostics).  Composite checkers
in other modules chain the same triples.  The pre-Lie identity and the
Rota-Baxter law are written once, as the tⁿ coefficients
:func:`pre_lie_defects` and :func:`rota_baxter_defects` of a formal series;
the axioms are their order 0.
:func:`require_valid` is the one validity gate: operations that require
valid input pass through it unless called with ``trusted=True``.

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
from itertools import chain
from typing import Iterable, Sequence

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


Defects = Iterable[tuple[str, tuple[int, ...], Vector]]


def verdict(defects: Defects, notes: Sequence[str] = ()) -> Verdict:
    """The verdict on (law, 0-based basis tuple, defect) triples, in order:
    every nonzero defect is a violation with 1-based indices, and the
    verdict is ok exactly when there is none."""
    violations = tuple(
        Violation(law, tuple(i + 1 for i in key), defect)
        for law, key, defect in defects
        if not is_zero_vector(defect)
    )
    return Verdict(ok=not violations, violations=violations, notes=tuple(notes))


def named(law: str, keyed: dict[tuple[int, ...], Vector]) -> Defects:
    """The triples of one law from a kernel's defects keyed by basis tuple."""
    return ((law, key, defect) for key, defect in keyed.items())


def zero_table(dim_left: int, dim_right: int, dim_out: int) -> ProductTable:
    return tuple(tuple(zero_vector(dim_out) for _ in range(dim_right)) for _ in range(dim_left))


def _unit(i: int, dim: int) -> Vector:
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))


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
        return _unit(i, self.dim)


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
        return _unit(i, self.mod_dim)


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


def pre_lie_defects(mus: Sequence[ProductTable], n: int) -> dict[tuple[int, int, int], Vector]:
    """The tⁿ coefficient of the pre-Lie identity for μ_t = Σ μᵢtⁱ on every
    basis triple (eᵢ, eⱼ, e_k), keyed (i, j, k):

        Σ_{a+b=n} μ_a(μ_b(x, y), z) − μ_a(x, μ_b(y, z)) − (x ↔ y).

    At n = 0 this is the pre-Lie identity of ``mus[0]``.
    """
    dim = len(mus[0])
    basis = [_unit(i, dim) for i in range(dim)]
    out = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                defect = zero_vector(dim)
                for a in range(n + 1):
                    mu_a, mu_b = mus[a], mus[n - a]
                    lhs = vsub(
                        apply_table(mu_a, mu_b[i][j], basis[k], dim),
                        apply_table(mu_a, basis[i], mu_b[j][k], dim),
                    )
                    rhs = vsub(
                        apply_table(mu_a, mu_b[j][i], basis[k], dim),
                        apply_table(mu_a, basis[j], mu_b[i][k], dim),
                    )
                    defect = vadd(defect, vsub(lhs, rhs))
                out[(i, j, k)] = defect
    return out


def rota_baxter_defects(
    mus: Sequence[ProductTable], ts: Sequence[RationalMatrix], lam: Fraction, n: int
) -> dict[tuple[int, int], Vector]:
    """The tⁿ coefficient of the weighted Rota-Baxter law for μ_t = Σ μᵢtⁱ,
    T_t = Σ Tᵢtⁱ on every basis pair (eᵢ, eⱼ), keyed (i, j):

        μ_t(T_t x, T_t y) − T_t(μ_t(x, T_t y) + μ_t(T_t x, y) + λ μ_t(x, y)).

    The weight multiplies the ``T_a∘μ_b`` sum at every order.  At n = 0 this
    is the Rota-Baxter law of ``ts[0]`` for ``mus[0]``.
    """
    dim = len(mus[0])
    basis = [_unit(i, dim) for i in range(dim)]
    cols = [[t.col(i) for i in range(dim)] for t in ts[: n + 1]]
    out = {}
    for i in range(dim):
        for j in range(dim):
            defect = zero_vector(dim)
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    defect = vadd(defect, apply_table(mus[a], cols[b][i], cols[n - a - b][j], dim))
            for a in range(n + 1):
                inner = vscale(lam, mus[n - a][i][j])
                for b in range(n + 1 - a):
                    c = n - a - b
                    inner = vadd(inner, apply_table(mus[b], basis[i], cols[c][j], dim))
                    inner = vadd(inner, apply_table(mus[b], cols[c][i], basis[j], dim))
                defect = vsub(defect, ts[a].apply(inner))
            out[(i, j)] = defect
    return out


def check_pre_lie(a: PreLieAlgebra) -> Verdict:
    """Associator symmetry on all basis triples."""
    return verdict(named("pre_lie", pre_lie_defects((a.c,), 0)))


def check_rb_operator(r: RBPreLieAlgebra) -> Verdict:
    """Weighted Rota-Baxter law on all basis pairs."""
    return verdict(
        named("rota_baxter", rota_baxter_defects((r.algebra.c,), (r.operator,), r.weight, 0))
    )


def _combine(x: Sequence, cols: Sequence[Vector], dim: int) -> Vector:
    """Σₖ xₖ·cols[k]."""
    out = zero_vector(dim)
    for xk, col in zip(x, cols):
        if xk != 0:
            out = vadd(out, vscale(xk, col))
    return out


def _basis_columns(m: Bimodule) -> list[tuple[list[Vector], list[Vector]]]:
    """For each module basis vector e_u: the products (eₖ·e_u)ₖ and (e_u·eₖ)ₖ,
    read off the u-th columns of the action matrices."""
    return [([s.col(u) for s in m.S], [p.col(u) for p in m.P]) for u in range(m.mod_dim)]


def bimodule_defects(a: PreLieAlgebra, m: Bimodule) -> Defects:
    """Both pre-Lie representation laws on basis pairs acting on basis vectors."""
    if m.base_dim != a.dim:
        raise ValueError("module base dimension does not match the algebra")
    S, P, md = m.S, m.P, m.mod_dim
    cols = _basis_columns(m)
    for i in range(a.dim):
        for j in range(a.dim):
            cij, cji = a.c[i][j], a.c[j][i]
            for u, (su, pu) in enumerate(cols):
                # x·(y·u) − (x·y)·u symmetric in x, y
                lhs = vsub(S[i].apply(su[j]), _combine(cij, su, md))
                rhs = vsub(S[j].apply(su[i]), _combine(cji, su, md))
                yield "left_action", (i, j, u), vsub(lhs, rhs)
                # x·(u·y) − (x·u)·y = u·(x·y) − (u·x)·y
                lhs = vsub(S[i].apply(pu[j]), P[j].apply(su[i]))
                rhs = vsub(_combine(cij, pu, md), P[j].apply(pu[i]))
                yield "mixed_action", (i, j, u), vsub(lhs, rhs)


def rb_bimodule_defects(r: RBPreLieAlgebra, m: RBBimodule) -> Defects:
    """Both weighted compatibility laws between T and the module operator."""
    bm, tm, t, lam = m.bimodule, m.t_m, r.operator, r.weight
    if bm.base_dim != r.dim:
        raise ValueError("module base dimension does not match the algebra")
    md = bm.mod_dim
    cols = _basis_columns(bm)
    for i in range(r.dim):
        ti = t.col(i)
        for u, (su, pu) in enumerate(cols):
            tu = tm.col(u)
            # T(a)·T_M(u) = T_M(a·T_M(u) + T(a)·u + λ a·u)
            inner = vadd(vadd(bm.S[i].apply(tu), _combine(ti, su, md)), vscale(lam, su[i]))
            yield "rb_left", (i, u), vsub(bm.left(ti, tu), tm.apply(inner))
            # T_M(u)·T(a) = T_M(u·T(a) + T_M(u)·a + λ u·a)
            inner = vadd(vadd(_combine(ti, pu, md), bm.P[i].apply(tu)), vscale(lam, pu[i]))
            yield "rb_right", (i, u), vsub(bm.right(tu, ti), tm.apply(inner))


def check_bimodule(a: PreLieAlgebra, m: Bimodule) -> Verdict:
    """The verdict on :func:`bimodule_defects`."""
    return verdict(bimodule_defects(a, m))


def check_rb_bimodule(r: RBPreLieAlgebra, m: RBBimodule) -> Verdict:
    """The verdict on :func:`rb_bimodule_defects`."""
    return verdict(rb_bimodule_defects(r, m))


def sub_adjacent_bracket(a: PreLieAlgebra) -> ProductTable:
    """Commutator bracket table b[i][j] = e_i·e_j − e_j·e_i."""
    return tuple(
        tuple(vsub(a.c[i][j], a.c[j][i]) for j in range(a.dim)) for i in range(a.dim)
    )


def check_jacobi(bracket: ProductTable) -> Verdict:
    """Jacobi identity for an antisymmetric bracket table."""
    dim = len(bracket)

    def cyclic(i: int, j: int, k: int) -> Vector:
        defect = apply_table(bracket, _unit(i, dim), bracket[j][k], dim)
        defect = vadd(defect, apply_table(bracket, _unit(j, dim), bracket[k][i], dim))
        return vadd(defect, apply_table(bracket, _unit(k, dim), bracket[i][j], dim))

    return verdict(
        ("jacobi", (i, j, k), cyclic(i, j, k))
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(j + 1, dim)
    )


def require_valid(r: RBPreLieAlgebra, m: RBBimodule | None = None) -> RBBimodule:
    """The coefficients of a request: ``m``, or the regular module when it is
    None, once r is a Rota-Baxter pre-Lie algebra and m a Rota-Baxter bimodule
    over it.  The regular module is not re-checked: its bimodule laws are the
    pre-Lie identity and its Rota-Baxter bimodule laws the Rota-Baxter law.

    Raises :class:`InvalidStructureError` otherwise.
    """
    if not (check_pre_lie(r.algebra).ok and check_rb_operator(r).ok):
        raise InvalidStructureError("input is not a Rota-Baxter pre-Lie algebra; run `check`")
    if m is None:
        return regular_bimodule(r)
    if not (check_bimodule(r.algebra, m.bimodule).ok and check_rb_bimodule(r, m).ok):
        raise InvalidStructureError("module is not a Rota-Baxter bimodule; run `check`")
    return m


def star_algebra(r: RBPreLieAlgebra, *, trusted: bool = False) -> RBPreLieAlgebra:
    """The induced product a⋆b = a·T(b) + T(a)·b + λ a·b, same operator and weight."""
    if not trusted:
        require_valid(r)
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
        require_valid(r, m)
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
    cols = [phi.col(i) for i in range(r1.dim)]
    comm = phi.matmul(r1.operator).sub(r2.operator.matmul(phi))
    product = (
        ("product", (i, j), vsub(phi.apply(r1.algebra.c[i][j]), r2.algebra.product(pi, pj)))
        for i, pi in enumerate(cols)
        for j, pj in enumerate(cols)
    )
    operator = (("operator", (j,), comm.col(j)) for j in range(r1.dim))
    notes = ("degenerate: zero map",) if phi.is_zero() else ()
    return verdict(chain(product, operator), notes)
