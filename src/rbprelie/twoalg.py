"""Two-term structures: graded algebras with an operator triple, and the
skeletal/strict correspondences.

A two-term structure holds spaces g₀, g₁, a connecting map d: g₁ → g₀, the
binary products on the allowed degree pairs, a trilinear map l₃ skew in its
first two slots (stored as a degree-3 cochain over g₀ with values in g₁),
and the operator triple (T₀, T₁, T₂) with T₂ bilinear on g₀.

Skeletal means d = 0; strict means l₃ = 0 and T₂ = 0.  Skeletal structures
correspond to degree-3 cocycles of the combined complex of (g₀, T₀) with
coefficients in g₁; strict structures correspond to crossed modules.  The
long operator coherence condition is implemented in the form forced by the
degree-3 correspondence: all insertion patterns of T₀ into l₃ weighted by
powers of the weight appear, as do the T₁-corrections of the level-mixing
action terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algebras import (
    Bimodule,
    Defects,
    InvalidStructureError,
    Multiplications,
    PreLieAlgebra,
    ProductTable,
    RBBimodule,
    RBPreLieAlgebra,
    Verdict,
    bilinear,
    bimodule_defects,
    multiplication_matrices,
    named,
    rb_bimodule_defects,
    verdict,
    zero_table,
)
from .cochains import Cochain, RBACochain, bilinear_from_cochain, cochain_from_bilinear
from .complexes import rba_differential
from .linalg import (
    RationalMatrix,
    Vector,
    is_zero_vector,
    unit_vector,
    vadd,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class TwoAlgebra:
    dim0: int
    dim1: int
    d_map: RationalMatrix  # dim0 × dim1, column a = image of the a-th g₁ vector
    l2_00: ProductTable  # g₀⊗g₀ → g₀
    l2_01: tuple[tuple[Vector, ...], ...]  # [x][a]: l₂(e_x, α_a) ∈ g₁
    l2_10: tuple[tuple[Vector, ...], ...]  # [a][x]: l₂(α_a, e_x) ∈ g₁
    l3: Cochain  # degree 3 over g₀ with values in g₁
    t0: RationalMatrix
    t1: RationalMatrix
    t2: tuple[tuple[Vector, ...], ...]  # bilinear g₀⊗g₀ → g₁, no symmetry

    def __post_init__(self) -> None:
        if (self.d_map.rows, self.d_map.cols) != (self.dim0, self.dim1):
            raise ValueError("connecting map has wrong shape")
        if (self.t0.rows, self.t0.cols) != (self.dim0, self.dim0):
            raise ValueError("t0 has wrong shape")
        if (self.t1.rows, self.t1.cols) != (self.dim1, self.dim1):
            raise ValueError("t1 has wrong shape")
        if (self.l3.degree, self.l3.base_dim, self.l3.mod_dim) != (3, self.dim0, self.dim1):
            raise ValueError("l3 must be a degree-3 cochain over g0 valued in g1")

    def basis0(self, i: int) -> Vector:
        return unit_vector(i, self.dim0)

    @cached_property
    def lr00(self) -> Multiplications:
        """(L, R) of l2_00."""
        return multiplication_matrices(self.l2_00, self.dim0, self.dim0)

    @cached_property
    def lr01(self) -> Multiplications:
        """(L, R) of l2_01: L[x] is the level-mixing left action of e_x."""
        return multiplication_matrices(self.l2_01, self.dim1, self.dim1)

    @cached_property
    def lr10(self) -> Multiplications:
        """(L, R) of l2_10: R[x] is the level-mixing right action of e_x."""
        return multiplication_matrices(self.l2_10, self.dim0, self.dim1)

    @cached_property
    def lr_t2(self) -> Multiplications:
        """(L, R) of t2."""
        return multiplication_matrices(self.t2, self.dim0, self.dim1)

    def mul00(self, x: Sequence, y: Sequence) -> Vector:
        return bilinear(self.lr00[0], x, y, self.dim0)

    def mul01(self, x: Sequence, alpha: Sequence) -> Vector:
        return bilinear(self.lr01[0], x, alpha, self.dim1)

    def mul10(self, alpha: Sequence, x: Sequence) -> Vector:
        return bilinear(self.lr10[0], alpha, x, self.dim1)

    def t2_apply(self, x: Sequence, y: Sequence) -> Vector:
        return bilinear(self.lr_t2[0], x, y, self.dim1)

    def is_skeletal(self) -> bool:
        return self.d_map.is_zero()

    def is_strict(self) -> bool:
        return self.l3.is_zero() and all(
            is_zero_vector(v) for row in self.t2 for v in row
        )


def check_prelie_2alg(t: TwoAlgebra) -> Verdict:
    """The seven coherence conditions of a two-term pre-Lie structure."""
    return verdict(_prelie_2alg_defects(t))


def _prelie_2alg_defects(t: TwoAlgebra) -> Defects:
    d0, d1 = t.dim0, t.dim1
    (l00, r00), (l01, r01), (l10, r10) = t.lr00, t.lr01, t.lr10
    for x in range(d0):
        for a in range(d1):
            da = t.d_map.col(a)
            yield "a", (x, a), vsub(t.d_map.apply(t.l2_01[x][a]), l00[x].apply(da))
            yield "b", (a, x), vsub(t.d_map.apply(t.l2_10[a][x]), r00[x].apply(da))
    for a in range(d1):
        da = t.d_map.col(a)
        for b in range(d1):
            yield "c", (a, b), vsub(r01[b].apply(da), l10[a].apply(t.d_map.col(b)))
    for x in range(d0):
        for y in range(d0):
            bracket = vsub(t.l2_00[x][y], t.l2_00[y][x])
            for z in range(d0):
                rhs = vsub(l00[x].apply(t.l2_00[y][z]), l00[y].apply(t.l2_00[x][z]))
                rhs = vsub(rhs, r00[z].apply(bracket))
                yield "e1", (x, y, z), vsub(t.d_map.apply(t.l3.eval([x, y, z])), rhs)
            for a in range(d1):
                da = t.d_map.col(a)
                rhs = vsub(l01[x].apply(t.l2_01[y][a]), l01[y].apply(t.l2_01[x][a]))
                rhs = vsub(rhs, r01[a].apply(bracket))
                yield "e2", (x, y, a), vsub(t.l3.eval([x, y, da]), rhs)
                rhs = vsub(l10[a].apply(t.l2_00[x][y]), r10[y].apply(t.l2_10[a][x]))
                rhs = vsub(rhs, vsub(l01[x].apply(t.l2_10[a][y]), r10[y].apply(t.l2_01[x][a])))
                yield "e3", (a, x, y), vsub(t.l3.eval([da, x, y]), rhs)
    for key in itertools.product(range(d0), repeat=4):
        yield "f", key, condition_f_value(t, *key)


def condition_f_value(t: TwoAlgebra, w: int, x: int, y: int, z: int) -> Vector:
    """The twelve-term top coherence, evaluated on basis indices."""
    l01, r10 = t.lr01[0], t.lr10[1]
    val = l01[w].apply(t.l3.eval([x, y, z]))
    val = vsub(val, l01[x].apply(t.l3.eval([w, y, z])))
    val = vadd(val, l01[y].apply(t.l3.eval([w, x, z])))
    val = vadd(val, r10[z].apply(t.l3.eval([x, y, w])))
    val = vsub(val, r10[z].apply(t.l3.eval([w, y, x])))
    val = vadd(val, r10[z].apply(t.l3.eval([w, x, y])))
    val = vsub(val, t.l3.eval([x, y, t.l2_00[w][z]]))
    val = vadd(val, t.l3.eval([w, y, t.l2_00[x][z]]))
    val = vsub(val, t.l3.eval([w, x, t.l2_00[y][z]]))
    val = vsub(val, t.l3.eval([vsub(t.l2_00[w][x], t.l2_00[x][w]), y, z]))
    val = vadd(val, t.l3.eval([vsub(t.l2_00[w][y], t.l2_00[y][w]), x, z]))
    val = vsub(val, t.l3.eval([vsub(t.l2_00[x][y], t.l2_00[y][x]), w, z]))
    return val


def condition_v_value(t: TwoAlgebra, lam: Fraction, x1: int, x2: int, x3: int) -> Vector:
    """The long operator coherence, evaluated on basis indices.

    Structure: the T₀-twisted action terms with their T₁-corrections, the
    star-product insertions into T₂, and every T₀-insertion pattern into l₃
    weighted by λ to the number of untouched slots minus one.
    """
    (l00, r00), (l01, _), (_, r10), (lt2, rt2) = t.lr00, t.lr01, t.lr10, t.lr_t2
    t0_1, t0_2, t0_3 = t.t0.col(x1), t.t0.col(x2), t.t0.col(x3)
    th_23 = t.t2[x2][x3]
    th_13 = t.t2[x1][x3]
    th_21 = t.t2[x2][x1]
    th_12 = t.t2[x1][x2]

    def star(i: int, j: int) -> Vector:
        """e_i ⋆ e_j = e_i·T₀(e_j) + T₀(e_i)·e_j + λ e_i·e_j."""
        return vadd(
            vadd(l00[i].apply(t.t0.col(j)), r00[j].apply(t.t0.col(i))),
            vscale(lam, t.l2_00[i][j]),
        )

    val = vsub(t.mul01(t0_1, th_23), t.t1.apply(l01[x1].apply(th_23)))
    val = vsub(val, vsub(t.mul01(t0_2, th_13), t.t1.apply(l01[x2].apply(th_13))))
    val = vadd(val, vsub(t.mul10(th_21, t0_3), t.t1.apply(r10[x3].apply(th_21))))
    val = vsub(val, vsub(t.mul10(th_12, t0_3), t.t1.apply(r10[x3].apply(th_12))))
    val = vsub(val, lt2[x2].apply(star(x1, x3)))
    val = vadd(val, lt2[x1].apply(star(x2, x3)))
    val = vsub(val, rt2[x3].apply(vsub(star(x1, x2), star(x2, x1))))
    val = vadd(val, t.l3.eval([t0_1, t0_2, t0_3]))
    lam2 = lam * lam
    val = vsub(val, vscale(lam2, t.t1.apply(t.l3.eval([x1, x2, x3]))))
    val = vsub(val, vscale(lam, t.t1.apply(t.l3.eval([t0_1, x2, x3]))))
    val = vsub(val, vscale(lam, t.t1.apply(t.l3.eval([x1, t0_2, x3]))))
    val = vsub(val, vscale(lam, t.t1.apply(t.l3.eval([x1, x2, t0_3]))))
    val = vsub(val, t.t1.apply(t.l3.eval([t0_1, t0_2, x3])))
    val = vsub(val, t.t1.apply(t.l3.eval([t0_1, x2, t0_3])))
    val = vsub(val, t.t1.apply(t.l3.eval([x1, t0_2, t0_3])))
    return val


def check_rb_2alg(t: TwoAlgebra, weight) -> Verdict:
    """The operator conditions on a two-term structure."""
    return verdict(_rb_2alg_defects(t, Fraction(weight)))


def _rb_2alg_defects(t: TwoAlgebra, lam: Fraction) -> Defects:
    (l00, r00), (l01, r01), (l10, r10), (lt2, rt2) = t.lr00, t.lr01, t.lr10, t.lr_t2
    comm = t.t0.matmul(t.d_map).sub(t.d_map.matmul(t.t1))
    for a in range(t.dim1):
        yield "i", (a,), comm.col(a)
    for x in range(t.dim0):
        t0x = t.t0.col(x)
        for y in range(t.dim0):
            t0y = t.t0.col(y)
            inner = vadd(vadd(r00[y].apply(t0x), l00[x].apply(t0y)), vscale(lam, t.l2_00[x][y]))
            yield "ii", (x, y), vsub(
                vsub(t.t0.apply(inner), t.mul00(t0x, t0y)),
                t.d_map.apply(t.t2[x][y]),
            )
    for a in range(t.dim1):
        t1a = t.t1.col(a)
        da = t.d_map.col(a)
        for x in range(t.dim0):
            t0x = t.t0.col(x)
            inner = vadd(vadd(r10[x].apply(t1a), l10[a].apply(t0x)), vscale(lam, t.l2_10[a][x]))
            yield "iii", (a, x), vsub(
                vsub(t.t1.apply(inner), t.mul10(t1a, t0x)), rt2[x].apply(da)
            )
            inner = vadd(vadd(l01[x].apply(t1a), r01[a].apply(t0x)), vscale(lam, t.l2_01[x][a]))
            yield "iv", (x, a), vsub(
                vsub(t.t1.apply(inner), t.mul01(t0x, t1a)), lt2[x].apply(da)
            )
    for key in itertools.product(range(t.dim0), repeat=3):
        yield "v", key, condition_v_value(t, lam, *key)


def _actions_from_tables(t: TwoAlgebra) -> Bimodule:
    """The mixed products as actions: S[x]α = l₂(e_x, α), P[x]α = l₂(α, e_x),
    the L of l2_01 and the R of l2_10."""
    return Bimodule(t.dim0, t.dim1, t.lr01[0], t.lr10[1])


def _tables_from_actions(bm: Bimodule) -> tuple[ProductTable, ProductTable]:
    """(l2_01, l2_10) of the actions; the inverse of :func:`_actions_from_tables`."""
    d0, d1 = bm.base_dim, bm.mod_dim
    l2_01 = tuple(tuple(bm.S[x].col(a) for a in range(d1)) for x in range(d0))
    l2_10 = tuple(tuple(bm.P[x].col(a) for x in range(d0)) for a in range(d1))
    return l2_01, l2_10


def skeletal_to_cocycle(
    t: TwoAlgebra, weight, *, trusted: bool = False
) -> tuple[RBPreLieAlgebra, RBBimodule, RBACochain]:
    """Unpack a skeletal structure into (base algebra, module, degree-3 pair)."""
    lam = Fraction(weight)
    if not t.is_skeletal():
        raise InvalidStructureError("structure is not skeletal (connecting map nonzero)")
    if not trusted:
        if not check_prelie_2alg(t).ok or not check_rb_2alg(t, lam).ok:
            raise InvalidStructureError("structure fails the two-term checks")
    r = RBPreLieAlgebra(PreLieAlgebra(t.dim0, t.l2_00), lam, t.t0)
    m = RBBimodule(_actions_from_tables(t), t.t1)
    cochain = RBACochain(t.l3, cochain_from_bilinear(t.t2, t.dim1))
    defect = rba_differential(r, m, cochain, trusted=True)
    if not defect.is_zero():
        raise InvalidStructureError("extracted pair is not a degree-3 cocycle")
    return r, m, cochain


def cocycle_to_skeletal(r: RBPreLieAlgebra, m: RBBimodule, c: RBACochain) -> TwoAlgebra:
    """Assemble the skeletal structure carried by a degree-3 cocycle."""
    if c.degree != 3 or c.base_dim != r.dim or c.mod_dim != m.mod_dim:
        raise ValueError("expected a degree-3 pair matching (algebra, module)")
    defect = rba_differential(r, m, c, trusted=True)
    if not defect.is_zero():
        parts = []
        if not defect.pla_part.is_zero():
            parts.append("product component")
        if defect.rbo_part is not None and not defect.rbo_part.is_zero():
            parts.append("operator component")
        raise InvalidStructureError(
            "input is not a cocycle; nonzero coboundary in: " + ", ".join(parts)
        )
    d, md = r.dim, m.mod_dim
    l2_01, l2_10 = _tables_from_actions(m.bimodule)
    return TwoAlgebra(
        dim0=d,
        dim1=md,
        d_map=RationalMatrix.zeros(d, md),
        l2_00=r.algebra.c,
        l2_01=l2_01,
        l2_10=l2_10,
        l3=c.pla_part,
        t0=r.operator,
        t1=m.t_m,
        t2=bilinear_from_cochain(c.rbo_part),
    )


@dataclass(frozen=True)
class CrossedModule:
    g0: RBPreLieAlgebra
    g1_product: ProductTable  # dim1³ structure constants
    d_map: RationalMatrix  # dim0 × dim1
    S: tuple[RationalMatrix, ...]  # level-mixing left actions, one per g₀ basis vector
    P: tuple[RationalMatrix, ...]
    t1: RationalMatrix

    @property
    def dim0(self) -> int:
        return self.g0.dim

    @property
    def dim1(self) -> int:
        return self.t1.rows

    def bimodule(self) -> RBBimodule:
        return RBBimodule(Bimodule(self.dim0, self.dim1, self.S, self.P), self.t1)


def check_crossed_module(cm: CrossedModule) -> Verdict:
    """Both levels valid, d a product morphism intertwining the operators,
    self-action compatibility between the levels."""
    return verdict(_crossed_module_defects(cm))


def _crossed_module_defects(cm: CrossedModule) -> Defects:
    g0, g1_product, d_map = cm.g0, cm.g1_product, cm.d_map
    g1 = PreLieAlgebra(cm.dim1, g1_product)  # checks the table's shape
    yield from named("g1_pre_lie", g1.pre_lie_law)
    yield from named("g0_pre_lie", g0.algebra.pre_lie_law)
    yield from named("g0_rota_baxter", g0.rota_baxter_law)
    bimod = cm.bimodule()
    yield from bimodule_defects(g0.algebra, bimod.bimodule)
    yield from rb_bimodule_defects(g0, bimod)
    d_cols = [d_map.col(a) for a in range(cm.dim1)]
    left, right = g0.algebra.multiplications
    times_b, a_times = bimod.bimodule.at_module_basis
    # d is a product morphism g₁ → g₀
    for a, da in enumerate(d_cols):
        for b, db in enumerate(d_cols):
            yield "d_morphism", (a, b), vsub(
                d_map.apply(g1_product[a][b]), g0.algebra.product(da, db)
            )
    # C1
    for x in range(cm.dim0):
        for a, da in enumerate(d_cols):
            yield "c1_left", (x, a), vsub(d_map.apply(cm.S[x].col(a)), left[x].apply(da))
            yield "c1_right", (x, a), vsub(d_map.apply(cm.P[x].col(a)), right[x].apply(da))
    comm = d_map.matmul(cm.t1).sub(g0.operator.matmul(d_map))
    for a in range(cm.dim1):
        yield "c1_operator", (a,), comm.col(a)
    # C2
    for a, da in enumerate(d_cols):
        for b, db in enumerate(d_cols):
            yield "c2_left", (a, b), vsub(times_b[b].apply(da), g1_product[a][b])
            yield "c2_right", (a, b), vsub(a_times[a].apply(db), g1_product[a][b])


def strict_to_crossed(t: TwoAlgebra, weight, *, trusted: bool = False) -> CrossedModule:
    """Collapse a strict structure to a crossed module; the level-1 product
    is the connecting map fed through a mixed action."""
    lam = Fraction(weight)
    if not t.is_strict():
        raise InvalidStructureError("structure is not strict (l3 or T2 nonzero)")
    if not trusted:
        if not check_prelie_2alg(t).ok or not check_rb_2alg(t, lam).ok:
            raise InvalidStructureError("structure fails the two-term checks")
    g0 = RBPreLieAlgebra(PreLieAlgebra(t.dim0, t.l2_00), lam, t.t0)
    r01 = t.lr01[1]
    product = tuple(
        tuple(r01[b].apply(t.d_map.col(a)) for b in range(t.dim1)) for a in range(t.dim1)
    )
    bm = _actions_from_tables(t)
    return CrossedModule(g0, product, t.d_map, bm.S, bm.P, t.t1)


def crossed_to_strict(cm: CrossedModule, *, trusted: bool = False) -> TwoAlgebra:
    """View a crossed module as a strict two-term structure."""
    if not trusted and not check_crossed_module(cm).ok:
        raise InvalidStructureError("input fails the crossed module checks")
    d0, d1 = cm.dim0, cm.dim1
    l2_01, l2_10 = _tables_from_actions(cm.bimodule().bimodule)
    return TwoAlgebra(
        dim0=d0,
        dim1=d1,
        d_map=cm.d_map,
        l2_00=cm.g0.algebra.c,
        l2_01=l2_01,
        l2_10=l2_10,
        l3=Cochain.zero(3, d0, d1),
        t0=cm.g0.operator,
        t1=cm.t1,
        t2=zero_table(d0, d0, d1),
    )
