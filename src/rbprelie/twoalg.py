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
from typing import Sequence

from .algebras import (
    Bimodule,
    Defects,
    InvalidStructureError,
    PreLieAlgebra,
    ProductTable,
    RBBimodule,
    RBPreLieAlgebra,
    Verdict,
    apply_table,
    bimodule_defects,
    named,
    pre_lie_defects,
    rb_bimodule_defects,
    rota_baxter_defects,
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

    def basis1(self, a: int) -> Vector:
        return unit_vector(a, self.dim1)

    def mul00(self, x: Sequence, y: Sequence) -> Vector:
        return apply_table(self.l2_00, x, y, self.dim0)

    def mul01(self, x: Sequence, alpha: Sequence) -> Vector:
        return apply_table(self.l2_01, x, alpha, self.dim1)

    def mul10(self, alpha: Sequence, x: Sequence) -> Vector:
        return apply_table(self.l2_10, alpha, x, self.dim1)

    def t2_apply(self, x: Sequence, y: Sequence) -> Vector:
        return apply_table(self.t2, x, y, self.dim1)

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
    for x in range(d0):
        ex = t.basis0(x)
        for a in range(d1):
            da = t.d_map.col(a)
            yield "a", (x, a), vsub(t.d_map.apply(t.l2_01[x][a]), t.mul00(ex, da))
            yield "b", (a, x), vsub(t.d_map.apply(t.l2_10[a][x]), t.mul00(da, ex))
    for a in range(d1):
        da = t.d_map.col(a)
        ea = t.basis1(a)
        for b in range(d1):
            yield "c", (a, b), vsub(t.mul01(da, t.basis1(b)), t.mul10(ea, t.d_map.col(b)))
    for x in range(d0):
        ex = t.basis0(x)
        for y in range(d0):
            ey = t.basis0(y)
            xy, yx = t.l2_00[x][y], t.l2_00[y][x]
            for z in range(d0):
                ez = t.basis0(z)
                rhs = vsub(t.mul00(ex, t.l2_00[y][z]), t.mul00(xy, ez))
                rhs = vsub(rhs, vsub(t.mul00(ey, t.l2_00[x][z]), t.mul00(yx, ez)))
                yield "e1", (x, y, z), vsub(t.d_map.apply(t.l3.eval([x, y, z])), rhs)
            for a in range(d1):
                ea = t.basis1(a)
                da = t.d_map.col(a)
                rhs = vsub(t.mul01(ex, t.l2_01[y][a]), t.mul01(xy, ea))
                rhs = vsub(rhs, vsub(t.mul01(ey, t.l2_01[x][a]), t.mul01(yx, ea)))
                yield "e2", (x, y, a), vsub(t.l3.eval([x, y, da]), rhs)
                rhs = vsub(t.mul10(ea, xy), t.mul10(t.l2_10[a][x], ey))
                rhs = vsub(rhs, vsub(t.mul01(ex, t.l2_10[a][y]), t.mul10(t.l2_01[x][a], ey)))
                yield "e3", (a, x, y), vsub(t.l3.eval([da, x, y]), rhs)
    for key in itertools.product(range(d0), repeat=4):
        yield "f", key, condition_f_value(t, *key)


def condition_f_value(t: TwoAlgebra, w: int, x: int, y: int, z: int) -> Vector:
    """The twelve-term top coherence, evaluated on basis indices."""
    ew, ez = t.basis0(w), t.basis0(z)
    ex, ey = t.basis0(x), t.basis0(y)
    val = t.mul01(ew, t.l3.eval([x, y, z]))
    val = vsub(val, t.mul01(ex, t.l3.eval([w, y, z])))
    val = vadd(val, t.mul01(ey, t.l3.eval([w, x, z])))
    val = vadd(val, t.mul10(t.l3.eval([x, y, w]), ez))
    val = vsub(val, t.mul10(t.l3.eval([w, y, x]), ez))
    val = vadd(val, t.mul10(t.l3.eval([w, x, y]), ez))
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
    e1v, e2v, e3v = t.basis0(x1), t.basis0(x2), t.basis0(x3)
    t0_1, t0_2, t0_3 = t.t0.col(x1), t.t0.col(x2), t.t0.col(x3)
    th_23 = t.t2[x2][x3]
    th_13 = t.t2[x1][x3]
    th_21 = t.t2[x2][x1]
    th_12 = t.t2[x1][x2]

    def star(u: Sequence, v: Sequence) -> Vector:
        return vadd(
            vadd(t.mul00(u, t.t0.apply(v)), t.mul00(t.t0.apply(u), v)),
            vscale(lam, t.mul00(u, v)),
        )

    val = vsub(t.mul01(t0_1, th_23), t.t1.apply(t.mul01(e1v, th_23)))
    val = vsub(val, vsub(t.mul01(t0_2, th_13), t.t1.apply(t.mul01(e2v, th_13))))
    val = vadd(val, vsub(t.mul10(th_21, t0_3), t.t1.apply(t.mul10(th_21, e3v))))
    val = vsub(val, vsub(t.mul10(th_12, t0_3), t.t1.apply(t.mul10(th_12, e3v))))
    val = vsub(val, t.t2_apply(e2v, star(e1v, e3v)))
    val = vadd(val, t.t2_apply(e1v, star(e2v, e3v)))
    val = vsub(val, t.t2_apply(vsub(star(e1v, e2v), star(e2v, e1v)), e3v))
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
    comm = t.t0.matmul(t.d_map).sub(t.d_map.matmul(t.t1))
    for a in range(t.dim1):
        yield "i", (a,), comm.col(a)
    for x in range(t.dim0):
        ex = t.basis0(x)
        t0x = t.t0.col(x)
        for y in range(t.dim0):
            ey = t.basis0(y)
            t0y = t.t0.col(y)
            inner = vadd(
                vadd(t.mul00(t0x, ey), t.mul00(ex, t0y)), vscale(lam, t.l2_00[x][y])
            )
            yield "ii", (x, y), vsub(
                vsub(t.t0.apply(inner), t.mul00(t0x, t0y)),
                t.d_map.apply(t.t2[x][y]),
            )
    for a in range(t.dim1):
        ea = t.basis1(a)
        t1a = t.t1.col(a)
        da = t.d_map.col(a)
        for x in range(t.dim0):
            ex = t.basis0(x)
            t0x = t.t0.col(x)
            inner = vadd(
                vadd(t.mul10(t1a, ex), t.mul10(ea, t0x)), vscale(lam, t.l2_10[a][x])
            )
            yield "iii", (a, x), vsub(
                vsub(t.t1.apply(inner), t.mul10(t1a, t0x)), t.t2_apply(da, ex)
            )
            inner = vadd(
                vadd(t.mul01(ex, t1a), t.mul01(t0x, ea)), vscale(lam, t.l2_01[x][a])
            )
            yield "iv", (x, a), vsub(
                vsub(t.t1.apply(inner), t.mul01(t0x, t1a)), t.t2_apply(ex, da)
            )
    for key in itertools.product(range(t.dim0), repeat=3):
        yield "v", key, condition_v_value(t, lam, *key)


def _actions_from_tables(t: TwoAlgebra) -> Bimodule:
    """The mixed products as actions: S[x]α = l₂(e_x, α), P[x]α = l₂(α, e_x)."""
    S = tuple(
        RationalMatrix.from_cols([t.l2_01[x][a] for a in range(t.dim1)], t.dim1)
        for x in range(t.dim0)
    )
    P = tuple(
        RationalMatrix.from_cols([t.l2_10[a][x] for a in range(t.dim1)], t.dim1)
        for x in range(t.dim0)
    )
    return Bimodule(t.dim0, t.dim1, S, P)


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
    yield from named("g1_pre_lie", pre_lie_defects((g1.c,), 0))
    yield from named("g0_pre_lie", pre_lie_defects((g0.algebra.c,), 0))
    yield from named(
        "g0_rota_baxter", rota_baxter_defects((g0.algebra.c,), (g0.operator,), g0.weight, 0)
    )
    bimod = cm.bimodule()
    yield from bimodule_defects(g0.algebra, bimod.bimodule)
    yield from rb_bimodule_defects(g0, bimod)
    d_cols = [d_map.col(a) for a in range(cm.dim1)]
    # d is a product morphism g₁ → g₀
    for a, da in enumerate(d_cols):
        for b, db in enumerate(d_cols):
            yield "d_morphism", (a, b), vsub(
                d_map.apply(g1_product[a][b]), g0.algebra.product(da, db)
            )
    # C1
    for x in range(cm.dim0):
        ex = g0.algebra.basis_vector(x)
        for a, da in enumerate(d_cols):
            yield "c1_left", (x, a), vsub(d_map.apply(cm.S[x].col(a)), g0.algebra.product(ex, da))
            yield "c1_right", (x, a), vsub(d_map.apply(cm.P[x].col(a)), g0.algebra.product(da, ex))
    comm = d_map.matmul(cm.t1).sub(g0.operator.matmul(d_map))
    for a in range(cm.dim1):
        yield "c1_operator", (a,), comm.col(a)
    # C2
    bm = bimod.bimodule
    for a, da in enumerate(d_cols):
        ea = bm.basis_vector(a)
        for b, db in enumerate(d_cols):
            yield "c2_left", (a, b), vsub(bm.left(da, bm.basis_vector(b)), g1_product[a][b])
            yield "c2_right", (a, b), vsub(bm.right(ea, db), g1_product[a][b])


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
    product = tuple(
        tuple(t.mul01(t.d_map.col(a), t.basis1(b)) for b in range(t.dim1))
        for a in range(t.dim1)
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
