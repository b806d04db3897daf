"""Two-term structures: graded algebras with an operator triple, and the
skeletal/strict correspondences.

A two-term structure holds spaces g₀, g₁, a connecting map d: g₁ → g₀, the
binary products on the allowed degree pairs, a trilinear map l₃ skew in its
first two slots (stored as a degree-3 cochain over g₀ with values in g₁),
and the operator triple (T₀, T₁, T₂) with T₂ bilinear on g₀.

Skeletal means d = 0; strict means l₃ = 0 and T₂ = 0.  Skeletal structures
correspond to degree-3 cocycles of the combined complex of (g₀, T₀) with
coefficients in g₁; strict structures correspond to crossed modules.  The
two top coherences are the two parts of d₃(l₃, T₂), read off the complexes
that ``complexes`` assembles on the levels: f is δ₃l₃ (``pla_differential``),
the pre-Lie part, and v is ∂₂T₂ + Φ₃l₃ (``ComplexData.coboundary`` and
``phi``), minus the operator part.  So for a skeletal structure f = v = 0
says exactly that (l₃, T₂) is a degree-3 cocycle.

The other coherence conditions contain the laws of the levels.  e1 is the
pre-Lie identity of l₂₀₀, e2 and e3 the bimodule laws of the level-mixing
actions, and ii, iii and iv one weighted Rota-Baxter law: of l₂₀₀ with T₀
on both slots and the values, of l₂(α, x) with (T₁, T₀) on the slots and of
l₂(x, α) with (T₀, T₁), both with T₁ on the values; each is corrected by an
l₃ or T₂ term through d.  None of these laws is written here: each is an
integer core of ``algebras`` (``pre_lie_core``, ``bimodule_core``,
``rota_baxter_core``) run on the structure's tables, plus its correction
term; the crossed module's dα·dβ is ``linalg.int_pullback``.

Conditions a to e3 and i to iv and the crossed-module conditions run on
integers: a structure is read once (``TwoAlgebra.integers``), every table
and matrix in the integer form of ``linalg``, nested ``int`` lists over the
lcm D of all their denominators; each condition contracts the tables
directly with ``int_sum`` (x·dα is Σₖ (dα)ₖ·(x·eₖ)) over one denominator
shared by all its terms, and each nonzero returned entry is one
``Fraction``.  This is exact arithmetic in another order, so every defect
equals the one ``Fraction`` arithmetic gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .algebras import (
    Bimodule,
    Defects,
    InvalidStructureError,
    PreLieAlgebra,
    ProductTable,
    RBBimodule,
    RBPreLieAlgebra,
    Verdict,
    action_tables,
    bimodule_core,
    bimodule_defects,
    bimodule_from_tables,
    named,
    pre_lie_core,
    rb_bimodule_defects,
    rota_baxter_core,
    transport_table,
    verdict,
    zero_table,
)
from .cochains import Cochain, RBACochain, bilinear_from_cochain, cochain_from_bilinear
from .complexes import ComplexData, ComplexKind, phi, pla_differential
from .linalg import (
    RationalMatrix,
    Vector,
    fractions_over,
    int_columns,
    int_matmul,
    int_matrix_sum,
    int_matvec,
    int_pullback,
    int_sum,
    int_transpose,
    integer_form,
    is_zero_vector,
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

    @cached_property
    def integers(self) -> _Integers:
        """The tables and matrices over one common denominator, read once."""
        return _Integers(self)

    @cached_property
    def levels(self) -> tuple[PreLieAlgebra, Bimodule]:
        """Level 0 as a pre-Lie algebra and level 1 as its bimodule, built
        once and checking neither."""
        return PreLieAlgebra(self.dim0, self.l2_00), bimodule_from_tables(self.l2_01, self.l2_10)

    def is_skeletal(self) -> bool:
        return self.d_map.is_zero()

    def is_strict(self) -> bool:
        return self.l3.is_zero() and all(
            is_zero_vector(v) for row in self.t2 for v in row
        )


class _Integers:
    """A two-term structure read once for conditions a to e3 and i to iv:
    every table and matrix times the lcm D of all their denominators, as
    nested ``int`` lists (matrices as dense rows, and the columns of d), l₃
    as l3[x][y][z] = l₃(e_x, e_y, e_z), and the action matrices that
    ``bimodule_core`` reads, S[x]α = l₂(e_x, α) and P[x]α = l₂(α, e_x).  The
    conditions contract these tables with ``int_sum``."""

    def __init__(self, t: TwoAlgebra) -> None:
        d1, span = t.dim1, range(t.dim0)
        l3 = [[[t.l3.eval_basis((x, y), z) for z in span] for y in span] for x in span]
        tensors = (t.l2_00, t.l2_01, t.l2_10, t.t2, *l3, t.d_map, t.t0, t.t1)
        self.den, ints = integer_form(tensors)
        self.l00, self.l01, self.l10, self.t2, *self.l3, self.d, self.t0, self.t1 = ints
        self.d_cols = int_transpose(self.d, d1)
        self.S = [int_transpose(row, d1) for row in self.l01]
        self.P = [int_transpose([row[x] for row in self.l10], d1) for x in span]


def check_prelie_2alg(t: TwoAlgebra) -> Verdict:
    """The seven coherence conditions of a two-term pre-Lie structure."""
    return verdict(_prelie_2alg_defects(t))


def _prelie_2alg_defects(t: TwoAlgebra) -> Defects:
    """Conditions a to f.  e1 is the pre-Lie identity of l₂₀₀ and e2, e3 are
    the bimodule laws of the level-mixing actions, each corrected by l₃
    through d.  Every term of e2 and e3 is an integer over D³, of a to e1
    over D².  f is δ₃l₃ in the pre-Lie complex of level 0 with coefficients
    in level 1, which reads no operator and no weight."""
    n = t.integers
    span0, den = range(t.dim0), n.den * n.den
    d, d_cols, l00, l01, l10, l3 = n.d, n.d_cols, n.l00, n.l01, n.l10, n.l3
    for x, by_right in enumerate(int_transpose(l00, t.dim0)):  # by_right[k] = eₖ·eₓ
        for a, da in enumerate(d_cols):
            terms = int_matvec(d, l01[x][a]), int_sum(da, l00[x], t.dim0)
            yield "a", (x, a), fractions_over(int_sum((1, -1), terms, t.dim0), den)
            terms = int_matvec(d, l10[a][x]), int_sum(da, by_right, t.dim0)
            yield "b", (a, x), fractions_over(int_sum((1, -1), terms, t.dim0), den)
    acting = int_transpose(l01, t.dim1)  # acting[b][x] = l₂(eₓ, β)
    for a, da in enumerate(d_cols):
        for b, db in enumerate(d_cols):
            terms = int_sum(da, acting[b], t.dim1), int_sum(db, l10[a], t.dim1)
            yield "c", (a, b), fractions_over(int_sum((1, -1), terms, t.dim1), den)
    pre_lie = pre_lie_core([l00], 0)  # over D²
    actions = bimodule_core(l00, n.S, n.P, n.den, n.den)  # over D³
    for x in span0:
        for y in span0:
            for z in span0:
                # d l₃(x, y, z) + pre_lie(x, y, z)
                e1 = [u + v for u, v in zip(int_matvec(d, l3[x][y][z]), pre_lie[x, y, z])]
                yield "e1", (x, y, z), fractions_over(e1, den)
            first = [l3[z][x][y] for z in span0]
            for a, da in enumerate(d_cols):
                left, mixed = actions[x, y, a]
                # l₃(x, y, dα) − left_action(x, y, α)
                e2 = [n.den * u - v for u, v in zip(int_sum(da, l3[x][y], t.dim1), left)]
                # l₃(dα, x, y) + mixed_action(x, y, α)
                e3 = [n.den * u + v for u, v in zip(int_sum(da, first, t.dim1), mixed)]
                yield "e2", (x, y, a), fractions_over(e2, n.den * den)
                yield "e3", (a, x, y), fractions_over(e3, n.den * den)
    delta = pla_differential(*t.levels, t.l3)  # δ₃l₃
    for w, x, y, z in product(span0, repeat=4):
        yield "f", (w, x, y, z), delta.eval_basis((w, x, y), z)


def check_rb_2alg(t: TwoAlgebra, weight) -> Verdict:
    """The operator conditions on a two-term structure."""
    return verdict(_rb_2alg_defects(t, Fraction(weight)))


def _rb_2alg_defects(t: TwoAlgebra, lam: Fraction) -> Defects:
    """Conditions i to v.  ii is the Rota-Baxter law of T₀ and iii, iv are the
    Rota-Baxter bimodule laws of T₁ for the level-mixing actions, each
    corrected by T₂ through d.  With λ = p/q, every term of i is an integer
    over D² and of ii, iii and iv over q·D³.  v is ∂₂T₂ + Φ₃l₃ on the levels
    (:func:`_levels`), minus the operator part of d₃(l₃, T₂)."""
    n = t.integers
    p, q, den = lam.numerator, lam.denominator, n.den
    span0 = range(t.dim0)
    d, t0, t1, d_cols = n.d, n.t0, n.t1, n.d_cols
    comm = int_matrix_sum(
        (1, -1), (int_matmul(t0, d, t.dim1), int_matmul(d, t1, t.dim1)), t.dim0, t.dim1
    )
    for a, column in enumerate(int_transpose(comm, t.dim1)):
        yield "i", (a,), fractions_over(column, den * den)
    # the Rota-Baxter laws of l₂₀₀ and of the level-mixing products, over q·D³
    rota_baxter = rota_baxter_core([n.l00], [t0], [t0], [t0], p, q, den, 0)
    rb_right = rota_baxter_core([n.l10], [t1], [t0], [t1], p, q, den, 0)
    rb_left = rota_baxter_core([n.l01], [t0], [t1], [t1], p, q, den, 0)
    scale = q * den
    for x in span0:
        for y in span0:
            # −rota_baxter(x, y) − d T₂(x, y)
            terms = zip(rota_baxter[x, y], int_matvec(d, n.t2[x][y]))
            yield "ii", (x, y), fractions_over([-u - scale * v for u, v in terms], q * den**3)
    t2_right = int_transpose(n.t2, t.dim0)  # t2_right[x][k] = T₂(eₖ, eₓ)
    for a, da in enumerate(d_cols):
        for x in span0:
            # −rb_right(α, x) − T₂(dα, x)
            terms = zip(rb_right[a, x], int_sum(da, t2_right[x], t.dim1))
            yield "iii", (a, x), fractions_over([-u - scale * v for u, v in terms], q * den**3)
            # −rb_left(x, α) − T₂(x, dα)
            terms = zip(rb_left[x, a], int_sum(da, n.t2[x], t.dim1))
            yield "iv", (x, a), fractions_over([-u - scale * v for u, v in terms], q * den**3)
    r, m = _levels(t, lam)
    theta = cochain_from_bilinear(t.t2, t.dim1)
    v = ComplexData(r, m).coboundary(ComplexKind.RBO, theta).add(phi(r, m, t.l3))
    for x, y, z in product(span0, repeat=3):
        yield "v", (x, y, z), v.eval_basis((x, y), z)


def _levels(t: TwoAlgebra, lam: Fraction) -> tuple[RBPreLieAlgebra, RBBimodule]:
    """:attr:`TwoAlgebra.levels` with T₀ and weight λ on level 0 and T₁ on
    level 1, checking neither."""
    algebra, bimodule = t.levels
    return RBPreLieAlgebra(algebra, lam, t.t0), RBBimodule(bimodule, t.t1)


def _require_two_term(t: TwoAlgebra, lam: Fraction) -> None:
    """The gate of the two-term correspondences: both families of coherence
    conditions hold, or :class:`InvalidStructureError`."""
    if not (check_prelie_2alg(t).ok and check_rb_2alg(t, lam).ok):
        raise InvalidStructureError("structure fails the two-term checks")


def skeletal_to_cocycle(t: TwoAlgebra, weight) -> tuple[RBPreLieAlgebra, RBBimodule, RBACochain]:
    """Unpack a skeletal structure into (base algebra, module, degree-3 pair)."""
    lam = Fraction(weight)
    if not t.is_skeletal():
        raise InvalidStructureError("structure is not skeletal (connecting map nonzero)")
    _require_two_term(t, lam)
    r, m = _levels(t, lam)
    return r, m, RBACochain(t.l3, cochain_from_bilinear(t.t2, t.dim1))


def cocycle_to_skeletal(r: RBPreLieAlgebra, m: RBBimodule, c: RBACochain) -> TwoAlgebra:
    """Assemble the skeletal structure carried by a degree-3 cocycle."""
    if c.degree != 3 or c.base_dim != r.dim or c.mod_dim != m.mod_dim:
        raise ValueError("expected a degree-3 pair matching (algebra, module)")
    defect = ComplexData(r, m).coboundary(ComplexKind.RBA, c)
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
    l2_01, l2_10 = action_tables(m.bimodule)
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
    """The level laws, then the conditions tying the levels together: with
    every table and matrix over one denominator D, every term of d_morphism
    is an integer over D³ and of the others over D²."""
    g0, g1_product, d_map = cm.g0, cm.g1_product, cm.d_map
    g1 = PreLieAlgebra(cm.dim1, g1_product)  # checks the table's shape
    yield from named("g1_pre_lie", g1.pre_lie_law)
    yield from named("g0_pre_lie", g0.algebra.pre_lie_law)
    yield from named("g0_rota_baxter", g0.rota_baxter_law)
    bimod = cm.bimodule()
    yield from bimodule_defects(g0.algebra, bimod.bimodule)
    yield from rb_bimodule_defects(g0, bimod)
    d0, d1 = cm.dim0, cm.dim1
    tensors = (g0.algebra.c, g1_product, d_map, g0.operator, cm.t1, *cm.S, *cm.P)
    den, (c, g1c, d, t0, t1, *actions) = integer_form(tensors)
    S, P = actions[:d0], actions[d0:]
    d_cols = int_transpose(d, d1)  # dα for each basis vector α of g₁
    minus_d = [[-u for u in da] for da in d_cols]
    by_right = int_transpose(c, d0)  # by_right[x][k] = eₖ·eₓ
    # d is a product morphism g₁ → g₀: dα·dβ is c pulled back through d ⊗ d
    d_nonzeros = int_columns(d, d1)
    products = int_pullback([(1, c, d_nonzeros, d_nonzeros)], d0)
    for a, b in product(range(d1), repeat=2):
        yield "d_morphism", (a, b), fractions_over(
            [den * u - v for u, v in zip(int_matvec(d, g1c[a][b]), products[a][b])], den**3
        )
    # C1: d(x·α) − x·dα = Σₖ (x·α)ₖ·dβₖ − Σₖ (dα)ₖ·eₓ·eₖ, and likewise on the right
    for x in range(d0):
        s_cols, p_cols = int_transpose(S[x], d1), int_transpose(P[x], d1)
        for a in range(d1):
            left = int_sum(s_cols[a] + minus_d[a], d_cols + c[x], d0)
            right = int_sum(p_cols[a] + minus_d[a], d_cols + by_right[x], d0)
            yield "c1_left", (x, a), fractions_over(left, den * den)
            yield "c1_right", (x, a), fractions_over(right, den * den)
    comm = int_matrix_sum((1, -1), (int_matmul(d, t1, d1), int_matmul(t0, d, d1)), d0, d1)
    for a, column in enumerate(int_transpose(comm, d1)):
        yield "c1_operator", (a,), fractions_over(column, den * den)
    # C2: dα·β = αβ = α·dβ, with dα·β = Σₓ (dα)ₓ·S[x]β and α·dβ = Σₓ (dβ)ₓ·P[x]α
    s_by_b, p_by_a = (
        int_transpose([int_transpose(m, d1) for m in acts], d1) for acts in (S, P)
    )
    for a, da in enumerate(d_cols):
        for b, db in enumerate(d_cols):
            left = int_sum(da + [-den], s_by_b[b] + [g1c[a][b]], d1)
            right = int_sum(db + [-den], p_by_a[a] + [g1c[a][b]], d1)
            yield "c2_left", (a, b), fractions_over(left, den * den)
            yield "c2_right", (a, b), fractions_over(right, den * den)


def strict_to_crossed(t: TwoAlgebra, weight) -> CrossedModule:
    """Collapse a strict structure to a crossed module; the level-1 product
    is the connecting map fed through a mixed action, αβ = l₂(dα, β), and
    the actions are the mixed products, S[x]α = l₂(e_x, α) and
    P[x]α = l₂(α, e_x)."""
    lam = Fraction(weight)
    if not t.is_strict():
        raise InvalidStructureError("structure is not strict (l3 or T2 nonzero)")
    _require_two_term(t, lam)
    g0, m = _levels(t, lam)
    ident = RationalMatrix.identity(t.dim1)
    product = transport_table(t.l2_01, t.d_map, ident, ident)
    return CrossedModule(g0, product, t.d_map, m.bimodule.S, m.bimodule.P, t.t1)


def crossed_to_strict(cm: CrossedModule, *, trusted: bool = False) -> TwoAlgebra:
    """View a crossed module as a strict two-term structure."""
    if not trusted and not check_crossed_module(cm).ok:
        raise InvalidStructureError("input fails the crossed module checks")
    d0, d1 = cm.dim0, cm.dim1
    l2_01, l2_10 = action_tables(cm.bimodule().bimodule)
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
