"""Abelian extensions and their classification by degree-2 cohomology.

An extension is stored by its total structure constants with a marked
trailing block: the basis is the base part followed by the module part, the
inclusion and projection are the block maps.  The base structure is the
quotient, the g⊗g → g block of the product and the g → g block of the
operator; nothing is cached.

A cocycle pair (ψ, χ) consists of a bilinear ψ: g⊗g → M and a linear
χ: g → M; building the extension puts ψ into the mixed products and χ into
the mixed operator block.  Reading a pair off a section s undoes that: it
changes the basis of the total structure to Q = [s | ι] and splits the
result into the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .algebras import (
    InvalidStructureError,
    PreLieAlgebra,
    ProductTable,
    RBBimodule,
    RBPreLieAlgebra,
    Verdict,
    Violation,
    action_tables,
    bimodule_from_tables,
    check_morphism,
    check_pre_lie,
    check_rb_operator,
    named,
    require_valid,
    transport_table,
    verdict,
)
from .cochains import (
    Cochain,
    RBACochain,
    cochain_from_bilinear,
    cochain_from_matrix,
    matrix_from_cochain,
)
from .complexes import ComplexData, ComplexKind
from .linalg import RationalMatrix, Vector, vsub, zero_vector


@dataclass(frozen=True)
class CocyclePair:
    psi: ProductTable  # psi[i][j] ∈ M, value on (e_i, e_j)
    chi: RationalMatrix  # m×d, column j = value on e_j

    def __post_init__(self) -> None:
        d = len(self.psi)
        if any(len(row) != d for row in self.psi):
            raise ValueError("psi table must be square")
        if self.chi.cols != d:
            raise ValueError("chi must have one column per algebra basis vector")
        for row in self.psi:
            for v in row:
                if len(v) != self.chi.rows:
                    raise ValueError("psi values must live in the module")

    @property
    def base_dim(self) -> int:
        return len(self.psi)

    @property
    def mod_dim(self) -> int:
        return self.chi.rows

    def as_cochain(self) -> RBACochain:
        return RBACochain(
            cochain_from_bilinear(self.psi, self.mod_dim), cochain_from_matrix(self.chi)
        )

    def sub(self, other: "CocyclePair") -> "CocyclePair":
        table = tuple(
            tuple(vsub(self.psi[i][j], other.psi[i][j]) for j in range(self.base_dim))
            for i in range(self.base_dim)
        )
        return CocyclePair(table, self.chi.sub(other.chi))


@dataclass(frozen=True)
class ExtensionData:
    total: RBPreLieAlgebra
    base_dim: int
    mod_dim: int

    def __post_init__(self) -> None:
        if self.total.dim != self.base_dim + self.mod_dim:
            raise ValueError("total dimension must split as base + module")

    def inclusion(self) -> RationalMatrix:
        """ι: M → g⊕M, the (d+m)×m block map [[0], [I]]."""
        d, md = self.base_dim, self.mod_dim
        return RationalMatrix.block([[RationalMatrix.zeros(d, md)], [RationalMatrix.identity(md)]])

    def projection(self) -> RationalMatrix:
        """p: g⊕M → g, the d×(d+m) block map [I, 0]."""
        d, md = self.base_dim, self.mod_dim
        return RationalMatrix.block([[RationalMatrix.identity(d), RationalMatrix.zeros(d, md)]])


def canonical_section(e: ExtensionData) -> RationalMatrix:
    """The section a ↦ (a, 0), the (d+m)×d block map [[I], [0]].

    A section is any (d+m)×d matrix s with p∘s = Id.
    """
    d, md = e.base_dim, e.mod_dim
    return RationalMatrix.block([[RationalMatrix.identity(d)], [RationalMatrix.zeros(md, d)]])


def _check_section(e: ExtensionData, s: RationalMatrix) -> None:
    if (s.rows, s.cols) != (e.total.dim, e.base_dim):
        raise ValueError("section matrix has wrong shape")
    if e.projection().matmul(s) != RationalMatrix.identity(e.base_dim):
        raise InvalidStructureError("not a section: p∘s is not the identity")


@dataclass(frozen=True)
class BuildResult:
    extension: ExtensionData
    axioms_ok: bool
    cocycle_ok: bool
    axiom_violations: tuple[Violation, ...]
    cocycle_defect: RBACochain

    @property
    def ok(self) -> bool:
        return self.axioms_ok


def _total_space(r: RBPreLieAlgebra, m: RBBimodule, c: CocyclePair) -> ExtensionData:
    """g⊕M with the product twisted by ψ and the operator [[T, 0], [χ, T_M]]:
    the table's blocks are [[c + ψ, S], [P, 0]], each value padded into g⊕M."""
    d, md = r.dim, m.mod_dim
    left, right = action_tables(m.bimodule)
    pad, zero = zero_vector(d), zero_vector(d + md)
    table = tuple(
        tuple((*u, *v) for u, v in zip(c_row, psi_row)) + tuple((*pad, *v) for v in acts)
        for c_row, psi_row, acts in zip(r.algebra.c, c.psi, left)
    ) + tuple(tuple((*pad, *v) for v in acts) + (zero,) * md for acts in right)
    operator = RationalMatrix.block([[r.operator, RationalMatrix.zeros(d, md)], [c.chi, m.t_m]])
    total = RBPreLieAlgebra(PreLieAlgebra(d + md, table), r.weight, operator)
    return ExtensionData(total, d, md)


def build_extension(
    r: RBPreLieAlgebra, m: RBBimodule, c: CocyclePair, *, trusted: bool = False
) -> BuildResult:
    """Total space g⊕M with the twisted product and operator.

    The validity verdict is computed twice: by checking the axioms on the
    total space and by the degree-2 cocycle test; the two must agree
    whenever (r, m) is valid.
    """
    if m.base_dim != r.dim:
        raise ValueError("module base dimension does not match the algebra")
    if (c.base_dim, c.mod_dim) != (r.dim, m.mod_dim):
        raise ValueError("cocycle pair dimensions do not match (algebra, module)")
    if not trusted:
        require_valid(r, m)
    ext = _total_space(r, m, c)
    pl = check_pre_lie(ext.total.algebra)
    rb = check_rb_operator(ext.total)
    defect = ComplexData(r, m).coboundary(ComplexKind.RBA, c.as_cochain())
    return BuildResult(
        ext,
        pl.ok and rb.ok,
        defect.is_zero(),
        pl.violations + rb.violations,
        defect,
    )


@dataclass(frozen=True)
class ExtractResult:
    pair: CocyclePair
    bimodule: RBBimodule
    base: RBPreLieAlgebra
    cocycle_ok: bool


def quotient_structure(e: ExtensionData) -> RBPreLieAlgebra:
    """The base structure induced on the first block by the projection: the
    top-left blocks of the total product and operator."""
    d = e.base_dim
    table = tuple(tuple(tuple(v[:d]) for v in row[:d]) for row in e.total.algebra.c[:d])
    op = RationalMatrix.from_rows([row[:d] for row in e.total.operator.entries[:d]], d)
    return RBPreLieAlgebra(PreLieAlgebra(d, table), e.total.weight, op)


def _read_off(
    e: ExtensionData, s: RationalMatrix
) -> tuple[CocyclePair, RBBimodule, RBPreLieAlgebra]:
    """The pair, the induced module and the base structure read off a section
    s = [I; σ]: the total structure in the basis Q = [s | ι], whose inverse is
    [[I, 0], [−σ, I]], split into the blocks that :func:`_total_space` lays
    out.  The g part of a block must be the base's, on the g⊗g block and the
    base operator columns, and zero elsewhere."""
    _check_section(e, s)
    d, md = e.base_dim, e.mod_dim
    base = quotient_structure(e)
    sigma = RationalMatrix.from_sparse(s.sparse_rows[d:], d)
    q = RationalMatrix.block([[s, e.inclusion()]])
    q_inv = RationalMatrix.block(
        [
            [RationalMatrix.identity(d), RationalMatrix.zeros(d, md)],
            [-sigma, RationalMatrix.identity(md)],
        ]
    )
    table = transport_table(e.total.algebra.c, q, q, q_inv)
    operator = q_inv.matmul(e.total.operator).matmul(q)

    def m_part(v: Vector, g_part: Vector = zero_vector(d)) -> Vector:
        if v[:d] != g_part:
            raise InvalidStructureError("value escapes the module block; not an ideal")
        return v[d:]

    psi = tuple(
        tuple(m_part(v, g_part) for v, g_part in zip(row[:d], base_row))
        for row, base_row in zip(table, base.algebra.c)
    )
    chi = [m_part(operator.col(j), base.operator.col(j)) for j in range(d)]
    left = [[m_part(v) for v in row[d:]] for row in table[:d]]
    right = [[m_part(v) for v in row[:d]] for row in table[d:]]
    t_m = [m_part(operator.col(d + u)) for u in range(md)]
    bimod = RBBimodule(bimodule_from_tables(left, right), RationalMatrix.from_cols(t_m, md))
    return CocyclePair(psi, RationalMatrix.from_cols(chi, md)), bimod, base


def extract_cocycle(e: ExtensionData, s: RationalMatrix) -> ExtractResult:
    """Cocycle pair and induced module actions read off a section s, and
    whether the pair is a degree-2 cocycle."""
    pair, bimod, base = _read_off(e, s)
    defect = ComplexData(base, bimod).coboundary(ComplexKind.RBA, pair.as_cochain())
    return ExtractResult(pair, bimod, base, defect.is_zero())


@dataclass(frozen=True)
class SectionComparison:
    ok: bool
    gamma: RationalMatrix  # m×d, the difference s1 − s2 valued in the module
    difference_is_coboundary: bool
    same_actions: bool


def sections_same_class(
    e: ExtensionData, s1: RationalMatrix, s2: RationalMatrix
) -> SectionComparison:
    """Two sections differ by γ: the extracted pairs differ by (δγ, −Φγ)
    and the induced module actions coincide."""
    pair1, bimod1, base = _read_off(e, s1)
    pair2, bimod2, _ = _read_off(e, s2)
    d, md = e.base_dim, e.mod_dim
    # p∘s1 = p∘s2 = I (``_read_off``), so s1 − s2 is γ below its zero base rows
    gamma = RationalMatrix.from_sparse(s1.sub(s2).sparse_rows[d:], d)
    same_actions = bimod1 == bimod2
    # the combined coboundary of (γ, 0) is (δγ, −Φγ)
    expected = ComplexData(base, bimod1).coboundary(
        ComplexKind.RBA, RBACochain(cochain_from_matrix(gamma), Cochain.zero(0, d, md))
    )
    matches = pair1.sub(pair2).as_cochain().sub(expected).is_zero()
    return SectionComparison(matches and same_actions, gamma, matches, same_actions)


@dataclass(frozen=True)
class IsoResult:
    cohomologous: bool
    gamma: RationalMatrix | None
    zeta: RationalMatrix | None  # isomorphism ext(c2) → ext(c1)
    morphism_ok: bool
    diagram_ok: bool


def iso_from_coboundary(
    r: RBPreLieAlgebra, m: RBBimodule, c1: CocyclePair, c2: CocyclePair
) -> IsoResult:
    """Solve c1 − c2 = (δγ, −Φγ); on success return ζ(a, u) = (a, u − γ(a)).

    ζ is an isomorphism of the two built extensions over the identity on
    both the base and the module.
    """
    d, md = r.dim, m.mod_dim
    data = ComplexData(r, m)
    for c in (c1, c2):
        if not data.coboundary(ComplexKind.RBA, c.as_cochain()).is_zero():
            raise InvalidStructureError("input pair is not a degree-2 cocycle")
    diff = c1.sub(c2).as_cochain()
    # the degree-1 combined coboundary maps (γ, u) to (δγ, −Φγ − ∂u), and
    # ∂ = 0 in degree 0; the solve sets the free u to zero and returns (γ, 0)
    sol, _ = data.solve(ComplexKind.RBA, 1, diff.coords())
    if sol is None:
        return IsoResult(False, None, None, False, False)
    gamma = matrix_from_cochain(RBACochain.from_coords(1, d, md, sol).pla_part)
    zeta = RationalMatrix.block(
        [
            [RationalMatrix.identity(d), RationalMatrix.zeros(d, md)],
            [-gamma, RationalMatrix.identity(md)],
        ]
    )
    ext1, ext2 = _total_space(r, m, c1), _total_space(r, m, c2)
    morphism_ok = check_morphism(ext2.total, ext1.total, zeta).ok
    diagram_ok = (
        zeta.matmul(ext2.inclusion()) == ext1.inclusion()
        and ext1.projection().matmul(zeta) == ext2.projection()
    )
    return IsoResult(True, gamma, zeta, morphism_ok, diagram_ok)


def check_extension(e: ExtensionData) -> Verdict:
    """Block exactness, ideal and zero-product conditions, operator squares,
    and the Rota-Baxter pre-Lie axioms on the total space."""
    d, md = e.base_dim, e.mod_dim
    total, c, n = e.total, e.total.algebra.c, e.total.dim
    pad = zero_vector(md)  # base-block defects are shown in total coordinates
    return verdict(
        chain(
            (
                ("module_product_zero", (i, j), c[i][j])
                for i in range(d, n)
                for j in range(d, n)
            ),
            (
                ("module_ideal", (i, j), c[i][j][:d] + pad)
                for i in range(n)
                for j in range(n)
                if i >= d or j >= d
            ),
            (("operator_square", (j,), total.operator.col(j)[:d] + pad) for j in range(d, n)),
            named("pre_lie", total.algebra.pre_lie_law),
            named("rota_baxter", total.rota_baxter_law),
        )
    )
