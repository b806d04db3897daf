"""Abelian extensions and their classification by degree-2 cohomology.

An extension is stored by its total structure constants with a marked
trailing block: the basis is the base part followed by the module part, the
inclusion and projection are the block maps.  The base structure is the
quotient, recomputed from the total; nothing is cached.

A cocycle pair (ψ, χ) consists of a bilinear ψ: g⊗g → M and a linear
χ: g → M; building the extension puts ψ into the mixed products and χ into
the mixed operator block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .algebras import (
    Bimodule,
    InvalidStructureError,
    PreLieAlgebra,
    ProductTable,
    RBBimodule,
    RBPreLieAlgebra,
    Verdict,
    Violation,
    check_morphism,
    check_pre_lie,
    check_rb_operator,
    named,
    pre_lie_defects,
    require_valid,
    rota_baxter_defects,
    verdict,
)
from .cochains import (
    Cochain,
    RBACochain,
    cochain_from_bilinear,
    cochain_from_matrix,
    matrix_from_cochain,
)
from .complexes import ComplexData, ComplexKind, rba_differential
from .linalg import RationalMatrix, Vector, is_zero_vector, vsub, zero_vector


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

    @staticmethod
    def zero(base_dim: int, mod_dim: int) -> "CocyclePair":
        table = tuple(
            tuple(zero_vector(mod_dim) for _ in range(base_dim)) for _ in range(base_dim)
        )
        return CocyclePair(table, RationalMatrix.zeros(mod_dim, base_dim))

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
    d, md = r.dim, m.mod_dim
    total_dim = d + md
    bm = m.bimodule

    def pad(g_part: Vector, m_part: Vector) -> Vector:
        return tuple(g_part) + tuple(m_part)

    table = []
    for i in range(total_dim):
        row = []
        for j in range(total_dim):
            if i < d and j < d:
                row.append(pad(r.algebra.c[i][j], c.psi[i][j]))
            elif i < d:
                row.append(pad(zero_vector(d), bm.S[i].col(j - d)))
            elif j < d:
                row.append(pad(zero_vector(d), bm.P[j].col(i - d)))
            else:
                row.append(zero_vector(total_dim))
        table.append(tuple(row))
    # the total operator [[T, 0], [χ, T_M]]
    operator = RationalMatrix.block([[r.operator, RationalMatrix.zeros(d, md)], [c.chi, m.t_m]])
    total = RBPreLieAlgebra(PreLieAlgebra(total_dim, tuple(table)), r.weight, operator)
    ext = ExtensionData(total, d, md)

    pl = check_pre_lie(total.algebra)
    rb = check_rb_operator(total)
    defect = rba_differential(r, m, c.as_cochain(), trusted=True)
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
    """The base structure induced on the first block by the projection."""
    p = e.projection()
    d = e.base_dim
    table = tuple(
        tuple(p.apply(e.total.algebra.c[i][j]) for j in range(d)) for i in range(d)
    )
    op = RationalMatrix.from_cols([p.apply(e.total.operator.col(j)) for j in range(d)], d)
    return RBPreLieAlgebra(PreLieAlgebra(d, table), e.total.weight, op)


def extract_cocycle(e: ExtensionData, s: RationalMatrix) -> ExtractResult:
    """Cocycle pair and induced module actions read off a section s."""
    _check_section(e, s)
    d, md = e.base_dim, e.mod_dim
    base = quotient_structure(e)
    total_alg = e.total.algebra
    incl = e.inclusion()

    def m_part(v: Vector) -> Vector:
        if not is_zero_vector(v[:d]):
            raise InvalidStructureError("value escapes the module block; not an ideal")
        return v[d:]

    s_cols = [s.col(j) for j in range(d)]
    S_mats = []
    P_mats = []
    for i in range(d):
        s_i = s_cols[i]
        S_mats.append(
            RationalMatrix.from_cols(
                [m_part(total_alg.product(s_i, incl.col(u))) for u in range(md)], md
            )
        )
        P_mats.append(
            RationalMatrix.from_cols(
                [m_part(total_alg.product(incl.col(u), s_i)) for u in range(md)], md
            )
        )
    t_m_cols = [m_part(e.total.operator.apply(incl.col(u))) for u in range(md)]
    bimod = RBBimodule(
        Bimodule(d, md, tuple(S_mats), tuple(P_mats)),
        RationalMatrix.from_cols(t_m_cols, md),
    )

    psi_rows = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = total_alg.product(s_cols[i], s_cols[j])
            lifted = s.apply(base.algebra.c[i][j])
            row.append(m_part(vsub(prod, lifted)))
        psi_rows.append(tuple(row))
    chi_cols = []
    for j in range(d):
        chi_cols.append(
            m_part(vsub(e.total.operator.apply(s_cols[j]), s.apply(base.operator.col(j))))
        )
    pair = CocyclePair(tuple(psi_rows), RationalMatrix.from_cols(chi_cols, md))
    defect = rba_differential(base, bimod, pair.as_cochain(), trusted=True)
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
    r1 = extract_cocycle(e, s1)
    r2 = extract_cocycle(e, s2)
    d, md = e.base_dim, e.mod_dim
    diff = s1.sub(s2)
    if not e.projection().matmul(diff).is_zero():
        raise ValueError("sections do not differ by a module-valued map")
    gamma = RationalMatrix(md, d, diff.entries[d:])
    same_actions = r1.bimodule == r2.bimodule
    # the combined coboundary of (γ, 0) is (δγ, −Φγ)
    expected = rba_differential(
        r1.base, r1.bimodule, RBACochain(cochain_from_matrix(gamma), Cochain.zero(0, d, md)),
        trusted=True,
    )
    matches = r1.pair.sub(r2.pair).as_cochain().sub(expected).is_zero()
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
    for c in (c1, c2):
        if not rba_differential(r, m, c.as_cochain(), trusted=True).is_zero():
            raise InvalidStructureError("input pair is not a degree-2 cocycle")
    diff = c1.sub(c2).as_cochain()
    # the degree-1 combined coboundary maps (γ, u) to (δγ, −Φγ − ∂u), and
    # ∂ = 0 in degree 0; the solve sets the free u to zero and returns (γ, 0)
    sol, _ = ComplexData(r, m).solve(ComplexKind.RBA, 1, diff.coords())
    if sol is None:
        return IsoResult(False, None, None, False, False)
    gamma = matrix_from_cochain(RBACochain.from_coords(1, d, md, sol).pla_part)
    zeta = RationalMatrix.block(
        [
            [RationalMatrix.identity(d), RationalMatrix.zeros(d, md)],
            [gamma.scale(-1), RationalMatrix.identity(md)],
        ]
    )
    ext1 = build_extension(r, m, c1, trusted=True).extension
    ext2 = build_extension(r, m, c2, trusted=True).extension
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
            named("pre_lie", pre_lie_defects((c,), 0)),
            named("rota_baxter", rota_baxter_defects((c,), (total.operator,), total.weight, 0)),
        )
    )
