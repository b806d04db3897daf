"""The three cochain complexes and the maps between them.

Complexes (all with coefficients in a module of dimension m over an algebra
of dimension d):

  * the pre-Lie complex of (algebra, bimodule);
  * the operator complex: the pre-Lie complex of the star algebra with the
    derived actions as coefficients;
  * the combined complex: degree n is (pre-Lie degree n) ⊕ (operator degree
    n−1), with differential d(f, g) = (δf, −∂g − Φf).

Degree-0 convention: the degree-0 coboundaries of the first two complexes
are taken to be the zero maps (and the degree-preserving map Φ is the
identity in degree 0).  Zero is the unique degree-0 choice for which the
square-zero law holds over every algebra: for the commutator candidate
u ↦ (x ↦ x·u − u·x) the composite with the degree-1 coboundary equals
(x, y) ↦ x·(y·u) − (x·y)·u, which is nonzero whenever left multiplications
fail to compose associatively.

Matrix coordinates follow the cochain basis order of :mod:`.cochains`; a
combined-complex coordinate vector is the pre-Lie block followed by the
operator block.  The combined matrix is therefore composed from the other
two complexes and the chain map, by :meth:`ComplexData.d` alone, as the block
matrix [[δₙ, 0], [−Φₙ, −∂ₙ₋₁]] (in degree 0, where there is no operator
block, [[δ₀], [−Φ₀]]).

Assembly evaluates no cochain.  Each matrix is a sum of terms (output key,
input key, block), a block being an m × m matrix placed at the coordinates
of those two keys, and every term is read off the structure constants c,
the action matrices S, P and the operators T, T_M, λ.  For δₙ (n ≥ 1) and an
output key (x₁ < … < xₙ ; y), with s = (−1)^p and "rest" the skew block
without x_p:

  * each position p adds s·S[x_p] to block (rest, y), s·P[y] to block
    (rest, x_p) and −s·c[x_p][y][k]·I to block (rest, k);
  * each pair p < q, with b = c[x_p][x_q] − c[x_q][x_p], adds
    (−1)^{p+q}·σ·b[k]·I to block (sort(k, rest), y), σ the sign of the
    sort; the term is skipped when k repeats in the block.

The operator matrix ∂ₙ is the same rule run on the star algebra with the
derived actions.  Φₙ (n ≥ 1) is f∘T^{⊗n} − Σ_{ε≠1} λ^{n−1−|ε|}·T_M∘f∘T^ε,
T^ε having T at the slots where ε ∈ {0,1}ⁿ is 1 and the identity elsewhere.
Grouping the ε ≠ 1 by the slot p of their first 0, every later slot is T
(ε = 1) or λ·id (ε = 0, one more power of λ), and those choices sum to
T + λ·id; so at every λ, 0 included, the ε-sum is
Σ_p T^{⊗p} ⊗ id ⊗ (T + λ·id)^{⊗(n−1−p)}.  Each key therefore takes n + 1
slot patterns: all T, with coefficient 1 and block I, and for each p the
columns of T before p, the identity at p and the columns of T + λ·id after
it, with coefficient −1 and block T_M.  A pattern expands each slot into
the nonzeros w of its column, the skew block of each argument tuple is
sorted with sign σ, and the term is σ·(coefficient)·Πw times the block.
In degree 0, δ₀ and ∂₀ come out zero from the same rule and Φ₀ = I.

A :class:`ComplexData`, made once per request for one (algebra, module)
pair, owns everything derived from those matrices: it builds each matrix
and elimination the first time it is asked for and keeps it, applies dₙ
to a cochain (:meth:`ComplexData.coboundary`), and decides whether a
target is a coboundary.  Nothing is kept between requests.  Each
dₙ is eliminated once, by one forward-only :class:`~.linalg.Elimination`
(:meth:`ComplexData.elimination`), and everything else is read off it: the
rank, the kernel basis Zₙ (the reduced echelon form of ker dₙ, pivots at its
free columns) and, for each target, the solution of dₙx = target zero at
those columns or its residue modulo Bₙ₊₁ = im dₙ, each fixed by dₙ and not
by the elimination's order.  :func:`les_check`, which reads only ranks and
zero tests, takes Zₙ and Bₙ₊₁ up to scalars from the same object and walks
on ``int`` vectors.  The cochain maps :func:`rbo_differential` and
:func:`rba_differential` are the validity gate plus one ``coboundary`` of a
fresh :class:`ComplexData`; :func:`pla_differential`, of a pre-Lie algebra
and a bimodule with no operators, applies δₙ, and :func:`phi` applies Φₙ.
No map, ``ComplexData.coboundary`` included, builds a matrix for the zero
cochain, whose image is zero.  The top coherences of a
two-term structure in ``twoalg`` are read off these two maps and
``ComplexData.coboundary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from .algebras import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    derived_bimodule,
    require_valid,
    star_algebra,
)
from .cochains import Cochain, Key, RBACochain, basis_keys, normalize_skew, space_dim
from .linalg import Elimination, IntegerEchelon, RationalMatrix, SparseRow, Vector, int_apply


class ComplexKind(Enum):
    PLA = "pla"
    RBO = "rbo"
    RBA = "rba"


def complex_space_dim(kind: ComplexKind, degree: int, base_dim: int, mod_dim: int) -> int:
    if kind is ComplexKind.RBA:
        if degree == 0:
            return mod_dim
        return space_dim(degree, base_dim, mod_dim) + space_dim(degree - 1, base_dim, mod_dim)
    return space_dim(degree, base_dim, mod_dim)


# (output key, input key, coefficient, block): coefficient times the block,
# or times the identity when the block is None
Term = tuple[Key, Key, Fraction, "RationalMatrix | None"]


def _coboundary_terms(a: PreLieAlgebra, m: Bimodule, n: int) -> Iterator[Term]:
    """The terms of the pre-Lie coboundary out of degree n (rules in the
    module docstring)."""
    c, S, P = a.c, m.S, m.P
    for key in basis_keys(n + 1, a.dim):
        skew, y = key[:-1], key[-1]
        for p, x in enumerate(skew):
            s = 1 if p % 2 == 0 else -1
            rest = skew[:p] + skew[p + 1 :]
            yield key, (*rest, y), s, S[x]
            yield key, (*rest, x), s, P[y]
            for k, ck in enumerate(c[x][y]):
                if ck:
                    yield key, (*rest, k), -s * ck, None
        for p, q in combinations(range(n), 2):
            s = 1 if (p + q) % 2 == 0 else -1
            rest = skew[:p] + skew[p + 1 : q] + skew[q + 1 :]
            for k, (u, v) in enumerate(zip(c[skew[p]][skew[q]], c[skew[q]][skew[p]])):
                norm = normalize_skew((k, *rest)) if u != v else None
                if norm is not None:
                    yield key, (*norm[0], y), s * norm[1] * (u - v), None


def _phi_terms(r: RBPreLieAlgebra, m: RBBimodule, n: int) -> Iterator[Term]:
    """The terms of Φ in degree n ≥ 1 (rules in the module docstring)."""
    t_cols = r.operator.transpose().sparse_rows  # the nonzeros of each column of T
    shifted = r.operator.add(RationalMatrix.identity(r.dim).scale(r.weight))
    s_cols = shifted.transpose().sparse_rows  # and of T + λ·id
    for key in basis_keys(n, r.dim):
        patterns = [(Fraction(1), None, [t_cols[x] for x in key])]
        for p, x in enumerate(key):
            slots = [*(t_cols[y] for y in key[:p]), ((x, 1),), *(s_cols[y] for y in key[p + 1 :])]
            patterns.append((Fraction(-1), m.t_m, slots))
        for coeff, block, slots in patterns:
            for args in product(*slots):
                norm = normalize_skew([i for i, _ in args[:-1]])
                if norm is None:
                    continue
                w = coeff * norm[1]
                for _, x in args:
                    w *= x
                yield key, (*norm[0], args[-1][0]), w, block


def _assemble(
    terms: Iterator[Term], out_degree: int, in_degree: int, d: int, md: int
) -> RationalMatrix:
    """The sum of the terms, as the matrix from degree ``in_degree`` to
    ``out_degree`` cochains; each term adds to the md × md block of its two
    keys.  Each row is summed in a dict of its nonzeros, which become the
    matrix's sparse rows."""
    row_of = {key: i * md for i, key in enumerate(basis_keys(out_degree, d))}
    col_of = {key: j * md for j, key in enumerate(basis_keys(in_degree, d))}
    rows: list[dict[int, Fraction]] = [{} for _ in range(space_dim(out_degree, d, md))]
    for out_key, in_key, coeff, block in terms:
        r0, c0 = row_of[out_key], col_of[in_key]
        if block is None:
            for u in range(md):
                row, j = rows[r0 + u], c0 + u
                x = row.get(j)
                row[j] = coeff if x is None else x + coeff
            continue
        for u, block_row in enumerate(block.sparse_rows):
            row = rows[r0 + u]
            for v, x in block_row:
                j = c0 + v
                y = row.get(j)
                row[j] = coeff * x if y is None else y + coeff * x
    return RationalMatrix.from_sparse(
        [tuple(sorted((j, x) for j, x in row.items() if x)) for row in rows],
        space_dim(in_degree, d, md),
    )


def _coboundary_matrix(a: PreLieAlgebra, m: Bimodule, n: int) -> RationalMatrix:
    return _assemble(_coboundary_terms(a, m, n), n + 1, n, a.dim, m.mod_dim)


def pla_differential(a: PreLieAlgebra, m: Bimodule, f: Cochain) -> Cochain:
    """Degree n ↦ n+1 coboundary of the pre-Lie complex; no matrix is built
    for the zero cochain, whose image is zero."""
    if f.base_dim != a.dim or f.base_dim != m.base_dim or f.mod_dim != m.mod_dim:
        raise ValueError("cochain dimensions do not match the algebra/module")
    if f.is_zero():
        return Cochain.zero(f.degree + 1, a.dim, m.mod_dim)
    image = _coboundary_matrix(a, m, f.degree).apply(f.coords())
    return Cochain.from_coords(f.degree + 1, a.dim, m.mod_dim, image)


def rbo_differential(r: RBPreLieAlgebra, m: RBBimodule, g: Cochain) -> Cochain:
    """Operator-complex coboundary: the pre-Lie coboundary of the star
    algebra with the derived actions as coefficients."""
    require_valid(r, m)
    return ComplexData(r, m).coboundary(ComplexKind.RBO, g)


def phi(r: RBPreLieAlgebra, m: RBBimodule, f: Cochain) -> Cochain:
    """Degree-preserving chain map into the operator complex: Φ(f) =
    f∘(T, …, T) minus, for each slot p, T_M∘f with T in the slots before p,
    the identity at p and T + λ·id after it (the sum over insertion
    patterns ε ≠ 1 of λ^{n−1−|ε|}·T_M∘f∘T^ε); the identity in degree 0.  No
    matrix is built for the zero cochain, whose image is zero."""
    if (f.base_dim, f.mod_dim) != (r.dim, m.mod_dim):
        raise ValueError("cochain dimensions do not match the algebra/module")
    if f.is_zero():
        return Cochain.zero(f.degree, r.dim, m.mod_dim)
    image = phi_matrix(r, m, f.degree).apply(f.coords())
    return Cochain.from_coords(f.degree, r.dim, m.mod_dim, image)


def rba_differential(
    r: RBPreLieAlgebra, m: RBBimodule, c: RBACochain, *, trusted: bool = False
) -> RBACochain:
    """d(f, g) = (δf, −∂g − Φf); in degree 0, d(f) = (δf, −f)."""
    if not trusted:
        require_valid(r, m)
    return ComplexData(r, m).coboundary(ComplexKind.RBA, c)


def differential_matrix(
    kind: ComplexKind, r: RBPreLieAlgebra, m: RBBimodule, degree: int
) -> RationalMatrix:
    """Matrix of the degree-``degree`` coboundary in the canonical bases (the
    combined one composed by a :class:`ComplexData`)."""
    if kind is ComplexKind.RBA:
        return ComplexData(r, m).d(kind, degree)
    if kind is ComplexKind.PLA:
        return _coboundary_matrix(r.algebra, m.bimodule, degree)
    star = star_algebra(r, trusted=True).algebra
    return _coboundary_matrix(star, derived_bimodule(r, m, trusted=True).bimodule, degree)


def phi_matrix(r: RBPreLieAlgebra, m: RBBimodule, degree: int) -> RationalMatrix:
    """Matrix of Φ in degree ``degree``."""
    if degree == 0:
        return RationalMatrix.identity(m.mod_dim)
    return _assemble(_phi_terms(r, m, degree), degree, degree, r.dim, m.mod_dim)


class ComplexData:
    """The complexes of one (algebra, module) pair: coboundary and Φ
    matrices and the elimination of each dₙ, each built the first time it
    is asked for and then kept.

    Make one per request and drop it with the request; it takes no options.
    """

    def __init__(self, r: RBPreLieAlgebra, m: RBBimodule) -> None:
        self.r, self.m = r, m
        self._kept: dict[tuple, object] = {}

    def _once(self, key: tuple, build):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def dim(self, kind: ComplexKind, n: int) -> int:
        return complex_space_dim(kind, n, self.r.dim, self.m.mod_dim)

    def d(self, kind: ComplexKind, n: int) -> RationalMatrix:
        """dₙ; the combined one is the block matrix [[δₙ, 0], [−Φₙ, −∂ₙ₋₁]] of
        this object's δₙ, Φₙ and ∂ₙ₋₁, or [[δ₀], [−Φ₀]] in degree 0."""
        if kind is not ComplexKind.RBA:
            return self._once(("d", kind, n), lambda: differential_matrix(kind, self.r, self.m, n))

        def compose() -> RationalMatrix:
            delta, chain = self.d(ComplexKind.PLA, n), self.phi(n)
            if n == 0:
                return RationalMatrix.block([[delta], [-chain]])
            partial = self.d(ComplexKind.RBO, n - 1)
            zero = RationalMatrix.zeros(delta.rows, partial.cols)
            return RationalMatrix.block([[delta, zero], [-chain, -partial]])

        return self._once(("d", kind, n), compose)

    def coboundary(self, kind: ComplexKind, c: Cochain | RBACochain) -> Cochain | RBACochain:
        """dₙc for a degree-n cochain c of the complex ``kind``, as a cochain
        of the same kind: an :class:`RBACochain` for the combined complex, a
        :class:`Cochain` for the other two.  No matrix is built for the zero
        cochain, whose image is zero."""
        if (c.base_dim, c.mod_dim) != (self.r.dim, self.m.mod_dim):
            raise ValueError("cochain dimensions do not match the algebra/module")
        cls = RBACochain if kind is ComplexKind.RBA else Cochain
        if c.is_zero():
            image = [0] * self.dim(kind, c.degree + 1)
        else:
            image = self.d(kind, c.degree).apply(c.coords())
        return cls.from_coords(c.degree + 1, self.r.dim, self.m.mod_dim, image)

    def phi(self, n: int) -> RationalMatrix:
        return self._once(("phi", n), lambda: phi_matrix(self.r, self.m, n))

    def elimination(self, kind: ComplexKind, n: int) -> Elimination:
        """The one :class:`~.linalg.Elimination` of dₙ, from which every rank,
        cocycle basis, residue and solve of dₙ is read."""
        return self._once(("elimination", kind, n), lambda: Elimination(self.d(kind, n)))

    def cohomology_dims(self, kind: ComplexKind, max_degree: int) -> list[int]:
        """dim Hⁿ = (cols dₙ − rank dₙ) − rank dₙ₋₁ for n = 0 … N."""
        dims, prev_rank = [], 0
        for n in range(max_degree + 1):
            rk = len(self.elimination(kind, n).image.pivots)
            dims.append(self.dim(kind, n) - rk - prev_rank)
            prev_rank = rk
        return dims

    def solve(
        self, kind: ComplexKind, n: int, target: Sequence
    ) -> tuple[Vector | None, SparseRow | None]:
        """(x, None) with dₙx = target, free variables zero as in
        :func:`~.linalg.solve_linear`; otherwise (None, residue), the residue
        of the target modulo Bₙ₊₁ = im dₙ as its nonzero (coordinate, value)
        pairs.  Both are read off the one elimination of dₙ, so each right-hand
        side costs one reduction."""
        return self.elimination(kind, n).solve(target)


def cohomology_dims(
    kind: ComplexKind, r: RBPreLieAlgebra, m: RBBimodule, max_degree: int
) -> list[int]:
    """Cohomology dimensions H⁰ … H^N, by rank and nullity of the matrices."""
    return ComplexData(r, m).cohomology_dims(kind, max_degree)


@dataclass(frozen=True)
class PositionReport:
    position: str
    image_dim: int
    kernel_dim: int
    exact: bool


@dataclass(frozen=True)
class LESReport:
    ok: bool
    positions: tuple[PositionReport, ...]
    map_checks: tuple[tuple[str, bool], ...]

    def __bool__(self) -> bool:
        return self.ok


def les_check(r: RBPreLieAlgebra, m: RBBimodule, max_degree: int) -> LESReport:
    """Exactness of the induced long sequence up to ``max_degree``.

    One walk over the 3(N+1) positions H⁰_RBA → H⁰_PLA → H⁰_RBO → H¹_RBA →
    … → Hᴺ_RBO.  The map g out of each position acts on coordinate vectors:
    the projection (f, g) ↦ f, the chain map f ↦ Φₙf and the connecting map
    g ↦ (0, −g), with no matrix built for the first and the last.  Each g is
    checked to be well defined (cocycles to cocycles, boundaries into
    boundaries).  Every count is a rank of residues modulo the boundaries B′
    where g lands: ρ(V) has the columns B′.reduce(g(v)), v ∈ V.  With Z and
    B the cocycle basis and boundary span of the position, F the images of
    the incoming map f (none at H⁰_RBA), r_g = rank ρ(Z), r_B = rank ρ(B) and
    r_f the previous position's r_g:

      * ``image_dim`` = dim B + r_f = dim(im f + B);
      * ``kernel_dim`` = |Z| − r_g + r_B = dim(ker g + B) when B ⊆ Z;
      * ``exact``: B ⊆ Z (dₙb = 0 on the basis of B), F ⊆ Z (the previous
        check), equal dimensions and rank [ρ(B) | ρ(F)] = r_B, so that
        im f + B ⊆ ker g + B and the two are equal.

    B ⊆ Z is d∘d = 0; where it fails (T not a Rota-Baxter operator) the
    position is not exact.

    A rank or a zero test does not see a nonzero scalar on a vector, so the
    walk runs on sparse ``int`` vectors, each a multiple of the rational one.
    Z and B come from the one :class:`~.linalg.Elimination` of dₙ and of dₙ₋₁
    that :meth:`ComplexData.elimination` keeps, and B′.reduce is that
    elimination's residue; Φₙ and the closure and d∘d tests are
    :func:`~.linalg.int_apply` on the matrices' integer columns, and each
    rank is the size of an :class:`~.linalg.IntegerEchelon` of residues.
    Everything comes from one :class:`ComplexData`; of degree N+1 only the
    combined matrix and the elimination of dᴺ are read.
    """
    PLA, RBO, RBA = ComplexKind.PLA, ComplexKind.RBO, ComplexKind.RBA
    data = ComplexData(r, m)

    def outgoing(kind: ComplexKind, n: int, v: dict[int, int]) -> dict[int, int]:
        if kind is RBA:
            size = data.dim(PLA, n)
            return {j: x for j, x in v.items() if j < size}
        if kind is PLA:
            return int_apply(data.phi(n).integer_columns[1], v)
        offset = data.dim(PLA, n + 1)
        return {offset + j: -x for j, x in v.items()}

    def boundary_echelon(kind: ComplexKind, n: int) -> IntegerEchelon:
        return data.elimination(kind, n - 1).image if n else IntegerEchelon()

    # the map out of each kind of position: its name, and the complex and
    # degree shift of the position it lands in
    steps = {RBA: ("projection", PLA, 0), PLA: ("chain map", RBO, 0), RBO: ("connecting", RBA, 1)}

    positions, map_checks = [], []
    incoming: list[dict[int, int]] = []
    incoming_rank, incoming_closed = 0, True
    for n in range(max_degree + 1):
        for kind in (RBA, PLA, RBO):
            name, target_kind, shift = steps[kind]
            here, target = (kind, n), (target_kind, n + shift)
            cocycles, boundary_rows = data.elimination(*here).kernel, boundary_echelon(*here).rows
            reduce = boundary_echelon(*target).reduce
            images = [outgoing(kind, n, z) for z in cocycles]
            on_boundaries = IntegerEchelon()
            for b in boundary_rows:
                on_boundaries.add(reduce(outgoing(kind, n, b)))
            boundary_rank = len(on_boundaries.pivots)
            _, d_target = data.d(*target).integer_columns
            closed = not any(int_apply(d_target, w) for w in images)
            map_checks.append((f"{name} deg {n}", closed and not boundary_rank))

            on_cocycles = IntegerEchelon()
            for w in images:
                on_cocycles.add(reduce(dict(w)))
            image_rank = len(on_cocycles.pivots)
            image_dim = len(boundary_rows) + incoming_rank
            kernel_dim = len(cocycles) - image_rank + boundary_rank
            _, d_here = data.d(*here).integer_columns
            exact = (
                incoming_closed
                and not any(int_apply(d_here, b) for b in boundary_rows)
                and image_dim == kernel_dim
                and not any(on_boundaries.add(reduce(outgoing(kind, n, f))) for f in incoming)
            )
            positions.append(PositionReport(f"H{n}_{kind.name}", image_dim, kernel_dim, exact))
            incoming, incoming_rank, incoming_closed = images, image_rank, closed

    ok = all(p.exact for p in positions) and all(okk for _, okk in map_checks)
    return LESReport(ok, tuple(positions), tuple(map_checks))
