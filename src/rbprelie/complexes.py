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
operator block.  The combined matrix is therefore assembled from the other
two complexes and the chain map, as the block matrix [[δₙ, 0], [−Φₙ, −∂ₙ₋₁]]
(in degree 0, where there is no operator block, [[δ₀], [−Φ₀]]).

A :class:`ComplexData`, made once per request for one (algebra, module)
pair, owns everything derived from those matrices: it builds each matrix,
cocycle basis and boundary span the first time it is asked for and keeps
it, and it decides whether a target is a coboundary.  Nothing is kept
between requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .algebras import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    derived_bimodule,
    require_valid,
    star_algebra,
)
from .cochains import Cochain, RBACochain, basis_keys, space_dim
from .linalg import (
    EchelonBasis,
    RationalMatrix,
    Vector,
    column_space,
    echelon_basis,
    is_zero_vector,
    kernel_basis,
    rank,
    same_subspace,
    solve_linear,
    unit_vector,
    vadd,
    vscale,
    vsub,
    zero_vector,
)


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


def pla_differential(a: PreLieAlgebra, m: Bimodule, f: Cochain) -> Cochain:
    """Degree n ↦ n+1 coboundary of the pre-Lie complex."""
    if f.base_dim != a.dim or f.base_dim != m.base_dim or f.mod_dim != m.mod_dim:
        raise ValueError("cochain dimensions do not match the algebra/module")
    n = f.degree
    if n == 0:
        return Cochain.zero(1, a.dim, m.mod_dim)
    out: dict[tuple[int, ...], Vector] = {}
    for key in basis_keys(n + 1, a.dim):
        skew, last = key[:-1], key[-1]
        total = zero_vector(m.mod_dim)
        for pos in range(n):
            sign = Fraction(1) if pos % 2 == 0 else Fraction(-1)
            xi = skew[pos]
            rest = [s for q, s in enumerate(skew) if q != pos]
            # x_i · f(..x̂_i.., x_{n+1})
            t1 = m.left(a.basis_vector(xi), f.eval([*rest, last]))
            # f(..x̂_i.., x_i) · x_{n+1}
            t2 = m.right(f.eval([*rest, xi]), a.basis_vector(last))
            # − f(..x̂_i.., x_i · x_{n+1})
            t3 = f.eval([*rest, a.c[xi][last]])
            total = vadd(total, vscale(sign, vsub(vadd(t1, t2), t3)))
        for p, q in combinations(range(n), 2):
            sign = Fraction(1) if (p + q) % 2 == 0 else Fraction(-1)
            bracket = vsub(a.c[skew[p]][skew[q]], a.c[skew[q]][skew[p]])
            rest = [s for idx, s in enumerate(skew) if idx not in (p, q)]
            total = vadd(total, vscale(sign, f.eval([bracket, *rest, last])))
        if not is_zero_vector(total):
            out[key] = total
    return Cochain(n + 1, a.dim, m.mod_dim, out)


def rbo_differential(
    r: RBPreLieAlgebra, m: RBBimodule, g: Cochain, *, trusted: bool = False
) -> Cochain:
    """Operator-complex coboundary: the pre-Lie coboundary of the star
    algebra with the derived actions as coefficients."""
    if not trusted:
        require_valid(r, m)
    star = star_algebra(r, trusted=True)
    derived = derived_bimodule(r, m, trusted=True)
    return pla_differential(star.algebra, derived.bimodule, g)


def rbo_differential_expanded(r: RBPreLieAlgebra, m: RBBimodule, g: Cochain) -> Cochain:
    """The same coboundary written out term by term in the base structure
    (the original product, actions, T, T_M and λ only).

    Kept as an independent transcription; tests compare it with the
    derived-route computation degree by degree.
    """
    a, t, lam = r.algebra, r.operator, r.weight
    bm, tm = m.bimodule, m.t_m
    n = g.degree
    if n == 0:
        return Cochain.zero(1, a.dim, bm.mod_dim)
    out: dict[tuple[int, ...], Vector] = {}
    for key in basis_keys(n + 1, a.dim):
        skew, last = key[:-1], key[-1]
        e_last = a.basis_vector(last)
        t_last = t.col(last)
        total = zero_vector(bm.mod_dim)
        for pos in range(n):
            sign = Fraction(1) if pos % 2 == 0 else Fraction(-1)
            xi = skew[pos]
            e_i = a.basis_vector(xi)
            t_i = t.col(xi)
            rest = [s for q, s in enumerate(skew) if q != pos]
            g_drop = g.eval([*rest, last])
            # T(x_i)·g(..) − T_M(x_i·g(..))
            term = vsub(bm.left(t_i, g_drop), tm.apply(bm.left(e_i, g_drop)))
            # g(.., x_i)·T(x_{n+1}) − T_M(g(.., x_i)·x_{n+1})
            g_rot = g.eval([*rest, xi])
            term = vadd(term, vsub(bm.right(g_rot, t_last), tm.apply(bm.right(g_rot, e_last))))
            # − g(.., x_i·T(x_{n+1})) − g(.., T(x_i)·x_{n+1}) − λ g(.., x_i·x_{n+1})
            term = vsub(term, g.eval([*rest, a.product(e_i, t_last)]))
            term = vsub(term, g.eval([*rest, a.product(t_i, e_last)]))
            term = vsub(term, vscale(lam, g.eval([*rest, a.c[xi][last]])))
            total = vadd(total, vscale(sign, term))
        for p, q in combinations(range(n), 2):
            sign = Fraction(1) if (p + q) % 2 == 0 else Fraction(-1)
            e_p, e_q = a.basis_vector(skew[p]), a.basis_vector(skew[q])
            t_p, t_q = t.col(skew[p]), t.col(skew[q])
            rest = [s for idx, s in enumerate(skew) if idx not in (p, q)]
            bracket = vsub(a.product(t_p, e_q), a.product(e_q, t_p))
            bracket = vadd(bracket, vsub(a.product(e_p, t_q), a.product(t_q, e_p)))
            bracket = vadd(bracket, vscale(lam, vsub(a.c[skew[p]][skew[q]], a.c[skew[q]][skew[p]])))
            total = vadd(total, vscale(sign, g.eval([bracket, *rest, last])))
        if not is_zero_vector(total):
            out[key] = total
    return Cochain(n + 1, a.dim, bm.mod_dim, out)


def phi(r: RBPreLieAlgebra, m: RBBimodule, f: Cochain) -> Cochain:
    """Degree-preserving chain map into the operator complex.

    Closed form used here: Φ(f) = f∘(T, …, T) minus, for every insertion
    pattern ε ∈ {0,1}ⁿ other than all-ones, λ^{n−1−|ε|}·T_M∘f∘(T^ε); the
    identity in degree 0.  Tests compare it with the two-sum form
    :func:`phi_literal`.
    """
    n = f.degree
    if n == 0:
        return f
    t, lam, tm = r.operator, r.weight, m.t_m
    out: dict[tuple[int, ...], Vector] = {}
    for key in basis_keys(n, f.base_dim):
        args_t = [t.col(i) for i in key]
        total = f.eval(args_t)
        for eps in product((0, 1), repeat=n):
            ones = sum(eps)
            if ones == n:
                continue
            coeff = lam ** (n - 1 - ones) if n - 1 - ones > 0 else Fraction(1)
            if coeff == 0:
                continue
            args = [t.col(i) if e else i for i, e in zip(key, eps)]
            total = vsub(total, vscale(coeff, tm.apply(f.eval(args))))
        if not is_zero_vector(total):
            out[key] = total
    return Cochain(n, f.base_dim, f.mod_dim, out)


def phi_literal(r: RBPreLieAlgebra, m: RBBimodule, f: Cochain) -> Cochain:
    """The chain map as two sums over insertion positions in the skew block,
    one with the last slot untouched and one with the last slot hit by T."""
    n = f.degree
    if n == 0:
        return f
    t, lam, tm = r.operator, r.weight, m.t_m
    out: dict[tuple[int, ...], Vector] = {}
    for key in basis_keys(n, f.base_dim):
        skew, last = key[:-1], key[-1]
        total = f.eval([t.col(i) for i in key])
        for k in range(1, n + 1):
            coeff = lam ** (n - k) if n - k > 0 else Fraction(1)
            if coeff == 0:
                continue
            for positions in combinations(range(n - 1), k - 1):
                chosen = set(positions)
                args = [t.col(s) if p in chosen else s for p, s in enumerate(skew)]
                args.append(last)
                total = vsub(total, vscale(coeff, tm.apply(f.eval(args))))
        for k in range(2, n + 1):
            coeff = lam ** (n - k) if n - k > 0 else Fraction(1)
            if coeff == 0:
                continue
            for positions in combinations(range(n - 1), k - 2):
                chosen = set(positions)
                args = [t.col(s) if p in chosen else s for p, s in enumerate(skew)]
                args.append(t.col(last))
                total = vsub(total, vscale(coeff, tm.apply(f.eval(args))))
        if not is_zero_vector(total):
            out[key] = total
    return Cochain(n, f.base_dim, f.mod_dim, out)


def rba_differential(
    r: RBPreLieAlgebra, m: RBBimodule, c: RBACochain, *, trusted: bool = False
) -> RBACochain:
    """d(f, g) = (δf, −∂g − Φf); in degree 0, d(f) = (δf, −f)."""
    if not trusted:
        require_valid(r, m)
    f = c.pla_part
    if c.degree == 0:
        delta = pla_differential(r.algebra, m.bimodule, f)
        return RBACochain(delta, f.scale(Fraction(-1)))
    delta = pla_differential(r.algebra, m.bimodule, f)
    second = rbo_differential(r, m, c.rbo_part, trusted=True).add(phi(r, m, f))
    return RBACochain(delta, second.scale(Fraction(-1)))


def _basis_cochains(degree: int, base_dim: int, mod_dim: int):
    for key in basis_keys(degree, base_dim):
        for u in range(mod_dim):
            yield Cochain(degree, base_dim, mod_dim, {key: unit_vector(u, mod_dim)})


def differential_matrix(
    kind: ComplexKind, r: RBPreLieAlgebra, m: RBBimodule, degree: int
) -> RationalMatrix:
    """Matrix of the degree-``degree`` coboundary in the canonical bases (the
    combined one composed by a :class:`ComplexData`)."""
    if kind is ComplexKind.RBA:
        return ComplexData(r, m).d(kind, degree)
    if kind is ComplexKind.PLA:
        alg, coeffs = r.algebra, m.bimodule
    else:
        alg = star_algebra(r, trusted=True).algebra
        coeffs = derived_bimodule(r, m, trusted=True).bimodule
    columns = [
        pla_differential(alg, coeffs, f).coords()
        for f in _basis_cochains(degree, r.dim, m.mod_dim)
    ]
    return RationalMatrix.from_cols(columns, space_dim(degree + 1, r.dim, m.mod_dim))


def _combined_matrix(
    delta: RationalMatrix, chain: RationalMatrix, partial: RationalMatrix | None
) -> RationalMatrix:
    """The block matrix [[δₙ, 0], [−Φₙ, −∂ₙ₋₁]] of the combined coboundary in
    degree n, from δₙ, Φₙ and ∂ₙ₋₁; degree 0 (``partial`` None) has no right
    block."""
    if partial is None:
        return RationalMatrix.block([[delta], [chain.scale(-1)]])
    zero = RationalMatrix.zeros(delta.rows, partial.cols)
    return RationalMatrix.block([[delta, zero], [chain.scale(-1), partial.scale(-1)]])


def phi_matrix(r: RBPreLieAlgebra, m: RBBimodule, degree: int) -> RationalMatrix:
    d, md = r.dim, m.mod_dim
    dim = space_dim(degree, d, md)
    if degree == 0:
        return RationalMatrix.identity(md)
    columns = [phi(r, m, f).coords() for f in _basis_cochains(degree, d, md)]
    return RationalMatrix.from_cols(columns, dim)


class ComplexData:
    """The complexes of one (algebra, module) pair: coboundary and Φ
    matrices, cocycle bases, boundary spans and ranks, each built the first
    time it is asked for and then kept.

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
        """dₙ; the combined one is composed from this object's δₙ, Φₙ, ∂ₙ₋₁."""
        PLA, RBO = ComplexKind.PLA, ComplexKind.RBO
        if kind is ComplexKind.RBA:
            return self._once(("d", kind, n), lambda: _combined_matrix(
                self.d(PLA, n), self.phi(n), self.d(RBO, n - 1) if n else None
            ))
        return self._once(("d", kind, n), lambda: differential_matrix(kind, self.r, self.m, n))

    def phi(self, n: int) -> RationalMatrix:
        return self._once(("phi", n), lambda: phi_matrix(self.r, self.m, n))

    def cocycles(self, kind: ComplexKind, n: int) -> list[Vector]:
        """Basis of Zₙ = ker dₙ, as :func:`kernel_basis` gives it."""
        return self._once(("Z", kind, n), lambda: kernel_basis(self.d(kind, n)))

    def boundaries(self, kind: ComplexKind, n: int) -> EchelonBasis:
        """Echelon basis of Bₙ, the column space of dₙ₋₁; zero in degree 0."""
        if n == 0:
            return EchelonBasis(self.dim(kind, 0), (), ())
        return self._once(("B", kind, n), lambda: column_space(self.d(kind, n - 1)))

    def cohomology_dims(self, kind: ComplexKind, max_degree: int) -> list[int]:
        """dim Hⁿ = (cols dₙ − rank dₙ) − rank dₙ₋₁ for n = 0 … N."""
        dims, prev_rank = [], 0
        for n in range(max_degree + 1):
            rk = self._once(("rank", kind, n), lambda: rank(self.d(kind, n)))
            dims.append(self.dim(kind, n) - rk - prev_rank)
            prev_rank = rk
        return dims

    def solve(
        self, kind: ComplexKind, n: int, target: Sequence
    ) -> tuple[Vector | None, tuple[tuple[int, Fraction], ...] | None]:
        """(x, None) with dₙx = target, free variables zero as in
        :func:`solve_linear`; otherwise (None, residue), the residue of the
        target modulo Bₙ₊₁ as its nonzero (coordinate, value) pairs."""
        x = solve_linear(self.d(kind, n), target)
        if x is not None:
            return x, None
        residue = self.boundaries(kind, n + 1).reduce(target)
        return None, tuple((i, v) for i, v in enumerate(residue) if v != 0)


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


def _kernel_plus_boundaries(
    images: list[Vector],
    cocycles: list[Vector],
    boundaries: tuple[Vector, ...],
    target_boundaries: EchelonBasis,
    ambient: int,
) -> EchelonBasis:
    # {z ∈ Z : f(z) ∈ B'} is the kernel of z ↦ f(z) mod B' (``images`` is
    # f(Z)), the residue convention of ``ComplexData.solve``; then add the
    # boundaries of this degree.
    if not cocycles:
        return echelon_basis(boundaries, ambient)
    residues = RationalMatrix.from_cols(
        [target_boundaries.reduce(w) for w in images], target_boundaries.dim_ambient
    )
    members: list[Vector] = []
    for combo in kernel_basis(residues):
        v = zero_vector(ambient)
        for c, z in zip(combo, cocycles):
            if c != 0:
                v = vadd(v, vscale(c, z))
        members.append(v)
    return echelon_basis(members + list(boundaries), ambient)


def les_check(r: RBPreLieAlgebra, m: RBBimodule, max_degree: int) -> LESReport:
    """Exactness of the induced long sequence up to ``max_degree``.

    One walk over the 3(N+1) positions H⁰_RBA → H⁰_PLA → H⁰_RBO → H¹_RBA →
    … → Hᴺ_RBO.  The map out of each position acts on coordinate vectors:
    the projection (f, g) ↦ f keeps the pre-Lie block, the chain map is
    f ↦ Φₙf, and the connecting map is g ↦ (0, −g); no matrix is built for
    the first and the last.  At each step the map is checked to be well
    defined on representatives (cocycles to cocycles, boundaries into
    boundaries), and the image of the incoming map (boundaries only at
    H⁰_RBA) is compared with the kernel of the outgoing one inside the
    cocycle space.  Matrices, cocycle bases and boundary spans come from one
    :class:`ComplexData`; of degree N+1, where the walk ends with the
    connecting map out of Hᴺ_RBO, it reads only the combined matrix (built
    from δ_{N+1}, Φ_{N+1} and ∂_N) and the boundaries in it.
    """
    PLA, RBO, RBA = ComplexKind.PLA, ComplexKind.RBO, ComplexKind.RBA
    data = ComplexData(r, m)

    def outgoing(kind: ComplexKind, n: int, v: Vector) -> Vector:
        if kind is RBA:
            return v[: data.dim(PLA, n)]
        if kind is PLA:
            return data.phi(n).apply(v)
        return zero_vector(data.dim(PLA, n + 1)) + vscale(Fraction(-1), v)

    # the map out of each kind of position: its name, and the complex and
    # degree shift of the position it lands in
    steps = {RBA: ("projection", PLA, 0), PLA: ("chain map", RBO, 0), RBO: ("connecting", RBA, 1)}
    positions, map_checks = [], []
    incoming: list[Vector] = []
    for n in range(max_degree + 1):
        for kind in (RBA, PLA, RBO):
            name, target_kind, shift = steps[kind]
            here, target = (kind, n), (target_kind, n + shift)
            cocycles, boundaries = data.cocycles(*here), data.boundaries(*here).vectors
            target_boundaries = data.boundaries(*target)
            images = [outgoing(kind, n, z) for z in cocycles]
            well_defined = all(
                is_zero_vector(data.d(*target).apply(w)) for w in images
            ) and all(target_boundaries.contains(outgoing(kind, n, b)) for b in boundaries)
            map_checks.append((f"{name} deg {n}", well_defined))

            ambient = data.dim(*here)
            image = echelon_basis(incoming + list(boundaries), ambient)
            kernel = _kernel_plus_boundaries(images, cocycles, boundaries, target_boundaries, ambient)
            exact = same_subspace(image, kernel)
            positions.append(PositionReport(f"H{n}_{kind.name}", image.dim, kernel.dim, exact))
            incoming = images

    ok = all(p.exact for p in positions) and all(okk for _, okk in map_checks)
    return LESReport(ok, tuple(positions), tuple(map_checks))
