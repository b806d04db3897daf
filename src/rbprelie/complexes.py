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
(in degree 0, where there is no operator block, [[δ₀], [−Φ₀]]).  Nothing
is cached: a caller that needs a matrix twice keeps it, as :func:`les_check`
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product

from .algebras import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    derived_bimodule,
    star_algebra,
)
from .cochains import Cochain, RBACochain, basis_keys, space_dim
from .linalg import (
    EchelonBasis,
    RationalMatrix,
    Vector,
    echelon_basis,
    is_zero_vector,
    kernel_basis,
    rank,
    same_subspace,
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
    r: RBPreLieAlgebra,
    m: RBBimodule,
    g: Cochain,
    *,
    trusted: bool = False,
    check: bool = False,
) -> Cochain:
    """Operator-complex coboundary: the pre-Lie coboundary of the star
    algebra with the derived actions as coefficients.

    With ``check=True`` the fully expanded form (written with the original
    product, actions, T, T_M and λ only) is computed as well and compared.
    """
    star = star_algebra(r, trusted=trusted)
    derived = derived_bimodule(r, m, trusted=trusted)
    result = pla_differential(star.algebra, derived.bimodule, g)
    if check:
        expanded = rbo_differential_expanded(r, m, g)
        if not result.sub(expanded).is_zero():
            raise AssertionError("derived-route and expanded operator coboundaries disagree")
    return result


def rbo_differential_expanded(r: RBPreLieAlgebra, m: RBBimodule, g: Cochain) -> Cochain:
    """The same coboundary written out term by term in the base structure.

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


def phi(r: RBPreLieAlgebra, m: RBBimodule, f: Cochain, *, check: bool = False) -> Cochain:
    """Degree-preserving chain map into the operator complex.

    Closed form used here: Φ(f) = f∘(T, …, T) minus, for every insertion
    pattern ε ∈ {0,1}ⁿ other than all-ones, λ^{n−1−|ε|}·T_M∘f∘(T^ε); the
    identity in degree 0.  ``check=True`` also evaluates the two-sum form
    (:func:`phi_literal`) and compares.
    """
    result = _phi_epsilon(r, m, f)
    if check and f.degree >= 1:
        other = phi_literal(r, m, f)
        if not result.sub(other).is_zero():
            raise AssertionError("the two forms of the chain map disagree")
    return result


def _phi_epsilon(r: RBPreLieAlgebra, m: RBBimodule, f: Cochain) -> Cochain:
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
    f = c.pla_part
    if c.degree == 0:
        delta = pla_differential(r.algebra, m.bimodule, f)
        return RBACochain(delta, f.scale(Fraction(-1)))
    delta = pla_differential(r.algebra, m.bimodule, f)
    second = rbo_differential(r, m, c.rbo_part, trusted=trusted).add(phi(r, m, f))
    return RBACochain(delta, second.scale(Fraction(-1)))


def _basis_cochains(degree: int, base_dim: int, mod_dim: int):
    for key in basis_keys(degree, base_dim):
        for u in range(mod_dim):
            unit = tuple(Fraction(1) if i == u else Fraction(0) for i in range(mod_dim))
            yield Cochain(degree, base_dim, mod_dim, {key: unit})


def differential_matrix(
    kind: ComplexKind, r: RBPreLieAlgebra, m: RBBimodule, degree: int
) -> RationalMatrix:
    """Matrix of the degree-``degree`` coboundary in the canonical bases."""
    if kind is ComplexKind.RBA:
        return _combined_matrix(
            differential_matrix(ComplexKind.PLA, r, m, degree),
            phi_matrix(r, m, degree),
            differential_matrix(ComplexKind.RBO, r, m, degree - 1) if degree else None,
        )
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
    minus_chain = chain.scale(-1).entries
    if partial is None:
        return RationalMatrix(delta.rows + chain.rows, delta.cols, delta.entries + minus_chain)
    pad = (Fraction(0),) * partial.cols
    top = tuple(row + pad for row in delta.entries)
    bottom = tuple(
        a + b for a, b in zip(minus_chain, partial.scale(-1).entries, strict=True)
    )
    return RationalMatrix(delta.rows + chain.rows, delta.cols + partial.cols, top + bottom)


def phi_matrix(r: RBPreLieAlgebra, m: RBBimodule, degree: int) -> RationalMatrix:
    d, md = r.dim, m.mod_dim
    dim = space_dim(degree, d, md)
    if degree == 0:
        return RationalMatrix.identity(md)
    columns = [phi(r, m, f).coords() for f in _basis_cochains(degree, d, md)]
    return RationalMatrix.from_cols(columns, dim)


def cohomology_dims(
    kind: ComplexKind, r: RBPreLieAlgebra, m: RBBimodule, max_degree: int
) -> list[int]:
    """Cohomology dimensions H⁰ … H^N, by rank and nullity of the matrices."""
    dims = []
    prev_rank = 0
    for n in range(max_degree + 1):
        dn = differential_matrix(kind, r, m, n)
        rk = rank(dn)
        dims.append((dn.cols - rk) - prev_rank)
        prev_rank = rk
    return dims


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


def _projection_matrix(degree: int, d: int, md: int) -> RationalMatrix:
    rows = space_dim(degree, d, md)
    cols = complex_space_dim(ComplexKind.RBA, degree, d, md)
    data = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(cols)) for i in range(rows)
    )
    return RationalMatrix(rows, cols, data)


def _inclusion_matrix(degree: int, d: int, md: int) -> RationalMatrix:
    # C^n_RBO → C^{n+1}_RBA, g ↦ (0, −g)
    cols = space_dim(degree, d, md)
    top = space_dim(degree + 1, d, md)
    data = [(Fraction(0),) * cols for _ in range(top)]
    for i in range(cols):
        data.append(tuple(Fraction(-1) if j == i else Fraction(0) for j in range(cols)))
    return RationalMatrix(top + cols, cols, tuple(data))


def _induced_map_well_defined(
    L: RationalMatrix,
    d_source: RationalMatrix,
    d_source_prev: RationalMatrix | None,
    d_target: RationalMatrix,
    d_target_prev: RationalMatrix | None,
) -> bool:
    for z in kernel_basis(d_source):
        if not is_zero_vector(d_target.apply(L.apply(z))):
            return False
    if d_source_prev is not None:
        target_image = (
            echelon_basis([], L.rows)
            if d_target_prev is None
            else echelon_basis(
                [d_target_prev.col(j) for j in range(d_target_prev.cols)], L.rows
            )
        )
        for j in range(d_source_prev.cols):
            if not target_image.contains(L.apply(d_source_prev.col(j))):
                return False
    return True


def _image_plus_boundaries(
    L: RationalMatrix, z_source: list[Vector], boundaries: list[Vector], ambient: int
) -> EchelonBasis:
    vectors = [L.apply(z) for z in z_source] + boundaries
    return echelon_basis(vectors, ambient)


def _kernel_plus_boundaries(
    M: RationalMatrix,
    z_here: list[Vector],
    boundaries_here: list[Vector],
    boundaries_next: list[Vector],
    ambient: int,
) -> EchelonBasis:
    # {z ∈ Z : M z ∈ B'} solved by stacking [M·Z | −B'] and projecting to the
    # Z-coefficients, then adding the boundaries of this degree.
    if not z_here:
        return echelon_basis(boundaries_here, ambient)
    mz_cols = [M.apply(z) for z in z_here]
    stacked = RationalMatrix.from_cols(
        mz_cols + [vscale(Fraction(-1), b) for b in boundaries_next], M.rows
    )
    members: list[Vector] = []
    for combo in kernel_basis(stacked):
        coeffs = combo[: len(z_here)]
        v = zero_vector(ambient)
        for c, z in zip(coeffs, z_here):
            if c != 0:
                v = vadd(v, vscale(c, z))
        members.append(v)
    return echelon_basis(members + boundaries_here, ambient)


def les_check(r: RBPreLieAlgebra, m: RBBimodule, max_degree: int) -> LESReport:
    """Exactness of the induced long sequence up to ``max_degree``.

    The three induced maps are: projection (f, g) ↦ f on the combined
    complex, the chain map f ↦ Φ(f), and the connecting map g ↦ (0, −g).
    Each is checked to be well defined on representatives; at every
    position the image of the incoming map is compared with the kernel of
    the outgoing one inside the cocycle space.
    """
    d, md = r.dim, m.mod_dim
    degrees = range(max_degree + 2)
    D = {
        (kind, n): differential_matrix(kind, r, m, n)
        for kind in (ComplexKind.PLA, ComplexKind.RBO)
        for n in degrees
    }
    phim = {n: phi_matrix(r, m, n) for n in degrees}
    for n in degrees:
        D[(ComplexKind.RBA, n)] = _combined_matrix(
            D[(ComplexKind.PLA, n)], phim[n], D[(ComplexKind.RBO, n - 1)] if n else None
        )
    Z = {key: kernel_basis(mat) for key, mat in D.items()}
    B: dict[tuple[ComplexKind, int], list[Vector]] = {}
    for kind in ComplexKind:
        B[(kind, 0)] = []
        for n in degrees[1:]:
            prev = D[(kind, n - 1)]
            B[(kind, n)] = [prev.col(j) for j in range(prev.cols)]

    proj = {n: _projection_matrix(n, d, md) for n in degrees}
    incl = {n: _inclusion_matrix(n, d, md) for n in range(max_degree + 1)}

    map_checks = []
    for n in range(max_degree + 1):
        map_checks.append(
            (
                f"projection deg {n}",
                _induced_map_well_defined(
                    proj[n],
                    D[(ComplexKind.RBA, n)],
                    D[(ComplexKind.RBA, n - 1)] if n else None,
                    D[(ComplexKind.PLA, n)],
                    D[(ComplexKind.PLA, n - 1)] if n else None,
                ),
            )
        )
        map_checks.append(
            (
                f"chain map deg {n}",
                _induced_map_well_defined(
                    phim[n],
                    D[(ComplexKind.PLA, n)],
                    D[(ComplexKind.PLA, n - 1)] if n else None,
                    D[(ComplexKind.RBO, n)],
                    D[(ComplexKind.RBO, n - 1)] if n else None,
                ),
            )
        )
        map_checks.append(
            (
                f"connecting deg {n}",
                _induced_map_well_defined(
                    incl[n],
                    D[(ComplexKind.RBO, n)],
                    D[(ComplexKind.RBO, n - 1)] if n else None,
                    D[(ComplexKind.RBA, n + 1)],
                    D[(ComplexKind.RBA, n)],
                ),
            )
        )

    positions = []
    for n in range(max_degree + 1):
        # position H^n of the combined complex: incoming connecting (from
        # operator degree n−1, or zero), outgoing projection
        ambient = complex_space_dim(ComplexKind.RBA, n, d, md)
        if n == 0:
            image = echelon_basis(B[(ComplexKind.RBA, 0)], ambient)
        else:
            image = _image_plus_boundaries(
                incl[n - 1], Z[(ComplexKind.RBO, n - 1)], B[(ComplexKind.RBA, n)], ambient
            )
        kernel = _kernel_plus_boundaries(
            proj[n],
            Z[(ComplexKind.RBA, n)],
            B[(ComplexKind.RBA, n)],
            B[(ComplexKind.PLA, n)],
            ambient,
        )
        positions.append(
            PositionReport(f"H{n}_RBA", image.dim, kernel.dim, same_subspace(image, kernel))
        )
        # position H^n of the pre-Lie complex: incoming projection, outgoing Φ
        ambient = space_dim(n, d, md)
        image = _image_plus_boundaries(
            proj[n], Z[(ComplexKind.RBA, n)], B[(ComplexKind.PLA, n)], ambient
        )
        kernel = _kernel_plus_boundaries(
            phim[n],
            Z[(ComplexKind.PLA, n)],
            B[(ComplexKind.PLA, n)],
            B[(ComplexKind.RBO, n)],
            ambient,
        )
        positions.append(
            PositionReport(f"H{n}_PLA", image.dim, kernel.dim, same_subspace(image, kernel))
        )
        # position H^n of the operator complex: incoming Φ, outgoing connecting
        image = _image_plus_boundaries(
            phim[n], Z[(ComplexKind.PLA, n)], B[(ComplexKind.RBO, n)], ambient
        )
        kernel = _kernel_plus_boundaries(
            incl[n],
            Z[(ComplexKind.RBO, n)],
            B[(ComplexKind.RBO, n)],
            B[(ComplexKind.RBA, n + 1)],
            ambient,
        )
        positions.append(
            PositionReport(f"H{n}_RBO", image.dim, kernel.dim, same_subspace(image, kernel))
        )

    ok = all(p.exact for p in positions) and all(okk for _, okk in map_checks)
    return LESReport(ok, tuple(positions), tuple(map_checks))
