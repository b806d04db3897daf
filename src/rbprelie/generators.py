"""Seeded random instances for property tests.

No example inventory ships with the theory, so test fixtures are generated:
each family below satisfies its defining laws exactly (verified once in the
test suite against the checkers), and a random exact change of basis is
applied afterwards so instances do not look special.  Everything takes an
explicit ``random.Random`` so runs are reproducible.

Families:
  * zero product (any operator is then admissible);
  * two-step nilpotent: products of low basis vectors land in an inert top
    block, operators map into the top block and kill it;
  * componentwise diagonal products with diagonal operators whose entries
    square to −λ times themselves;
  * single left-scaling: one basis vector acts diagonally on everything
    (genuinely non-associative once the scalars differ);
  * truncated polynomial products.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebras import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    apply_table,
    regular_bimodule,
    zero_table,
)
from .cochains import Cochain, RBACochain, basis_keys
from .complexes import ComplexData, ComplexKind
from .linalg import (
    RationalMatrix,
    Vector,
    solve_linear,
    unit_vector,
    vadd,
    vscale,
    zero_vector,
)


def random_fraction(rng: random.Random, num: int = 3, den: int = 2) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_vector(rng: random.Random, n: int, num: int = 3, den: int = 2) -> Vector:
    return tuple(random_fraction(rng, num, den) for _ in range(n))


def random_matrix(rng: random.Random, rows: int, cols: int, num: int = 3, den: int = 2) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[random_fraction(rng, num, den) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng: random.Random, n: int) -> RationalMatrix:
    """Product of elementary matrices: invertible with small exact entries."""
    rows = [list(row) for row in RationalMatrix.identity(n).entries]
    for _ in range(2 * n + 2):
        kind = rng.randrange(3)
        if kind == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.choice([-2, -1, 1, 2]))
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        elif kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(n)
            rows[i] = [a * rng.choice([Fraction(-1), Fraction(1)]) for a in rows[i]]
    return RationalMatrix.from_rows(rows)


def invert(m: RationalMatrix) -> RationalMatrix:
    cols = []
    for j in range(m.rows):
        col = solve_linear(m, unit_vector(j, m.rows))
        if col is None:
            raise ValueError("matrix is singular")
        cols.append(col)
    return RationalMatrix.from_cols(cols, m.rows)


def conjugate_algebra(a: PreLieAlgebra, phi: RationalMatrix, phi_inv: RationalMatrix) -> PreLieAlgebra:
    """Pull the product back along the basis change φ."""
    table = tuple(
        tuple(
            phi_inv.apply(a.product(phi.col(i), phi.col(j))) for j in range(a.dim)
        )
        for i in range(a.dim)
    )
    return PreLieAlgebra(a.dim, table)


def conjugate_rb(r: RBPreLieAlgebra, phi: RationalMatrix, phi_inv: RationalMatrix) -> RBPreLieAlgebra:
    return RBPreLieAlgebra(
        conjugate_algebra(r.algebra, phi, phi_inv),
        r.weight,
        phi_inv.matmul(r.operator).matmul(phi),
    )


def conjugate_bimodule(
    m: RBBimodule, phi: RationalMatrix, phi_inv: RationalMatrix, rho: RationalMatrix, rho_inv: RationalMatrix
) -> RBBimodule:
    """Transport the actions along φ on the base and ρ on the module."""
    d, md = m.base_dim, m.mod_dim
    S_new = []
    P_new = []
    for i in range(d):
        coeffs = phi.col(i)
        s_acc = RationalMatrix.zeros(md, md)
        p_acc = RationalMatrix.zeros(md, md)
        for k in range(d):
            if coeffs[k] != 0:
                s_acc = s_acc.add(m.bimodule.S[k].scale(coeffs[k]))
                p_acc = p_acc.add(m.bimodule.P[k].scale(coeffs[k]))
        S_new.append(rho_inv.matmul(s_acc).matmul(rho))
        P_new.append(rho_inv.matmul(p_acc).matmul(rho))
    return RBBimodule(
        Bimodule(d, md, tuple(S_new), tuple(P_new)),
        rho_inv.matmul(m.t_m).matmul(rho),
    )


def _family_pair(rng: random.Random, dim: int, weight: Fraction) -> tuple[PreLieAlgebra, RationalMatrix]:
    choice = rng.randrange(5)
    zero = zero_vector(dim)
    if choice == 0 or dim == 1:
        table = zero_table(dim, dim, dim)
        op = random_matrix(rng, dim, dim)
        return PreLieAlgebra(dim, table), op
    if choice == 1:
        # nilpotent: products of the low block land in the inert top block
        top = rng.randint(1, dim - 1)
        low = dim - top
        table = [[list(zero) for _ in range(dim)] for _ in range(dim)]
        for i in range(low):
            for j in range(low):
                for k in range(low, dim):
                    if rng.random() < 0.6:
                        table[i][j][k] = random_fraction(rng)
        op_cols = []
        for j in range(dim):
            col = list(zero)
            if j < low:
                for k in range(low, dim):
                    col[k] = random_fraction(rng)
            op_cols.append(col)
        return (
            PreLieAlgebra(dim, tuple(tuple(tuple(v) for v in row) for row in table)),
            RationalMatrix.from_cols(op_cols, dim),
        )
    if choice == 2:
        # componentwise products e_i·e_i = c_i e_i
        cs = [random_fraction(rng) for _ in range(dim)]
        table = [[list(zero) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            table[i][i][i] = cs[i]
        diag = [
            rng.choice([Fraction(0), -weight]) if cs[j] != 0 else random_fraction(rng)
            for j in range(dim)
        ]
        op = RationalMatrix.from_rows(
            [[diag[i] if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
        )
        return PreLieAlgebra(dim, tuple(tuple(tuple(v) for v in row) for row in table)), op
    if choice == 3:
        # one basis vector scales everything on the left
        p = rng.randrange(dim)
        cs = [random_fraction(rng) for _ in range(dim)]
        table = [[list(zero) for _ in range(dim)] for _ in range(dim)]
        for j in range(dim):
            table[p][j][j] = cs[j]
        diag = [
            rng.choice([Fraction(0), -weight]) if cs[j] != 0 else random_fraction(rng)
            for j in range(dim)
        ]
        op = RationalMatrix.from_rows(
            [[diag[i] if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
        )
        return PreLieAlgebra(dim, tuple(tuple(tuple(v) for v in row) for row in table)), op
    # truncated polynomial products
    table = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i + j + 1 < dim:
                table[i][j][i + j + 1] = Fraction(1)
    op = RationalMatrix.zeros(dim, dim) if rng.random() < 0.5 else RationalMatrix.identity(dim).scale(-weight)
    return PreLieAlgebra(dim, tuple(tuple(tuple(v) for v in row) for row in table)), op


def random_rb_pre_lie(
    rng: random.Random, dim: int, weight: Fraction | None = None
) -> RBPreLieAlgebra:
    if weight is None:
        weight = rng.choice(
            [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-7, 3), Fraction(1, 2)]
        )
    algebra, op = _family_pair(rng, dim, weight)
    u = rng.random()
    if u < 0.2:
        op = RationalMatrix.zeros(dim, dim)
    elif u < 0.35:
        op = RationalMatrix.identity(dim).scale(-weight)
    r = RBPreLieAlgebra(algebra, weight, op)
    if rng.random() < 0.7:
        phi = random_invertible(rng, dim)
        r = conjugate_rb(r, phi, invert(phi))
    return r


def zero_action_bimodule(r: RBPreLieAlgebra, t_m: RationalMatrix) -> RBBimodule:
    md = t_m.rows
    zero = RationalMatrix.zeros(md, md)
    return RBBimodule(Bimodule(r.dim, md, (zero,) * r.dim, (zero,) * r.dim), t_m)


def _block_diagonal(upper: RationalMatrix, lower: RationalMatrix) -> RationalMatrix:
    """The square block matrix [[upper, 0], [0, lower]]."""
    return RationalMatrix.block(
        [
            [upper, RationalMatrix.zeros(upper.rows, lower.cols)],
            [RationalMatrix.zeros(lower.rows, upper.cols), lower],
        ]
    )


def _regular_plus_zero_action(r: RBPreLieAlgebra, t_extra: RationalMatrix) -> RBBimodule:
    """The regular module ⊕ a block the algebra acts on by zero, with
    operator t_extra there."""
    reg = regular_bimodule(r)
    zero = RationalMatrix.zeros(t_extra.rows, t_extra.rows)
    S = tuple(_block_diagonal(s, zero) for s in reg.bimodule.S)
    P = tuple(_block_diagonal(p, zero) for p in reg.bimodule.P)
    return RBBimodule(
        Bimodule(r.dim, r.dim + t_extra.rows, S, P), _block_diagonal(reg.t_m, t_extra)
    )


def random_rb_bimodule(
    rng: random.Random, r: RBPreLieAlgebra, mod_dim: int | None = None
) -> RBBimodule:
    choice = rng.randrange(3)
    if choice == 0:
        m = regular_bimodule(r)
    elif choice == 1:
        md = mod_dim if mod_dim is not None else rng.randint(1, max(1, r.dim))
        m = zero_action_bimodule(r, random_matrix(rng, md, md))
    else:
        extra = rng.randint(1, 2)
        m = _regular_plus_zero_action(r, random_matrix(rng, extra, extra))
    if rng.random() < 0.6:
        rho = random_invertible(rng, m.mod_dim)
        ident = RationalMatrix.identity(r.dim)
        m = conjugate_bimodule(m, ident, ident, rho, invert(rho))
    return m


def random_valid_pair(
    rng: random.Random, dim: int, weight: Fraction | None = None
) -> tuple[RBPreLieAlgebra, RBBimodule]:
    r = random_rb_pre_lie(rng, dim, weight)
    return r, random_rb_bimodule(rng, r)


def random_cochain(
    rng: random.Random, degree: int, base_dim: int, mod_dim: int, density: float = 0.7
) -> Cochain:
    vals = {}
    for key in basis_keys(degree, base_dim):
        if rng.random() < density:
            vals[key] = random_vector(rng, mod_dim)
    return Cochain(degree, base_dim, mod_dim, vals)


def random_rba_cochain(
    rng: random.Random, degree: int, base_dim: int, mod_dim: int
) -> RBACochain:
    if degree == 0:
        return RBACochain(random_cochain(rng, 0, base_dim, mod_dim, 1.0), None)
    return RBACochain(
        random_cochain(rng, degree, base_dim, mod_dim),
        random_cochain(rng, degree - 1, base_dim, mod_dim),
    )


def random_cocycle(
    rng: random.Random,
    kind: ComplexKind,
    r: RBPreLieAlgebra,
    m: RBBimodule,
    degree: int,
) -> Vector:
    """Random exact kernel element of the degree-``degree`` differential,
    as a coordinate vector (zero if the cocycle space is trivial)."""
    data = ComplexData(r, m)
    out = zero_vector(data.dim(kind, degree))
    for v in data.cocycles(kind, degree):
        c = Fraction(rng.randint(-2, 2))
        if c != 0:
            out = vadd(out, vscale(c, v))
    return out


def random_rba_cocycle(
    rng: random.Random, r: RBPreLieAlgebra, m: RBBimodule, degree: int
) -> RBACochain:
    coords = random_cocycle(rng, ComplexKind.RBA, r, m, degree)
    return RBACochain.from_coords(degree, r.dim, m.mod_dim, coords)


def random_gauge(rng: random.Random, dim: int, order: int) -> "GaugeSeries":
    from .deformations import GaugeSeries

    maps = [RationalMatrix.identity(dim)]
    for _ in range(order):
        maps.append(random_matrix(rng, dim, dim))
    return GaugeSeries(tuple(maps))


def random_crossed_module(rng: random.Random, dim0: int, dim1_extra: int = 1):
    """Valid crossed modules: connecting map zero with zero level-1 product,
    the identity on the regular module, or the projection off a direct sum
    with a zero-action block; then a change of basis on both levels."""
    from .twoalg import CrossedModule

    r = random_rb_pre_lie(rng, dim0)
    choice = rng.randrange(3)
    if choice == 0:
        md = rng.randint(1, dim0)
        m = zero_action_bimodule(r, random_matrix(rng, md, md))
        cm = CrossedModule(
            r,
            zero_table(md, md, md),
            RationalMatrix.zeros(dim0, md),
            m.bimodule.S,
            m.bimodule.P,
            m.t_m,
        )
    elif choice == 1:
        reg = regular_bimodule(r)
        cm = CrossedModule(
            r,
            r.algebra.c,
            RationalMatrix.identity(dim0),
            reg.bimodule.S,
            reg.bimodule.P,
            r.operator,
        )
    else:
        extra = dim1_extra
        m = _regular_plus_zero_action(r, random_matrix(rng, extra, extra))
        # d is the projection [I 0] onto the regular block, and the level-1
        # product is the level-0 one pulled back along it: ι(d(α)·d(β))
        d_map = RationalMatrix.block(
            [[RationalMatrix.identity(dim0), RationalMatrix.zeros(dim0, extra)]]
        )
        lift, md = d_map.transpose(), m.mod_dim
        product = tuple(
            tuple(lift.apply(r.algebra.product(d_map.col(a), d_map.col(b))) for b in range(md))
            for a in range(md)
        )
        cm = CrossedModule(r, product, d_map, m.bimodule.S, m.bimodule.P, m.t_m)
    if rng.random() < 0.6:
        rho = random_invertible(rng, cm.dim1)
        rho_inv = invert(rho)
        m2 = conjugate_bimodule(
            cm.bimodule(),
            RationalMatrix.identity(dim0),
            RationalMatrix.identity(dim0),
            rho,
            rho_inv,
        )
        product = tuple(
            tuple(
                rho_inv.apply(
                    apply_table(cm.g1_product, rho.col(a), rho.col(b), cm.dim1)
                )
                for b in range(cm.dim1)
            )
            for a in range(cm.dim1)
        )
        cm = CrossedModule(
            cm.g0, product, cm.d_map.matmul(rho), m2.bimodule.S, m2.bimodule.P, m2.t_m
        )
    return cm
