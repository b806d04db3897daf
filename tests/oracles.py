"""Independent oracles, written against the raw definitions.

The linear-algebra and axiom oracles work on plain nested lists with
explicit index loops and never call the library's helpers;
``matmul_by_fractions`` is the former ``RationalMatrix.matmul``, which
accumulated ``Fraction`` products over the sparse rows where the package
now accumulates ``int``s over one denominator.  The cochain
maps at the end (``pla_differential_by_eval``, ``rbo_differential_expanded``,
``phi_by_eval``, ``phi_literal``) are the package's former evaluation
routes: they evaluate cochains at basis and vector arguments with
``Cochain.eval``, one output key at a time, where the package assembles each
map's matrix term by term from the structure constants.  Agreement with the
package is therefore a genuine two-route check.  ``second_condition_v``
reads the operator coherence through those routes.

The ``*_by_table`` routines are the package's former product route:
literal transcriptions of the law kernels, defect streams, derived
structures and gauge transform as they were written over the dense
bilinear kernel ``apply_table``, with a unit vector as one argument wherever
a basis vector is multiplied.  The package reads the same products through
the left and right multiplication matrices of each table.

The ``*_by_fractions`` routines are the package's former two-term and
crossed-module checks, kept verbatim: they evaluate l₃ with ``Cochain.eval``
and every product through ``RationalMatrix.apply`` in ``Fraction``
arithmetic, where ``twoalg`` reads each structure once as integer tensors
over one common denominator and reads the top coherences f and v off the
assembled complexes.  ``bimodule_left`` and ``bimodule_right`` are
the former ``Bimodule.left`` / ``Bimodule.right`` products,
``at_module_basis`` the former ``Bimodule.at_module_basis``, and ``lr00``,
``lr01``, ``lr10``, ``lr_t2``, ``mul00``, ``mul01``, ``mul10`` and
``t2_apply`` the former ``TwoAlgebra`` members of those names, as plain
functions.

``les_by_subspaces`` at the very end is the package's former LES walk: it
compares the image of the incoming map with the kernel of the outgoing one
as echelon subspaces of cochain space, where ``complexes.les_check`` decides
exactness by ranks of residue matrices.  Its cocycle bases, boundary spans,
residues and kernels come from the dense linear-algebra oracles here, not
from the package's elimination.
"""

from fractions import Fraction
from itertools import combinations, product

from rbprelie.algebras import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    bilinear,
    bimodule_defects,
    derived_bimodule,
    multiplication_matrices,
    named,
    rb_bimodule_defects,
    star_algebra,
)
from rbprelie.cochains import Cochain, RBACochain, basis_keys, cochain_from_bilinear, space_dim
from rbprelie.complexes import (
    ComplexData,
    ComplexKind,
    LESReport,
    PositionReport,
    complex_space_dim,
)
from rbprelie.deformations import TruncatedDeformation, series_inverse
from rbprelie.linalg import (
    RationalMatrix,
    Vector,
    is_zero_vector,
    unit_vector,
    vadd,
    vscale,
    vsub,
    zero_vector,
)


def vec_eq(u, v):
    return all(a == b for a, b in zip(u, v)) and len(u) == len(v)


def mat_vec(mat, v):
    return [sum((mat.entries[i][j] * v[j] for j in range(len(v))), Fraction(0))
            for i in range(mat.rows)]


def mat_mat(a, b):
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def matmul_by_fractions(a, b):
    """The former ``RationalMatrix.matmul``: each output row accumulated
    over the sparse rows in ``Fraction`` arithmetic."""
    right = b.sparse_rows
    product = []
    for row in a.sparse_rows:
        acc = {}
        for k, x in row:
            for j, y in right[k]:
                acc[j] = acc.get(j, Fraction(0)) + x * y
        product.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return RationalMatrix.from_sparse(product, b.cols)


def pullback_by_fractions(terms, rows, cols, size):
    """Σ c·μ(A·, B·) over the terms (c, μ, A, B), for rational tables μ and
    dense rational matrices A, B given as lists of rows: entry (i, j) is
    Σ_{x,y} c·A[x][i]·B[y][j]·μ[x][y], by explicit index loops."""
    out = [[[Fraction(0)] * size for _ in range(cols)] for _ in range(rows)]
    for c, mu, a, b in terms:
        for i in range(rows):
            for j in range(cols):
                for x in range(len(a)):
                    for y in range(len(b)):
                        for k in range(size):
                            out[i][j][k] += c * a[x][i] * b[y][j] * mu[x][y][k]
    return out


def dense_reduced_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list).

    The library's former dense elimination, kept verbatim: it touches every
    entry, zeros included, with the same pivot scan order as the sparse one."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_rank(mat):
    if mat.rows == 0 or mat.cols == 0:
        return 0
    _, pivots = dense_reduced_echelon([list(row) for row in mat.entries])
    return len(pivots)


def dense_kernel_basis(mat):
    if mat.cols == 0:
        return []
    if mat.rows == 0:
        return [tuple(unit(mat.cols, j)) for j in range(mat.cols)]
    rows, pivots = dense_reduced_echelon([list(row) for row in mat.entries])
    basis = []
    for free in range(mat.cols):
        if free in pivots:
            continue
        v = unit(mat.cols, free)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def dense_solve(mat, b):
    if mat.rows == 0:
        return (Fraction(0),) * mat.cols
    aug = [list(row) + [Fraction(b[i])] for i, row in enumerate(mat.entries)]
    rows, pivots = dense_reduced_echelon(aug)
    if mat.cols in pivots:
        return None
    x = [Fraction(0)] * mat.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][mat.cols]
    return tuple(x)


def dense_echelon(vectors):
    """(kept vectors, pivots) of the reduced echelon span of the vectors."""
    if not vectors:
        return (), ()
    reduced, pivots = dense_reduced_echelon([[Fraction(x) for x in v] for v in vectors])
    return tuple(tuple(reduced[i]) for i in range(len(pivots))), tuple(pivots)


def dense_reduce(vectors, pivots, v):
    w = [Fraction(x) for x in v]
    for basis_vec, p in zip(vectors, pivots):
        f = w[p]
        if f != 0:
            for i in range(len(w)):
                w[i] -= f * basis_vec[i]
    return tuple(w)


def prod(c, x, y):
    """Structure-constant product of coordinate vectors, index loops only."""
    d = len(c)
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(d):
            if x[i] and y[j]:
                for k in range(d):
                    out[k] += x[i] * y[j] * c[i][j][k]
    return out


def unit(n, i):
    e = [Fraction(0)] * n
    e[i] = Fraction(1)
    return e


def naive_pre_lie_defects(c):
    """All basis triples where the associator fails to be symmetric."""
    d = len(c)
    bad = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ei, ej, ek = unit(d, i), unit(d, j), unit(d, k)
                lhs = [a - b for a, b in zip(prod(c, prod(c, ei, ej), ek),
                                             prod(c, ei, prod(c, ej, ek)))]
                rhs = [a - b for a, b in zip(prod(c, prod(c, ej, ei), ek),
                                             prod(c, ej, prod(c, ei, ek)))]
                defect = [a - b for a, b in zip(lhs, rhs)]
                if any(defect):
                    bad.append(((i, j, k), defect))
    return bad


def naive_rb_defects(c, t, lam):
    """Weighted operator law on all basis pairs; t is a matrix object."""
    d = len(c)
    bad = []
    for i in range(d):
        for j in range(d):
            ei, ej = unit(d, i), unit(d, j)
            ti, tj = mat_vec(t, ei), mat_vec(t, ej)
            lhs = prod(c, ti, tj)
            inner = [a + b + lam * cc for a, b, cc in zip(
                prod(c, ei, tj), prod(c, ti, ej), prod(c, ei, ej))]
            rhs = mat_vec(t, inner)
            defect = [a - b for a, b in zip(lhs, rhs)]
            if any(defect):
                bad.append(((i, j), defect))
    return bad


def act_left(S, x, u):
    md = len(u)
    out = [Fraction(0)] * md
    for i in range(len(x)):
        if x[i]:
            su = mat_vec(S[i], u)
            for k in range(md):
                out[k] += x[i] * su[k]
    return out


def act_right(P, u, y):
    md = len(u)
    out = [Fraction(0)] * md
    for j in range(len(y)):
        if y[j]:
            pu = mat_vec(P[j], u)
            for k in range(md):
                out[k] += y[j] * pu[k]
    return out


def naive_bimodule_defects(c, S, P, mod_dim):
    d = len(c)
    bad = []
    for i in range(d):
        for j in range(d):
            ei, ej = unit(d, i), unit(d, j)
            cij = prod(c, ei, ej)
            cji = prod(c, ej, ei)
            for u in range(mod_dim):
                eu = unit(mod_dim, u)
                lhs = [a - b for a, b in zip(act_left(S, ei, act_left(S, ej, eu)),
                                             act_left(S, cij, eu))]
                rhs = [a - b for a, b in zip(act_left(S, ej, act_left(S, ei, eu)),
                                             act_left(S, cji, eu))]
                if any(a - b for a, b in zip(lhs, rhs)):
                    bad.append(("left", (i, j, u)))
                lhs = [a - b for a, b in zip(act_left(S, ei, act_right(P, eu, ej)),
                                             act_right(P, act_left(S, ei, eu), ej))]
                rhs = [a - b for a, b in zip(act_right(P, eu, cij),
                                             act_right(P, act_right(P, eu, ei), ej))]
                if any(a - b for a, b in zip(lhs, rhs)):
                    bad.append(("mixed", (i, j, u)))
    return bad


def naive_rb_bimodule_defects(c, t, lam, S, P, t_m, mod_dim):
    d = len(c)
    bad = []
    for i in range(d):
        ei = unit(d, i)
        ti = mat_vec(t, ei)
        for u in range(mod_dim):
            eu = unit(mod_dim, u)
            tu = mat_vec(t_m, eu)
            inner = [a + b + lam * cc for a, b, cc in zip(
                act_left(S, ei, tu), act_left(S, ti, eu), act_left(S, ei, eu))]
            lhs = act_left(S, ti, tu)
            if any(a - b for a, b in zip(lhs, mat_vec(t_m, inner))):
                bad.append(("rb_left", (i, u)))
            inner = [a + b + lam * cc for a, b, cc in zip(
                act_right(P, eu, ti), act_right(P, tu, ei), act_right(P, eu, ei))]
            lhs = act_right(P, tu, ti)
            if any(a - b for a, b in zip(lhs, mat_vec(t_m, inner))):
                bad.append(("rb_right", (i, u)))
    return bad


def bimodule_left(bm, x, u):
    """x · u for an algebra vector x and module vector u."""
    return bilinear(bm.S, x, u, bm.mod_dim)


def bimodule_right(bm, u, y):
    """u · y for a module vector u and algebra vector y."""
    return bilinear(bm.P, y, u, bm.mod_dim)


def at_module_basis(bm):
    """For each module basis vector e_u, the matrices of x ↦ x·e_u and of
    y ↦ e_u·y: the R of the left action's table and the L of the right
    action's (the former ``Bimodule.at_module_basis``)."""
    md = bm.mod_dim
    return (
        tuple(RationalMatrix.from_cols([s.col(u) for s in bm.S], md) for u in range(md)),
        tuple(RationalMatrix.from_cols([p.col(u) for p in bm.P], md) for u in range(md)),
    )


# the former (L, R) members of ``TwoAlgebra`` whose callers are all here


def lr00(t):
    """(L, R) of l2_00."""
    return multiplication_matrices(t.l2_00, t.dim0, t.dim0)


def lr01(t):
    """(L, R) of l2_01: L[x] is the level-mixing left action of e_x."""
    return multiplication_matrices(t.l2_01, t.dim1, t.dim1)


def lr10(t):
    """(L, R) of l2_10: R[x] is the level-mixing right action of e_x."""
    return multiplication_matrices(t.l2_10, t.dim0, t.dim1)


def lr_t2(t):
    """(L, R) of t2."""
    return multiplication_matrices(t.t2, t.dim0, t.dim1)


def mul00(t, x, y):
    return bilinear(lr00(t)[0], x, y, t.dim0)


def mul01(t, x, alpha):
    return bilinear(lr01(t)[0], x, alpha, t.dim1)


def mul10(t, alpha, x):
    return bilinear(lr10(t)[0], alpha, x, t.dim1)


def t2_apply(t, x, y):
    return bilinear(lr_t2(t)[0], x, y, t.dim1)


def sympy_rank(matrix) -> int:
    """Independent elimination oracle."""
    import sympy

    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    m = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix.entries]
    )
    return m.rank()


def second_condition_f(t, w, x, y, z):
    """Independent transcription of the twelve-term coherence: same terms,
    regrouped and written through different helpers."""
    ew, ex, ey, ez = (unit_vector(i, t.dim0) for i in (w, x, y, z))

    def bracket(i, j):
        return [a - b for a, b in zip(t.l2_00[i][j], t.l2_00[j][i])]

    acc = [Fraction(0)] * t.dim1
    pieces = [
        (1, mul01(t, ew, t.l3.eval([x, y, z]))),
        (-1, mul01(t, ex, t.l3.eval([w, y, z]))),
        (1, mul01(t, ey, t.l3.eval([w, x, z]))),
        (1, mul10(t, t.l3.eval([x, y, w]), ez)),
        (-1, mul10(t, t.l3.eval([w, y, x]), ez)),
        (1, mul10(t, t.l3.eval([w, x, y]), ez)),
        (-1, t.l3.eval([x, y, list(t.l2_00[w][z])])),
        (1, t.l3.eval([w, y, list(t.l2_00[x][z])])),
        (-1, t.l3.eval([w, x, list(t.l2_00[y][z])])),
        (-1, t.l3.eval([bracket(w, x), y, z])),
        (1, t.l3.eval([bracket(w, y), x, z])),
        (-1, t.l3.eval([bracket(x, y), w, z])),
    ]
    for sign, vecv in pieces:
        for k in range(t.dim1):
            acc[k] += sign * vecv[k]
    return acc


def second_condition_v(t, lam, x1, x2, x3):
    """Independent route for the long operator coherence: embed the data in
    the combined complex and read off the degree-3 operator component."""
    r = RBPreLieAlgebra(PreLieAlgebra(t.dim0, t.l2_00), lam, t.t0)
    S = tuple(
        RationalMatrix.from_cols([t.l2_01[x][a] for a in range(t.dim1)], t.dim1)
        for x in range(t.dim0)
    )
    P = tuple(
        RationalMatrix.from_cols([t.l2_10[a][x] for a in range(t.dim1)], t.dim1)
        for x in range(t.dim0)
    )
    m = RBBimodule(Bimodule(t.dim0, t.dim1, S, P), t.t1)
    theta = cochain_from_bilinear(t.t2, t.dim1)
    total = vadd(
        rbo_differential_expanded(r, m, theta).eval([x1, x2, x3]),
        phi_by_eval(r, m, t.l3).eval([x1, x2, x3]),
    )
    return list(total)


# ------------------------------------------------- cochain maps by evaluation


def pla_differential_by_eval(a, m, f):
    """Degree n ↦ n+1 pre-Lie coboundary, evaluating f at each output key."""
    n = f.degree
    if n == 0:
        return Cochain.zero(1, a.dim, m.mod_dim)
    out = {}
    for key in basis_keys(n + 1, a.dim):
        skew, last = key[:-1], key[-1]
        total = zero_vector(m.mod_dim)
        for pos in range(n):
            sign = Fraction(1) if pos % 2 == 0 else Fraction(-1)
            xi = skew[pos]
            rest = [s for q, s in enumerate(skew) if q != pos]
            # x_i · f(..x̂_i.., x_{n+1})
            t1 = bimodule_left(m, unit_vector(xi, a.dim), f.eval([*rest, last]))
            # f(..x̂_i.., x_i) · x_{n+1}
            t2 = bimodule_right(m, f.eval([*rest, xi]), unit_vector(last, a.dim))
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


def rbo_differential_by_eval(r, m, g):
    """The operator coboundary: the pre-Lie one of the star algebra with the
    derived actions, by evaluation."""
    star = star_algebra(r, trusted=True)
    derived = derived_bimodule(r, m, trusted=True)
    return pla_differential_by_eval(star.algebra, derived.bimodule, g)


def rbo_differential_expanded(r, m, g):
    """The operator coboundary written out term by term in the base
    structure (the original product, actions, T, T_M and λ only)."""
    a, t, lam = r.algebra, r.operator, r.weight
    bm, tm = m.bimodule, m.t_m
    n = g.degree
    if n == 0:
        return Cochain.zero(1, a.dim, bm.mod_dim)
    out = {}
    for key in basis_keys(n + 1, a.dim):
        skew, last = key[:-1], key[-1]
        e_last = unit_vector(last, a.dim)
        t_last = t.col(last)
        total = zero_vector(bm.mod_dim)
        for pos in range(n):
            sign = Fraction(1) if pos % 2 == 0 else Fraction(-1)
            xi = skew[pos]
            e_i = unit_vector(xi, a.dim)
            t_i = t.col(xi)
            rest = [s for q, s in enumerate(skew) if q != pos]
            g_drop = g.eval([*rest, last])
            # T(x_i)·g(..) − T_M(x_i·g(..))
            term = vsub(bimodule_left(bm, t_i, g_drop), tm.apply(bimodule_left(bm, e_i, g_drop)))
            # g(.., x_i)·T(x_{n+1}) − T_M(g(.., x_i)·x_{n+1})
            g_rot = g.eval([*rest, xi])
            term = vadd(
                term,
                vsub(bimodule_right(bm, g_rot, t_last), tm.apply(bimodule_right(bm, g_rot, e_last))),
            )
            # − g(.., x_i·T(x_{n+1})) − g(.., T(x_i)·x_{n+1}) − λ g(.., x_i·x_{n+1})
            term = vsub(term, g.eval([*rest, a.product(e_i, t_last)]))
            term = vsub(term, g.eval([*rest, a.product(t_i, e_last)]))
            term = vsub(term, vscale(lam, g.eval([*rest, a.c[xi][last]])))
            total = vadd(total, vscale(sign, term))
        for p, q in combinations(range(n), 2):
            sign = Fraction(1) if (p + q) % 2 == 0 else Fraction(-1)
            e_p, e_q = unit_vector(skew[p], a.dim), unit_vector(skew[q], a.dim)
            t_p, t_q = t.col(skew[p]), t.col(skew[q])
            rest = [s for idx, s in enumerate(skew) if idx not in (p, q)]
            bracket = vsub(a.product(t_p, e_q), a.product(e_q, t_p))
            bracket = vadd(bracket, vsub(a.product(e_p, t_q), a.product(t_q, e_p)))
            bracket = vadd(bracket, vscale(lam, vsub(a.c[skew[p]][skew[q]], a.c[skew[q]][skew[p]])))
            total = vadd(total, vscale(sign, g.eval([bracket, *rest, last])))
        if not is_zero_vector(total):
            out[key] = total
    return Cochain(n + 1, a.dim, bm.mod_dim, out)


def phi_by_eval(r, m, f):
    """The chain map in closed form: Φ(f) = f∘(T, …, T) minus, for every
    insertion pattern ε ∈ {0,1}ⁿ other than all-ones,
    λ^{n−1−|ε|}·T_M∘f∘(T^ε); the identity in degree 0."""
    n = f.degree
    if n == 0:
        return f
    t, lam, tm = r.operator, r.weight, m.t_m
    out = {}
    for key in basis_keys(n, f.base_dim):
        total = f.eval([t.col(i) for i in key])
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


def phi_literal(r, m, f):
    """The chain map as two sums over insertion positions in the skew block,
    one with the last slot untouched and one with the last slot hit by T."""
    n = f.degree
    if n == 0:
        return f
    t, lam, tm = r.operator, r.weight, m.t_m
    out = {}
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


def rba_differential_by_eval(r, m, c):
    """d(f, g) = (δf, −∂g − Φf); in degree 0, d(f) = (δf, −f)."""
    f = c.pla_part
    delta = pla_differential_by_eval(r.algebra, m.bimodule, f)
    if c.degree == 0:
        return RBACochain(delta, f.scale(Fraction(-1)))
    second = rbo_differential_by_eval(r, m, c.rbo_part).add(phi_by_eval(r, m, f))
    return RBACochain(delta, second.scale(Fraction(-1)))


def basis_cochains(degree, base_dim, mod_dim):
    """The unit cochains of a degree, in coordinate order."""
    for key in basis_keys(degree, base_dim):
        for u in range(mod_dim):
            e = [Fraction(0)] * mod_dim
            e[u] = Fraction(1)
            yield Cochain(degree, base_dim, mod_dim, {key: tuple(e)})


def matrix_by_eval(kind, r, m, degree):
    """The matrix of the ``kind`` coboundary (a ``ComplexKind``), or of Φ for
    ``kind`` "phi", in ``degree``: column j is the image of the j-th unit
    cochain through the evaluation routes."""
    d, md = r.dim, m.mod_dim
    if kind is ComplexKind.RBA:
        dim = complex_space_dim(kind, degree, d, md)
        units = (RBACochain.from_coords(degree, d, md, unit(dim, j)) for j in range(dim))
        columns = [rba_differential_by_eval(r, m, c).coords() for c in units]
        return RationalMatrix.from_cols(columns, complex_space_dim(kind, degree + 1, d, md))
    route = {
        ComplexKind.PLA: lambda f: pla_differential_by_eval(r.algebra, m.bimodule, f),
        ComplexKind.RBO: lambda f: rbo_differential_by_eval(r, m, f),
        "phi": lambda f: phi_by_eval(r, m, f),
    }[kind]
    columns = [route(f).coords() for f in basis_cochains(degree, d, md)]
    out_degree = degree if kind == "phi" else degree + 1
    return RationalMatrix.from_cols(columns, space_dim(out_degree, d, md))


def apply_table(table, x, y, out_dim):
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


def _left_by_table(bm, x, u):
    """x · u for an algebra vector x and module vector u."""
    out = zero_vector(bm.mod_dim)
    for i, xi in enumerate(x):
        if xi != 0:
            out = vadd(out, vscale(xi, bm.S[i].apply(u)))
    return out


def _right_by_table(bm, u, y):
    """u · y for a module vector u and algebra vector y."""
    out = zero_vector(bm.mod_dim)
    for j, yj in enumerate(y):
        if yj != 0:
            out = vadd(out, vscale(yj, bm.P[j].apply(u)))
    return out


def _combine(x, cols, dim):
    """Σₖ xₖ·cols[k]."""
    out = zero_vector(dim)
    for xk, col in zip(x, cols):
        if xk != 0:
            out = vadd(out, vscale(xk, col))
    return out


def _basis_columns(m):
    """For each module basis vector e_u: the products (eₖ·e_u)ₖ and (e_u·eₖ)ₖ,
    read off the u-th columns of the action matrices."""
    return [([s.col(u) for s in m.S], [p.col(u) for p in m.P]) for u in range(m.mod_dim)]


def pre_lie_defects_by_table(mus, n):
    """The tⁿ coefficient of the pre-Lie identity for μ_t = Σ μᵢtⁱ on every
    basis triple, keyed (i, j, k)."""
    dim = len(mus[0])
    basis = [unit_vector(i, dim) for i in range(dim)]
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


def rota_baxter_defects_by_table(mus, ts, lam, n):
    """The tⁿ coefficient of the weighted Rota-Baxter law on every basis
    pair, keyed (i, j)."""
    dim = len(mus[0])
    basis = [unit_vector(i, dim) for i in range(dim)]
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


def bimodule_defects_by_table(a, m):
    """Both pre-Lie representation laws on basis pairs acting on basis vectors."""
    S, P, md = m.S, m.P, m.mod_dim
    cols = _basis_columns(m)
    for i in range(a.dim):
        for j in range(a.dim):
            cij, cji = a.c[i][j], a.c[j][i]
            for u, (su, pu) in enumerate(cols):
                lhs = vsub(S[i].apply(su[j]), _combine(cij, su, md))
                rhs = vsub(S[j].apply(su[i]), _combine(cji, su, md))
                yield "left_action", (i, j, u), vsub(lhs, rhs)
                lhs = vsub(S[i].apply(pu[j]), P[j].apply(su[i]))
                rhs = vsub(_combine(cij, pu, md), P[j].apply(pu[i]))
                yield "mixed_action", (i, j, u), vsub(lhs, rhs)


def rb_bimodule_defects_by_table(r, m):
    """Both weighted compatibility laws between T and the module operator."""
    bm, tm, t, lam = m.bimodule, m.t_m, r.operator, r.weight
    md = bm.mod_dim
    cols = _basis_columns(bm)
    for i in range(r.dim):
        ti = t.col(i)
        for u, (su, pu) in enumerate(cols):
            tu = tm.col(u)
            inner = vadd(vadd(bm.S[i].apply(tu), _combine(ti, su, md)), vscale(lam, su[i]))
            yield "rb_left", (i, u), vsub(_left_by_table(bm, ti, tu), tm.apply(inner))
            inner = vadd(vadd(_combine(ti, pu, md), bm.P[i].apply(tu)), vscale(lam, pu[i]))
            yield "rb_right", (i, u), vsub(_right_by_table(bm, tu, ti), tm.apply(inner))


def star_algebra_by_table(r):
    """The induced product a⋆b = a·T(b) + T(a)·b + λ a·b, same operator and weight."""
    a, t, lam = r.algebra, r.operator, r.weight
    table = []
    for i in range(a.dim):
        ei = unit_vector(i, a.dim)
        ti = t.col(i)
        row = []
        for j in range(a.dim):
            ej = unit_vector(j, a.dim)
            tj = t.col(j)
            row.append(vadd(
                vadd(apply_table(a.c, ei, tj, a.dim), apply_table(a.c, ti, ej, a.dim)),
                vscale(lam, a.c[i][j]),
            ))
        table.append(tuple(row))
    return RBPreLieAlgebra(PreLieAlgebra(a.dim, tuple(table)), lam, t)


def derived_bimodule_by_table(r, m):
    """Actions a▷u = T(a)·u − T_M(a·u), u◁a = u·T(a) − T_M(u·a); operator unchanged."""
    bm, tm, t = m.bimodule, m.t_m, r.operator
    d, md = bm.base_dim, bm.mod_dim
    S_new = []
    P_new = []
    for i in range(d):
        ei = unit_vector(i, r.dim)
        ti = t.col(i)
        s_cols = []
        p_cols = []
        for u in range(md):
            eu = unit_vector(u, md)
            s_cols.append(vsub(_left_by_table(bm, ti, eu), tm.apply(_left_by_table(bm, ei, eu))))
            p_cols.append(
                vsub(_right_by_table(bm, eu, ti), tm.apply(_right_by_table(bm, eu, ei)))
            )
        S_new.append(RationalMatrix.from_cols(s_cols, md))
        P_new.append(RationalMatrix.from_cols(p_cols, md))
    return RBBimodule(Bimodule(d, md, tuple(S_new), tuple(P_new)), tm)


def gauge_transform_by_table(r, d, psi):
    """The deformation (ψ_t⁻¹∘μ_t∘(ψ_t⊗ψ_t), ψ_t⁻¹∘T_t∘ψ_t), truncated."""
    dim = r.dim
    n_max = d.order
    eta = series_inverse(psi.maps, n_max)
    zero = RationalMatrix.zeros(dim, dim)

    def psi_at(k):
        return psi.maps[k] if k < len(psi.maps) else zero

    new_products = []
    new_operators = []
    for n in range(n_max + 1):
        table = [[zero_vector(dim) for _ in range(dim)] for _ in range(dim)]
        for a in range(n + 1):
            for b in range(n + 1 - a):
                for i in range(n + 1 - a - b):
                    j = n - a - b - i
                    mu_b = d.products[b]
                    for p in range(dim):
                        xp = psi_at(i).col(p)
                        for q in range(dim):
                            yq = psi_at(j).col(q)
                            val = eta[a].apply(apply_table(mu_b, xp, yq, dim))
                            table[p][q] = vadd(table[p][q], val)
        new_products.append(tuple(tuple(row) for row in table))
        op = RationalMatrix.zeros(dim, dim)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                i = n - a - b
                op = op.add(eta[a].matmul(d.operators[b]).matmul(psi_at(i)))
        new_operators.append(op)
    return TruncatedDeformation(r, tuple(new_products), tuple(new_operators))


# ---------------------------------------------- two-term checks by fractions


def prelie_2alg_defects_by_fractions(t):
    """The seven coherence conditions of a two-term pre-Lie structure."""
    d0, d1 = t.dim0, t.dim1
    (l00, r00), (l01, r01), (l10, r10) = lr00(t), lr01(t), lr10(t)
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
    for key in product(range(d0), repeat=4):
        yield "f", key, condition_f_by_fractions(t, *key)


def condition_f_by_fractions(t, w, x, y, z):
    """The twelve-term top coherence, evaluated on basis indices."""
    l01, r10 = lr01(t)[0], lr10(t)[1]
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


def condition_v_by_fractions(t, lam, x1, x2, x3):
    """The long operator coherence, evaluated on basis indices.

    Structure: the T₀-twisted action terms with their T₁-corrections, the
    star-product insertions into T₂, and every T₀-insertion pattern into l₃
    weighted by λ to the number of untouched slots minus one.
    """
    (l00, r00), (l01, _), (_, r10), (lt2, rt2) = lr00(t), lr01(t), lr10(t), lr_t2(t)
    t0_1, t0_2, t0_3 = t.t0.col(x1), t.t0.col(x2), t.t0.col(x3)
    th_23 = t.t2[x2][x3]
    th_13 = t.t2[x1][x3]
    th_21 = t.t2[x2][x1]
    th_12 = t.t2[x1][x2]

    def star(i, j):
        """e_i ⋆ e_j = e_i·T₀(e_j) + T₀(e_i)·e_j + λ e_i·e_j."""
        return vadd(
            vadd(l00[i].apply(t.t0.col(j)), r00[j].apply(t.t0.col(i))),
            vscale(lam, t.l2_00[i][j]),
        )

    val = vsub(mul01(t, t0_1, th_23), t.t1.apply(l01[x1].apply(th_23)))
    val = vsub(val, vsub(mul01(t, t0_2, th_13), t.t1.apply(l01[x2].apply(th_13))))
    val = vadd(val, vsub(mul10(t, th_21, t0_3), t.t1.apply(r10[x3].apply(th_21))))
    val = vsub(val, vsub(mul10(t, th_12, t0_3), t.t1.apply(r10[x3].apply(th_12))))
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


def rb_2alg_defects_by_fractions(t, lam):
    """The operator conditions on a two-term structure."""
    (l00, r00), (l01, r01), (l10, r10), (lt2, rt2) = lr00(t), lr01(t), lr10(t), lr_t2(t)
    comm = t.t0.matmul(t.d_map).sub(t.d_map.matmul(t.t1))
    for a in range(t.dim1):
        yield "i", (a,), comm.col(a)
    for x in range(t.dim0):
        t0x = t.t0.col(x)
        for y in range(t.dim0):
            t0y = t.t0.col(y)
            inner = vadd(vadd(r00[y].apply(t0x), l00[x].apply(t0y)), vscale(lam, t.l2_00[x][y]))
            yield "ii", (x, y), vsub(
                vsub(t.t0.apply(inner), mul00(t, t0x, t0y)),
                t.d_map.apply(t.t2[x][y]),
            )
    for a in range(t.dim1):
        t1a = t.t1.col(a)
        da = t.d_map.col(a)
        for x in range(t.dim0):
            t0x = t.t0.col(x)
            inner = vadd(vadd(r10[x].apply(t1a), l10[a].apply(t0x)), vscale(lam, t.l2_10[a][x]))
            yield "iii", (a, x), vsub(
                vsub(t.t1.apply(inner), mul10(t, t1a, t0x)), rt2[x].apply(da)
            )
            inner = vadd(vadd(l01[x].apply(t1a), r01[a].apply(t0x)), vscale(lam, t.l2_01[x][a]))
            yield "iv", (x, a), vsub(
                vsub(t.t1.apply(inner), mul01(t, t0x, t1a)), lt2[x].apply(da)
            )
    for key in product(range(t.dim0), repeat=3):
        yield "v", key, condition_v_by_fractions(t, lam, *key)


def crossed_module_defects_by_fractions(cm):
    """The crossed module conditions."""
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
    times_b, a_times = at_module_basis(bimod.bimodule)
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


def les_by_subspaces(r: RBPreLieAlgebra, m: RBBimodule, max_degree: int) -> LESReport:
    """The LES walk of ``les_check``, with the image of the incoming map and
    the kernel of the outgoing one built as reduced echelon subspaces of the
    cocycle space and compared as such (the reduced form of a subspace is
    unique).  Of the package it reads the matrices of one ``ComplexData`` and
    ``apply``; every cocycle basis, boundary span, residue and kernel comes
    from the dense oracles above, so it shares no elimination with
    ``les_check``."""
    PLA, RBO, RBA = ComplexKind.PLA, ComplexKind.RBO, ComplexKind.RBA
    data = ComplexData(r, m)
    cocycles_of, boundaries_of = {}, {}

    def cocycles(kind: ComplexKind, n: int) -> list[Vector]:
        if (kind, n) not in cocycles_of:
            cocycles_of[kind, n] = dense_kernel_basis(data.d(kind, n))
        return cocycles_of[kind, n]

    def boundaries(kind: ComplexKind, n: int) -> tuple[tuple, tuple]:
        """(vectors, pivots) of the reduced echelon basis of Bₙ = im dₙ₋₁."""
        if (kind, n) not in boundaries_of:
            columns = data.d(kind, n - 1).transpose().entries if n else ()
            boundaries_of[kind, n] = dense_echelon(columns)
        return boundaries_of[kind, n]

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
            zs, (bs, _) = cocycles(*here), boundaries(*here)
            target_bs, target_pivots = boundaries(*target)

            def residue(w: Vector) -> tuple:
                return dense_reduce(target_bs, target_pivots, w)

            images = [outgoing(kind, n, z) for z in zs]
            well_defined = all(
                is_zero_vector(data.d(*target).apply(w)) for w in images
            ) and all(is_zero_vector(residue(outgoing(kind, n, b))) for b in bs)
            map_checks.append((f"{name} deg {n}", well_defined))

            # {z ∈ Z : f(z) ∈ B'} is the kernel of z ↦ f(z) mod B', the
            # residue convention of ``ComplexData.solve``; then add the
            # boundaries of this degree
            members: list[Vector] = []
            if zs:
                residues = RationalMatrix.from_cols([residue(w) for w in images], data.dim(*target))
                for combo in dense_kernel_basis(residues):
                    v = zero_vector(data.dim(*here))
                    for c, z in zip(combo, zs):
                        if c != 0:
                            v = vadd(v, vscale(c, z))
                    members.append(v)
            image = dense_echelon(incoming + list(bs))
            kernel = dense_echelon(members + list(bs))
            positions.append(
                PositionReport(f"H{n}_{kind.name}", len(image[1]), len(kernel[1]), image == kernel)
            )
            incoming = images

    ok = all(p.exact for p in positions) and all(okk for _, okk in map_checks)
    return LESReport(ok, tuple(positions), tuple(map_checks))
