"""Pre-Lie algebras, Rota-Baxter operators and (Rota-Baxter) bimodules.

Structures are immutable data.  An algebra computes the defects of its own
pre-Lie identity and Rota-Baxter law once, on first use, and keeps them
(``pre_lie_law``, ``rota_baxter_law``); nothing else about validity is
kept, and nothing outlives the object.  Every
checker checks one family of laws: it produces a (law, 0-based basis tuple,
defect) triple per basis tuple, and :func:`verdict` turns them into a
:class:`Verdict` listing *all* violated basis tuples with their defect
vectors (1-based indices, since they are diagnostics).  Composite checkers
in other modules chain the same triples.  The pre-Lie identity and the
Rota-Baxter law are written once, as the tⁿ coefficients
:func:`pre_lie_defects` and :func:`rota_baxter_defects` of a formal series;
the axioms are their order 0.

Each law and each derived structure is written once, as one of five
integer cores (:func:`pre_lie_core`, :func:`rota_baxter_core`,
:func:`bimodule_core`, :func:`star_core`, :func:`derived_core`): it takes
nested ``int`` tensors and the denominators its terms need, and returns
numerators over one denominator shared by all terms.  One weighted
Rota-Baxter law serves the algebra, its modules and each deformation order:
:func:`rota_baxter_core` is the law of one bilinear table with an operator
series on each slot and one on the values, run with T everywhere for the
algebra and a deformation's tⁿ coefficient, and on the action tables with
(T, T_M) or (T_M, T) on the slots and T_M on the values for a module.  Its
public entry point reads each family of tables or matrices once in the
integer form of ``linalg`` (``integer_form``: nested ``int`` lists over the
lcm of their denominators), calls the core and makes one ``Fraction`` per
nonzero returned entry (``fractions_over``); ``twoalg`` calls the same
cores.  The cores' products, weighted sums, transposes and sums μ(A·, B·)
of a table through two matrices are the ``int_*`` operations of
``linalg``.  This is exact arithmetic in another order, and a
``Fraction``'s normal form is unique, so every value equals the one
``Fraction`` arithmetic gives.

:func:`require_valid` is the one validity gate: operations that require
valid input pass through it.  Five take ``trusted=True`` to skip it, for a
caller that has just passed the gate: :func:`star_algebra` (set by the CLI
and ``complexes``), :func:`derived_bimodule` (set by ``complexes``),
``complexes.rba_differential`` (set by the benchmark generator), and
``extensions.build_extension`` and ``twoalg.crossed_to_strict`` (set by the
CLI and the benchmark generator).

Conventions:
  * structure constants ``c[i][j][k]`` = coefficient of ``e_k`` in
    ``e_i · e_j`` (0-based in code);
  * an operator matrix acts on coordinate columns, i.e. column ``j`` holds
    the coordinates of the image of ``e_j``;
  * ``S[i]`` is the left action of ``e_i`` on the module, ``P[i]`` the
    right action ``u ↦ u · e_i``;
  * the left and right multiplication matrices (L, R) of a bilinear table
    are ``L[i]·y = e_i·y`` and ``R[k]·x = x·e_k``; a bimodule's (S, P) are
    the L of its left action table and the R of its right one
    (:func:`action_tables` and :func:`bimodule_from_tables` go between the
    two forms);
  * a table is moved along matrices in the integer form, as the cores read
    it: :func:`transport_table` gives out·table(a·, b·), a change of basis
    when a = b = φ and out = φ⁻¹.  :meth:`PreLieAlgebra.product`, the
    general product ``Σ xᵢ·Lᵢ·y`` (:func:`bilinear`), is the public product
    of two vectors; no package module outside this one calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .linalg import (
    RationalMatrix,
    Vector,
    fractions_over,
    int_columns,
    int_matmul,
    int_matrix_sum,
    int_matvec,
    int_pullback,
    int_transpose,
    integer_form,
    is_zero_vector,
    vadd,
    vsub,
    zero_vector,
)

ProductTable = tuple[tuple[Vector, ...], ...]
Matrices = tuple[RationalMatrix, ...]
Multiplications = tuple[Matrices, Matrices]  # (L, R) of a table

class InvalidStructureError(ValueError):
    """Raised when an operation requiring valid input receives invalid data."""


@dataclass(frozen=True)
class Violation:
    law: str
    indices: tuple[int, ...]  # 1-based basis indices
    defect: Vector


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


Defects = Iterable[tuple[str, tuple[int, ...], Vector]]


def verdict(defects: Defects, notes: Sequence[str] = ()) -> Verdict:
    """The verdict on (law, 0-based basis tuple, defect) triples, in order:
    every nonzero defect is a violation with 1-based indices, and the
    verdict is ok exactly when there is none."""
    violations = tuple(
        Violation(law, tuple(i + 1 for i in key), defect)
        for law, key, defect in defects
        if not is_zero_vector(defect)
    )
    return Verdict(ok=not violations, violations=violations, notes=tuple(notes))


def named(law: str, keyed: dict[tuple[int, ...], Vector]) -> Defects:
    """The triples of one law from a kernel's defects keyed by basis tuple."""
    return ((law, key, defect) for key, defect in keyed.items())


def zero_table(dim_left: int, dim_right: int, dim_out: int) -> ProductTable:
    return tuple(tuple(zero_vector(dim_out) for _ in range(dim_right)) for _ in range(dim_left))


def multiplication_matrices(
    table: ProductTable, dim_right: int, dim_out: int
) -> Multiplications:
    """The left and right multiplication matrices (L, R) of a bilinear table:
    ``L[i]·y = e_i·y`` and ``R[k]·x = x·e_k``, so column j of ``L[i]`` and
    column i of ``R[j]`` both hold ``table[i][j]``."""
    left = tuple(RationalMatrix.from_cols(row, dim_out) for row in table)
    right = tuple(
        RationalMatrix.from_cols([row[k] for row in table], dim_out) for k in range(dim_right)
    )
    return left, right


def bilinear(left: Matrices, x: Sequence, y: Sequence, dim_out: int) -> Vector:
    """Σ xᵢ·Lᵢ·y: the product of x and y through the left multiplication
    matrices of their table."""
    out = list(zero_vector(dim_out))
    for xi, li in zip(x, left, strict=True):
        if xi:
            for k, v in enumerate(li.apply(y)):
                if v:
                    out[k] += xi * v
    return tuple(out)


@dataclass(frozen=True)
class PreLieAlgebra:
    dim: int
    c: ProductTable  # c[i][j] = coordinates of e_i · e_j

    def __post_init__(self) -> None:
        if len(self.c) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row) for row in self.c
        ):
            raise ValueError("structure constant table has wrong shape")

    @cached_property
    def multiplications(self) -> Multiplications:
        """(L, R) of the structure constants."""
        return multiplication_matrices(self.c, self.dim, self.dim)

    @cached_property
    def pre_lie_law(self) -> dict[tuple[int, int, int], Vector]:
        """The defects of the pre-Lie identity, :func:`pre_lie_defects` at
        order 0, computed once per object."""
        return pre_lie_defects((self.c,), 0)

    def product(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure constants."""
        return bilinear(self.multiplications[0], x, y, self.dim)


@dataclass(frozen=True)
class RBPreLieAlgebra:
    algebra: PreLieAlgebra
    weight: Fraction
    operator: RationalMatrix  # column j = coordinates of T(e_j)

    def __post_init__(self) -> None:
        d = self.algebra.dim
        if (self.operator.rows, self.operator.cols) != (d, d):
            raise ValueError("operator must be square of the algebra dimension")
        object.__setattr__(self, "weight", Fraction(self.weight))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def rota_baxter_law(self) -> dict[tuple[int, int], Vector]:
        """The defects of the weighted Rota-Baxter law,
        :func:`rota_baxter_defects` at order 0, computed once per object."""
        return rota_baxter_defects((self.algebra.c,), (self.operator,), self.weight, 0)


@dataclass(frozen=True)
class Bimodule:
    base_dim: int
    mod_dim: int
    S: tuple[RationalMatrix, ...]  # S[i]: left action of e_i
    P: tuple[RationalMatrix, ...]  # P[i]: right action u ↦ u · e_i

    def __post_init__(self) -> None:
        if len(self.S) != self.base_dim or len(self.P) != self.base_dim:
            raise ValueError("need one action matrix per algebra basis vector")
        for mat in (*self.S, *self.P):
            if (mat.rows, mat.cols) != (self.mod_dim, self.mod_dim):
                raise ValueError("action matrices must be square of the module dimension")


@dataclass(frozen=True)
class RBBimodule:
    bimodule: Bimodule
    t_m: RationalMatrix

    def __post_init__(self) -> None:
        m = self.bimodule.mod_dim
        if (self.t_m.rows, self.t_m.cols) != (m, m):
            raise ValueError("module operator must be square of the module dimension")

    @property
    def base_dim(self) -> int:
        return self.bimodule.base_dim

    @property
    def mod_dim(self) -> int:
        return self.bimodule.mod_dim


def regular_bimodule(r: RBPreLieAlgebra) -> RBBimodule:
    """The algebra acting on itself, with the same operator: (S, P) = (L, R)."""
    d = r.dim
    return RBBimodule(Bimodule(d, d, *r.algebra.multiplications), r.operator)


def action_tables(bm: Bimodule) -> tuple[ProductTable, ProductTable]:
    """The product tables of a bimodule's actions, the inverse of reading
    (S, P) as the L of one table and the R of the other: ``left[x][u]`` =
    e_x·u, column u of S[x], and ``right[u][x]`` = u·e_x, column u of P[x]."""
    left = tuple(tuple(s.col(u) for u in range(bm.mod_dim)) for s in bm.S)
    right = tuple(tuple(p.col(u) for p in bm.P) for u in range(bm.mod_dim))
    return left, right


def bimodule_from_tables(left: ProductTable, right: ProductTable) -> Bimodule:
    """The bimodule of two action tables, the inverse of :func:`action_tables`:
    S is the L of ``left`` and P the R of ``right``."""
    d, md = len(left), len(right)
    return Bimodule(
        d, md, multiplication_matrices(left, md, md)[0], multiplication_matrices(right, d, md)[1]
    )


def transport_table(
    table: ProductTable, a: RationalMatrix, b: RationalMatrix, out: RationalMatrix
) -> ProductTable:
    """The table moved along a change of basis, out·table(a·, b·): entry
    (i, j) is out applied to the product of column i of a and column j of b.
    The table and the three matrices are read once over one denominator D,
    the product is one :func:`linalg.int_pullback`, and each entry, over D⁴,
    is one ``Fraction`` per nonzero."""
    den, (mu, a_int, b_int, out_int) = integer_form((table, a, b, out))
    terms = [(1, mu, int_columns(a_int, a.cols), int_columns(b_int, b.cols))]
    return tuple(
        tuple(fractions_over(int_matvec(out_int, v), den**4) for v in row)
        for row in int_pullback(terms, out.cols)
    )


def pre_lie_core(mus: Sequence[list], n: int) -> dict[tuple[int, int, int], list[int]]:
    """The numerators of :func:`pre_lie_defects` for ``int`` tables μ₀…μₙ
    over one denominator D: every term is an integer over D²."""
    dim = len(mus[0])
    live = [any(map(any, chain.from_iterable(table))) for table in mus[: n + 1]]
    pairs = [(mus[a], mus[n - a]) for a in range(n + 1) if live[a] and live[n - a]]
    span = range(dim)
    out = {}
    for i in span:
        for j in span:
            for k in span:
                acc = [0] * dim
                for mu_a, mu_b in pairs:
                    # μ_a(μ_b(eᵢ,eⱼ) − μ_b(eⱼ,eᵢ), e_k) − μ_a(eᵢ, μ_b(eⱼ,e_k)) + μ_a(eⱼ, μ_b(eᵢ,e_k))
                    bs = zip(mu_b[i][j], mu_b[j][i], mu_b[j][k], mu_b[i][k])
                    for (bij, bji, bjk, bik), a_p, a_ip, a_jp in zip(bs, mu_a, mu_a[i], mu_a[j]):
                        if c := bij - bji:
                            acc = [s + c * x for s, x in zip(acc, a_p[k])]
                        if bjk:
                            acc = [s - bjk * x for s, x in zip(acc, a_ip)]
                        if bik:
                            acc = [s + bik * x for s, x in zip(acc, a_jp)]
                out[(i, j, k)] = acc
    return out


def pre_lie_defects(mus: Sequence[ProductTable], n: int) -> dict[tuple[int, int, int], Vector]:
    """The tⁿ coefficient of the pre-Lie identity for μ_t = Σ μᵢtⁱ on every
    basis triple (eᵢ, eⱼ, e_k), keyed (i, j, k):

        Σ_{a+b=n} μ_a(μ_b(x, y), z) − μ_a(x, μ_b(y, z)) − (x ↔ y).

    At n = 0 this is the pre-Lie identity of ``mus[0]``.
    """
    den, ints = integer_form(mus[: n + 1])
    return {key: fractions_over(v, den * den) for key, v in pre_lie_core(ints, n).items()}


def rota_baxter_core(
    mu: list, left: list, right: list, out: list, p: int, q: int, d_t: int, n: int
) -> dict[tuple[int, int], list[int]]:
    """The numerators of the tⁿ coefficient of the weighted Rota-Baxter law of
    a bilinear table μ_t = Σ μᵢtⁱ with an operator series on each slot (L_t,
    R_t) and one on the values (O_t), on every pair (x, y) of basis vectors
    of the two slots, keyed by their indices:

        μ_t(L_t x, R_t y) − O_t(μ_t(x, R_t y) + μ_t(L_t x, y) + λ μ_t(x, y)).

    μ₀…μₙ are ``int`` tables over D_μ, L, R and O series of ``int`` matrices
    over one D_T and λ = p/q: every term is an integer over q·D_μ·D_T²."""
    l_cols = [int_columns(m, len(m)) for m in left[: n + 1]]
    r_cols = l_cols if right is left else [int_columns(m, len(m)) for m in right[: n + 1]]
    l_units, r_units = int_columns(None, len(left[0])), int_columns(None, len(right[0]))
    # q for each table and 0 for a zero one, a weight the pullback skips
    qs = [q if any(map(any, chain.from_iterable(table))) else 0 for table in mu[: n + 1]]
    orders = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    acc = int_pullback([(qs[a], mu[a], l_cols[b], r_cols[c]) for a, b, c in orders], len(out[0]))
    for a, o_a in enumerate(out[: n + 1]):
        if not any(map(any, o_a)):
            continue
        m = n - a  # the order of the sum O_a is applied to
        terms = [(p * d_t if qs[m] else 0, mu[m], l_units, r_units)]
        for b, q_b in enumerate(qs[: m + 1]):
            terms += [(q_b, mu[b], l_units, r_cols[m - b]), (q_b, mu[b], l_cols[m - b], r_units)]
        for acc_row, inner_row in zip(acc, int_pullback(terms, len(out[0]))):
            for j, inner in enumerate(inner_row):
                acc_row[j] = [s - z for s, z in zip(acc_row[j], int_matvec(o_a, inner))]
    return {(i, j): v for i, row in enumerate(acc) for j, v in enumerate(row)}


def rota_baxter_defects(
    mus: Sequence[ProductTable], ts: Sequence[RationalMatrix], lam: Fraction, n: int
) -> dict[tuple[int, int], Vector]:
    """The tⁿ coefficient of the weighted Rota-Baxter law for μ_t = Σ μᵢtⁱ,
    T_t = Σ Tᵢtⁱ on every basis pair (eᵢ, eⱼ), keyed (i, j):

        μ_t(T_t x, T_t y) − T_t(μ_t(x, T_t y) + μ_t(T_t x, y) + λ μ_t(x, y)).

    The weight multiplies the ``T_a∘μ_b`` sum at every order.  At n = 0 this
    is the Rota-Baxter law of ``ts[0]`` for ``mus[0]``: :func:`rota_baxter_core`
    with T on both slots and on the values.
    """
    d_mu, mu = integer_form(mus[: n + 1])
    d_t, t = integer_form(ts[: n + 1])
    p, q = lam.numerator, lam.denominator
    den = q * d_mu * d_t * d_t
    laws = rota_baxter_core(mu, t, t, t, p, q, d_t, n)
    return {key: fractions_over(v, den) for key, v in laws.items()}


def check_pre_lie(a: PreLieAlgebra) -> Verdict:
    """Associator symmetry on all basis triples."""
    return verdict(named("pre_lie", a.pre_lie_law))


def check_rb_operator(r: RBPreLieAlgebra) -> Verdict:
    """Weighted Rota-Baxter law on all basis pairs."""
    return verdict(named("rota_baxter", r.rota_baxter_law))


def bimodule_core(
    c: list, S: Sequence[list], P: Sequence[list], d_c: int, d_a: int
) -> dict[tuple[int, int, int], tuple[list[int], list[int]]]:
    """The numerators of both pre-Lie representation laws for an ``int``
    table c over D_c and ``int`` action matrices S, P over D_a, keyed by
    (i, j, u) for basis vectors eᵢ, eⱼ acting on e_u: (left_action,
    mixed_action), every term an integer over D_c·D_a²."""
    md = len(S[0]) if S else 0
    out = {}
    for i in range(len(c)):
        for j in range(len(c)):
            bracket = [x - y for x, y in zip(c[i][j], c[j][i])]
            # on each e_u, as column u: x·(y·u) − (x·y)·u symmetric in x, y
            left = [
                [d_c * (x - y) - d_a * z for x, y, z in zip(*rows)]
                for rows in zip(
                    int_matmul(S[i], S[j], md),
                    int_matmul(S[j], S[i], md),
                    int_matrix_sum(bracket, S, md, md),
                )
            ]
            # and x·(u·y) − (x·u)·y = u·(x·y) − (u·x)·y
            mixed = [
                [d_c * (x - y + w) - d_a * z for x, y, z, w in zip(*rows)]
                for rows in zip(
                    int_matmul(S[i], P[j], md),
                    int_matmul(P[j], S[i], md),
                    int_matrix_sum(c[i][j], P, md, md),
                    int_matmul(P[j], P[i], md),
                )
            ]
            columns = zip(int_transpose(left, md), int_transpose(mixed, md))
            for u, laws in enumerate(columns):
                out[(i, j, u)] = laws
    return out


def bimodule_defects(a: PreLieAlgebra, m: Bimodule) -> Defects:
    """Both pre-Lie representation laws on basis pairs acting on basis
    vectors, :func:`bimodule_core` read once."""
    if m.base_dim != a.dim:
        raise ValueError("module base dimension does not match the algebra")
    d_c, (c,) = integer_form((a.c,))
    d_a, actions = integer_form(m.S + m.P)
    den = d_c * d_a * d_a
    laws = bimodule_core(c, actions[: a.dim], actions[a.dim :], d_c, d_a)
    for key, (left, mixed) in laws.items():
        yield "left_action", key, fractions_over(left, den)
        yield "mixed_action", key, fractions_over(mixed, den)


def rb_bimodule_defects(r: RBPreLieAlgebra, m: RBBimodule) -> Defects:
    """Both weighted compatibility laws between T and the module operator,
    keyed (i, u) for eᵢ and e_u: the weighted Rota-Baxter law
    (:func:`rota_baxter_core`) of the left action with (T, T_M) on its slots,
    rb_left, and of the right action with (T_M, T), rb_right, both with T_M
    on the values."""
    bm, lam = m.bimodule, r.weight
    if bm.base_dim != r.dim:
        raise ValueError("module base dimension does not match the algebra")
    md = bm.mod_dim
    d_t, (t, tm) = integer_form((r.operator, m.t_m))
    d_a, actions = integer_form(bm.S + bm.P)
    # the action tables: left[i][u] = eᵢ·u, column u of S[i], and
    # right[u][i] = u·eᵢ, column u of P[i]
    left = [int_transpose(s, md) for s in actions[: r.dim]]
    right = int_transpose([int_transpose(act, md) for act in actions[r.dim :]], md)
    p, q = lam.numerator, lam.denominator
    den = q * d_a * d_t * d_t
    rb_left = rota_baxter_core([left], [t], [tm], [tm], p, q, d_t, 0)
    rb_right = rota_baxter_core([right], [tm], [t], [tm], p, q, d_t, 0)
    for i, u in rb_left:
        yield "rb_left", (i, u), fractions_over(rb_left[i, u], den)
        yield "rb_right", (i, u), fractions_over(rb_right[u, i], den)


def check_bimodule(a: PreLieAlgebra, m: Bimodule) -> Verdict:
    """The verdict on :func:`bimodule_defects`."""
    return verdict(bimodule_defects(a, m))


def check_rb_bimodule(r: RBPreLieAlgebra, m: RBBimodule) -> Verdict:
    """The verdict on :func:`rb_bimodule_defects`."""
    return verdict(rb_bimodule_defects(r, m))


def sub_adjacent_bracket(a: PreLieAlgebra) -> ProductTable:
    """Commutator bracket table b[i][j] = e_i·e_j − e_j·e_i."""
    return tuple(
        tuple(vsub(a.c[i][j], a.c[j][i]) for j in range(a.dim)) for i in range(a.dim)
    )


def check_jacobi(bracket: ProductTable) -> Verdict:
    """Jacobi identity for an antisymmetric bracket table."""
    dim = len(bracket)
    left, _ = multiplication_matrices(bracket, dim, dim)

    def cyclic(i: int, j: int, k: int) -> Vector:
        defect = vadd(left[i].apply(bracket[j][k]), left[j].apply(bracket[k][i]))
        return vadd(defect, left[k].apply(bracket[i][j]))

    return verdict(
        ("jacobi", (i, j, k), cyclic(i, j, k))
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(j + 1, dim)
    )


def require_valid(r: RBPreLieAlgebra, m: RBBimodule | None = None) -> RBBimodule:
    """The coefficients of a request: ``m``, or the regular module when it is
    None, once r is a Rota-Baxter pre-Lie algebra and m a Rota-Baxter bimodule
    over it.  The regular module is not re-checked: its bimodule laws are the
    pre-Lie identity and its Rota-Baxter bimodule laws the Rota-Baxter law.

    Raises :class:`InvalidStructureError` otherwise.
    """
    if not (check_pre_lie(r.algebra).ok and check_rb_operator(r).ok):
        raise InvalidStructureError("input is not a Rota-Baxter pre-Lie algebra; run `check`")
    if m is None:
        return regular_bimodule(r)
    if not (check_bimodule(r.algebra, m.bimodule).ok and check_rb_bimodule(r, m).ok):
        raise InvalidStructureError("module is not a Rota-Baxter bimodule; run `check`")
    return m


def star_core(c: list, t: list, p: int, q: int, d_t: int) -> list[list[list[int]]]:
    """The numerators of eᵢ⋆eⱼ = eᵢ·T(eⱼ) + T(eᵢ)·eⱼ + λ eᵢ·eⱼ for an ``int``
    table c over D_c, an ``int`` matrix T over D_T and λ = p/q, as
    ``star[i][j]``, every term an integer over q·D_c·D_T."""
    dim = len(c)
    units, cols = int_columns(None, dim), int_columns(t, dim)
    return int_pullback([(q, c, units, cols), (q, c, cols, units), (p * d_t, c, units, units)], dim)


def star_algebra(r: RBPreLieAlgebra, *, trusted: bool = False) -> RBPreLieAlgebra:
    """The induced product a⋆b = a·T(b) + T(a)·b + λ a·b, same operator and
    weight: :func:`star_core` read once."""
    if not trusted:
        require_valid(r)
    lam = r.weight
    d_c, (c,) = integer_form((r.algebra.c,))
    d_t, (t,) = integer_form((r.operator,))
    den = lam.denominator * d_c * d_t
    table = tuple(
        tuple(fractions_over(v, den) for v in row)
        for row in star_core(c, t, lam.numerator, lam.denominator, d_t)
    )
    return RBPreLieAlgebra(PreLieAlgebra(r.dim, table), lam, r.operator)


def derived_core(
    t: list, tm: list, S: Sequence[list], P: Sequence[list], d_t: int, d_m: int
) -> tuple[list, list]:
    """The numerators of the derived actions a▷u = T(a)·u − T_M(a·u) and
    u◁a = u·T(a) − T_M(u·a) for ``int`` matrices T over D_T, T_M over D_M and
    actions S, P over D_a: (S', P'), one ``int`` matrix per algebra basis
    vector, every term an integer over D_T·D_a·D_M."""
    md = len(tm)
    return tuple(
        [
            [
                [d_m * x - d_t * y for x, y in zip(*rows)]
                for rows in zip(int_matrix_sum(col, acts, md, md), int_matmul(tm, act, md))
            ]
            for col, act in zip(int_transpose(t, len(t)), acts)
        ]
        for acts in (S, P)
    )


def derived_bimodule(r: RBPreLieAlgebra, m: RBBimodule, *, trusted: bool = False) -> RBBimodule:
    """Actions a▷u = T(a)·u − T_M(a·u), u◁a = u·T(a) − T_M(u·a); operator
    unchanged: :func:`derived_core` read once.

    The result is a Rota-Baxter bimodule over ``star_algebra(r)``.
    """
    if not trusted:
        require_valid(r, m)
    bm = m.bimodule
    d_t, (t,) = integer_form((r.operator,))
    d_m, (tm,) = integer_form((m.t_m,))
    d_a, actions = integer_form(bm.S + bm.P)
    den, md = d_t * d_a * d_m, bm.mod_dim
    S_new, P_new = (
        tuple(
            RationalMatrix.from_rows([fractions_over(row, den) for row in mat], md)
            for mat in mats
        )
        for mats in derived_core(t, tm, actions[: bm.base_dim], actions[bm.base_dim :], d_t, d_m)
    )
    return RBBimodule(Bimodule(bm.base_dim, md, S_new, P_new), m.t_m)


def check_morphism(r1: RBPreLieAlgebra, r2: RBPreLieAlgebra, phi: RationalMatrix) -> Verdict:
    """φ(a·₁b) = φ(a)·₂φ(b) on basis pairs, and φ∘T₁ = T₂∘φ."""
    if r1.weight != r2.weight:
        raise ValueError("weight mismatch between source and target")
    if (phi.rows, phi.cols) != (r2.dim, r1.dim):
        raise ValueError("morphism matrix has wrong shape")
    comm = phi.matmul(r1.operator).sub(r2.operator.matmul(phi))
    # φ(eᵢ·₁eⱼ) over D², and φ(eᵢ)·₂φ(eⱼ), c₂ pulled back through φ ⊗ φ, over D³
    den, (c1, c2, p) = integer_form((r1.algebra.c, r2.algebra.c, phi))
    cols = int_columns(p, r1.dim)
    pulled = int_pullback([(1, c2, cols, cols)], r2.dim)
    product = (
        ("product", (i, j), fractions_over(
            [den * x - y for x, y in zip(int_matvec(p, c1[i][j]), pulled[i][j])], den**3
        ))
        for i in range(r1.dim)
        for j in range(r1.dim)
    )
    operator = (("operator", (j,), comm.col(j)) for j in range(r1.dim))
    notes = ("degenerate: zero map",) if phi.is_zero() else ()
    return verdict(chain(product, operator), notes)
