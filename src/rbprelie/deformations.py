"""Order-by-order formal deformations of a Rota-Baxter pre-Lie algebra.

A truncated deformation of (g, μ, T) is a pair of coefficient lists
μ₀..μ_N (bilinear maps g⊗g → g) and T₀..T_N (operators), with μ₀, T₀ the
base structure.  Coefficients live in the complexes with coefficients in
the regular Rota-Baxter bimodule.

The order-n conditions are the t^n coefficients of the pre-Lie identity
and of the weighted Rota-Baxter law for μ_t = Σ μᵢtⁱ, T_t = Σ Tᵢtⁱ:
``algebras.pre_lie_defects`` and ``algebras.rota_baxter_defects``, whose
order 0 is the axioms.  Note the weight λ multiplies the ``Σ Tᵢ∘μⱼ`` sum in
the operator condition at every order, exactly as it does at order zero.

Those kernels and :func:`gauge_transform` read the coefficient tables and
matrices as they are, once per call, in the integer form of ``linalg``
(``int`` tensors over one common denominator per family), and make a
``Fraction`` only for each returned entry; no multiplication matrices are
built for a deformation's tables.  The gauge transform's sums
C_s = Σ μ_b(ψᵢ·, ψⱼ·) are one ``linalg.int_pullback`` each, the kernel the
Rota-Baxter law sums its products with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .algebras import (
    InvalidStructureError,
    ProductTable,
    RBPreLieAlgebra,
    Verdict,
    Violation,
    named,
    pre_lie_defects,
    regular_bimodule,
    require_valid,
    rota_baxter_defects,
    verdict,
    zero_table,
)
from .cochains import (
    Cochain,
    RBACochain,
    bilinear_from_cochain,
    cochain_from_bilinear,
    cochain_from_matrix,
    matrix_from_cochain,
)
from .complexes import ComplexData, ComplexKind
from .linalg import (
    RationalMatrix,
    fractions_over,
    int_columns,
    int_matmul,
    int_matrix_sum,
    int_matvec,
    int_pullback,
    integer_form,
)


class DeformationError(InvalidStructureError):
    """Raised when an operation's validity precondition fails."""

    def __init__(self, message: str, violations: tuple[Violation, ...] = ()):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class TruncatedDeformation:
    base: RBPreLieAlgebra
    products: tuple[ProductTable, ...]  # index n holds μ_n
    operators: tuple[RationalMatrix, ...]  # index n holds T_n

    def __post_init__(self) -> None:
        if len(self.products) != len(self.operators) or not self.products:
            raise ValueError("need matching μ and T coefficient lists, including order 0")
        if self.products[0] != self.base.algebra.c:
            raise InvalidStructureError("order-0 product does not match the base product")
        if self.operators[0] != self.base.operator:
            raise InvalidStructureError("order-0 operator does not match the base operator")
        d = self.base.dim
        for table in self.products:
            if len(table) != d or any(
                len(row) != d or any(len(v) != d for v in row) for row in table
            ):
                raise ValueError("product coefficient table has wrong shape")
        for op in self.operators:
            if (op.rows, op.cols) != (d, d):
                raise ValueError("operator coefficient has wrong shape")

    @property
    def order(self) -> int:
        return len(self.products) - 1


def trivial_deformation(r: RBPreLieAlgebra, order: int) -> TruncatedDeformation:
    d = r.dim
    products = (r.algebra.c,) + tuple(zero_table(d, d, d) for _ in range(order))
    operators = (r.operator,) + tuple(RationalMatrix.zeros(d, d) for _ in range(order))
    return TruncatedDeformation(r, products, operators)


@dataclass(frozen=True)
class DeformationVerdict:
    ok: bool
    orders: tuple[Verdict, ...]  # index n = verdict for the order-n conditions

    def __bool__(self) -> bool:
        return self.ok

    def first_bad_order(self) -> int | None:
        for n, v in enumerate(self.orders):
            if not v.ok:
                return n
        return None


def _order_defects(r: RBPreLieAlgebra, d: TruncatedDeformation, n: int) -> tuple[dict, dict]:
    """The order-n product and operator defects; order 0 is the base's own
    laws, which r keeps once computed (``require_valid`` has usually read
    them already)."""
    if n == 0:
        return r.algebra.pre_lie_law, r.rota_baxter_law
    product = pre_lie_defects(d.products, n)
    return product, rota_baxter_defects(d.products, d.operators, r.weight, n)


def check_deformation(r: RBPreLieAlgebra, d: TruncatedDeformation) -> DeformationVerdict:
    """The order-n product and operator conditions for every n ≤ order."""
    if d.base != r:
        raise ValueError("deformation was built over a different base structure")
    per_order = []
    for n in range(d.order + 1):
        product, operator = _order_defects(r, d, n)
        per_order.append(verdict(chain(
            named(f"deform_product_order_{n}", product),
            named(f"deform_operator_order_{n}", operator),
        )))
    return DeformationVerdict(all(v.ok for v in per_order), tuple(per_order))


@dataclass(frozen=True)
class InfinitesimalResult:
    cochain: RBACochain  # degree-2 pair (μ₁, T₁)
    is_cocycle: bool
    defect: RBACochain  # its combined-complex coboundary


def infinitesimal(r: RBPreLieAlgebra, d: TruncatedDeformation) -> InfinitesimalResult:
    """The pair (μ₁, T₁) as a combined 2-cochain, once orders 0 and 1 hold."""
    if d.order < 1:
        raise DeformationError("deformation has no order-1 coefficients")
    truncated = TruncatedDeformation(r, d.products[:2], d.operators[:2])
    verdict = check_deformation(r, truncated)
    n = verdict.first_bad_order()
    if n is not None:
        raise DeformationError(f"deformation is invalid at order {n}", verdict.orders[n].violations)
    pair = RBACochain(
        cochain_from_bilinear(d.products[1], r.dim), cochain_from_matrix(d.operators[1])
    )
    defect = ComplexData(r, regular_bimodule(r)).coboundary(ComplexKind.RBA, pair)
    return InfinitesimalResult(pair, defect.is_zero(), defect)


@dataclass(frozen=True)
class GaugeSeries:
    maps: tuple[RationalMatrix, ...]  # maps[0] must be the identity

    def __post_init__(self) -> None:
        if not self.maps:
            raise ValueError("gauge series needs at least the order-0 map")
        n = self.maps[0].rows
        if self.maps[0] != RationalMatrix.identity(n):
            raise ValueError("gauge series must start at the identity")
        for mat in self.maps:
            if (mat.rows, mat.cols) != (n, n):
                raise ValueError("gauge coefficients must be square of one size")

    @property
    def order(self) -> int:
        return len(self.maps) - 1


def identity_gauge(dim: int, order: int) -> GaugeSeries:
    return GaugeSeries(
        (RationalMatrix.identity(dim),) + tuple(RationalMatrix.zeros(dim, dim) for _ in range(order))
    )


def series_inverse(maps: Sequence[RationalMatrix], order: int) -> list[RationalMatrix]:
    """Coefficients of the multiplicative inverse of a series with unit head."""
    dim = maps[0].rows
    eta = [RationalMatrix.identity(dim)]
    for n in range(1, order + 1):
        acc = RationalMatrix.zeros(dim, dim)
        for i in range(n):
            psi_coeff = maps[n - i] if n - i < len(maps) else RationalMatrix.zeros(dim, dim)
            acc = acc.add(eta[i].matmul(psi_coeff))
        eta.append(-acc)
    return eta


def gauge_transform(
    r: RBPreLieAlgebra, d: TruncatedDeformation, psi: GaugeSeries
) -> TruncatedDeformation:
    """The deformation (ψ_t⁻¹∘μ_t∘(ψ_t⊗ψ_t), ψ_t⁻¹∘T_t∘ψ_t), truncated.

    With η = ψ_t⁻¹ and the μ, T, ψ and η coefficients each over their
    common denominator, C_s = Σ_{b+i+j=s} μ_b(ψᵢ·, ψⱼ·), one pullback, is
    an integer table over D_μ·D_ψ², and the order-n product Σ_{a+s=n} η_a∘C_s
    is over D_η·D_μ·D_ψ²; likewise U_s = Σ_{b+i=s} T_b∘ψᵢ is over D_T·D_ψ
    and the order-n operator Σ_{a+s=n} η_a∘U_s over D_η·D_T·D_ψ.
    """
    if psi.order < d.order:
        raise ValueError("gauge series must reach the deformation order")
    dim, n_max = r.dim, d.order
    d_mu, mus = integer_form(d.products)
    d_t, ts = integer_form(d.operators)
    d_psi, psis = integer_form(psi.maps[: n_max + 1])
    d_eta, etas = integer_form(series_inverse(psi.maps, n_max))
    cols = [int_columns(m, dim) for m in psis]
    product_sums = [
        int_pullback(
            [(1, mus[b], cols[i], cols[s - b - i]) for b in range(s + 1) for i in range(s + 1 - b)],
            dim,
        )
        for s in range(n_max + 1)
    ]
    operator_sums = [
        int_matrix_sum(
            [1] * (s + 1), [int_matmul(ts[b], psis[s - b], dim) for b in range(s + 1)], dim, dim
        )
        for s in range(n_max + 1)
    ]
    new_products = []
    new_operators = []
    for n in range(n_max + 1):
        table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for a in range(n + 1):
            eta_a = etas[a]
            for row, summed in zip(table, product_sums[n - a]):
                for acc, vector in zip(row, summed):
                    if any(vector):
                        acc[:] = [z + y for z, y in zip(acc, int_matvec(eta_a, vector))]
        den = d_eta * d_mu * d_psi * d_psi
        new_products.append(tuple(tuple(fractions_over(v, den) for v in row) for row in table))
        products = [int_matmul(etas[a], operator_sums[n - a], dim) for a in range(n + 1)]
        op = int_matrix_sum([1] * (n + 1), products, dim, dim)
        den = d_eta * d_t * d_psi
        rows = [fractions_over(row, den) for row in op]
        new_operators.append(RationalMatrix.from_rows(rows, dim))
    return TruncatedDeformation(r, tuple(new_products), tuple(new_operators))


@dataclass(frozen=True)
class Obstruction:
    """Residue of a target outside the image of a differential, expressed on
    the non-pivot coordinates of the eliminated image."""

    residual: tuple[tuple[int, Fraction], ...]
    rhs_is_cocycle: bool | None = None


@dataclass(frozen=True)
class SolveNextOrderResult:
    order: int
    solution: tuple[ProductTable, RationalMatrix] | None
    extended: TruncatedDeformation | None
    obstruction: Obstruction | None


def solve_next_order(r: RBPreLieAlgebra, d: TruncatedDeformation) -> SolveNextOrderResult:
    """Assemble the order-n right-hand sides from lower orders and solve the
    degree-2 coboundary equation for (μ_n, T_n); n = d.order + 1."""
    verdict = check_deformation(r, d)
    if not verdict.ok:
        raise DeformationError(
            f"lower orders invalid (first bad order {verdict.first_bad_order()})"
        )
    n = d.order + 1
    dim = r.dim
    # right-hand side: the order-n defect of the deformation extended by a
    # zero μₙ and a zero Tₙ; its product part is a skew degree-3 value on
    # (a∧b)⊗c, kept on the keys a < b
    mus = d.products + (zero_table(dim, dim, dim),)
    ts = d.operators + (RationalMatrix.zeros(dim, dim),)
    product, operator = pre_lie_defects(mus, n), rota_baxter_defects(mus, ts, r.weight, n)
    target = RBACochain(
        Cochain(3, dim, dim, {key: v for key, v in product.items() if key[0] < key[1]}),
        Cochain(2, dim, dim, operator),
    )
    data = ComplexData(r, regular_bimodule(r))
    x, residual = data.solve(ComplexKind.RBA, 2, target.coords())
    if x is None:
        is_cocycle = data.coboundary(ComplexKind.RBA, target).is_zero()
        return SolveNextOrderResult(n, None, None, Obstruction(residual, is_cocycle))
    pair = RBACochain.from_coords(2, dim, dim, x)
    mu_n = bilinear_from_cochain(pair.pla_part)
    t_n = matrix_from_cochain(pair.rbo_part)
    extended = TruncatedDeformation(r, d.products + (mu_n,), d.operators + (t_n,))
    return SolveNextOrderResult(n, (mu_n, t_n), extended, None)


@dataclass(frozen=True)
class TrivializeResult:
    gauge: GaugeSeries | None
    obstruction_order: int | None = None
    obstruction: Obstruction | None = None

    @property
    def ok(self) -> bool:
        return self.gauge is not None


def trivialize(r: RBPreLieAlgebra, d: TruncatedDeformation) -> TrivializeResult:
    """Kill the coefficients order by order with degree-1 corrections.

    At order k the pair (μ_k, T_k) of the current deformation is a
    degree-2 cocycle; we solve the degree-1 coboundary equation for a
    correction ψ_k and gauge by (Id − ψ_k t^k).  The running gauge is
    composed in place: coefficient n ≥ k loses the one product
    total_{n−k}∘ψ_k.  Returns it, or the residue class of the first order
    that cannot be killed.
    """
    verdict = check_deformation(r, d)
    if not verdict.ok:
        raise DeformationError(
            f"deformation invalid at order {verdict.first_bad_order()}"
        )
    dim = r.dim
    data = ComplexData(r, regular_bimodule(r))
    n_max = d.order
    current = d
    total = list(identity_gauge(dim, n_max).maps)
    for k in range(1, n_max + 1):
        mu_k, t_k = current.products[k], current.operators[k]
        target = RBACochain(cochain_from_bilinear(mu_k, dim), cochain_from_matrix(t_k))
        if target.is_zero():
            continue
        y, residual = data.solve(ComplexKind.RBA, 1, target.coords())
        if y is None:
            return TrivializeResult(None, k, Obstruction(residual))
        correction = RBACochain.from_coords(1, dim, dim, y)
        psi_k = matrix_from_cochain(correction.pla_part)
        step = GaugeSeries((RationalMatrix.identity(dim),) + tuple(
            -psi_k if n == k else RationalMatrix.zeros(dim, dim) for n in range(1, n_max + 1)
        ))
        current = gauge_transform(r, current, step)
        total[k:] = [total[n].sub(total[n - k].matmul(psi_k)) for n in range(k, n_max + 1)]
    return TrivializeResult(GaugeSeries(tuple(total)))


def rbo_cocycle_check(r: RBPreLieAlgebra, t1: RationalMatrix) -> Verdict:
    """Is t1, read as a degree-1 operator cochain over the regular module,
    closed under the operator-complex coboundary?"""
    if (t1.rows, t1.cols) != (r.dim, r.dim):
        raise ValueError("candidate must be square of the algebra dimension")
    data = ComplexData(r, require_valid(r))
    result = data.coboundary(ComplexKind.RBO, cochain_from_matrix(t1))
    return verdict(named("rbo_cocycle", dict(sorted(result.values.items()))))
