import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rbprelie
from rbprelie import Bimodule, PreLieAlgebra, RBBimodule, RBPreLieAlgebra, regular_bimodule
from rbprelie.algebras import zero_table
from rbprelie.linalg import RationalMatrix, fractions_over
from rbprelie.twoalg import _condition_f, _condition_v

# `python -m rbprelie.cli` subprocesses import the same package as the tests,
# whether it is installed or found through pytest's `pythonpath`
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(rbprelie.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)


def make_a0() -> RBPreLieAlgebra:
    """Dimension 1, zero product, zero operator, weight 0."""
    return RBPreLieAlgebra(
        PreLieAlgebra(1, zero_table(1, 1, 1)), Fraction(0), RationalMatrix.zeros(1, 1)
    )


def make_a1(weight=0, operator=None) -> RBPreLieAlgebra:
    """Dimension 2 with e1·e1 = e2 and the given operator (default zero)."""
    table = [[[Fraction(0), Fraction(0)] for _ in range(2)] for _ in range(2)]
    table[0][0] = [Fraction(0), Fraction(1)]
    alg = PreLieAlgebra(2, tuple(tuple(tuple(v) for v in row) for row in table))
    op = operator if operator is not None else RationalMatrix.zeros(2, 2)
    return RBPreLieAlgebra(alg, Fraction(weight), op)


def make_a1n(weight=1) -> RBPreLieAlgebra:
    """make_a1 with T(e1) = e2, T(e2) = 0."""
    return make_a1(weight, RationalMatrix.from_cols([[0, 1], [0, 0]], 2))


def make_affine() -> RBPreLieAlgebra:
    """Dimension 2 with e1·e2 = e2 only (non-associative), zero operator."""
    table = [[[Fraction(0), Fraction(0)] for _ in range(2)] for _ in range(2)]
    table[0][1] = [Fraction(0), Fraction(1)]
    alg = PreLieAlgebra(2, tuple(tuple(tuple(v) for v in row) for row in table))
    return RBPreLieAlgebra(alg, Fraction(0), RationalMatrix.zeros(2, 2))


def make_idempotent(weight=1) -> RBPreLieAlgebra:
    """Dimension 1 with e1·e1 = e1; rigid at weight 1 with zero operator."""
    return RBPreLieAlgebra(
        PreLieAlgebra(1, (((Fraction(1),),),)), Fraction(weight), RationalMatrix.zeros(1, 1)
    )


def make_noncommuting_module() -> tuple[RBPreLieAlgebra, RBBimodule]:
    """The 2-dimensional zero algebra, T = 0 at weight 0, and a 2-dimensional
    module with T_M = 0, zero right actions and non-commuting left actions.

    Both Rota-Baxter bimodule laws hold (every term is zero), but the left
    actions break the bimodule law S₁S₂ = S₂S₁, so it is not a representation.
    """
    r = RBPreLieAlgebra(
        PreLieAlgebra(2, zero_table(2, 2, 2)), Fraction(0), RationalMatrix.zeros(2, 2)
    )
    left = (RationalMatrix.from_rows([[0, 1], [0, 0]]), RationalMatrix.from_rows([[0, 0], [1, 0]]))
    zero = RationalMatrix.zeros(2, 2)
    return r, RBBimodule(Bimodule(2, 2, left, (zero, zero)), zero)


def condition_f_value(t, w, x, y, z):
    """The twelve-term top coherence of a two-term structure on basis
    indices: the numerators of ``_condition_f`` over D²."""
    n = t.integers
    return fractions_over(_condition_f(n)[w, x, y, z], n.den * n.den)


def condition_v_value(t, lam, x1, x2, x3):
    """The long operator coherence on basis indices: the numerators of
    ``_condition_v`` over q²·D⁴ for λ = p/q."""
    lam, n = Fraction(lam), t.integers
    return fractions_over(_condition_v(n, lam)[x1, x2, x3], lam.denominator**2 * n.den**4)


@pytest.fixture
def built_blocks(monkeypatch) -> Counter:
    """Counts of the blocks assembled while the test runs: (kind, n) for each
    ``complexes.differential_matrix`` call and ("phi", n) for each
    ``complexes.phi_matrix`` call, looked up where ``ComplexData`` finds them."""
    from rbprelie import complexes

    assemble, assemble_phi = complexes.differential_matrix, complexes.phi_matrix
    built: Counter = Counter()

    def counting_differential(kind, r, m, n):
        built[(kind, n)] += 1
        return assemble(kind, r, m, n)

    def counting_phi(r, m, n):
        built[("phi", n)] += 1
        return assemble_phi(r, m, n)

    monkeypatch.setattr(complexes, "differential_matrix", counting_differential)
    monkeypatch.setattr(complexes, "phi_matrix", counting_phi)
    return built


@pytest.fixture
def a0():
    return make_a0()


@pytest.fixture
def a1n():
    return make_a1n()


@pytest.fixture
def a0_reg(a0):
    return regular_bimodule(a0)


@pytest.fixture
def a1n_reg(a1n):
    return regular_bimodule(a1n)
