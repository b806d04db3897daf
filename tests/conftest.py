import dataclasses
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rbprelie
from rbprelie import Bimodule, PreLieAlgebra, RBBimodule, RBPreLieAlgebra, regular_bimodule
from rbprelie.algebras import zero_table
from rbprelie.cochains import Cochain, RBACochain, bilinear_from_cochain
from rbprelie.linalg import RationalMatrix
from rbprelie.twoalg import _prelie_2alg_defects, _rb_2alg_defects, cocycle_to_skeletal

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


def skeletal_with_pair(r, m, c):
    """The skeletal structure on (r, m) whose l₃ and T₂ are the two parts of
    the degree-3 pair c, a cocycle or not."""
    d, md = r.dim, m.mod_dim
    zero = RBACochain(Cochain.zero(3, d, md), Cochain.zero(2, d, md))
    t = cocycle_to_skeletal(r, m, zero)
    return dataclasses.replace(t, l3=c.pla_part, t2=bilinear_from_cochain(c.rbo_part))


# law → (structure, weight, that law's defects by 0-based key) of the last call
_kept_top_defects: dict = {}


def _top_defects(law, t, lam=None):
    """The defects of the top coherence ``law`` ("f" or "v") of a two-term
    structure, keyed by 0-based basis tuple.  The defects of the last
    structure asked about are kept, so a loop over its keys reads its
    stream once."""
    kept = _kept_top_defects.get(law)
    if kept is None or kept[0] is not t or kept[1] != lam:
        stream = _prelie_2alg_defects(t) if law == "f" else _rb_2alg_defects(t, lam)
        defects = {key: v for name, key, v in stream if name == law}
        kept = _kept_top_defects[law] = (t, lam, defects)
    return kept[2]


def condition_f_value(t, w, x, y, z):
    """The twelve-term top coherence of a two-term structure on basis
    indices: its ``"f"`` defect in ``_prelie_2alg_defects``."""
    return _top_defects("f", t)[w, x, y, z]


def condition_v_value(t, lam, x1, x2, x3):
    """The long operator coherence on basis indices: the ``"v"`` defect in
    ``_rb_2alg_defects`` at weight λ."""
    return _top_defects("v", t, Fraction(lam))[x1, x2, x3]


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
