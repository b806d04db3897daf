import random
from fractions import Fraction

import pytest

from rbprelie import (
    Bimodule,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    check_bimodule,
    check_jacobi,
    check_morphism,
    check_pre_lie,
    check_rb_bimodule,
    check_rb_operator,
    derived_bimodule,
    regular_bimodule,
    star_algebra,
    sub_adjacent_bracket,
)
from rbprelie.algebras import InvalidStructureError, Verdict, require_valid, zero_table
from rbprelie.generators import (
    coadjoint_module,
    random_matrix,
    random_rb_pre_lie,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix, is_zero_vector

from conftest import make_a0, make_a1, make_a1n, make_affine, make_noncommuting_module
from oracles import naive_pre_lie_defects, naive_rb_defects


def test_abelian_is_pre_lie():
    alg = PreLieAlgebra(2, zero_table(2, 2, 2))
    assert check_pre_lie(alg).ok


def test_a1_is_pre_lie():
    assert check_pre_lie(make_a1().algebra).ok


def test_right_multiplication_algebra_violates():
    # e1·e2 = e1 only: associator symmetry fails at (1, 2, 2)
    table = [[[Fraction(0), Fraction(0)] for _ in range(2)] for _ in range(2)]
    table[0][1] = [Fraction(1), Fraction(0)]
    alg = PreLieAlgebra(2, tuple(tuple(tuple(v) for v in row) for row in table))
    verdict = check_pre_lie(alg)
    assert not verdict.ok
    assert any(v.indices == (1, 2, 2) for v in verdict.violations)
    witness = next(v for v in verdict.violations if v.indices == (1, 2, 2))
    assert witness.defect == (Fraction(1), Fraction(0))


def test_rb_zero_operator_any_weight():
    for weight in (0, 1, Fraction(-7, 3)):
        r = make_a1(weight)
        assert check_rb_operator(r).ok


def test_rb_minus_weight_identity():
    rng = random.Random(0)
    for _ in range(10):
        alg = random_rb_pre_lie(rng, rng.randint(1, 3)).algebra
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        r = RBPreLieAlgebra(alg, lam, RationalMatrix.identity(alg.dim).scale(-lam))
        assert check_rb_operator(r).ok


def test_rb_a1n_any_weight():
    for weight in (0, 1, Fraction(-7, 3)):
        r = make_a1n(weight)
        assert check_rb_operator(r).ok


def test_rb_identity_violation():
    r = make_a1(0, RationalMatrix.identity(2))
    verdict = check_rb_operator(r)
    assert not verdict.ok
    witness = next(v for v in verdict.violations if v.indices == (1, 1))
    # left side e2, right side 2·e2
    assert witness.defect == (Fraction(0), Fraction(-1))


def test_rb_check_leaves_the_pre_lie_identity_to_the_gate():
    # e1·e2 = e1 is not pre-Lie; with T = 0 the Rota-Baxter law still holds
    table = [[[Fraction(0), Fraction(0)] for _ in range(2)] for _ in range(2)]
    table[0][1] = [Fraction(1), Fraction(0)]
    alg = PreLieAlgebra(2, tuple(tuple(tuple(v) for v in row) for row in table))
    r = RBPreLieAlgebra(alg, Fraction(0), RationalMatrix.zeros(2, 2))
    assert check_rb_operator(r) == Verdict(ok=True)
    assert not check_pre_lie(alg).ok
    with pytest.raises(InvalidStructureError, match="not a Rota-Baxter pre-Lie algebra"):
        require_valid(r)


def test_require_valid_returns_the_coefficients():
    for r in (make_a0(), make_a1(), make_a1n()):
        assert require_valid(r) == regular_bimodule(r)
    rng = random.Random(11)
    for _ in range(5):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        assert require_valid(r, m) is m


def test_gate_rejects_module_failing_only_the_bimodule_laws():
    r, m = make_noncommuting_module()
    assert check_rb_bimodule(r, m).ok
    assert not check_bimodule(r.algebra, m.bimodule).ok
    with pytest.raises(InvalidStructureError, match="module is not a Rota-Baxter bimodule"):
        require_valid(r, m)
    with pytest.raises(InvalidStructureError, match="module is not a Rota-Baxter bimodule"):
        derived_bimodule(r, m)


def test_bimodule_regular_cases():
    for r in (make_a0(), make_a1(), make_a1n()):
        m = regular_bimodule(r)
        assert check_bimodule(r.algebra, m.bimodule).ok


def test_bimodule_violation_reported():
    r = make_a1()
    reg = regular_bimodule(r).bimodule
    swapped = Bimodule(
        2, 2, (RationalMatrix.from_rows([[0, 1], [0, 0]]), reg.S[1]), reg.P
    )
    assert not check_bimodule(r.algebra, swapped).ok


def test_bimodule_dimension_mismatch():
    r = make_a1()
    other = regular_bimodule(make_a0()).bimodule
    with pytest.raises(ValueError):
        check_bimodule(r.algebra, other)


def test_rb_bimodule_regular_of_valid():
    rng = random.Random(1)
    for _ in range(8):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        assert check_rb_bimodule(r, regular_bimodule(r)).ok


def test_rb_bimodule_zero_ops():
    r = make_a1(1)
    reg = regular_bimodule(make_a1(1, RationalMatrix.zeros(2, 2)))
    m = RBBimodule(reg.bimodule, RationalMatrix.zeros(2, 2))
    assert check_rb_bimodule(r, m).ok


def test_rb_bimodule_identity_tm_violates():
    r = make_a1n(1)
    m = RBBimodule(regular_bimodule(r).bimodule, RationalMatrix.identity(2))
    assert not check_rb_bimodule(r, m).ok


def test_sub_adjacent_bracket_cases():
    assert all(
        is_zero_vector(v)
        for row in sub_adjacent_bracket(PreLieAlgebra(2, zero_table(2, 2, 2)))
        for v in row
    )
    assert all(is_zero_vector(v) for row in sub_adjacent_bracket(make_a1().algebra) for v in row)
    bracket = sub_adjacent_bracket(make_affine().algebra)
    assert bracket[0][1] == (Fraction(0), Fraction(1))
    assert bracket[1][0] == (Fraction(0), Fraction(-1))


def test_sub_adjacent_jacobi_randomized():
    rng = random.Random(2)
    for _ in range(10):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        assert check_jacobi(sub_adjacent_bracket(r.algebra)).ok


def test_star_abelian_stays_abelian():
    rng = random.Random(3)
    alg = PreLieAlgebra(2, zero_table(2, 2, 2))
    r = RBPreLieAlgebra(alg, Fraction(2), random_matrix(rng, 2, 2))
    st = star_algebra(r)
    assert all(is_zero_vector(v) for row in st.algebra.c for v in row)


def test_star_minus_weight_identity_scales_product():
    rng = random.Random(4)
    for _ in range(6):
        base = random_rb_pre_lie(rng, rng.randint(1, 3))
        lam = base.weight
        r = RBPreLieAlgebra(base.algebra, lam, RationalMatrix.identity(base.dim).scale(-lam))
        st = star_algebra(r)
        for i in range(base.dim):
            for j in range(base.dim):
                expected = tuple(-lam * x for x in base.algebra.c[i][j])
                assert st.algebra.c[i][j] == expected


def test_star_a1n_fixed_point():
    r = make_a1n(1)
    st = star_algebra(r)
    assert st.algebra.c == r.algebra.c
    assert st.weight == r.weight and st.operator == r.operator


def test_star_rejects_invalid():
    bad = make_a1(0, RationalMatrix.identity(2))
    with pytest.raises(InvalidStructureError):
        star_algebra(bad)


def test_star_properties_randomized():
    rng = random.Random(5)
    for _ in range(12):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        st = star_algebra(r)
        assert check_pre_lie(st.algebra).ok
        assert check_rb_operator(st).ok
        assert check_morphism(st, r, r.operator).ok
        assert check_jacobi(sub_adjacent_bracket(st.algebra)).ok


def test_derived_bimodule_zero_ops():
    r = make_a1(1)  # T = 0
    m = RBBimodule(regular_bimodule(r).bimodule, RationalMatrix.zeros(2, 2))
    der = derived_bimodule(r, m)
    assert all(mat.is_zero() for mat in der.bimodule.S + der.bimodule.P)


def test_derived_bimodule_minus_weight_identity_zero_actions():
    rng = random.Random(6)
    for _ in range(6):
        base = random_rb_pre_lie(rng, rng.randint(1, 3))
        lam = base.weight
        r = RBPreLieAlgebra(base.algebra, lam, RationalMatrix.identity(base.dim).scale(-lam))
        m = RBBimodule(
            regular_bimodule(base).bimodule, RationalMatrix.identity(base.dim).scale(-lam)
        )
        der = derived_bimodule(r, m)
        assert all(mat.is_zero() for mat in der.bimodule.S + der.bimodule.P)


def test_derived_bimodule_a1n_regular_vanishes():
    r = make_a1n(1)
    der = derived_bimodule(r, regular_bimodule(r))
    assert all(mat.is_zero() for mat in der.bimodule.S + der.bimodule.P)


def test_derived_bimodule_valid_over_star_randomized():
    rng = random.Random(7)
    for _ in range(12):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        der = derived_bimodule(r, m)
        assert der.t_m == m.t_m
        assert check_rb_bimodule(star_algebra(r), der).ok


def test_morphism_identity_and_star_map():
    r = make_a1n(1)
    assert check_morphism(r, r, RationalMatrix.identity(2)).ok
    assert check_morphism(star_algebra(r), r, r.operator).ok


def test_morphism_zero_map_flagged_degenerate():
    r = make_a1n(1)
    verdict = check_morphism(r, r, RationalMatrix.zeros(2, 2))
    assert verdict.ok
    assert any("degenerate" in note for note in verdict.notes)


def test_morphism_weight_mismatch():
    with pytest.raises(ValueError):
        check_morphism(make_a1n(1), make_a1n(2), RationalMatrix.identity(2))


def test_checkers_agree_with_naive_oracles_on_arbitrary_structures():
    rng = random.Random(8)
    for _ in range(40):
        d = rng.randint(1, 3)
        # arbitrary (usually invalid) structure constants and operators
        table = tuple(
            tuple(
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
                for _ in range(d)
            )
            for _ in range(d)
        )
        alg = PreLieAlgebra(d, table)
        lam = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        t = random_matrix(rng, d, d)
        got = check_pre_lie(alg)
        want = naive_pre_lie_defects(table)
        assert got.ok == (not want)
        assert [tuple(i - 1 for i in v.indices) for v in got.violations] == [w[0] for w in want]
        got_rb = check_rb_operator(RBPreLieAlgebra(alg, lam, t))
        assert got_rb.ok == (not naive_rb_defects(table, t, lam))


def test_regular_module_laws_are_the_algebra_laws():
    # why require_valid does not re-check the regular module: its bimodule
    # laws are the pre-Lie identity, its Rota-Baxter bimodule laws the
    # Rota-Baxter law (rb_left on (i, u) is the law on (e_i, e_u)); a given
    # module passes the gate iff it passes both module checks
    rng = random.Random(10)
    invalid_seen = {"pre_lie": 0, "rota_baxter": 0, "module": 0}
    for step in range(30):
        d, md = rng.randint(1, 3), rng.randint(1, 2)
        if step % 3 == 0:
            r, m = random_valid_pair(rng, d)
        else:
            table = tuple(
                tuple(
                    tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
                    for _ in range(d)
                )
                for _ in range(d)
            )
            r = RBPreLieAlgebra(
                PreLieAlgebra(d, table), Fraction(rng.randint(-2, 2)), random_matrix(rng, d, d)
            )
            m = RBBimodule(
                Bimodule(
                    d,
                    md,
                    tuple(random_matrix(rng, md, md) for _ in range(d)),
                    tuple(random_matrix(rng, md, md) for _ in range(d)),
                ),
                random_matrix(rng, md, md),
            )
        reg = regular_bimodule(r)
        pre_lie, rb = check_pre_lie(r.algebra), check_rb_operator(r)
        invalid_seen["pre_lie"] += not pre_lie.ok
        invalid_seen["rota_baxter"] += not rb.ok
        assert check_bimodule(r.algebra, reg.bimodule).ok == pre_lie.ok
        rb_bimodule = check_rb_bimodule(r, reg)
        assert rb_bimodule.ok == rb.ok
        assert [(v.indices, v.defect) for v in rb_bimodule.violations if v.law == "rb_left"] == [
            (v.indices, v.defect) for v in rb.violations
        ]
        module_ok = check_bimodule(r.algebra, m.bimodule).ok and check_rb_bimodule(r, m).ok
        invalid_seen["module"] += not module_ok
        if pre_lie.ok and rb.ok and module_ok:
            assert require_valid(r, m) is m
        else:
            with pytest.raises(InvalidStructureError):
                require_valid(r, m)
    assert all(invalid_seen.values())


def test_coadjoint_module_is_valid_with_nonzero_actions():
    # the dual of the regular module passes the validity gate on every draw,
    # and on most draws the algebra acts on it
    acting = 0
    for seed in range(30):
        for dim in (2, 3):
            r, _ = random_valid_pair(random.Random(seed), dim)
            m = coadjoint_module(r)
            assert require_valid(r, m) is m
            acting += not all(a.is_zero() for a in (*m.bimodule.S, *m.bimodule.P))
    assert acting >= 30


def test_random_generators_produce_valid_structures():
    rng = random.Random(9)
    for _ in range(25):
        r, m = random_valid_pair(rng, rng.randint(1, 4))
        assert check_pre_lie(r.algebra).ok
        assert check_rb_operator(r).ok
        assert check_bimodule(r.algebra, m.bimodule).ok
        assert check_rb_bimodule(r, m).ok
