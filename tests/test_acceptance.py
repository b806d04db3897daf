"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are exact rational equality throughout;
the stated runtime targets are asserted where given.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from rbprelie import (
    ComplexKind,
    PreLieAlgebra,
    RBPreLieAlgebra,
    check_bimodule,
    check_jacobi,
    check_morphism,
    check_pre_lie,
    check_rb_bimodule,
    check_rb_operator,
    cohomology_dims,
    derived_bimodule,
    differential_matrix,
    les_check,
    phi,
    phi_literal,
    pla_differential,
    rba_differential,
    rbo_differential,
    regular_bimodule,
    star_algebra,
    sub_adjacent_bracket,
)
from rbprelie.cochains import (
    Cochain,
    RBACochain,
    bilinear_from_cochain,
    cochain_from_bilinear,
    cochain_from_matrix,
    matrix_from_cochain,
    space_dim,
)
from rbprelie.complexes import complex_space_dim
from rbprelie.deformations import (
    TruncatedDeformation,
    check_deformation,
    gauge_transform,
    infinitesimal,
    trivial_deformation,
    trivialize,
)
from rbprelie.extensions import (
    CocyclePair,
    build_extension,
    canonical_section,
    extract_cocycle,
    iso_from_coboundary,
)
from rbprelie.generators import (
    random_cochain,
    random_crossed_module,
    random_fraction,
    random_gauge,
    random_matrix,
    random_rb_pre_lie,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix
from rbprelie.twoalg import (
    TwoAlgebra,
    check_crossed_module,
    check_prelie_2alg,
    check_rb_2alg,
    cocycle_to_skeletal,
    condition_f_value,
    condition_v_value,
    crossed_to_strict,
    skeletal_to_cocycle,
    strict_to_crossed,
)

from conftest import make_a0, make_a1n, make_idempotent
from oracles import (
    naive_bimodule_defects,
    naive_pre_lie_defects,
    naive_rb_bimodule_defects,
    naive_rb_defects,
    second_condition_f,
    second_condition_v,
    sympy_rank,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_checker_oracle_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    count = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        md = rng.randint(1, 3)
        if rng.random() < 0.4:
            r, m = random_valid_pair(rng, d)
            table, t, lam = r.algebra.c, r.operator, r.weight
            S, P, t_m = m.bimodule.S, m.bimodule.P, m.t_m
            md = m.mod_dim
        else:
            table = tuple(
                tuple(
                    tuple(random_fraction(rng) for _ in range(d)) for _ in range(d)
                )
                for _ in range(d)
            )
            t = random_matrix(rng, d, d)
            lam = random_fraction(rng)
            S = tuple(random_matrix(rng, md, md) for _ in range(d))
            P = tuple(random_matrix(rng, md, md) for _ in range(d))
            t_m = random_matrix(rng, md, md)
        alg = PreLieAlgebra(d, table)
        r_obj = RBPreLieAlgebra(alg, lam, t)
        got = check_pre_lie(alg)
        want = naive_pre_lie_defects(table)
        assert got.ok == (not want)
        assert {tuple(i - 1 for i in v.indices) for v in got.violations} == {
            w[0] for w in want
        }
        assert check_rb_operator(r_obj).ok == (not naive_rb_defects(table, t, lam))
        from rbprelie.algebras import Bimodule, RBBimodule

        bimod = Bimodule(d, md, S, P)
        rb_bimod = RBBimodule(bimod, t_m)
        assert check_bimodule(alg, bimod).ok == (
            not naive_bimodule_defects(table, S, P, md)
        )
        assert check_rb_bimodule(r_obj, rb_bimod).ok == (
            not naive_rb_bimodule_defects(table, t, lam, S, P, t_m, md)
        )
        count += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        count >= 200 and elapsed < 30,
        f"{count} structures, three checkers vs naive loops, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_squares_vanish():
    rng = random.Random(102)
    start = time.monotonic()
    instances = 0
    for _ in range(100):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        for n in range(0, 4):
            f = random_cochain(rng, n, r.dim, m.mod_dim)
            assert pla_differential(
                r.algebra, m.bimodule, pla_differential(r.algebra, m.bimodule, f)
            ).is_zero()
            assert rbo_differential(
                r, m, rbo_differential(r, m, f, trusted=True), trusted=True
            ).is_zero()
            from rbprelie.generators import random_rba_cochain

            c = random_rba_cochain(rng, n, r.dim, m.mod_dim)
            assert rba_differential(
                r, m, rba_differential(r, m, c, trusted=True), trusted=True
            ).is_zero()
        instances += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        instances >= 100 and elapsed < 60,
        f"{instances} valid pairs, three squares at degrees 0–3, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_chain_map():
    rng = random.Random(103)
    instances = 0
    for _ in range(100):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        for n in range(1, 4):
            f = random_cochain(rng, n, r.dim, m.mod_dim)
            lhs = phi(r, m, pla_differential(r.algebra, m.bimodule, f))
            rhs = rbo_differential(r, m, phi(r, m, f), trusted=True)
            assert lhs.sub(rhs).is_zero()
        # degree-0 intertwining: both degree-0 coboundaries vanish, and the
        # commutator cochain of any vector maps to the derived commutator
        u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m.mod_dim))
        bm = m.bimodule
        cols = [
            tuple(
                a - b
                for a, b in zip(
                    bm.left(r.algebra.basis_vector(j), u),
                    bm.right(u, r.algebra.basis_vector(j)),
                )
            )
            for j in range(r.dim)
        ]
        comm = cochain_from_matrix(RationalMatrix.from_cols(cols, m.mod_dim))
        der = derived_bimodule(r, m, trusted=True)
        cols2 = [
            tuple(
                a - b
                for a, b in zip(
                    der.bimodule.left(r.algebra.basis_vector(j), u),
                    der.bimodule.right(u, r.algebra.basis_vector(j)),
                )
            )
            for j in range(r.dim)
        ]
        want = cochain_from_matrix(RationalMatrix.from_cols(cols2, m.mod_dim))
        assert phi(r, m, comm).sub(want).is_zero()
        u0 = Cochain(0, r.dim, m.mod_dim, {(): u})
        assert phi(
            r, m, pla_differential(r.algebra, m.bimodule, u0)
        ).sub(rbo_differential(r, m, u0, trusted=True)).is_zero()
        for n in range(1, 5):
            f = random_cochain(rng, n, r.dim, m.mod_dim)
            assert phi(r, m, f).sub(phi_literal(r, m, f)).is_zero()
        instances += 1
    _report(3, instances >= 100, f"{instances} instances: Φ∂=∂Φ (n=1..3), degree-0 anchor, both closed forms (n=1..4)")


def test_criterion_04_derived_structure_suite():
    rng = random.Random(104)
    instances = 0
    for _ in range(60):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        st = star_algebra(r)
        assert check_pre_lie(st.algebra).ok
        assert check_rb_operator(st).ok
        assert check_morphism(st, r, r.operator).ok
        assert check_jacobi(sub_adjacent_bracket(st.algebra)).ok
        der = derived_bimodule(r, m)
        assert check_rb_bimodule(st, der).ok
        instances += 1
    _report(4, instances >= 60, f"{instances} instances: star algebra and derived module pass all checks")


def test_criterion_05_a0_betti_numbers():
    a0 = make_a0()
    reg = regular_bimodule(a0)
    golden = {
        ComplexKind.PLA: [1, 1, 1, 0],
        ComplexKind.RBO: [1, 1, 1, 0],
        ComplexKind.RBA: [0, 1, 2, 1],
    }
    start = time.monotonic()
    ok = True
    for kind, want in golden.items():
        got = cohomology_dims(kind, a0, reg, 3)
        # independent elimination route for the same dimensions
        oracle = []
        prev_rank = 0
        for n in range(4):
            mat = differential_matrix(kind, a0, reg, n)
            rk = sympy_rank(mat)
            oracle.append((mat.cols - rk) - prev_rank)
            prev_rank = rk
        ok = ok and got == want == oracle
    elapsed = time.monotonic() - start
    _report(5, ok and elapsed < 1, f"golden dims match both elimination routes, {elapsed:.2f}s (< 1s)")


def test_criterion_06_dimension_split_and_les():
    rng = random.Random(106)
    a0, a1n = make_a0(), make_a1n(1)
    for r, m in [(a0, regular_bimodule(a0)), (a1n, regular_bimodule(a1n))]:
        for n in range(1, 6):
            assert complex_space_dim(ComplexKind.RBA, n, r.dim, m.mod_dim) == space_dim(
                n, r.dim, m.mod_dim
            ) + space_dim(n - 1, r.dim, m.mod_dim)
        assert les_check(r, m, 3).ok
    count = 0
    for _ in range(25):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        for n in range(1, 6):
            assert complex_space_dim(ComplexKind.RBA, n, r.dim, m.mod_dim) == space_dim(
                n, r.dim, m.mod_dim
            ) + space_dim(n - 1, r.dim, m.mod_dim)
        assert les_check(r, m, 3).ok
        count += 1
    _report(6, count >= 25, f"dimension split (n=1..5) and exactness at every position to degree 3 on A0, A1N, {count} random pairs")


def test_criterion_07_extension_iff():
    rng = random.Random(107)
    cocycles = non_cocycles = 0
    for _ in range(100):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        d, md = r.dim, m.mod_dim
        if rng.random() < 0.5:
            c = random_rba_cocycle(rng, r, m, 2)
            pair = CocyclePair(
                bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part)
            )
        else:
            table = tuple(
                tuple(
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(md))
                    for _ in range(d)
                )
                for _ in range(d)
            )
            pair = CocyclePair(table, random_matrix(rng, md, d))
        built = build_extension(r, m, pair)
        assert built.axioms_ok == built.cocycle_ok
        cocycles += built.cocycle_ok
        non_cocycles += not built.cocycle_ok
    _report(
        7,
        cocycles + non_cocycles >= 100 and cocycles > 0 and non_cocycles > 0,
        f"axioms ⇔ cocycle on {cocycles + non_cocycles} pairs ({cocycles} cocycles, {non_cocycles} non-cocycles)",
    )


def test_criterion_08_extension_round_trips():
    rng = random.Random(108)
    count = iso_count = 0
    for _ in range(40):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        c = random_rba_cocycle(rng, r, m, 2)
        pair = CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))
        built = build_extension(r, m, pair)
        result = extract_cocycle(built.extension, canonical_section(built.extension))
        assert result.pair == pair and result.bimodule == m and result.base == r
        gamma = random_matrix(rng, m.mod_dim, r.dim)
        rows = []
        base_s = canonical_section(built.extension)
        for i in range(built.extension.total.dim):
            rows.append(
                [
                    base_s.entries[i][j]
                    + (gamma.entries[i - r.dim][j] if i >= r.dim else Fraction(0))
                    for j in range(r.dim)
                ]
            )
        perturbed = extract_cocycle(built.extension, RationalMatrix.from_rows(rows))
        g = cochain_from_matrix(gamma)
        want_psi = pla_differential(r.algebra, m.bimodule, g)
        want_chi = phi(r, m, g).scale(Fraction(-1))
        got = perturbed.pair.sub(pair).as_cochain()
        assert got.pla_part.sub(want_psi).is_zero()
        assert got.rbo_part.sub(want_chi).is_zero()
        # cohomologous pair gives an isomorphism passing all checks
        pair2 = CocyclePair(
            bilinear_from_cochain(c.pla_part.sub(want_psi)),
            matrix_from_cochain(c.rbo_part.sub(want_chi)),
        )
        iso = iso_from_coboundary(r, m, pair, pair2)
        if iso.cohomologous:
            assert iso.morphism_ok and iso.diagram_ok
            iso_count += 1
        count += 1
    _report(
        8,
        count >= 40 and iso_count == count,
        f"{count} canonical round trips, section shifts, {iso_count} isomorphisms verified",
    )


def test_criterion_09_deformation_suite():
    rng = random.Random(109)
    # order-1 validity ⇔ degree-2 cocycle, both branches exercised
    valid = invalid = 0
    for _ in range(40):
        r = random_rb_pre_lie(rng, rng.randint(1, 2))
        dim = r.dim
        mu1 = tuple(
            tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(dim))
            for _ in range(dim)
        )
        t1 = random_matrix(rng, dim, dim)
        d = TruncatedDeformation(r, (r.algebra.c, mu1), (r.operator, t1))
        order1 = check_deformation(r, d).orders[1].ok
        pair = RBACochain(cochain_from_bilinear(mu1, dim), cochain_from_matrix(t1))
        closed = rba_differential(r, regular_bimodule(r), pair, trusted=True).is_zero()
        assert order1 == closed
        valid += order1
        invalid += not order1
    assert valid > 0 and invalid > 0
    # gauge transforms preserve validity and shift infinitesimals by the
    # degree-1 coboundary of their first coefficient
    for _ in range(15):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        m = regular_bimodule(r)
        base = gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, r.dim, 2))
        assert check_deformation(r, base).ok
        psi = random_gauge(rng, r.dim, 2)
        moved = gauge_transform(r, base, psi)
        assert check_deformation(r, moved).ok
        diff = infinitesimal(r, moved).cochain.sub(infinitesimal(r, base).cochain)
        p1 = cochain_from_matrix(psi.maps[1])
        assert diff.pla_part.sub(pla_differential(r.algebra, m.bimodule, p1)).is_zero()
        assert diff.rbo_part.add(phi(r, m, p1)).is_zero()
    # rigidity at a vanishing degree-2 group, to order 3
    r = make_idempotent(1)
    assert cohomology_dims(ComplexKind.RBA, r, regular_bimodule(r), 2)[2] == 0
    for _ in range(10):
        d = gauge_transform(r, trivial_deformation(r, 3), random_gauge(rng, 1, 3))
        result = trivialize(r, d)
        assert result.ok
        assert gauge_transform(r, d, result.gauge) == trivial_deformation(r, 3)
    # the obstruction class on the one-dimensional zero fixture
    a0 = make_a0()
    d = TruncatedDeformation(
        a0, (a0.algebra.c, (((Fraction(1),),),)), (a0.operator, RationalMatrix.zeros(1, 1))
    )
    result = trivialize(a0, d)
    assert not result.ok and result.obstruction_order == 1
    assert result.obstruction.residual == ((0, Fraction(1)),)
    _report(9, True, "order-1 ⇔ cocycle, gauge shifts, rigidity to order 3, obstruction class located")


def test_criterion_10_two_term_bijections():
    rng = random.Random(110)
    skeletal = 0
    for _ in range(50):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        c = random_rba_cocycle(rng, r, m, 3)
        t = cocycle_to_skeletal(r, m, c)
        assert check_prelie_2alg(t).ok and check_rb_2alg(t, r.weight).ok
        r2, m2, c2 = skeletal_to_cocycle(t, r.weight)
        assert (r2, m2) == (r, m)
        assert c2.pla_part.sub(c.pla_part).is_zero()
        assert c2.rbo_part.sub(c.rbo_part).is_zero()
        skeletal += 1
    strict = 0
    for _ in range(50):
        cm = random_crossed_module(rng, rng.randint(1, 3))
        assert check_crossed_module(cm).ok
        t = crossed_to_strict(cm, trusted=True)
        assert check_prelie_2alg(t).ok and check_rb_2alg(t, cm.g0.weight).ok
        assert strict_to_crossed(t, cm.g0.weight, trusted=True) == cm
        strict += 1
    tuples = 0
    while tuples < 1000:
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        t = cocycle_to_skeletal(
            r,
            m,
            RBACochain(Cochain.zero(3, r.dim, m.mod_dim), Cochain.zero(2, r.dim, m.mod_dim)),
        )
        t = TwoAlgebra(
            dim0=t.dim0, dim1=t.dim1, d_map=t.d_map, l2_00=t.l2_00, l2_01=t.l2_01,
            l2_10=t.l2_10,
            l3=random_cochain(rng, 3, t.dim0, t.dim1),
            t0=t.t0, t1=t.t1,
            t2=tuple(
                tuple(
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dim1))
                    for _ in range(t.dim0)
                )
                for _ in range(t.dim0)
            ),
        )
        for _ in range(25):
            w, x, y, z = (rng.randrange(t.dim0) for _ in range(4))
            assert list(condition_f_value(t, w, x, y, z)) == list(
                second_condition_f(t, w, x, y, z)
            )
            assert list(condition_v_value(t, r.weight, x, y, z)) == list(
                second_condition_v(t, r.weight, x, y, z)
            )
            tuples += 1
    _report(
        10,
        skeletal >= 50 and strict >= 50 and tuples >= 1000,
        f"{skeletal} skeletal and {strict} strict round trips, dual transcriptions on {tuples} tuples",
    )


def test_criterion_11_cli_contract():
    base = [sys.executable, "-m", "rbprelie.cli"]
    ok_cmd = base + ["cohomology", str(FIXTURES / "a0.yaml"), "--max-degree", "3"]
    first = subprocess.run(ok_cmd, capture_output=True, text=True)
    second = subprocess.run(ok_cmd, capture_output=True, text=True)
    assert first.returncode == 0 and first.stdout == second.stdout and first.stdout
    violation = subprocess.run(
        base + ["check", str(FIXTURES / "a1_broken_rb.yaml")], capture_output=True, text=True
    )
    assert violation.returncode == 1
    assert "defect" in violation.stdout
    malformed = subprocess.run(
        base + ["check", str(FIXTURES / "malformed.yaml")], capture_output=True, text=True
    )
    assert malformed.returncode == 2
    _report(11, True, "byte-identical reports; exit codes 0/1/2 on ok, violation, malformed")
