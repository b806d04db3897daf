import random
from fractions import Fraction
from pathlib import Path

import pytest

from rbprelie import (
    ComplexKind,
    cohomology_dims,
    phi,
    pla_differential,
    regular_bimodule,
)
from rbprelie.cochains import (
    RBACochain,
    bilinear_from_cochain,
    cochain_from_bilinear,
    cochain_from_matrix,
    matrix_from_cochain,
)
from rbprelie.deformations import (
    DeformationError,
    GaugeSeries,
    TruncatedDeformation,
    check_deformation,
    gauge_transform,
    identity_gauge,
    infinitesimal,
    rbo_cocycle_check,
    series_inverse,
    solve_next_order,
    trivial_deformation,
    trivialize,
)
from rbprelie.algebras import check_pre_lie, check_rb_operator, require_valid
from rbprelie.files import parse_algebra_file
from rbprelie.generators import (
    random_gauge,
    random_matrix,
    random_rb_pre_lie,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix, unit_vector

from conftest import make_a0, make_idempotent

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _a0_mu1_deformation():
    a0 = make_a0()
    mu1 = (((Fraction(1),),),)
    return a0, TruncatedDeformation(
        a0, (a0.algebra.c, mu1), (a0.operator, RationalMatrix.zeros(1, 1))
    )


def test_trivial_deformation_valid_every_order():
    rng = random.Random(0)
    for _ in range(6):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        assert check_deformation(r, trivial_deformation(r, 3)).ok


def test_base_mismatch_rejected():
    a0 = make_a0()
    other = make_idempotent()
    with pytest.raises(Exception):
        TruncatedDeformation(
            a0, (other.algebra.c, a0.algebra.c), (a0.operator, a0.operator)
        )


def test_a0_order1_fixture_valid():
    a0, d = _a0_mu1_deformation()
    verdict = check_deformation(a0, d)
    assert verdict.ok


def test_order1_validity_iff_cocycle():
    rng = random.Random(1)
    hits = 0
    for _ in range(30):
        r = random_rb_pre_lie(rng, rng.randint(1, 2))
        dim = r.dim
        mu1 = tuple(
            tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(dim)
            )
            for _ in range(dim)
        )
        t1 = random_matrix(rng, dim, dim)
        d = TruncatedDeformation(r, (r.algebra.c, mu1), (r.operator, t1))
        valid = check_deformation(r, d).orders[1].ok
        pair = RBACochain(cochain_from_bilinear(mu1, dim), cochain_from_matrix(t1))
        from rbprelie.complexes import rba_differential

        closed = rba_differential(r, regular_bimodule(r), pair, trusted=True).is_zero()
        assert valid == closed
        hits += valid
    assert 0 < hits < 30  # both branches exercised


def test_infinitesimal_trivial_is_zero_cocycle():
    rng = random.Random(2)
    r = random_rb_pre_lie(rng, 2)
    result = infinitesimal(r, trivial_deformation(r, 2))
    assert result.cochain.is_zero() and result.is_cocycle


def test_infinitesimal_a0_fixture():
    a0, d = _a0_mu1_deformation()
    result = infinitesimal(a0, d)
    assert result.is_cocycle
    assert bilinear_from_cochain(result.cochain.pla_part) == d.products[1]


def _random_coefficients(rng, dim):
    mu = tuple(tuple(random_matrix(rng, dim, dim).entries) for _ in range(dim))
    return mu, random_matrix(rng, dim, dim)


def test_infinitesimal_rejects_invalid_order1():
    rng = random.Random(5)
    r = random_rb_pre_lie(rng, 2, Fraction(1))
    mu1, t1 = _random_coefficients(rng, 2)
    d = TruncatedDeformation(r, (r.algebra.c, mu1), (r.operator, t1))
    assert check_deformation(r, d).first_bad_order() == 1
    with pytest.raises(DeformationError, match="invalid at order 1") as raised:
        infinitesimal(r, d)
    assert raised.value.violations


def test_infinitesimal_rejects_an_invalid_base():
    # T = Id at weight 0 is not a Rota-Baxter operator: order 0 fails, so
    # there is no infinitesimal to read, even of the trivial deformation
    r, _, _ = parse_algebra_file((FIXTURES / "a1_broken_rb.yaml").read_text())
    with pytest.raises(DeformationError, match="invalid at order 0") as raised:
        infinitesimal(r, trivial_deformation(r, 2))
    assert raised.value.violations


def _count_order_zero_kernels(monkeypatch):
    """Record each order-0 call of the two law kernels, wherever it is looked up."""
    from rbprelie import algebras, deformations

    calls = []
    for module in (algebras, deformations):
        for name in ("pre_lie_defects", "rota_baxter_defects"):
            def counting(*args, _kernel=getattr(module, name), _name=name):
                if args[-1] == 0:
                    calls.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(module, name, counting)
    return calls


def test_order_zero_is_checked_once_per_base(monkeypatch):
    # the validity gate, check_deformation, solve_next_order and trivialize
    # all read the base's order-0 laws; one base object computes them once
    calls = _count_order_zero_kernels(monkeypatch)
    r = make_idempotent(1)
    require_valid(r)
    d = trivial_deformation(r, 2)
    assert check_deformation(r, d).ok
    assert solve_next_order(r, d).solution is not None
    assert trivialize(r, d).ok
    assert sorted(calls) == ["pre_lie_defects", "rota_baxter_defects"]


def test_order_zero_of_an_invalid_base_is_its_axioms_relabelled():
    r, _, _ = parse_algebra_file((FIXTURES / "a1_broken_rb.yaml").read_text())
    d = trivial_deformation(r, 1)
    order_zero = check_deformation(r, d).orders[0]
    want = [
        (f"deform_{kind}_order_0", v.indices, v.defect)
        for kind, axiom in (("product", check_pre_lie(r.algebra)), ("operator", check_rb_operator(r)))
        for v in axiom.violations
    ]
    assert want and [(v.law, v.indices, v.defect) for v in order_zero.violations] == want
    with pytest.raises(DeformationError, match=r"^lower orders invalid \(first bad order 0\)$"):
        solve_next_order(r, d)
    with pytest.raises(DeformationError, match="^deformation invalid at order 0$"):
        trivialize(r, d)


def test_infinitesimal_reads_orders_0_and_1_only():
    # random order-2 coefficients break order 2 but leave the order-1 pair
    rng = random.Random(5)
    r = random_rb_pre_lie(rng, 2, Fraction(1))
    d = trivial_deformation(r, 1)
    mu2, t2 = _random_coefficients(rng, 2)
    broken = TruncatedDeformation(r, d.products + (mu2,), d.operators + (t2,))
    assert check_deformation(r, broken).first_bad_order() == 2
    assert infinitesimal(r, broken) == infinitesimal(r, d)


def test_coboundary_extension_is_cocycle():
    rng = random.Random(3)
    for _ in range(6):
        r, _ = random_valid_pair(rng, rng.randint(1, 2))
        m = regular_bimodule(r)
        gamma = cochain_from_matrix(random_matrix(rng, r.dim, r.dim))
        mu1 = bilinear_from_cochain(pla_differential(r.algebra, m.bimodule, gamma))
        t1 = matrix_from_cochain(phi(r, m, gamma)).scale(Fraction(-1))
        d = TruncatedDeformation(r, (r.algebra.c, mu1), (r.operator, t1))
        assert check_deformation(r, d).orders[1].ok
        assert infinitesimal(r, d).is_cocycle


def test_gauge_identity_fixes_deformation():
    rng = random.Random(4)
    r = random_rb_pre_lie(rng, 2)
    d = trivial_deformation(r, 2)
    assert gauge_transform(r, d, identity_gauge(2, 2)) == d


def test_gauge_of_trivial_is_valid_and_trivializable():
    rng = random.Random(5)
    for _ in range(8):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        psi = random_gauge(rng, r.dim, 3)
        d = gauge_transform(r, trivial_deformation(r, 3), psi)
        assert check_deformation(r, d).ok
        result = trivialize(r, d)
        assert result.ok
        assert gauge_transform(r, d, result.gauge) == trivial_deformation(r, 3)


def test_gauge_order1_expansion_matches_closed_form():
    rng = random.Random(6)
    for _ in range(6):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        dim = r.dim
        psi = random_gauge(rng, dim, 1)
        d = gauge_transform(r, trivial_deformation(r, 1), psi)
        psi1 = psi.maps[1]
        mu = r.algebra
        for p in range(dim):
            for q in range(dim):
                ep, eq = unit_vector(p, dim), unit_vector(q, dim)
                expected = mu.product(psi1.col(p), eq)
                expected = tuple(
                    a + b for a, b in zip(expected, mu.product(ep, psi1.col(q)))
                )
                expected = tuple(
                    a - b for a, b in zip(expected, psi1.apply(mu.c[p][q]))
                )
                assert d.products[1][p][q] == expected
        expected_t1 = r.operator.matmul(psi1).sub(psi1.matmul(r.operator))
        assert d.operators[1] == expected_t1


def test_gauge_preserves_validity_and_shifts_infinitesimal():
    rng = random.Random(7)
    for _ in range(6):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        base = gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, r.dim, 2))
        psi = random_gauge(rng, r.dim, 2)
        transformed = gauge_transform(r, base, psi)
        assert check_deformation(r, transformed).ok
        m = regular_bimodule(r)
        diff = infinitesimal(r, transformed).cochain.sub(infinitesimal(r, base).cochain)
        p1 = cochain_from_matrix(psi.maps[1])
        assert diff.pla_part.sub(pla_differential(r.algebra, m.bimodule, p1)).is_zero()
        assert diff.rbo_part.add(phi(r, m, p1)).is_zero()


def test_series_inverse_and_compose():
    rng = random.Random(8)
    psi = random_gauge(rng, 3, 3)
    eta = series_inverse(psi.maps, 3)
    for n in range(4):
        unit = RationalMatrix.identity(3) if n == 0 else RationalMatrix.zeros(3, 3)
        for left, right in ((eta, psi.maps), (psi.maps, eta)):
            acc = RationalMatrix.zeros(3, 3)
            for i in range(n + 1):
                acc = acc.add(left[i].matmul(right[n - i]))
            assert acc == unit


def test_solve_first_order_returns_zero_pair():
    rng = random.Random(9)
    r = random_rb_pre_lie(rng, 2)
    result = solve_next_order(r, trivial_deformation(r, 0))
    assert result.order == 1 and result.solution is not None
    mu1, t1 = result.solution
    assert all(all(x == 0 for x in v) for row in mu1 for v in row)
    assert t1.is_zero()


def test_solve_extends_trivial_with_zero():
    rng = random.Random(10)
    r = random_rb_pre_lie(rng, 2)
    result = solve_next_order(r, trivial_deformation(r, 2))
    assert result.solution is not None
    assert result.extended == trivial_deformation(r, 3)


def test_solve_a0_order2():
    a0, d = _a0_mu1_deformation()
    result = solve_next_order(a0, d)
    assert result.solution is not None
    assert check_deformation(a0, result.extended).ok


def test_solved_extension_is_always_valid_or_obstructed():
    rng = random.Random(11)
    solved = obstructed = 0
    for _ in range(10):
        r = random_rb_pre_lie(rng, rng.randint(1, 2))
        m = regular_bimodule(r)
        c = random_rba_cocycle(rng, r, m, 2)
        d = TruncatedDeformation(
            r,
            (r.algebra.c, bilinear_from_cochain(c.pla_part)),
            (r.operator, matrix_from_cochain(c.rbo_part)),
        )
        assert check_deformation(r, d).ok
        result = solve_next_order(r, d)
        if result.solution is not None:
            solved += 1
            assert check_deformation(r, result.extended).ok
        else:
            obstructed += 1
            assert result.obstruction.rhs_is_cocycle is not None
    assert solved > 0


def _obstructed_requests(rng, count):
    """(r, deformation) pairs over the regular module whose next order is
    obstructed: order-1 coefficients drawn as random degree-2 cocycles."""
    found = []
    while len(found) < count:
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        c = random_rba_cocycle(rng, r, regular_bimodule(r), 2)
        d = TruncatedDeformation(
            r,
            (r.algebra.c, bilinear_from_cochain(c.pla_part)),
            (r.operator, matrix_from_cochain(c.rbo_part)),
        )
        if solve_next_order(r, d).solution is None:
            found.append((r, d))
    return found


def test_rhs_is_cocycle_agrees_with_the_degree_3_matrix(monkeypatch):
    # an obstructed solve decides rhs_is_cocycle by applying the combined d₃
    # it holds to the target it could not solve for; the eval route of the
    # combined coboundary must agree
    from rbprelie.complexes import ComplexData

    from oracles import rba_differential_by_eval

    targets = []
    solve = ComplexData.solve

    def recording(self, kind, n, target):
        targets.append(target)
        return solve(self, kind, n, target)

    requests = _obstructed_requests(random.Random(31), 6)
    monkeypatch.setattr(ComplexData, "solve", recording)
    for r, d in requests:
        targets.clear()
        result = solve_next_order(r, d)
        (target,) = targets
        pair = RBACochain.from_coords(3, r.dim, r.dim, target)
        defect = rba_differential_by_eval(r, regular_bimodule(r), pair)
        assert result.obstruction.rhs_is_cocycle == defect.is_zero()


def test_obstructed_solve_assembles_each_block_once(built_blocks):
    # the obstruction check reuses the request's ComplexData: d₂ and d₃ are
    # composed from blocks each built once, and no combined matrix is
    # assembled through differential_matrix
    from collections import Counter

    requests = _obstructed_requests(random.Random(31), 3)
    once = Counter({
        (ComplexKind.PLA, 2): 1, ("phi", 2): 1, (ComplexKind.RBO, 1): 1,
        (ComplexKind.PLA, 3): 1, ("phi", 3): 1, (ComplexKind.RBO, 2): 1,
    })
    for r, d in requests:
        built_blocks.clear()
        assert solve_next_order(r, d).obstruction is not None
        assert built_blocks == once


def test_solve_obstruction_deterministic():
    # abelian dim-2 base with zero operator: the degree-2 coboundary matrix
    # vanishes, so any first-order coefficient whose self-composition has a
    # nonzero antisymmetrization obstructs order 2
    from rbprelie.algebras import PreLieAlgebra, RBPreLieAlgebra, zero_table

    r = RBPreLieAlgebra(
        PreLieAlgebra(2, zero_table(2, 2, 2)), Fraction(0), RationalMatrix.zeros(2, 2)
    )
    mu1 = [[[Fraction(0), Fraction(0)] for _ in range(2)] for _ in range(2)]
    mu1[0][1] = [Fraction(1), Fraction(0)]  # e1∘e2 = e1: not left-symmetric
    d = TruncatedDeformation(
        r,
        (r.algebra.c, tuple(tuple(tuple(v) for v in row) for row in mu1)),
        (r.operator, RationalMatrix.zeros(2, 2)),
    )
    assert check_deformation(r, d).ok
    result = solve_next_order(r, d)
    assert result.solution is None
    assert result.obstruction.residual
    assert result.obstruction.rhs_is_cocycle is True


def test_trivialize_trivial_gives_identity_gauge():
    rng = random.Random(12)
    r = random_rb_pre_lie(rng, 2)
    result = trivialize(r, trivial_deformation(r, 3))
    assert result.ok
    assert result.gauge == identity_gauge(2, 3)


def test_trivialize_obstruction_on_a0():
    a0, d = _a0_mu1_deformation()
    result = trivialize(a0, d)
    assert not result.ok
    assert result.obstruction_order == 1
    assert result.obstruction.residual  # nonzero class coordinates


def test_trivialize_succeeds_when_h2_vanishes():
    r = make_idempotent(1)
    m = regular_bimodule(r)
    assert cohomology_dims(ComplexKind.RBA, r, m, 2)[2] == 0
    rng = random.Random(13)
    for _ in range(5):
        d = gauge_transform(r, trivial_deformation(r, 3), random_gauge(rng, 1, 3))
        assert trivialize(r, d).ok


def test_trivialize_decides_gauges_by_rb_derivations():
    # z, the pre-Lie part of a degree-1 combined cocycle over the regular
    # module, is an RB derivation; Id − t·z gauges the trivial deformation to
    # one whose μ₂ holds the term μ(zx, zy).  trivialize corrects order by
    # order with greedy choices, so it must find a gauge back here.
    cases = nonzero_mu2 = 0
    for seed in range(60):
        rng = random.Random(seed)
        r = random_rb_pre_lie(rng, 1 + seed % 3)
        z = matrix_from_cochain(random_rba_cocycle(rng, r, regular_bimodule(r), 1).pla_part)
        if z.is_zero():
            continue
        for order in (2, 3):
            zeros = (RationalMatrix.zeros(r.dim, r.dim),) * (order - 1)
            psi = GaugeSeries((RationalMatrix.identity(r.dim), z.scale(Fraction(-1))) + zeros)
            d = gauge_transform(r, trivial_deformation(r, order), psi)
            result = trivialize(r, d)
            assert result.ok, (seed, order)
            assert gauge_transform(r, d, result.gauge) == trivial_deformation(r, order)
            cases += 1
            nonzero_mu2 += any(any(v) for row in d.products[2] for v in row)
    assert cases >= 60 and nonzero_mu2 >= 5, (cases, nonzero_mu2)


def test_rbo_cocycle_examples():
    a0 = make_a0()
    assert rbo_cocycle_check(a0, RationalMatrix.zeros(1, 1)).ok
    assert rbo_cocycle_check(a0, a0.operator).ok
    rng = random.Random(14)
    found_violation = False
    for _ in range(12):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        assert rbo_cocycle_check(r, RationalMatrix.zeros(r.dim, r.dim)).ok
        if not rbo_cocycle_check(r, random_matrix(rng, r.dim, r.dim)).ok:
            found_violation = True
    assert found_violation


def test_rbo_cocycle_check_runs_no_module_law_checker(monkeypatch):
    # the gate returns the regular module without checking its laws again
    from rbprelie import algebras

    calls = []

    def counting(name):
        checker = getattr(algebras, name)

        def counted(*args):
            calls.append(name)
            return checker(*args)

        return counted

    for name in ("check_bimodule", "check_rb_bimodule"):
        monkeypatch.setattr(algebras, name, counting(name))
    rng = random.Random(15)
    for _ in range(4):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        rbo_cocycle_check(r, random_matrix(rng, r.dim, r.dim))
    assert calls == []
