import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from rbprelie import (
    ComplexKind,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    cohomology_dims,
    derived_bimodule,
    differential_matrix,
    les_check,
    phi,
    pla_differential,
    rba_differential,
    rbo_differential,
    regular_bimodule,
    star_algebra,
)
from rbprelie.algebras import Bimodule, InvalidStructureError, require_valid, zero_table
from rbprelie.cochains import (
    Cochain,
    RBACochain,
    bilinear_from_cochain,
    cochain_from_matrix,
    matrix_from_cochain,
    space_dim,
)
from rbprelie.complexes import (
    ComplexData,
    LESReport,
    PositionReport,
    complex_space_dim,
    phi_matrix,
)
from rbprelie.deformations import (
    TruncatedDeformation,
    gauge_transform,
    solve_next_order,
    trivial_deformation,
    trivialize,
)
from rbprelie.files import cochain_document, dump_document, parse_algebra_file, twoalg_document
from rbprelie.generators import (
    coadjoint_module,
    conjugate_bimodule,
    conjugate_rb,
    invert,
    random_cochain,
    random_crossed_module,
    random_gauge,
    random_invertible,
    random_rb_pre_lie,
    random_rba_cochain,
    random_rba_cocycle,
    random_valid_pair,
    random_vector,
)
from rbprelie.linalg import (
    RationalMatrix,
    rank,
    unit_vector,
    zero_vector,
)
from rbprelie.twoalg import crossed_to_strict

from conftest import make_a0, make_a1, make_a1n, make_affine, make_noncommuting_module
from oracles import (
    dense_echelon,
    dense_reduce,
    dense_solve,
    les_by_subspaces,
    matrix_by_eval,
    phi_by_eval,
    phi_literal,
    pla_differential_by_eval,
    rba_differential_by_eval,
    rbo_differential_by_eval,
    rbo_differential_expanded,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_differential_over_abelian_zero_actions_vanishes():
    alg = PreLieAlgebra(2, zero_table(2, 2, 2))
    zero = RationalMatrix.zeros(2, 2)
    m = Bimodule(2, 2, (zero, zero), (zero, zero))
    rng = random.Random(0)
    for n in range(0, 4):
        f = random_cochain(rng, n, 2, 2)
        assert pla_differential(alg, m, f).is_zero()


def test_differential_degree1_example():
    r = make_a1()
    m = regular_bimodule(r).bimodule
    f = cochain_from_matrix(RationalMatrix.from_cols([(1, 0), (0, 0)], 2))
    df = pla_differential(r.algebra, m, f)
    assert dict(df.values) == {(0, 0): (Fraction(0), Fraction(2))}


def test_degree0_differentials_are_zero():
    # the zero convention: the unique degree-0 coboundary compatible with
    # the square-zero law over non-associative products
    r = make_affine()
    m = regular_bimodule(r)
    u = Cochain(0, 2, 2, {(): (Fraction(0), Fraction(1))})
    assert pla_differential(r.algebra, m.bimodule, u).is_zero()
    assert rbo_differential(r, m, u).is_zero()


def test_commutator_candidate_fails_square_zero():
    # regression for the convention choice: x ↦ x·u − u·x composed with the
    # degree-1 coboundary is nonzero on the affine algebra
    r = make_affine()
    m = regular_bimodule(r).bimodule
    u = (Fraction(0), Fraction(1))
    cols = [
        tuple(
            a - b
            for a, b in zip(
                r.algebra.product(unit_vector(j, r.dim), u),
                r.algebra.product(u, unit_vector(j, r.dim)),
            )
        )
        for j in range(2)
    ]
    g = cochain_from_matrix(RationalMatrix.from_cols(cols, 2))
    assert not pla_differential(r.algebra, m, g).is_zero()


def _and_coadjoint(rng, r, m, seed):
    """(module, cochain stream) pairs: the drawn module with the test's
    stream, then the coadjoint module with a stream of its own, so that the
    test's seeded draws stay as they were."""
    return ((m, rng), (coadjoint_module(r), random.Random(seed)))


def test_squares_vanish_randomized():
    rng = random.Random(1)
    for i in range(10):
        r, drawn = random_valid_pair(rng, rng.randint(1, 3))
        for m, stream in _and_coadjoint(rng, r, drawn, i):
            for n in range(0, 4):
                f = random_cochain(stream, n, r.dim, m.mod_dim)
                assert pla_differential(
                    r.algebra, m.bimodule, pla_differential(r.algebra, m.bimodule, f)
                ).is_zero()
                assert rbo_differential(r, m, rbo_differential(r, m, f)).is_zero()
                c = random_rba_cochain(stream, n, r.dim, m.mod_dim)
                assert rba_differential(
                    r, m, rba_differential(r, m, c, trusted=True), trusted=True
                ).is_zero()


def test_operator_differential_routes_agree():
    rng = random.Random(2)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        for n in range(0, 4):
            f = random_cochain(rng, n, r.dim, m.mod_dim)
            derived = rbo_differential(r, m, f)
            expanded = rbo_differential_expanded(r, m, f)
            assert derived.sub(expanded).is_zero()


def test_operator_differential_scaled_identity_reduction():
    # with both operators −λ·id the derived actions vanish and the star
    # product is −λ times the original; checked against that explicit form
    rng = random.Random(3)
    from rbprelie.generators import random_rb_pre_lie

    for _ in range(8):
        base = random_rb_pre_lie(rng, rng.randint(1, 3))
        lam = base.weight
        dim = base.dim
        r = RBPreLieAlgebra(base.algebra, lam, RationalMatrix.identity(dim).scale(-lam))
        m = RBBimodule(
            regular_bimodule(base).bimodule, RationalMatrix.identity(dim).scale(-lam)
        )
        scaled = PreLieAlgebra(
            dim,
            tuple(
                tuple(tuple(-lam * x for x in v) for v in row) for row in base.algebra.c
            ),
        )
        zero = RationalMatrix.zeros(dim, dim)
        zero_actions = Bimodule(dim, dim, (zero,) * dim, (zero,) * dim)
        for n in (1, 2):
            f = random_cochain(rng, n, dim, dim)
            got = rbo_differential(r, m, f)
            oracle = pla_differential(scaled, zero_actions, f)
            assert got.sub(oracle).is_zero()
            if lam == 0:
                assert got.is_zero()


def test_chain_map_identity_randomized():
    rng = random.Random(4)
    for i in range(8):
        r, drawn = random_valid_pair(rng, rng.randint(1, 3))
        for m, stream in _and_coadjoint(rng, r, drawn, i):
            for n in range(1, 4):
                f = random_cochain(stream, n, r.dim, m.mod_dim)
                lhs = phi(r, m, pla_differential(r.algebra, m.bimodule, f))
                rhs = rbo_differential(r, m, phi(r, m, f))
                assert lhs.sub(rhs).is_zero()


def test_phi_forms_agree():
    rng = random.Random(5)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        for n in range(1, 5):
            f = random_cochain(rng, n, r.dim, m.mod_dim)
            assert phi(r, m, f) == phi_literal(r, m, f) == phi_by_eval(r, m, f)


def test_phi_identity_cochain_regular():
    r = make_a1n(1)
    m = regular_bimodule(r)
    f = cochain_from_matrix(RationalMatrix.identity(2))
    assert phi(r, m, f).is_zero()


def test_phi_of_product_vanishes():
    rng = random.Random(6)
    from rbprelie.cochains import cochain_from_bilinear
    from rbprelie.generators import random_rb_pre_lie

    for _ in range(8):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        m = regular_bimodule(r)
        mu = cochain_from_bilinear(r.algebra.c, r.dim)
        assert phi(r, m, mu).is_zero()


def test_phi_a1n_example():
    r = make_a1n(1)
    m = regular_bimodule(r)
    f = Cochain(2, 2, 2, {(0, 0): (Fraction(1), Fraction(0))})
    result = phi(r, m, f)
    assert dict(result.values) == {(0, 0): (Fraction(0), Fraction(-1))}


def test_phi_refuses_a_cochain_of_other_dimensions():
    r = make_a1n(1)
    m = regular_bimodule(r)
    one = (Fraction(1),)
    # base 1, module 4: four coordinates in degree 1, as many as the pair's
    wrong_base = Cochain(1, 1, 4, {(0,): one * 4})
    assert len(wrong_base.coords()) == len(cochain_from_matrix(RationalMatrix.identity(2)).coords())
    for f in (
        wrong_base,
        Cochain(0, 5, 2, {(): one * 2}),
        Cochain(1, 2, 3, {(0,): one * 3}),
        Cochain.zero(2, 2, 3),
        Cochain.zero(0, 5, 2),
    ):
        with pytest.raises(ValueError, match="cochain dimensions do not match"):
            phi(r, m, f)


def test_rba_differential_degree0_examples():
    a0 = make_a0()
    m = regular_bimodule(a0)
    u = RBACochain(Cochain(0, 1, 1, {(): (Fraction(1),)}), None)
    d0 = rba_differential(a0, m, u)
    assert d0.pla_part.is_zero()
    assert dict(d0.rbo_part.values) == {(): (Fraction(-1),)}


def test_untrusted_differentials_validate_once(monkeypatch):
    from rbprelie import algebras

    calls = []
    check = algebras.check_pre_lie

    def counting(a):
        calls.append(a)
        return check(a)

    monkeypatch.setattr(algebras, "check_pre_lie", counting)
    r = make_a1n(1)
    m = regular_bimodule(r)
    g = Cochain.zero(1, 2, 2)
    rbo_differential(r, m, g)
    assert len(calls) == 1
    rba_differential(r, m, RBACochain(Cochain.zero(2, 2, 2), g))
    assert len(calls) == 2
    # degree 0 goes through the same gate
    r, bad = make_noncommuting_module()
    with pytest.raises(InvalidStructureError, match="module is not a Rota-Baxter bimodule"):
        rba_differential(r, bad, RBACochain(Cochain.zero(0, 2, 2), None))


def test_rba_product_pair_is_cocycle():
    r = make_a1n(1)
    m = regular_bimodule(r)
    from rbprelie.cochains import cochain_from_bilinear

    mu = cochain_from_bilinear(r.algebra.c, 2)
    pair = RBACochain(mu, Cochain.zero(1, 2, 2))
    assert rba_differential(r, m, pair, trusted=True).is_zero()


def test_differential_matrix_examples():
    a0 = make_a0()
    m = regular_bimodule(a0)
    d1 = differential_matrix(ComplexKind.PLA, a0, m, 1)
    assert (d1.rows, d1.cols) == (1, 1) and d1.is_zero()
    d0 = differential_matrix(ComplexKind.RBA, a0, m, 0)
    assert rank(d0) == 1


def test_differential_matrices_compose_to_zero():
    rng = random.Random(7)
    for _ in range(5):
        r, drawn = random_valid_pair(rng, rng.randint(1, 3))
        for m in (drawn, coadjoint_module(r)):
            for kind in ComplexKind:
                for n in range(0, 3):
                    a = differential_matrix(kind, r, m, n + 1)
                    b = differential_matrix(kind, r, m, n)
                    assert a.matmul(b).is_zero()


def _assert_matrices_match_functional(rng, r, m, degrees):
    for n in degrees:
        c = random_rba_cochain(rng, n, r.dim, m.mod_dim)
        mat = differential_matrix(ComplexKind.RBA, r, m, n)
        assert mat.apply(c.coords()) == rba_differential_by_eval(r, m, c).coords()
        f = random_cochain(rng, n, r.dim, m.mod_dim)
        mat = differential_matrix(ComplexKind.PLA, r, m, n)
        assert mat.apply(f.coords()) == pla_differential_by_eval(r.algebra, m.bimodule, f).coords()
        mat = differential_matrix(ComplexKind.RBO, r, m, n)
        assert mat.apply(f.coords()) == rbo_differential_by_eval(r, m, f).coords()


def test_matrix_agrees_with_functional_differential():
    rng = random.Random(8)
    for _ in range(5):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        _assert_matrices_match_functional(rng, r, m, range(0, 3))
    rng = random.Random(13)
    for _ in range(50):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        _assert_matrices_match_functional(rng, r, m, range(0, 4))
    # on the fixtures, every column is the coboundary of its unit pair
    for r in (make_a0(), make_a1n()):
        m = regular_bimodule(r)
        for n in range(0, 4):
            mat = differential_matrix(ComplexKind.RBA, r, m, n)
            for j in range(mat.cols):
                unit = [Fraction(0)] * mat.cols
                unit[j] = Fraction(1)
                c = RBACochain.from_coords(n, r.dim, m.mod_dim, unit)
                assert mat.col(j) == rba_differential_by_eval(r, m, c).coords()


def _alternating_sum(values) -> int:
    return sum(v if n % 2 == 0 else -v for n, v in enumerate(values))


def test_euler_characteristic():
    # chains vanish above degree d+1 (d+2 for the combined complex), so the
    # alternating sums of cohomology and chain dimensions agree; the
    # combined sum is 0 because its degree n is C^n ⊕ C^{n−1}
    rng = random.Random(14)
    pairs = [(r, regular_bimodule(r)) for r in (make_a0(), make_a1n())]
    pairs += [random_valid_pair(rng, rng.randint(1, 2)) for _ in range(8)]
    for r, m in pairs:
        top = r.dim + 1
        chains = [space_dim(n, r.dim, m.mod_dim) for n in range(top + 1)]
        assert space_dim(top + 1, r.dim, m.mod_dim) == 0
        for kind in (ComplexKind.PLA, ComplexKind.RBO):
            dims = cohomology_dims(kind, r, m, top)
            assert _alternating_sum(dims) == _alternating_sum(chains)
        assert _alternating_sum(cohomology_dims(ComplexKind.RBA, r, m, top + 1)) == 0


def _all_cohomology(r, m, top):
    data = ComplexData(r, m)
    return [data.cohomology_dims(kind, top) for kind in ComplexKind]


def _dual_operator(op, lam):
    """−λ·id − op."""
    return RationalMatrix.identity(op.rows).scale(-lam).sub(op)


def test_cohomology_is_kept_by_basis_change_and_the_dual_operator():
    # an isomorphic pair has the same cohomology; the dual operator
    # (T, T_M) ↦ (−λ·id − T, −λ·id − T_M) negates the star product and the
    # derived actions, and keeps every dimension too
    nontrivial = 0
    for d, seed in product((1, 2, 3), range(8)):
        rng = random.Random(f"invariance {d} {seed}")
        r, m = random_valid_pair(rng, d)
        lam, top = r.weight, 2 if d == 3 else 3
        dims = _all_cohomology(r, m, top)
        phi, rho = random_invertible(rng, d), random_invertible(rng, m.mod_dim)
        moved = (
            conjugate_rb(r, phi, invert(phi)),
            conjugate_bimodule(m, phi, invert(phi), rho, invert(rho)),
        )
        dual = (
            RBPreLieAlgebra(r.algebra, lam, _dual_operator(r.operator, lam)),
            RBBimodule(m.bimodule, _dual_operator(m.t_m, lam)),
        )
        for pair in (moved, dual):
            require_valid(*pair)
            assert _all_cohomology(*pair, top) == dims, (d, seed)
        nontrivial += any(dims[-1])
    assert nontrivial > 12, nontrivial  # most pairs have some Hⁿ_RBA ≠ 0


def test_a0_betti_numbers(a0, a0_reg):
    assert cohomology_dims(ComplexKind.PLA, a0, a0_reg, 3) == [1, 1, 1, 0]
    assert cohomology_dims(ComplexKind.RBO, a0, a0_reg, 3) == [1, 1, 1, 0]
    assert cohomology_dims(ComplexKind.RBA, a0, a0_reg, 3) == [0, 1, 2, 1]


def test_combined_dimension_split():
    rng = random.Random(9)
    for _ in range(6):
        d, md = rng.randint(1, 4), rng.randint(1, 3)
        assert complex_space_dim(ComplexKind.RBA, 0, d, md) == space_dim(0, d, md)
        for n in range(1, 6):
            assert complex_space_dim(ComplexKind.RBA, n, d, md) == space_dim(
                n, d, md
            ) + space_dim(n - 1, d, md)


def test_les_fixtures_and_alternating_sum(a0, a0_reg):
    report = les_check(a0, a0_reg, 3)
    assert report.ok
    r1 = make_a1n(1)
    assert les_check(r1, regular_bimodule(r1), 3).ok
    dims_rba = cohomology_dims(ComplexKind.RBA, a0, a0_reg, 3)
    dims_pla = cohomology_dims(ComplexKind.PLA, a0, a0_reg, 3)
    dims_rbo = cohomology_dims(ComplexKind.RBO, a0, a0_reg, 3)
    total = 0
    sign = 1
    for n in range(3):
        for value in (dims_rba[n], dims_pla[n], dims_rbo[n]):
            total += sign * value
            sign = -sign
    # 0 −1 +1 −1 +1 −1 +2 −1 +1 sums to 1; appending −H3_RBA = −1 closes it
    assert total - dims_rba[3] == 0


def _map_checks(max_degree, failing=()):
    names = (
        f"{name} deg {n}"
        for n in range(max_degree + 1)
        for name in ("projection", "chain map", "connecting")
    )
    return tuple((name, name not in failing) for name in names)


def test_les_report_a0_pinned(a0, a0_reg):
    rows = [
        ("H0_RBA", 0, 0), ("H0_PLA", 0, 0), ("H0_RBO", 1, 1),
        ("H1_RBA", 1, 1), ("H1_PLA", 1, 1), ("H1_RBO", 0, 0),
        ("H2_RBA", 1, 1), ("H2_PLA", 1, 1), ("H2_RBO", 0, 0),
        ("H3_RBA", 1, 1), ("H3_PLA", 0, 0), ("H3_RBO", 0, 0),
    ]
    positions = tuple(PositionReport(name, im, ker, True) for name, im, ker in rows)
    assert les_check(a0, a0_reg, 3) == LESReport(True, positions, _map_checks(3))


def test_les_report_broken_operator_pinned():
    # T = Id at weight 0 is not a Rota-Baxter operator: the chain map fails
    # to be well defined in degree 2 and exactness breaks around it.  The
    # combined d₂∘d₁ is nonzero, so B₂ ⊄ Z₂ at H2_RBA and its kernel_dim is
    # the rank formula |Z| − r_g + r_B (see les_check), not a subspace count
    r, _, _ = parse_algebra_file((FIXTURES / "a1_broken_rb.yaml").read_text())
    rows = [
        ("H0_RBA", 0, 0, True), ("H0_PLA", 0, 0, True), ("H0_RBO", 2, 2, True),
        ("H1_RBA", 2, 2, True), ("H1_PLA", 2, 2, True), ("H1_RBO", 0, 0, True),
        ("H2_RBA", 4, 3, False), ("H2_PLA", 3, 3, True), ("H2_RBO", 6, 5, False),
    ]
    positions = tuple(PositionReport(*row) for row in rows)
    expected = LESReport(False, positions, _map_checks(2, failing={"chain map deg 2"}))
    assert les_check(r, regular_bimodule(r), 2) == expected


def test_les_report_dimension_five_pinned():
    # beyond the d ≤ 4 cases above: a random pair of dimension 5 with its
    # regular module at degree 3, the report the Fraction walk gave
    r, _ = random_valid_pair(random.Random(7), 5)
    rows = [
        ("H0_RBA", 0, 0), ("H0_PLA", 0, 0), ("H0_RBO", 5, 5),
        ("H1_RBA", 5, 5), ("H1_PLA", 13, 13), ("H1_RBO", 4, 4),
        ("H2_RBA", 28, 28), ("H2_PLA", 85, 85), ("H2_RBO", 13, 13),
        ("H3_RBA", 137, 137), ("H3_PLA", 180, 180), ("H3_RBO", 42, 42),
    ]
    positions = tuple(PositionReport(name, im, ker, True) for name, im, ker in rows)
    assert les_check(r, regular_bimodule(r), 3) == LESReport(True, positions, _map_checks(3))


def _les_request():
    # a dimension-3 pair, and the broken operator, where d∘d ≠ 0: each dₙ,
    # n ≤ 2, of the three complexes
    broken, _, _ = parse_algebra_file((FIXTURES / "a1_broken_rb.yaml").read_text())
    for r in (random_valid_pair(random.Random(3), 3)[0], broken):
        yield lambda r=r: les_check(r, regular_bimodule(r), 2), ["Elimination"] * 9, 0


def _obstructed_solve_request():
    # order-1 coefficients drawn as a random degree-2 cocycle until the
    # order-2 solve is obstructed: one solve of d₂, then its residue, which
    # reads no kernel echelon
    rng = random.Random(41)
    while True:
        r = random_rb_pre_lie(rng, 3)
        c = random_rba_cocycle(rng, r, regular_bimodule(r), 2)
        d = TruncatedDeformation(
            r,
            (r.algebra.c, bilinear_from_cochain(c.pla_part)),
            (r.operator, matrix_from_cochain(c.rbo_part)),
        )
        if solve_next_order(r, d).solution is None:
            yield lambda: solve_next_order(r, d), ["Elimination"], 0
            return


def _trivialize_request():
    # a gauge-trivial order-3 deformation: three solves against d₁, which
    # build its kernel echelon once
    rng = random.Random(42)
    r = random_rb_pre_lie(rng, 3)
    d = gauge_transform(r, trivial_deformation(r, 3), random_gauge(rng, 3, 3))
    yield lambda: trivialize(r, d), ["Elimination"], 1


@pytest.mark.parametrize(
    "requests",
    [_les_request, _obstructed_solve_request, _trivialize_request],
    ids=["les", "deform-solve-obstructed", "deform-trivialize"],
)
def test_each_request_eliminates_each_matrix_at_most_once(monkeypatch, requests):
    # every elimination a request can reach, looked up where complexes finds
    # it; the matrices are kept alive, so their ids are not reused.  The
    # readers build no elimination, and each kernel echelon is counted by
    # its one reduced-echelon step
    from rbprelie import complexes
    from rbprelie.linalg import IntegerEchelon

    seen: list = []

    def counting(name):
        real = getattr(complexes, name, None)

        def wrapper(m, *args):
            seen.append((name, m))
            return real(m, *args)

        return wrapper

    cases = list(requests())
    names = ("Elimination", "rank", "kernel_basis", "column_space", "solve_linear")
    for name in names:
        monkeypatch.setattr(complexes, name, counting(name), raising=False)
    reduced, real_reduced = [], IntegerEchelon.reduced
    monkeypatch.setattr(IntegerEchelon, "reduced", lambda e: reduced.append(e) or real_reduced(e))
    for run, eliminated, kernel_echelons in cases:
        seen.clear()
        reduced.clear()
        run()
        counts = Counter(id(m) for _, m in seen)
        twice = [(name, m.rows, m.cols) for name, m in seen if counts[id(m)] > 1]
        assert not twice, twice
        # the one elimination of each dₙ the request reads, and nothing else
        assert sorted(name for name, _ in seen) == eliminated
        assert len(reduced) == kernel_echelons


def test_les_zero_everything_exact():
    alg = PreLieAlgebra(2, zero_table(2, 2, 2))
    r = RBPreLieAlgebra(alg, Fraction(0), RationalMatrix.zeros(2, 2))
    assert les_check(r, regular_bimodule(r), 2).ok


def test_les_randomized():
    rng = random.Random(10)
    for _ in range(4):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        assert les_check(r, m, 2).ok


def test_les_by_ranks_equals_les_by_subspaces():
    # the oracle compares echelon subspaces of cochain space; the rank
    # identities give the same report wherever B ⊆ Z
    cases = [(r, regular_bimodule(r), 3) for r in (make_a0(), make_a1n())]
    for seed in range(8):
        for dim in (1, 2, 3):
            r, m = random_valid_pair(random.Random(seed), dim)
            cases += [(r, module, 2) for module in (m, regular_bimodule(r), coadjoint_module(r))]
    rng, wide = random.Random(7), []
    while len(wide) < 2:
        r, m = random_valid_pair(rng, 4)
        if _nondegenerate(r, m):
            wide.append((r, m, 2))
    for r, m, top in cases + wide:
        assert les_check(r, m, top) == les_by_subspaces(r, m, top)


def test_les_by_ranks_on_a_broken_operator():
    # where B₂ ⊄ Z₂ the two walks count kernel_dim at H2_RBA differently and
    # agree on every other field
    r, _, _ = parse_algebra_file((FIXTURES / "a1_broken_rb.yaml").read_text())
    got, want = les_check(r, regular_bimodule(r), 2), les_by_subspaces(r, regular_bimodule(r), 2)
    assert (got.ok, got.map_checks) == (want.ok, want.map_checks)
    for p, q in zip(got.positions, want.positions, strict=True):
        if p.position == "H2_RBA":
            assert (p.kernel_dim, q.kernel_dim) == (3, 5)
            q = PositionReport(q.position, q.image_dim, p.kernel_dim, q.exact)
        assert p == q


CATALOGUE_WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-7, 3),
                     Fraction(1, 2))


def test_phi_matrix_matches_functional():
    # every weight the generators draw, λ = 0 included, on a draw whose
    # operator is neither 0 nor −λ·id, so that every slot pattern of Φ
    # contributes; each with its own, the regular and the coadjoint module
    for weight in CATALOGUE_WEIGHTS:
        rng = random.Random(f"phi:{weight}")
        r, m = random_valid_pair(rng, 2, weight)
        while not _nondegenerate(r, m):
            r, m = random_valid_pair(rng, 2, weight)
        for module in (m, regular_bimodule(r), coadjoint_module(r)):
            for n in range(4):
                mat = phi_matrix(r, module, n)
                for _ in range(2):
                    f = random_cochain(rng, n, r.dim, module.mod_dim)
                    want = phi_by_eval(r, module, f).coords()
                    assert mat.apply(f.coords()) == want, (weight, n)


KINDS_AND_PHI = (ComplexKind.PLA, ComplexKind.RBO, ComplexKind.RBA, "phi")


def _assembled(kind, r, m, n):
    return phi_matrix(r, m, n) if kind == "phi" else differential_matrix(kind, r, m, n)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_assembled_matrices_equal_the_eval_route(dim):
    # term-wise assembly against column-by-column evaluation of unit
    # cochains, compared by repr, so even the entry types must agree
    for seed in range(4):
        r, m = random_valid_pair(random.Random(seed), dim)
        for module in (m, regular_bimodule(r)):
            for n in range(4):
                for kind in KINDS_AND_PHI:
                    want = matrix_by_eval(kind, r, module, n)
                    assert repr(_assembled(kind, r, module, n)) == repr(want), (seed, kind, n)


def test_assembled_matrices_equal_the_eval_route_at_dimension_4():
    r, _ = random_valid_pair(random.Random(7), 4)
    m = regular_bimodule(r)
    for n in range(3):
        for kind in KINDS_AND_PHI:
            assert repr(_assembled(kind, r, m, n)) == repr(matrix_by_eval(kind, r, m, n))


def _nondegenerate(r, m) -> bool:
    """A nonzero product, an operator other than 0 and −λ·id, and a module
    the algebra acts on: draws where every term of the builders counts."""
    return (
        any(any(v) for row in r.algebra.c for v in row)
        and not r.operator.is_zero()
        and r.operator != RationalMatrix.identity(r.dim).scale(-r.weight)
        and not all(a.is_zero() for a in (*m.bimodule.S, *m.bimodule.P))
    )


def test_square_zero_and_chain_map_at_dimension_5():
    # out of reach of the eval route (about 20 s a pair there); the first
    # three non-degenerate draws of a seeded stream
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 3:
        r, m = random_valid_pair(rng, 5)
        if _nondegenerate(r, m):
            pairs.append((r, m))
    PLA, RBO = ComplexKind.PLA, ComplexKind.RBO
    for r, m in pairs + [(r, coadjoint_module(r)) for r, _ in pairs]:
        data = ComplexData(r, m)
        for n in range(4):
            for kind in ComplexKind:
                assert data.d(kind, n + 1).matmul(data.d(kind, n)).is_zero(), (kind, n)
            assert data.phi(n + 1).matmul(data.d(PLA, n)) == data.d(RBO, n).matmul(data.phi(n))


def test_star_derived_route_definition():
    # the operator complex really is the pre-Lie complex of the star data
    rng = random.Random(12)
    r, m = random_valid_pair(rng, 2)
    st = star_algebra(r)
    der = derived_bimodule(r, m)
    for n in range(0, 3):
        f = random_cochain(rng, n, r.dim, m.mod_dim)
        assert (
            rbo_differential(r, m, f)
            .sub(pla_differential(st.algebra, der.bimodule, f))
            .is_zero()
        )


def test_complex_data_solve_is_solve_linear_or_residue():
    # against the dense oracles: solve_linear and column_space read the same
    # elimination as ComplexData.solve
    rng = random.Random(23)
    solved = obstructed = 0
    for _ in range(16):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        data = ComplexData(r, m)
        for kind in ComplexKind:
            for n in range(3 if r.dim < 3 else 2):
                mat = differential_matrix(kind, r, m, n)
                assert data.d(kind, n) == mat and data.d(kind, n) is data.d(kind, n)
                # an image, which is consistent, and a random target, which
                # mostly is not
                for target in (mat.apply(random_vector(rng, mat.cols)), random_vector(rng, mat.rows)):
                    x, residue = data.solve(kind, n, target)
                    want = dense_solve(mat, target)
                    assert x == want
                    if want is None:
                        dense = dense_reduce(*dense_echelon(mat.transpose().entries), target)
                        assert residue == tuple((i, v) for i, v in enumerate(dense) if v != 0)
                        assert residue
                        obstructed += 1
                    else:
                        assert residue is None
                        solved += 1
    assert solved and obstructed


def test_degree_one_operator_block_is_zero():
    # the columns of the degree-0 operator part are [0; −∂₀] = 0, so a solve
    # against the degree-1 combined matrix returns (γ, 0); iso_from_coboundary
    # reads γ off that solution
    rng = random.Random(24)
    pairs = [(r, regular_bimodule(r)) for r in (make_a0(), make_a1n())]
    pairs += [random_valid_pair(rng, rng.randint(1, 3)) for _ in range(20)]
    for r, m in pairs:
        d1 = ComplexData(r, m).d(ComplexKind.RBA, 1)
        first = space_dim(1, r.dim, m.mod_dim)
        assert d1.cols == first + m.mod_dim
        for j in range(first, d1.cols):
            assert d1.col(j) == zero_vector(d1.rows)


def test_coboundary_of_a_zero_cochain_builds_no_matrix(built_blocks):
    r, m = random_valid_pair(random.Random(26), 2)
    data, d, md = ComplexData(r, m), r.dim, m.mod_dim
    zeros = {
        ComplexKind.PLA: Cochain.zero(2, d, md),
        ComplexKind.RBO: Cochain.zero(1, d, md),
        ComplexKind.RBA: RBACochain(Cochain.zero(2, d, md), Cochain.zero(1, d, md)),
    }
    images = {kind: data.coboundary(kind, c) for kind, c in zeros.items()}
    assert not built_blocks
    for kind, c in zeros.items():
        coords = data.d(kind, c.degree).apply(c.coords())
        assert images[kind] == type(c).from_coords(c.degree + 1, d, md, coords)
        assert images[kind].is_zero()
    # a zero cochain of the wrong base or module dimension is refused as any other
    for base, mod in ((d + 1, md), (d, md + 1)):
        for degree in (0, 2):
            with pytest.raises(ValueError):
                data.coboundary(ComplexKind.PLA, Cochain.zero(degree, base, mod))
        with pytest.raises(ValueError):
            data.coboundary(
                ComplexKind.RBA, RBACochain(Cochain.zero(2, base, mod), Cochain.zero(1, base, mod))
            )


def test_strict_twoalg_requests_assemble_no_block(built_blocks, tmp_path):
    from rbprelie.cli import run_command

    # l₃ = 0 and T₂ = 0, so both top coherences are images of zero cochains
    rng = random.Random(27)
    for n in range(4):
        cm = random_crossed_module(rng, rng.randint(1, 3))
        two = tmp_path / f"two{n}.yaml"
        doc = twoalg_document(crossed_to_strict(cm, trusted=True), cm.g0.weight)
        two.write_text(dump_document(doc))
        for action in ("check", "to-crossed"):
            built_blocks.clear()
            report, code = run_command(["twoalg", action, str(two)])
            assert code == 0, (action, report)
            assert not built_blocks, (action, built_blocks)


def test_cohomology_all_assembles_each_block_once(built_blocks, tmp_path):
    from rbprelie.cli import run_command

    # the combined matrices are composed from the pre-Lie, Φ and operator
    # blocks, so none goes through differential_matrix
    once = Counter(
        {(kind, n): 1 for kind in (ComplexKind.PLA, ComplexKind.RBO, "phi") for n in range(4)}
    )
    for fixture in ("a0.yaml", "a1n.yaml"):
        built_blocks.clear()
        report, code = run_command(["cohomology", str(FIXTURES / fixture), "--complex", "all"])
        assert code == 0 and set(report["dimensions"]) == {"pla", "rbo", "rba"}
        assert built_blocks == once
    # an LES walk, a cocycle check of each complex, an extension built and
    # read back and a skeletal 2-algebra from a degree-3 cochain also build
    # each block at most once, and compose every combined matrix from the
    # blocks
    alg = str(FIXTURES / "a1n.yaml")
    r, _, _ = parse_algebra_file((FIXTURES / "a1n.yaml").read_text())
    rng = random.Random(25)
    cochains = {
        "pla": random_cochain(rng, 2, r.dim, r.dim),
        "rbo": random_cochain(rng, 1, r.dim, r.dim),
        "rba": random_rba_cochain(rng, 2, r.dim, r.dim),
    }
    requests = [["les", alg, "--max-degree", "2"]]
    for which, c in cochains.items():
        path = tmp_path / f"{which}.yaml"
        path.write_text(dump_document(cochain_document(which, c)))
        requests.append(["cocycle", alg, str(path)])
    cocycles = {n: tmp_path / f"cocycle{n}.yaml" for n in (2, 3)}
    for n, path in cocycles.items():
        c = random_rba_cocycle(rng, r, regular_bimodule(r), n)
        path.write_text(dump_document(cochain_document("rba", c)))
    extension = str(tmp_path / "extension.yaml")
    requests += [
        ["extend", alg, str(cocycles[2]), "-o", extension],
        ["extract", extension],
        ["twoalg", "from-cocycle", alg, str(cocycles[3])],
    ]
    for argv in requests:
        built_blocks.clear()
        report, _ = run_command(argv)
        assert "error" not in report, (argv, report)
        assert built_blocks and max(built_blocks.values()) == 1, (argv, built_blocks)
        assert ComplexKind.RBA not in {key[0] for key in built_blocks}, (argv, built_blocks)
