import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from rbprelie import rba_differential, regular_bimodule
from rbprelie.algebras import (
    Bimodule,
    InvalidStructureError,
    PreLieAlgebra,
    RBBimodule,
    RBPreLieAlgebra,
    bimodule_defects,
    bimodule_from_tables,
    rb_bimodule_defects,
    require_valid,
    zero_table,
)
from rbprelie.cochains import Cochain, RBACochain, basis_keys
from rbprelie.files import parse_algebra_file
from rbprelie.generators import (
    random_cochain,
    random_crossed_module,
    random_rb_pre_lie,
    random_rba_cochain,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix, is_zero_vector
from rbprelie.twoalg import (
    CrossedModule,
    TwoAlgebra,
    _crossed_module_defects,
    _levels,
    _prelie_2alg_defects,
    _rb_2alg_defects,
    check_crossed_module,
    check_prelie_2alg,
    check_rb_2alg,
    cocycle_to_skeletal,
    crossed_to_strict,
    skeletal_to_cocycle,
    strict_to_crossed,
)

from conftest import (
    condition_f_value,
    condition_v_value,
    make_a1n,
    make_noncommuting_module,
    skeletal_with_pair,
)
from oracles import (
    condition_f_by_fractions,
    condition_v_by_fractions,
    crossed_module_defects_by_fractions,
    prelie_2alg_defects_by_fractions,
    rb_2alg_defects_by_fractions,
    second_condition_f,
    second_condition_v,
)


def _twoalg_from_algebra(r, dim1=0):
    """A valid structure with trivial level 1."""
    return TwoAlgebra(
        dim0=r.dim,
        dim1=dim1,
        d_map=RationalMatrix.zeros(r.dim, dim1),
        l2_00=r.algebra.c,
        l2_01=tuple(tuple() for _ in range(r.dim)),
        l2_10=tuple(),
        l3=Cochain.zero(3, r.dim, dim1),
        t0=r.operator,
        t1=RationalMatrix.zeros(dim1, dim1),
        t2=tuple(tuple(tuple() for _ in range(r.dim)) for _ in range(r.dim)),
    )


def test_trivial_level1_passes():
    r = make_a1n(1)
    t = _twoalg_from_algebra(r)
    assert check_prelie_2alg(t).ok
    assert check_rb_2alg(t, 1).ok


def test_skeletal_with_zero_l3_t2_passes():
    rng = random.Random(0)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        zero = RBACochain(
            Cochain.zero(3, r.dim, m.mod_dim), Cochain.zero(2, r.dim, m.mod_dim)
        )
        t = cocycle_to_skeletal(r, m, zero)
        assert check_prelie_2alg(t).ok
        assert check_rb_2alg(t, r.weight).ok


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _level_pairs():
    """Seeded valid pairs, the broken operator of ``a1_broken_rb.yaml`` on
    its regular module, and a module whose left actions do not commute."""
    rng = random.Random(11)
    pairs = [random_valid_pair(rng, rng.randint(1, 3)) for _ in range(12)]
    r, _, _ = parse_algebra_file((FIXTURES / "a1_broken_rb.yaml").read_text(encoding="utf-8"))
    return pairs + [(r, regular_bimodule(r)), make_noncommuting_module()]


def _negated(v):
    return tuple(-x for x in v)


def test_strict_skeletal_structure_is_valid_exactly_when_its_levels_are():
    # with d = 0, l₃ = 0 and T₂ = 0, e1 to e3 and ii to iv are the level laws
    # themselves, signed, and every other condition vanishes
    outcomes = set()
    for r, m in _level_pairs():
        zero = RBACochain(Cochain.zero(3, r.dim, m.mod_dim), Cochain.zero(2, r.dim, m.mod_dim))
        t = cocycle_to_skeletal(r, m, zero)
        assert t.is_skeletal() and t.is_strict()
        try:
            require_valid(r, m)
        except InvalidStructureError:
            valid = False
        else:
            valid = True
        outcomes.add(valid)
        assert (check_prelie_2alg(t).ok and check_rb_2alg(t, r.weight).ok) == valid
        module_laws = [*bimodule_defects(r.algebra, m.bimodule), *rb_bimodule_defects(r, m)]
        laws = {(law, key): v for law, key, v in module_laws}
        span0, span1 = range(t.dim0), range(t.dim1)
        want = []
        for x, y in product(span0, repeat=2):
            want += [("e1", (x, y, z), r.algebra.pre_lie_law[x, y, z]) for z in span0]
            for a in span1:
                want.append(("e2", (x, y, a), _negated(laws["left_action", (x, y, a)])))
                want.append(("e3", (a, x, y), laws["mixed_action", (x, y, a)]))
        want += [("ii", key, _negated(v)) for key, v in r.rota_baxter_law.items()]
        for a, x in product(span1, span0):
            want.append(("iii", (a, x), _negated(laws["rb_right", (x, a)])))
            want.append(("iv", (x, a), _negated(laws["rb_left", (x, a)])))
        got, rest = [], []
        for law, key, v in [*_prelie_2alg_defects(t), *_rb_2alg_defects(t, r.weight)]:
            (got if law in ("e1", "e2", "e3", "ii", "iii", "iv") else rest).append((law, key, v))
        assert got == want
        assert all(is_zero_vector(v) for _, _, v in rest)
    assert outcomes == {True, False}


def test_skeletal_noncocycle_l3_violates_top_coherence():
    rng = random.Random(1)
    found = False
    for _ in range(20):
        r, m = random_valid_pair(rng, rng.randint(2, 3))
        zero = RBACochain(
            Cochain.zero(3, r.dim, m.mod_dim), Cochain.zero(2, r.dim, m.mod_dim)
        )
        t = cocycle_to_skeletal(r, m, zero)
        l3 = random_cochain(rng, 3, r.dim, m.mod_dim)
        cand = TwoAlgebra(
            dim0=t.dim0, dim1=t.dim1, d_map=t.d_map, l2_00=t.l2_00, l2_01=t.l2_01,
            l2_10=t.l2_10, l3=l3, t0=t.t0, t1=t.t1, t2=t.t2,
        )
        verdict = check_prelie_2alg(cand)
        if not verdict.ok:
            assert any(v.law == "f" for v in verdict.violations)
            found = True
            break
    assert found


def test_top_coherences_are_the_coboundary_of_the_pair():
    """f and v are the two parts of d₃(l₃, T₂): on a skeletal structure over
    a valid pair whose (l₃, T₂) is not closed, they are the only violated
    laws, f at the pre-Lie part of d₃ and v at minus its operator part."""
    rng = random.Random(37)
    checked = 0
    for _ in range(12):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        c = RBACochain(
            random_cochain(rng, 3, r.dim, m.mod_dim), random_cochain(rng, 2, r.dim, m.mod_dim)
        )
        d3 = rba_differential(r, m, c, trusted=True)
        if d3.is_zero():
            continue
        t = skeletal_with_pair(r, m, c)
        got = [*check_prelie_2alg(t).violations, *check_rb_2alg(t, r.weight).violations]
        want = [
            ("f", key, d3.pla_part.eval_basis(key[:3], key[3]))
            for key in product(range(r.dim), repeat=4)
        ] + [
            ("v", key, _negated(d3.rbo_part.eval_basis(key[:2], key[2])))
            for key in product(range(r.dim), repeat=3)
        ]
        want = [(law, tuple(i + 1 for i in key), v) for law, key, v in want if any(v)]
        assert want
        assert [(v.law, v.indices, v.defect) for v in got] == want
        checked += 1
    assert checked >= 8


def test_skeletal_cocycle_round_trips():
    rng = random.Random(2)
    for _ in range(15):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        c = random_rba_cocycle(rng, r, m, 3)
        t = cocycle_to_skeletal(r, m, c)
        assert check_prelie_2alg(t).ok and check_rb_2alg(t, r.weight).ok
        r2, m2, c2 = skeletal_to_cocycle(t, r.weight)
        assert (r2, m2) == (r, m)
        assert c2.pla_part.sub(c.pla_part).is_zero()
        assert c2.rbo_part.sub(c.rbo_part).is_zero()


def test_cocycle_to_skeletal_rejects_noncocycles():
    rng = random.Random(3)
    for _ in range(10):
        r, m = random_valid_pair(rng, 2)
        c = RBACochain(
            random_cochain(rng, 3, r.dim, m.mod_dim),
            random_cochain(rng, 2, r.dim, m.mod_dim),
        )
        if not rba_differential(r, m, c, trusted=True).is_zero():
            with pytest.raises(InvalidStructureError):
                cocycle_to_skeletal(r, m, c)
            return
    pytest.skip("all random candidates were cocycles")


def test_cocycle_to_skeletal_names_the_failing_components():
    # δ₃ lands in a nonzero space from dimension 3 on; with T = T_M = 0, Φ
    # vanishes, so (f, 0) fails in the product component only
    rng = random.Random(13)
    base = random_rb_pre_lie(rng, 3)
    r = RBPreLieAlgebra(base.algebra, base.weight, RationalMatrix.zeros(3, 3))
    m = regular_bimodule(r)
    only_product = RBACochain(random_cochain(rng, 3, 3, 3), Cochain.zero(2, 3, 3))
    defect = rba_differential(r, m, only_product)
    assert not defect.pla_part.is_zero() and defect.rbo_part.is_zero()
    r2, m2 = random_valid_pair(rng, 3)
    both = random_rba_cochain(rng, 3, r2.dim, m2.mod_dim)
    defect = rba_differential(r2, m2, both)
    assert not defect.pla_part.is_zero() and not defect.rbo_part.is_zero()
    prefix = "input is not a cocycle; nonzero coboundary in: "
    for (ring, module, c), parts in (
        ((r, m, only_product), "product component"),
        ((r2, m2, both), "product component, operator component"),
    ):
        with pytest.raises(InvalidStructureError) as exc:
            cocycle_to_skeletal(ring, module, c)
        assert str(exc.value) == prefix + parts


def test_skeletal_equivalence_both_directions():
    # for skeletal data: both checkers pass  <=>  level-0 and level-1 are a
    # valid pair and (l3, t2) is a degree-3 cocycle
    rng = random.Random(4)
    for _ in range(10):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        c = RBACochain(
            random_cochain(rng, 3, r.dim, m.mod_dim),
            random_cochain(rng, 2, r.dim, m.mod_dim),
        )
        t = TwoAlgebra(
            dim0=r.dim,
            dim1=m.mod_dim,
            d_map=RationalMatrix.zeros(r.dim, m.mod_dim),
            l2_00=r.algebra.c,
            l2_01=tuple(
                tuple(m.bimodule.S[x].col(a) for a in range(m.mod_dim))
                for x in range(r.dim)
            ),
            l2_10=tuple(
                tuple(m.bimodule.P[x].col(a) for x in range(r.dim))
                for a in range(m.mod_dim)
            ),
            l3=c.pla_part,
            t0=r.operator,
            t1=m.t_m,
            t2=tuple(
                tuple(c.rbo_part.value((i, j)) for j in range(r.dim)) for i in range(r.dim)
            ),
        )
        closed = rba_differential(r, m, c, trusted=True).is_zero()
        passes = check_prelie_2alg(t).ok and check_rb_2alg(t, r.weight).ok
        assert passes == closed


def test_literal_printed_coherence_differs_from_cocycle_form():
    # regression for the resolved transcription conflict: with the identity
    # operator on level 1 and everything else zero, every (l3, t2) is a
    # degree-3 cocycle, yet the printed ten-term form demands l3 = 0
    r = RBPreLieAlgebra(
        PreLieAlgebra(2, zero_table(2, 2, 2)), Fraction(0), RationalMatrix.zeros(2, 2)
    )
    m = RBBimodule(
        Bimodule(
            2, 1, (RationalMatrix.zeros(1, 1),) * 2, (RationalMatrix.zeros(1, 1),) * 2
        ),
        RationalMatrix.identity(1),
    )
    c = RBACochain(
        Cochain(3, 2, 1, {(0, 1, 0): (Fraction(1),)}), Cochain.zero(2, 2, 1)
    )
    assert rba_differential(r, m, c, trusted=True).is_zero()
    t = cocycle_to_skeletal(r, m, c)
    assert check_rb_2alg(t, Fraction(0)).ok
    # the literal form would end in −T1(l3(x1,x2,x3)) with coefficient one;
    # on this instance that term is the whole expression and is nonzero
    literal_tail = t.t1.apply(t.l3.eval([0, 1, 0]))
    assert not is_zero_vector(literal_tail)


def test_dual_transcriptions_agree_on_random_tuples():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        t = TwoAlgebra(
            dim0=r.dim,
            dim1=m.mod_dim,
            d_map=RationalMatrix.zeros(r.dim, m.mod_dim),
            l2_00=r.algebra.c,
            l2_01=tuple(
                tuple(m.bimodule.S[x].col(a) for a in range(m.mod_dim))
                for x in range(r.dim)
            ),
            l2_10=tuple(
                tuple(m.bimodule.P[x].col(a) for x in range(r.dim))
                for a in range(m.mod_dim)
            ),
            l3=random_cochain(rng, 3, r.dim, m.mod_dim),
            t0=r.operator,
            t1=m.t_m,
            t2=tuple(
                tuple(
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(m.mod_dim))
                    for _ in range(r.dim)
                )
                for _ in range(r.dim)
            ),
        )
        for _ in range(10):
            w, x, y, z = (rng.randrange(r.dim) for _ in range(4))
            assert list(condition_f_value(t, w, x, y, z)) == list(
                second_condition_f(t, w, x, y, z)
            )
            assert list(condition_v_value(t, r.weight, x, y, z)) == list(
                second_condition_v(t, r.weight, x, y, z)
            )
            checked += 1


def test_crossed_module_families_valid():
    rng = random.Random(6)
    for _ in range(10):
        cm = random_crossed_module(rng, rng.randint(1, 3))
        assert check_crossed_module(cm).ok


def test_strict_crossed_round_trips():
    rng = random.Random(7)
    for _ in range(12):
        cm = random_crossed_module(rng, rng.randint(1, 3))
        t = crossed_to_strict(cm)
        assert t.is_strict()
        assert check_prelie_2alg(t).ok and check_rb_2alg(t, cm.g0.weight).ok
        assert strict_to_crossed(t, cm.g0.weight) == cm
        assert crossed_to_strict(strict_to_crossed(t, cm.g0.weight)) == t


def test_each_structure_builds_its_levels_once(monkeypatch):
    from rbprelie import twoalg

    calls = []

    def counting(left, right):
        calls.append(len(left))
        return bimodule_from_tables(left, right)

    monkeypatch.setattr(twoalg, "bimodule_from_tables", counting)
    rng = random.Random(11)
    for _ in range(4):
        cm = random_crossed_module(rng, rng.randint(1, 3))
        t = crossed_to_strict(cm)
        calls.clear()
        assert strict_to_crossed(t, cm.g0.weight) == cm
        assert calls == [cm.dim0]  # the gate's two streams and the output share one
        assert t.levels is t.levels and _levels(t, cm.g0.weight)[1].bimodule is t.levels[1]
    r, m = random_valid_pair(rng, 2)
    t = cocycle_to_skeletal(r, m, random_rba_cocycle(rng, r, m, 3))
    calls.clear()
    assert skeletal_to_cocycle(t, r.weight)[:2] == (r, m)
    assert calls == [r.dim]


def test_identity_connecting_map_fixture():
    r = make_a1n(1)
    reg = regular_bimodule(r)
    cm = CrossedModule(
        r, r.algebra.c, RationalMatrix.identity(2), reg.bimodule.S, reg.bimodule.P, r.operator
    )
    assert check_crossed_module(cm).ok
    t = crossed_to_strict(cm)
    assert check_prelie_2alg(t).ok and check_rb_2alg(t, Fraction(1)).ok


def test_crossed_module_operator_mismatch_reported():
    r = make_a1n(1)
    reg = regular_bimodule(r)
    cm = CrossedModule(
        r,
        r.algebra.c,
        RationalMatrix.identity(2),
        reg.bimodule.S,
        reg.bimodule.P,
        RationalMatrix.zeros(2, 2),  # no longer intertwines with T0 through d
    )
    verdict = check_crossed_module(cm)
    assert not verdict.ok
    assert any(v.law == "c1_operator" for v in verdict.violations)


def test_strict_skeletal_degenerate_case():
    # d = 0 and strict: level-1 product collapses to zero
    rng = random.Random(8)
    r, m = random_valid_pair(rng, 2)
    zero = RBACochain(Cochain.zero(3, r.dim, m.mod_dim), Cochain.zero(2, r.dim, m.mod_dim))
    t = cocycle_to_skeletal(r, m, zero)
    cm = strict_to_crossed(t, r.weight)
    assert all(is_zero_vector(v) for row in cm.g1_product for v in row)
    assert check_crossed_module(cm).ok


def test_non_strict_rejected():
    rng = random.Random(9)
    r, m = random_valid_pair(rng, 2)
    c = random_rba_cocycle(rng, r, m, 3)
    t = cocycle_to_skeletal(r, m, c)
    if not t.is_strict():
        with pytest.raises(InvalidStructureError):
            strict_to_crossed(t, r.weight)


def test_non_skeletal_rejected():
    rng = random.Random(10)
    cm = random_crossed_module(rng, 2)
    t = crossed_to_strict(cm)
    if not t.is_skeletal():
        with pytest.raises(InvalidStructureError):
            skeletal_to_cocycle(t, cm.g0.weight)
        return
    pytest.skip("sampled crossed module had zero connecting map")


# The coherence checks run on integers over one common denominator.  They are
# compared with their former Fraction routes in ``tests/oracles.py`` on
# arbitrary structures that are neither skeletal nor strict (d, l₃ and T₂
# nonzero), each family over its own denominator, pairwise coprime, so that a
# common denominator missing any family, or a family read at the wrong scale,
# changes the result; most compared defects are nonzero (asserted).
DENOMINATORS = (97, 101, 2**61 - 1, 103, 107, 109, 113, 127)
STRESS_WEIGHTS = (Fraction(0), Fraction(-7, 3), Fraction(1, 2))
STRESS_DIMS = list(product((0, 1, 2, 3), (0, 1, 2)))  # (dim0, dim1)


def _over(rng, den, size):
    return tuple(Fraction(rng.randint(-10**6, 10**6), den) for _ in range(size))


def _table_over(rng, rows, cols, size, den):
    return tuple(tuple(_over(rng, den, size) for _ in range(cols)) for _ in range(rows))


def _matrix_over(rng, rows, cols, den):
    return RationalMatrix.from_rows([_over(rng, den, cols) for _ in range(rows)], cols)


def _stressed_two_term(d0, d1, lam):
    rng = random.Random(f"two-term stress {d0} {d1} {lam}")
    dens = iter(DENOMINATORS)  # one per family
    l3_den = next(dens)
    t = TwoAlgebra(
        dim0=d0,
        dim1=d1,
        d_map=_matrix_over(rng, d0, d1, next(dens)),
        l2_00=_table_over(rng, d0, d0, d0, next(dens)),
        l2_01=_table_over(rng, d0, d1, d1, next(dens)),
        l2_10=_table_over(rng, d1, d0, d1, next(dens)),
        l3=Cochain(3, d0, d1, {k: _over(rng, l3_den, d1) for k in basis_keys(3, d0)}),
        t0=_matrix_over(rng, d0, d0, next(dens)),
        t1=_matrix_over(rng, d1, d1, next(dens)),
        t2=_table_over(rng, d0, d0, d1, next(dens)),
    )
    if d0 and d1:
        assert not t.is_skeletal() and not t.is_strict()
        assert t.l3.is_zero() == (d0 == 1)
    return t


def _stressed_crossed(d0, d1, lam):
    rng = random.Random(f"crossed stress {d0} {d1} {lam}")
    dens = iter(DENOMINATORS)
    s_den, p_den = next(dens), next(dens)
    g0 = RBPreLieAlgebra(
        PreLieAlgebra(d0, _table_over(rng, d0, d0, d0, next(dens))),
        lam,
        _matrix_over(rng, d0, d0, next(dens)),
    )
    return CrossedModule(
        g0,
        _table_over(rng, d1, d1, d1, next(dens)),
        _matrix_over(rng, d0, d1, next(dens)),
        tuple(_matrix_over(rng, d1, d1, s_den) for _ in range(d0)),
        tuple(_matrix_over(rng, d1, d1, p_den) for _ in range(d0)),
        _matrix_over(rng, d1, d1, next(dens)),
    )


def _assert_same_stream(got, want, case, counts):
    got = list(got)
    assert got == list(want), case
    assert all(type(x) is Fraction for _, _, v in got for x in v), case
    counts[0] += sum(bool(v) for _, _, v in got)  # a defect in a zero space is empty
    counts[1] += sum(not is_zero_vector(v) for _, _, v in got)


def test_two_term_checks_hold_under_mixed_denominators():
    counts = [0, 0]  # compared nonempty defects, nonzero ones
    for (d0, d1), lam in product(STRESS_DIMS, STRESS_WEIGHTS):
        t = _stressed_two_term(d0, d1, lam)
        case = (d0, d1, lam)
        want = prelie_2alg_defects_by_fractions(t)
        _assert_same_stream(_prelie_2alg_defects(t), want, case, counts)
        want = rb_2alg_defects_by_fractions(t, lam)
        _assert_same_stream(_rb_2alg_defects(t, lam), want, case, counts)
        for key in product(range(d0), repeat=4):
            got = condition_f_value(t, *key)
            assert got == condition_f_by_fractions(t, *key), (case, key)
            assert all(type(x) is Fraction for x in got)
        for key in product(range(d0), repeat=3):
            got = condition_v_value(t, lam, *key)
            assert got == condition_v_by_fractions(t, lam, *key), (case, key)
            assert all(type(x) is Fraction for x in got)
    assert counts[1] > counts[0] / 2, counts


def test_crossed_module_check_holds_under_mixed_denominators():
    counts = [0, 0]
    for (d0, d1), lam in product(STRESS_DIMS, STRESS_WEIGHTS):
        cm = _stressed_crossed(d0, d1, lam)
        want = crossed_module_defects_by_fractions(cm)
        _assert_same_stream(_crossed_module_defects(cm), want, (d0, d1, lam), counts)
    assert counts[1] > counts[0] / 2, counts
