import random
from fractions import Fraction

import pytest

from rbprelie import phi, pla_differential
from rbprelie.algebras import InvalidStructureError, zero_table
from rbprelie.cochains import (
    bilinear_from_cochain,
    cochain_from_matrix,
    matrix_from_cochain,
)
from rbprelie.extensions import (
    CocyclePair,
    build_extension,
    canonical_section,
    check_extension,
    extract_cocycle,
    iso_from_coboundary,
    quotient_structure,
    sections_same_class,
)
from rbprelie.generators import (
    conjugate_rb,
    invert,
    random_matrix,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix

from conftest import make_noncommuting_module


def _zero_pair(base_dim, mod_dim):
    table = zero_table(base_dim, base_dim, mod_dim)
    return CocyclePair(table, RationalMatrix.zeros(mod_dim, base_dim))


def _pair_from_cocycle(c):
    return CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))


def _perturbed_section(e, gamma):
    base = canonical_section(e)
    rows = []
    for i in range(e.total.dim):
        row = []
        for j in range(e.base_dim):
            extra = gamma.entries[i - e.base_dim][j] if i >= e.base_dim else Fraction(0)
            row.append(base.entries[i][j] + extra)
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def test_block_maps_written_out():
    """Inclusion, projection and canonical section for d = 2, m = 1."""
    from rbprelie.algebras import PreLieAlgebra, RBPreLieAlgebra
    from rbprelie.extensions import ExtensionData

    total = RBPreLieAlgebra(
        PreLieAlgebra(3, zero_table(3, 3, 3)), Fraction(0), RationalMatrix.zeros(3, 3)
    )
    e = ExtensionData(total, 2, 1)
    assert e.inclusion() == RationalMatrix.from_rows([[0], [0], [1]])
    assert e.projection() == RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert canonical_section(e) == RationalMatrix.from_rows([[1, 0], [0, 1], [0, 0]])


def test_semidirect_product_always_valid():
    rng = random.Random(0)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        built = build_extension(r, m, _zero_pair(r.dim, m.mod_dim))
        assert built.axioms_ok and built.cocycle_ok
        assert check_extension(built.extension).ok


def test_build_extension_rejects_a_module_that_is_not_a_representation():
    r, m = make_noncommuting_module()
    with pytest.raises(InvalidStructureError, match="module is not a Rota-Baxter bimodule"):
        build_extension(r, m, _zero_pair(r.dim, m.mod_dim))


def test_a0_extension_fixture(a0, a0_reg):
    pair = CocyclePair((((Fraction(1),),),), RationalMatrix.zeros(1, 1))
    built = build_extension(a0, a0_reg, pair)
    assert built.axioms_ok and built.cocycle_ok
    total = built.extension.total
    assert total.dim == 2
    assert total.algebra.c[0][0] == (Fraction(0), Fraction(1))
    assert total.operator.is_zero()


def test_validity_iff_cocycle_randomized():
    rng = random.Random(1)
    valid = invalid = 0
    for _ in range(25):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        d, md = r.dim, m.mod_dim
        if rng.random() < 0.5:
            pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
        else:
            table = tuple(
                tuple(
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(md)) for _ in range(d)
                )
                for _ in range(d)
            )
            pair = CocyclePair(table, random_matrix(rng, md, d))
        built = build_extension(r, m, pair)
        assert built.axioms_ok == built.cocycle_ok
        valid += built.axioms_ok
        invalid += not built.axioms_ok
    assert valid > 0 and invalid > 0


def test_extract_canonical_round_trip():
    rng = random.Random(2)
    for _ in range(10):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
        built = build_extension(r, m, pair)
        result = extract_cocycle(built.extension, canonical_section(built.extension))
        assert result.pair == pair
        assert result.bimodule == m
        assert result.base == r
        assert result.cocycle_ok


def test_extract_semidirect_is_zero_pair():
    rng = random.Random(3)
    r, m = random_valid_pair(rng, 2)
    built = build_extension(r, m, _zero_pair(r.dim, m.mod_dim))
    result = extract_cocycle(built.extension, canonical_section(built.extension))
    assert result.pair == _zero_pair(r.dim, m.mod_dim)


def test_perturbed_section_shifts_by_coboundary():
    rng = random.Random(4)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
        built = build_extension(r, m, pair)
        gamma = random_matrix(rng, m.mod_dim, r.dim)
        section = _perturbed_section(built.extension, gamma)
        result = extract_cocycle(built.extension, section)
        g = cochain_from_matrix(gamma)
        want_psi = pla_differential(r.algebra, m.bimodule, g)
        want_chi = phi(r, m, g).scale(Fraction(-1))
        got = result.pair.sub(pair).as_cochain()
        assert got.pla_part.sub(want_psi).is_zero()
        assert got.rbo_part.sub(want_chi).is_zero()
        # induced bimodule does not depend on the section
        assert result.bimodule == m


def test_extraction_inverts_building_up_to_the_section_basis():
    # reading a pair off s is the change of basis to Q = [s | ι]: building
    # the extension of what was read gives the total structure in that basis
    rng = random.Random(12)
    for _ in range(10):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
        e = build_extension(r, m, pair).extension
        s = _perturbed_section(e, random_matrix(rng, m.mod_dim, r.dim))
        q = RationalMatrix.block([[s, e.inclusion()]])
        result = extract_cocycle(e, s)
        rebuilt = build_extension(result.base, result.bimodule, result.pair).extension
        assert rebuilt.total == conjugate_rb(e.total, q, invert(q))
        assert result.cocycle_ok


def test_sections_same_class_randomized():
    rng = random.Random(5)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
        built = build_extension(r, m, pair)
        s1 = _perturbed_section(built.extension, random_matrix(rng, m.mod_dim, r.dim))
        s2 = _perturbed_section(built.extension, random_matrix(rng, m.mod_dim, r.dim))
        cmp = sections_same_class(built.extension, s1, s2)
        assert cmp.ok and cmp.difference_is_coboundary and cmp.same_actions
        same = sections_same_class(built.extension, s1, s1)
        assert same.ok and same.gamma.is_zero()


def test_sections_same_class_builds_each_block_once(built_blocks):
    # both pairs are read off without a cocycle test, and one ComplexData
    # gives (δγ, −Φγ): only the degree-1 combined blocks are built
    from collections import Counter

    from rbprelie.complexes import ComplexKind

    rng = random.Random(11)
    once = Counter({(ComplexKind.PLA, 1): 1, ("phi", 1): 1, (ComplexKind.RBO, 0): 1})
    for _ in range(4):
        r, m = random_valid_pair(rng, 2)
        pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
        built = build_extension(r, m, pair)
        s1 = _perturbed_section(built.extension, random_matrix(rng, m.mod_dim, r.dim))
        s2 = _perturbed_section(built.extension, random_matrix(rng, m.mod_dim, r.dim))
        built_blocks.clear()
        assert sections_same_class(built.extension, s1, s2).ok
        assert built_blocks == once


def test_iso_identity_for_equal_pairs():
    rng = random.Random(6)
    r, m = random_valid_pair(rng, 2)
    pair = _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2))
    result = iso_from_coboundary(r, m, pair, pair)
    assert result.cohomologous
    assert result.gamma.is_zero()
    assert result.zeta == RationalMatrix.identity(r.dim + m.mod_dim)
    assert result.morphism_ok and result.diagram_ok


def test_iso_from_constructed_coboundary():
    rng = random.Random(7)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        c1 = random_rba_cocycle(rng, r, m, 2)
        gamma = random_matrix(rng, m.mod_dim, r.dim)
        g = cochain_from_matrix(gamma)
        shifted = c1.pla_part.sub(pla_differential(r.algebra, m.bimodule, g))
        chi2 = c1.rbo_part.add(phi(r, m, g))
        pair1 = _pair_from_cocycle(c1)
        pair2 = CocyclePair(bilinear_from_cochain(shifted), matrix_from_cochain(chi2))
        result = iso_from_coboundary(r, m, pair1, pair2)
        assert result.cohomologous and result.morphism_ok and result.diagram_ok


def test_iso_from_coboundary_assembles_each_block_once(built_blocks):
    # one ComplexData serves both cocycle tests and the degree-1 solve, and
    # the two total spaces are built without a second cocycle test
    from collections import Counter

    from rbprelie.complexes import ComplexKind

    rng = random.Random(9)
    cases = []
    for _ in range(4):
        r, m = random_valid_pair(rng, 2)
        c1 = random_rba_cocycle(rng, r, m, 2)
        g = cochain_from_matrix(random_matrix(rng, m.mod_dim, r.dim))
        shifted = c1.pla_part.sub(pla_differential(r.algebra, m.bimodule, g))
        chi2 = c1.rbo_part.add(phi(r, m, g))
        pair2 = CocyclePair(bilinear_from_cochain(shifted), matrix_from_cochain(chi2))
        cases.append((r, m, _pair_from_cocycle(c1), pair2))
    once = Counter({
        (ComplexKind.PLA, 2): 1, ("phi", 2): 1, (ComplexKind.RBO, 1): 1,
        (ComplexKind.PLA, 1): 1, ("phi", 1): 1, (ComplexKind.RBO, 0): 1,
    })
    for r, m, pair1, pair2 in cases:
        built_blocks.clear()
        iso_from_coboundary(r, m, pair1, pair1)
        assert built_blocks == once
        built_blocks.clear()
        assert iso_from_coboundary(r, m, pair1, pair2).cohomologous
        assert built_blocks == once


def test_iso_not_cohomologous_on_a0(a0, a0_reg):
    p1 = CocyclePair((((Fraction(1),),),), RationalMatrix.zeros(1, 1))
    result = iso_from_coboundary(a0, a0_reg, p1, _zero_pair(1, 1))
    assert not result.cohomologous
    assert result.zeta is None


def test_iso_rejects_non_cocycles():
    rng = random.Random(8)
    r, m = random_valid_pair(rng, 2, Fraction(1))
    bad = CocyclePair(
        tuple(
            tuple(tuple(Fraction(1) for _ in range(m.mod_dim)) for _ in range(r.dim))
            for _ in range(r.dim)
        ),
        random_matrix(rng, m.mod_dim, r.dim),
    )
    if not build_extension(r, m, bad).cocycle_ok:
        with pytest.raises(InvalidStructureError):
            iso_from_coboundary(r, m, bad, bad)


def test_transported_section_gives_equal_pairs():
    rng = random.Random(9)
    for _ in range(6):
        r, m = random_valid_pair(rng, rng.randint(1, 2))
        c1 = random_rba_cocycle(rng, r, m, 2)
        gamma = random_matrix(rng, m.mod_dim, r.dim)
        g = cochain_from_matrix(gamma)
        pair1 = _pair_from_cocycle(c1)
        pair2 = CocyclePair(
            bilinear_from_cochain(c1.pla_part.sub(pla_differential(r.algebra, m.bimodule, g))),
            matrix_from_cochain(c1.rbo_part.add(phi(r, m, g))),
        )
        result = iso_from_coboundary(r, m, pair1, pair2)
        assert result.cohomologous
        ext1 = build_extension(r, m, pair1).extension
        ext2 = build_extension(r, m, pair2).extension
        s = _perturbed_section(ext2, random_matrix(rng, m.mod_dim, r.dim))
        transported = result.zeta.matmul(s)
        got1 = extract_cocycle(ext1, transported)
        got2 = extract_cocycle(ext2, s)
        assert got1.pair == got2.pair


def test_check_extension_detects_failures(a0, a0_reg):
    pair = _zero_pair(1, 1)
    built = build_extension(a0, a0_reg, pair)
    ext = built.extension
    # perturb the operator so it no longer preserves the module block
    bad_op = RationalMatrix.from_rows([[0, 1], [0, 0]])
    from rbprelie.algebras import RBPreLieAlgebra
    from rbprelie.extensions import ExtensionData

    bad = ExtensionData(
        RBPreLieAlgebra(ext.total.algebra, ext.total.weight, bad_op), 1, 1
    )
    verdict = check_extension(bad)
    assert not verdict.ok
    assert any(v.law == "operator_square" for v in verdict.violations)


def test_check_extension_module_product_and_ideal():
    rng = random.Random(10)
    r, m = random_valid_pair(rng, 2)
    built = build_extension(r, m, _zero_pair(r.dim, m.mod_dim))
    assert check_extension(built.extension).ok
    # writing a product value into the module block breaks the zero-product law
    from rbprelie.algebras import PreLieAlgebra, RBPreLieAlgebra
    from rbprelie.extensions import ExtensionData

    total = built.extension.total
    table = [list(map(list, row)) for row in total.algebra.c]
    table[r.dim][r.dim][0] = Fraction(1)
    bad_alg = PreLieAlgebra(
        total.dim, tuple(tuple(tuple(v) for v in row) for row in table)
    )
    bad = ExtensionData(RBPreLieAlgebra(bad_alg, total.weight, total.operator), r.dim, m.mod_dim)
    verdict = check_extension(bad)
    assert any(v.law in ("module_product_zero", "module_ideal") for v in verdict.violations)


def test_quotient_structure_recovers_base():
    rng = random.Random(11)
    r, m = random_valid_pair(rng, 2)
    built = build_extension(r, m, _pair_from_cocycle(random_rba_cocycle(rng, r, m, 2)))
    assert quotient_structure(built.extension) == r
