"""Pinned verdicts of the law checkers on a seeded corpus.

Most checkers have an independent oracle elsewhere in the suite; the
two-term, crossed-module and extension checkers do not.  This test pins the
whole ``repr`` of every verdict (each violation's law, 1-based indices and
defect, their order, and the notes) on valid and perturbed structures, so a
refactor of how checkers collect their defects must give the same verdicts
bit for bit.  The corpus reaches every law label and the zero-map note.

The pins live in ``checker_pins.json`` next to this file.  Running this file
as a script prints the digests of the current code in the same format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from rbprelie.algebras import (
    PreLieAlgebra,
    RBBimodule,
    check_bimodule,
    check_jacobi,
    check_morphism,
    check_pre_lie,
    check_rb_bimodule,
    check_rb_operator,
    sub_adjacent_bracket,
)
from rbprelie.cochains import bilinear_from_cochain, matrix_from_cochain
from rbprelie.deformations import (
    TruncatedDeformation,
    check_deformation,
    gauge_transform,
    rbo_cocycle_check,
    trivial_deformation,
)
from rbprelie.extensions import CocyclePair, ExtensionData, build_extension, check_extension
from rbprelie.generators import (
    conjugate_rb,
    invert,
    random_cochain,
    random_crossed_module,
    random_gauge,
    random_invertible,
    random_matrix,
    random_rb_pre_lie,
    random_rba_cochain,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix
from rbprelie.twoalg import (
    check_crossed_module,
    check_prelie_2alg,
    check_rb_2alg,
    cocycle_to_skeletal,
    crossed_to_strict,
)

PINS = Path(__file__).with_name("checker_pins.json")

ALL_LAWS = {
    "pre_lie", "rota_baxter", "left_action", "mixed_action", "rb_left", "rb_right",
    "jacobi", "product", "operator",
    "a", "b", "c", "e1", "e2", "e3", "f", "i", "ii", "iii", "iv", "v",
    "g1_pre_lie", "g0_pre_lie", "g0_rota_baxter", "d_morphism", "c1_left", "c1_right",
    "c1_operator", "c2_left", "c2_right",
    "module_product_zero", "module_ideal", "operator_square",
    *(f"deform_{part}_order_{n}" for part in ("product", "operator") for n in range(3)),
    "rbo_cocycle",
}


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def _bump_table(rng: random.Random, table):
    """The table with one random coordinate shifted by a nonzero rational."""
    rows = [[list(v) for v in row] for row in table]
    v = rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))]
    v[rng.randrange(len(v))] += _nonzero(rng)
    return tuple(tuple(tuple(v) for v in row) for row in rows)


def _bump_matrix(rng: random.Random, m: RationalMatrix) -> RationalMatrix:
    rows = [list(row) for row in m.entries]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += _nonzero(rng)
    return RationalMatrix.from_rows(rows, m.cols)


def _bump_product(rng: random.Random, r):
    """The Rota-Baxter pre-Lie algebra with one structure constant shifted."""
    return dataclasses.replace(r, algebra=PreLieAlgebra(r.dim, _bump_table(rng, r.algebra.c)))


def _bump_one(rng: random.Random, mats: tuple) -> tuple:
    k = rng.randrange(len(mats))
    return mats[:k] + (_bump_matrix(rng, mats[k]),) + mats[k + 1 :]


def _algebra_cases(rng: random.Random):
    for n in range(12):
        r, m = random_valid_pair(rng, 1 + n % 3)
        bm = m.bimodule
        variants = {
            "valid": (r, m),
            "product": (_bump_product(rng, r), m),
            "operator": (dataclasses.replace(r, operator=_bump_matrix(rng, r.operator)), m),
            "left": (r, RBBimodule(dataclasses.replace(bm, S=_bump_one(rng, bm.S)), m.t_m)),
            "right": (r, RBBimodule(dataclasses.replace(bm, P=_bump_one(rng, bm.P)), m.t_m)),
            "t_m": (r, RBBimodule(bm, _bump_matrix(rng, m.t_m))),
        }
        for label, (rv, mv) in variants.items():
            tag = f"{n}-{label}"
            yield f"pre_lie-{tag}", check_pre_lie(rv.algebra)
            yield f"rota_baxter-{tag}", check_rb_operator(rv)
            yield f"bimodule-{tag}", check_bimodule(rv.algebra, mv.bimodule)
            yield f"rb_bimodule-{tag}", check_rb_bimodule(rv, mv)
            yield f"jacobi-{tag}", check_jacobi(sub_adjacent_bracket(rv.algebra))
        phi = random_invertible(rng, r.dim)
        other = conjugate_rb(r, phi, invert(phi))
        yield f"morphism-{n}-identity", check_morphism(r, r, RationalMatrix.identity(r.dim))
        yield f"morphism-{n}-zero", check_morphism(r, r, RationalMatrix.zeros(r.dim, r.dim))
        yield f"morphism-{n}-random", check_morphism(r, other, random_matrix(rng, r.dim, r.dim))
        yield f"morphism-{n}-conjugate", check_morphism(other, r, phi)
        yield f"morphism-{n}-inverse", check_morphism(r, other, invert(phi))
    for n in range(4):
        skew = [[None] * 3 for _ in range(3)]
        for i in range(3):
            skew[i][i] = (Fraction(0),) * 3
            for j in range(i + 1, 3):
                v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
                skew[i][j], skew[j][i] = v, tuple(-x for x in v)
        yield f"jacobi-skew-{n}", check_jacobi(tuple(tuple(row) for row in skew))


def _twoalg_variants(rng: random.Random, t):
    yield "valid", t
    yield "d", dataclasses.replace(t, d_map=_bump_matrix(rng, t.d_map))
    yield "l2_00", dataclasses.replace(t, l2_00=_bump_table(rng, t.l2_00))
    yield "l2_01", dataclasses.replace(t, l2_01=_bump_table(rng, t.l2_01))
    yield "l2_10", dataclasses.replace(t, l2_10=_bump_table(rng, t.l2_10))
    yield "l3", dataclasses.replace(t, l3=t.l3.add(random_cochain(rng, 3, t.dim0, t.dim1)))
    yield "t0", dataclasses.replace(t, t0=_bump_matrix(rng, t.t0))
    yield "t1", dataclasses.replace(t, t1=_bump_matrix(rng, t.t1))
    yield "t2", dataclasses.replace(t, t2=_bump_table(rng, t.t2))


def _twoalg_cases(rng: random.Random):
    for n in range(8):
        r, m = random_valid_pair(rng, 2)
        skeletal = cocycle_to_skeletal(r, m, random_rba_cocycle(rng, r, m, 3))
        cm = random_crossed_module(rng, 2 + n % 2)
        strict = crossed_to_strict(cm, trusted=True)
        for kind, t, weight in (("skeletal", skeletal, r.weight), ("strict", strict, cm.g0.weight)):
            for label, tv in _twoalg_variants(rng, t):
                tag = f"{kind}-{n}-{label}"
                yield f"prelie_2alg-{tag}", check_prelie_2alg(tv)
                yield f"rb_2alg-{tag}", check_rb_2alg(tv, weight)


def _crossed_cases(rng: random.Random):
    for n in range(10):
        cm = random_crossed_module(rng, 1 + n % 3)
        g0 = cm.g0
        variants = {
            "valid": cm,
            "g1_product": dataclasses.replace(cm, g1_product=_bump_table(rng, cm.g1_product)),
            "d": dataclasses.replace(cm, d_map=_bump_matrix(rng, cm.d_map)),
            "left": dataclasses.replace(cm, S=_bump_one(rng, cm.S)),
            "right": dataclasses.replace(cm, P=_bump_one(rng, cm.P)),
            "t1": dataclasses.replace(cm, t1=_bump_matrix(rng, cm.t1)),
            "g0_product": dataclasses.replace(cm, g0=_bump_product(rng, g0)),
            "g0_operator": dataclasses.replace(
                cm, g0=dataclasses.replace(g0, operator=_bump_matrix(rng, g0.operator))
            ),
        }
        for label, cv in variants.items():
            yield f"crossed_module-{n}-{label}", check_crossed_module(cv)


def _extension_cases(rng: random.Random):
    for n in range(8):
        r, m = random_valid_pair(rng, 1 + n % 3)
        if n % 2:
            c = random_rba_cocycle(rng, r, m, 2)
        else:
            c = random_rba_cochain(rng, 2, r.dim, m.mod_dim)
        pair = CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))
        built = build_extension(r, m, pair, trusted=True)
        yield f"build_extension-{n}", built
        e = built.extension
        total, d, md = e.total, e.base_dim, e.mod_dim
        module_block = tuple(tuple(row[d:]) for row in total.algebra.c[d:])
        bumped_block = _bump_table(rng, module_block)
        block_table = tuple(
            row if i < d else row[:d] + bumped_block[i - d] for i, row in enumerate(total.algebra.c)
        )
        variants = {
            "valid": total,
            "product": _bump_product(rng, total),
            "module_block": dataclasses.replace(
                total, algebra=PreLieAlgebra(total.dim, block_table)
            ),
            "operator": dataclasses.replace(total, operator=_bump_matrix(rng, total.operator)),
        }
        for label, tv in variants.items():
            yield f"extension-{n}-{label}", check_extension(ExtensionData(tv, d, md))


def _deformation_cases(rng: random.Random):
    for n in range(6):
        r = random_rb_pre_lie(rng, 1 + n % 3)
        broken = _bump_product(rng, r)
        for order in range(3):
            d = trivial_deformation(r, order)
            variants = {
                "trivial": d,
                "gauge": gauge_transform(r, d, random_gauge(rng, r.dim, order)),
            }
            if order:
                k = rng.randint(1, order)
                products = list(d.products)
                products[k] = _bump_table(rng, products[k])
                operators = list(d.operators)
                operators[k] = _bump_matrix(rng, operators[k])
                variants["product"] = TruncatedDeformation(r, tuple(products), d.operators)
                variants["operator"] = TruncatedDeformation(r, d.products, tuple(operators))
            for label, dv in variants.items():
                yield f"deformation-{n}-{order}-{label}", check_deformation(r, dv)
            yield f"deformation-{n}-{order}-broken", check_deformation(
                broken, trivial_deformation(broken, order)
            )
        yield f"rbo_cocycle-{n}-zero", rbo_cocycle_check(r, RationalMatrix.zeros(r.dim, r.dim))
        yield f"rbo_cocycle-{n}-random", rbo_cocycle_check(r, random_matrix(rng, r.dim, r.dim))


def corpus():
    """(case name, verdict) in a fixed order, every family from its own seed."""
    for seed, family in enumerate(
        (_algebra_cases, _twoalg_cases, _crossed_cases, _extension_cases, _deformation_cases)
    ):
        yield from family(random.Random(f"checker-pins:{seed}"))


def _digest(verdict) -> str:
    return hashlib.sha256(repr(verdict).encode()).hexdigest()[:24]


def _laws_and_notes(verdict):
    if hasattr(verdict, "orders"):  # DeformationVerdict
        parts = verdict.orders
    elif hasattr(verdict, "axiom_violations"):  # BuildResult
        return Counter(v.law for v in verdict.axiom_violations), ()
    else:
        parts = (verdict,)
    laws = Counter(v.law for p in parts for v in p.violations)
    return laws, tuple(n for p in parts for n in p.notes)


def test_checker_verdicts_match_pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    got = {}
    laws: Counter = Counter()
    notes = set()
    for name, verdict in corpus():
        got[name] = _digest(verdict)
        found, found_notes = _laws_and_notes(verdict)
        laws.update(found)
        notes.update(found_notes)
    assert list(got) == list(pins)
    changed = [name for name in got if got[name] != pins[name]]
    assert not changed, f"{len(changed)} verdicts changed, first: {changed[:5]}"
    assert set(laws) == ALL_LAWS, (ALL_LAWS - set(laws), set(laws) - ALL_LAWS)
    assert "degenerate: zero map" in notes


if __name__ == "__main__":
    print(json.dumps({name: _digest(v) for name, v in corpus()}, indent=0))
