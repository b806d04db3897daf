"""Pinned outputs of the composite maps and of the seeded generators.

The extension maps (inclusion, projection, sections, the total operator,
γ and ζ), the combined coboundary, the regular ⊕ zero-action modules of the
generators and the two-term action tables are all block layouts.  This test
pins the ``repr`` of each on a seeded corpus, and the stdout and exit code
of the ``extend``, ``extract`` and ``twoalg`` commands, so a change in how
those blocks are laid out must give the same values bit for bit.

``bench/gen.py`` draws its catalogue from the generators, so the generator
pins also guard every benchmark input against a moved random draw.

The pins live in ``block_pins.json`` next to this file.  Running this file
as a script prints the digests of the current code in the same format.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from rbprelie.algebras import PreLieAlgebra, RBPreLieAlgebra, regular_bimodule, zero_table
from rbprelie.cli import main
from rbprelie.cochains import (
    Cochain,
    bilinear_from_cochain,
    cochain_from_matrix,
    matrix_from_cochain,
)
from rbprelie.complexes import ComplexData, ComplexKind, phi, pla_differential
from rbprelie.extensions import (
    CocyclePair,
    build_extension,
    canonical_section,
    iso_from_coboundary,
    sections_same_class,
)
from rbprelie.files import (
    cochain_document,
    crossed_document,
    dump_document,
    parse_algebra_file,
    serialize_algebra,
    serialize_matrix,
    twoalg_document,
)
from rbprelie.generators import (
    random_crossed_module,
    random_matrix,
    random_rb_bimodule,
    random_rb_pre_lie,
    random_rba_cochain,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix
from rbprelie.twoalg import (
    CrossedModule,
    TwoAlgebra,
    cocycle_to_skeletal,
    crossed_to_strict,
    skeletal_to_cocycle,
    strict_to_crossed,
)

PINS = Path(__file__).with_name("block_pins.json")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name: str):
    """(algebra, module) of a fixture file, the regular module when it has none."""
    r, m, _ = parse_algebra_file((FIXTURES / f"{name}.yaml").read_text(encoding="utf-8"))
    return r, m or regular_bimodule(r)


def _generator_cases():
    for seed in range(60):
        dim = 1 + seed % 3
        r, m = random_valid_pair(random.Random(seed), dim)
        yield f"random_valid_pair-{seed}", (r, m)
        yield f"random_crossed_module-{seed}", random_crossed_module(random.Random(seed), dim)
        yield f"random_rb_bimodule-{seed}", random_rb_bimodule(random.Random(seed), r)
        yield f"random_rba_cochain-{seed}", random_rba_cochain(
            random.Random(seed), seed % 4, dim, m.mod_dim
        )


def _combined_cases(rng: random.Random):
    pairs = [(name, _fixture(name)) for name in ("a0", "a1n", "a1_broken_rb")]
    for n in range(40):
        r, m = random_valid_pair(rng, 1 + n % 3)
        pairs.append((f"{n}", (r, m if n % 2 else regular_bimodule(r))))
    for name, (r, m) in pairs:
        data = ComplexData(r, m)
        for degree in range(4):
            yield f"combined-{name}-{degree}", data.d(ComplexKind.RBA, degree)


def _pair(c) -> CocyclePair:
    return CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))


def _shifted_section(d: int, gamma: RationalMatrix) -> RationalMatrix:
    """The canonical section of a base of dimension d plus the module-valued map γ."""
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    return RationalMatrix.from_rows(rows + [list(row) for row in gamma.entries])


def _extension_cases(rng: random.Random):
    for n in range(24):
        r, m = random_valid_pair(rng, 1 + n % 3)
        c1 = random_rba_cocycle(rng, r, m, 2)
        g = cochain_from_matrix(random_matrix(rng, m.mod_dim, r.dim))
        if n % 3:  # cohomologous: c1 shifted by the coboundary of (γ, 0)
            c2 = type(c1)(
                c1.pla_part.sub(pla_differential(r.algebra, m.bimodule, g)),
                c1.rbo_part.add(phi(r, m, g)),
            )
        else:
            c2 = random_rba_cocycle(rng, r, m, 2)
        built = build_extension(r, m, _pair(c1), trusted=True)
        e = built.extension
        yield f"build_extension-{n}", built
        yield f"inclusion-{n}", e.inclusion()
        yield f"projection-{n}", e.projection()
        yield f"canonical_section-{n}", canonical_section(e)
        s1 = _shifted_section(r.dim, random_matrix(rng, m.mod_dim, r.dim))
        s2 = _shifted_section(r.dim, random_matrix(rng, m.mod_dim, r.dim))
        yield f"sections_same_class-{n}", sections_same_class(e, s1, s2)
        yield f"iso_from_coboundary-{n}", iso_from_coboundary(r, m, _pair(c1), _pair(c2))


def _twoalg_cases(rng: random.Random):
    for n in range(20):
        cm = random_crossed_module(rng, 1 + n % 3)
        strict = crossed_to_strict(cm)
        yield f"crossed_to_strict-{n}", strict
        yield f"strict_to_crossed-{n}", strict_to_crossed(strict, cm.g0.weight)
        r, m = random_valid_pair(rng, 1 + n % 3)
        skeletal = cocycle_to_skeletal(r, m, random_rba_cocycle(rng, r, m, 3))
        yield f"cocycle_to_skeletal-{n}", skeletal
        yield f"skeletal_to_cocycle-{n}", skeletal_to_cocycle(skeletal, r.weight)


def _zero_level(rng: random.Random, d0: int, d1: int) -> tuple[TwoAlgebra, CrossedModule]:
    """A two-term structure and a crossed module with one level of dimension 0."""
    if d0:
        g0 = random_rb_pre_lie(rng, d0)
    else:
        g0 = RBPreLieAlgebra(PreLieAlgebra(0, ()), Fraction(1), RationalMatrix.zeros(0, 0))
    t1 = random_matrix(rng, d1, d1)
    zero_actions = (RationalMatrix.zeros(d1, d1),) * d0
    t = TwoAlgebra(
        dim0=d0,
        dim1=d1,
        d_map=RationalMatrix.zeros(d0, d1),
        l2_00=g0.algebra.c,
        l2_01=zero_table(d0, d1, d1),
        l2_10=zero_table(d1, d0, d1),
        l3=Cochain.zero(3, d0, d1),
        t0=g0.operator,
        t1=t1,
        t2=zero_table(d0, d0, d1),
    )
    cm = CrossedModule(
        g0, zero_table(d1, d1, d1), RationalMatrix.zeros(d0, d1), zero_actions, zero_actions, t1
    )
    return t, cm


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


def _cli_cases(rng: random.Random, tmp: Path):
    def write(name: str, text: str) -> Path:
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return path

    algebras = [(name, FIXTURES / f"{name}.yaml", _fixture(name)) for name in ("a0", "a1n")]
    for n in range(6):
        r, m = random_valid_pair(rng, 1 + n % 3)
        algebras.append((f"{n}", write(f"alg{n}.yaml", serialize_algebra(r, m)), (r, m)))
    for name, alg, (r, m) in algebras:
        for label, c in (
            ("cocycle", random_rba_cocycle(rng, r, m, 2)),
            ("cochain", random_rba_cochain(rng, 2, r.dim, m.mod_dim)),
        ):
            pair = write(f"pair-{name}-{label}.yaml", dump_document(cochain_document("rba", c)))
            ext = tmp / f"ext-{name}-{label}.yaml"
            yield f"extend-{name}-{label}", _run(["extend", alg, pair, "-o", ext])
            yield f"extract-{name}-{label}", _run(["extract", ext])
            section = _shifted_section(r.dim, random_matrix(rng, m.mod_dim, r.dim))
            sec = write(f"sec-{name}-{label}.yaml", dump_document(
                {"kind": "section", "matrix": serialize_matrix(section)}))
            yield f"extract-section-{name}-{label}", _run(["extract", ext, "--section", sec])
        c3 = write(f"c3-{name}.yaml", dump_document(cochain_document(
            "rba", random_rba_cocycle(rng, r, m, 3))))
        two = tmp / f"two-{name}.yaml"
        yield f"twoalg-from-cocycle-{name}", _run(["twoalg", "from-cocycle", alg, c3, "-o", two])
        yield f"twoalg-check-skeletal-{name}", _run(["twoalg", "check", two])
        yield f"twoalg-to-cocycle-{name}", _run(["twoalg", "to-cocycle", two])
    for n in range(6):
        cm = random_crossed_module(rng, 1 + n % 3)
        crossed = write(f"crossed{n}.yaml", dump_document(crossed_document(cm)))
        two = tmp / f"strict{n}.yaml"
        yield f"twoalg-from-crossed-{n}", _run(["twoalg", "from-crossed", crossed, "-o", two])
        yield f"twoalg-check-strict-{n}", _run(["twoalg", "check", two])
        yield f"twoalg-to-crossed-{n}", _run(["twoalg", "to-crossed", two])
    for d0, d1 in ((0, 0), (0, 1), (1, 0), (2, 0)):
        t, cm = _zero_level(rng, d0, d1)
        two = write(f"zero-{d0}-{d1}.yaml", dump_document(twoalg_document(t, cm.g0.weight)))
        crossed = write(f"zero-crossed-{d0}-{d1}.yaml", dump_document(crossed_document(cm)))
        for action, path in (
            ("check", two), ("to-cocycle", two), ("to-crossed", two), ("from-crossed", crossed)
        ):
            yield f"twoalg-zero-{d0}-{d1}-{action}", _run(["twoalg", action, path])


def corpus():
    """(case name, value) in a fixed order, every family from its own seed."""
    yield from _generator_cases()
    yield from _combined_cases(random.Random("block-pins:combined"))
    yield from _extension_cases(random.Random("block-pins:extensions"))
    yield from _twoalg_cases(random.Random("block-pins:twoalg"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _cli_cases(random.Random("block-pins:cli"), Path(tmp)):
            assert tmp not in text, f"{name} prints a temporary path"
            yield name, text


def _digest(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def test_block_layouts_match_pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    got = {name: _digest(value) for name, value in corpus()}
    assert list(got) == list(pins)
    changed = [name for name in got if got[name] != pins[name]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    print(json.dumps({name: _digest(v) for name, v in corpus()}, indent=0))
