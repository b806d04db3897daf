"""Every document a command writes is read back by the command that consumes it.

The writers are ``star -o``, ``extend -o``, ``extract -o``, ``deform solve``
(its ``output``) and ``twoalg`` in all four directions, with ``to-cocycle``
writing both a ``base`` algebra and an ``output`` cochain.  Each is run on
the fixtures, on seeded inputs and on the four two-term structures with an
empty level; what it writes must then exit 0 in its reader.  Every document
written must also list its fields in the order of the reader's schema.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest
import yaml

from rbprelie.cli import main
from rbprelie.cochains import Cochain, RBACochain
from rbprelie.deformations import gauge_transform, trivial_deformation
from rbprelie.files import (
    ALGEBRA_FIELDS,
    COCHAIN_FIELDS,
    CROSSED_FIELDS,
    DEFORMATION_FIELDS,
    EXTENSION_FIELDS,
    MODULE_FIELDS,
    TWOALG_FIELDS,
    algebra_document,
    cochain_document,
    crossed_document,
    deformation_document,
    dump_document,
    parse_algebra_file,
    twoalg_document,
)
from rbprelie.generators import (
    random_crossed_module,
    random_gauge,
    random_rba_cocycle,
    random_valid_pair,
)
from test_block_pins import _zero_level

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIELDS_OF_KIND = {
    None: ALGEBRA_FIELDS,
    "cochain": COCHAIN_FIELDS,
    "deformation": DEFORMATION_FIELDS,
    "extension": EXTENSION_FIELDS,
    "two_algebra": TWOALG_FIELDS,
    "crossed_module": CROSSED_FIELDS,
}


def _assert_schema_order(doc: dict) -> None:
    fields = FIELDS_OF_KIND[doc.get("kind")]
    assert list(doc) == [f for f in fields if f in doc], (doc.get("kind"), list(doc))
    if "module" in doc and doc.get("kind") is None:
        assert list(doc["module"]) == list(MODULE_FIELDS)


class Session:
    """Runs commands in one directory and checks every document they write."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.count = 0

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.tmp / f"{stem}-{self.count}.yaml"

    def write(self, stem: str, text: str) -> Path:
        path = self.path(stem)
        path.write_text(text, encoding="utf-8")
        return path

    def run(self, *argv) -> dict:
        """Run a command that must exit 0; return its report."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code == 0, (argv, code, err.getvalue(), out.getvalue())
        report = yaml.safe_load(out.getvalue())
        for key in ("base", "output"):
            if key in report:
                _assert_schema_order(report[key])
        for arg in argv:
            if isinstance(arg, Path) and arg.exists():
                _assert_schema_order(yaml.safe_load(arg.read_text(encoding="utf-8")))
        return report

    def save(self, stem: str, doc: dict) -> Path:
        return self.write(stem, dump_document(doc))


def _algebra_round_trips(s: Session, alg: Path, c2: dict, c3: dict) -> None:
    """star, extend, extract and twoalg from-cocycle on one algebra file with
    a degree-2 and a degree-3 combined cocycle over its module."""
    star = s.path("star")
    s.run("star", alg, "-o", star)
    s.run("check", star)

    ext = s.path("ext")
    s.run("extend", alg, s.save("pair", c2), "-o", ext)
    pair = s.path("pair")
    report = s.run("extract", ext, "-o", pair)
    base = s.save("base", report["base"])
    s.run("extend", base, pair)

    two = s.path("two")
    s.run("twoalg", "from-cocycle", alg, s.save("c3", c3), "-o", two)
    s.run("twoalg", "check", two)
    _to_cocycle_round_trip(s, two)


def _to_cocycle_round_trip(s: Session, two: Path) -> Path:
    """``twoalg to-cocycle``: its base is checked, and base and output make a
    cocycle; returns the base algebra file."""
    cochain = s.path("c3")
    report = s.run("twoalg", "to-cocycle", two, "-o", cochain)
    base = s.save("base", report["base"])
    assert dump_document(report["output"]) == cochain.read_text(encoding="utf-8")
    s.run("check", base)
    s.run("cocycle", base, cochain)
    s.run("twoalg", "from-cocycle", base, cochain)
    return base


def _crossed_round_trips(s: Session, crossed: Path) -> None:
    strict = s.path("strict")
    s.run("twoalg", "from-crossed", crossed, "-o", strict)
    s.run("twoalg", "check", strict)
    back = s.path("crossed")
    s.run("twoalg", "to-crossed", strict, "-o", back)
    s.run("twoalg", "from-crossed", back)


def _deform_round_trip(s: Session, alg: Path, deformation) -> None:
    report = s.run("deform", "solve", alg, s.save("def", deformation_document(deformation)))
    s.run("deform", "check", alg, s.save("def", report["output"]))


def _zero_pairs(d: int, md: int) -> tuple[dict, dict]:
    return tuple(
        cochain_document("rba", RBACochain(Cochain.zero(n, d, md), Cochain.zero(n - 1, d, md)))
        for n in (2, 3)
    )


@pytest.mark.parametrize("name", ["a0", "a1n"])
def test_fixture_outputs_read_back(tmp_path, name):
    s = Session(tmp_path)
    alg = FIXTURES / f"{name}.yaml"
    r, m, _ = parse_algebra_file(alg.read_text(encoding="utf-8"))
    rng = random.Random(name)
    c2, c3 = (cochain_document("rba", random_rba_cocycle(rng, r, m, n)) for n in (2, 3))
    _algebra_round_trips(s, alg, c2, c3)
    _deform_round_trip(s, alg, trivial_deformation(r, 1))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_outputs_read_back(tmp_path, seed):
    s = Session(tmp_path)
    rng = random.Random(seed)
    r, m = random_valid_pair(rng, 1 + seed % 3)
    alg = s.write("alg", dump_document(algebra_document(r, m)))
    c2, c3 = (cochain_document("rba", random_rba_cocycle(rng, r, m, n)) for n in (2, 3))
    _algebra_round_trips(s, alg, c2, c3)
    _deform_round_trip(
        s, alg, gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, r.dim, 2))
    )
    _crossed_round_trips(s, s.save("crossed", crossed_document(random_crossed_module(rng, r.dim))))


@pytest.mark.parametrize("d0, d1", [(0, 0), (0, 1), (1, 0), (2, 0)])
def test_zero_level_outputs_read_back(tmp_path, d0, d1):
    s = Session(tmp_path)
    t, cm = _zero_level(random.Random(f"{d0}-{d1}"), d0, d1)
    _crossed_round_trips(s, s.save("crossed", crossed_document(cm)))
    two = s.save("two", twoalg_document(t, cm.g0.weight))
    s.run("twoalg", "check", two)
    base = _to_cocycle_round_trip(s, two)
    r, m, _ = parse_algebra_file(base.read_text(encoding="utf-8"))
    assert (r.dim, m.mod_dim) == (d0, d1)
    _algebra_round_trips(s, base, *_zero_pairs(d0, d1))
    _deform_round_trip(s, base, trivial_deformation(r, 1))
