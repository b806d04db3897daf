"""Every input file gets a defined outcome: exit 0, 1 or 2, never a traceback.
A parse error names the file it was raised in.

Integer fields (dimensions, degrees, orders, key indices) reject YAML
booleans: ``True`` is an ``int`` in Python, so an unchecked ``true`` would
read as 1 and could exit 0 on a malformed file.  The fuzz test mutates one
or two leaves of small valid documents and runs the commands that read them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import random

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rbprelie.cli import main
from rbprelie.cochains import Cochain, bilinear_from_cochain, matrix_from_cochain
from rbprelie.deformations import gauge_transform, trivial_deformation
from rbprelie.extensions import CocyclePair, build_extension
from rbprelie.files import (
    algebra_document,
    cochain_document,
    crossed_document,
    deformation_document,
    extension_document,
    twoalg_document,
)
from rbprelie.generators import (
    random_crossed_module,
    random_gauge,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.twoalg import cocycle_to_skeletal, crossed_to_strict
from conftest import make_a0


def _a0_documents() -> dict:
    """One-dimensional valid documents: every integer field that could read
    ``true`` as 1 holds 1, so a boolean there would pass at face value."""
    a0 = algebra_document(make_a0())
    module = {"dimension": 1, "left_actions": [[["0"]]], "right_actions": [[["0"]]],
              "operator": [["0"]]}
    zero2 = [["0", "0"], ["0", "0"]]
    return {
        "alg": {**a0, "module": module},
        "cochain": {"kind": "cochain", "complex": "pla", "degree": 1, "base_dimension": 1,
                    "module_dimension": 1, "entries": [{"key": [1], "value": ["1"]}]},
        "def": deformation_document(trivial_deformation(make_a0(), 1)),
        "ext": {"kind": "extension", "base_dimension": 1, "module_dimension": 1, "weight": "0",
                "product": [[["0", "0"]] * 2] * 2, "operator": zero2},
        "two": {"kind": "two_algebra", "dim0": 1, "dim1": 0, "weight": "0", "d": [[]],
                "l2_00": [[["0"]]], "l2_01": [[]], "l2_10": [], "l3": [], "t0": [["0"]],
                "t1": [], "t2": [[[]]]},
        "crossed": {"kind": "crossed_module", "dim0": 1, "dim1": 0, "weight": "0",
                    "product0": [[["0"]]], "operator0": [["0"]], "product1": [], "d": [[]],
                    "left_actions": [[]], "right_actions": [[]], "operator1": []},
    }


def _write(tmp_path, docs: dict) -> dict:
    paths = {}
    for slot, doc in docs.items():
        paths[slot] = tmp_path / f"{slot}.yaml"
        paths[slot].write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return paths


def _main(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _set(doc, path, value):
    for step in path[:-1]:
        doc = doc[step]
    doc[path[-1]] = value


BOOL_CASES = {
    # case: (argv with {slot} placeholders, slot, path of the integer field, message field)
    "check-dimension": (["check", "{alg}"], "alg", ("dimension",), "dimension"),
    "check-module-dimension": (["check", "{alg}"], "alg", ("module", "dimension"),
                               "module.dimension"),
    "cocycle-degree": (["cocycle", "{alg}", "{cochain}"], "cochain", ("degree",), "degree"),
    "cocycle-base-dimension": (["cocycle", "{alg}", "{cochain}"], "cochain",
                               ("base_dimension",), "base_dimension"),
    "cocycle-module-dimension": (["cocycle", "{alg}", "{cochain}"], "cochain",
                                 ("module_dimension",), "module_dimension"),
    "cocycle-key-index": (["cocycle", "{alg}", "{cochain}"], "cochain",
                          ("entries", 0, "key", 0), "entries[1].key[1]"),
    "deform-check-order": (["deform", "check", "{alg}", "{def}"], "def", ("order",), "order"),
    "extract-base-dimension": (["extract", "{ext}"], "ext", ("base_dimension",),
                               "base_dimension"),
    "extract-module-dimension": (["extract", "{ext}"], "ext", ("module_dimension",),
                                 "module_dimension"),
    "twoalg-check-dim0": (["twoalg", "check", "{two}"], "two", ("dim0",), "dim0"),
    "twoalg-from-crossed-dim0": (["twoalg", "from-crossed", "{crossed}"], "crossed", ("dim0",),
                                 "dim0"),
}


@pytest.mark.parametrize("case", sorted(BOOL_CASES))
def test_boolean_in_integer_field_is_parse_error(tmp_path, case):
    argv, slot, path, field = BOOL_CASES[case]
    docs = _a0_documents()
    paths = _write(tmp_path, docs)
    filled = [a.format(**paths) for a in argv]
    assert _main(filled)[0] == 0  # the unmutated documents are valid
    _set(docs[slot], path, True)
    paths = _write(tmp_path, docs)
    code, err = _main(filled)
    assert code == 2
    assert f"parse error: {paths[slot]}: {field}:" in err


def test_parse_errors_name_their_file(tmp_path):
    docs = _a0_documents()
    docs["bad"] = {**docs["cochain"], "degree": -1}
    docs["bare"] = algebra_document(make_a0())
    paths = _write(tmp_path, docs)
    broken = tmp_path / "broken.yaml"
    broken.write_text("product: [[\n", encoding="utf-8")
    expected = {
        # the second file
        ("cocycle", "{alg}", "{bad}"): "{bad}: degree: degree must be a non-negative integer",
        ("extend", "{alg}", "{cochain}"):
            "{cochain}: expected a degree-2 cochain in the combined complex",
        # a --module file
        ("check", "{alg}", "--module", "{cochain}"): "{cochain}: algebra: unknown field 'kind'",
        ("check", "{alg}", "--module", "{bare}"): "{bare}: file carries no module block",
    }
    for argv, message in expected.items():
        code, err = _main([a.format(**paths) for a in argv])
        assert (code, err) == (2, f"parse error: {message.format(**paths)}\n")
    # YAML errors in pair and section files name the file once
    for argv in (["extend", paths["alg"], broken], ["extract", paths["ext"], "--section", broken]):
        code, err = _main(argv)
        assert code == 2
        assert err.startswith(f"parse error: {broken}: not valid YAML: ")
        assert err.count(str(broken)) == 1


def test_unreadable_text_is_a_parse_error_naming_the_file(tmp_path):
    # a file that is not UTF-8, and YAML nested deeper than the loader recurses
    undecodable = tmp_path / "utf16.yaml"
    undecodable.write_bytes(bytes.fromhex("fffe0064"))
    nested = tmp_path / "nested.yaml"
    nested.write_text("[" * 5000, encoding="utf-8")
    for path, message in ((undecodable, "not UTF-8 text: "), (nested, "not valid YAML: ")):
        code, err = _main(["check", path])
        assert code == 2
        assert err.startswith(f"parse error: {path}: {message}")
        assert err.count(str(path)) == 1


def _generated_documents() -> dict:
    """Small seeded documents of every kind the fuzzed commands read."""
    rng = random.Random(11)
    r, m = random_valid_pair(rng, 2)
    c2 = random_rba_cocycle(rng, r, m, 2)
    pair = CocyclePair(bilinear_from_cochain(c2.pla_part), matrix_from_cochain(c2.rbo_part))
    skeletal = cocycle_to_skeletal(r, m, random_rba_cocycle(rng, r, m, 3))
    cm = random_crossed_module(rng, 2)
    deformation = gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, r.dim, 2))
    return {
        "alg": algebra_document(r, m, "fuzz"),
        "cochain": cochain_document("rba", c2),
        "pla": cochain_document("pla", Cochain.zero(1, r.dim, m.mod_dim)),
        "def": deformation_document(deformation),
        "ext": extension_document(build_extension(r, m, pair).extension),
        "two": twoalg_document(skeletal, r.weight),
        "strict": twoalg_document(crossed_to_strict(cm), cm.g0.weight),
        "crossed": crossed_document(cm),
    }


FUZZ_COMMANDS = (
    ["check", "{alg}"],
    ["star", "{alg}"],
    ["cocycle", "{alg}", "{cochain}"],
    ["cocycle", "{alg}", "{pla}"],
    ["extend", "{alg}", "{cochain}"],
    ["extract", "{ext}"],
    ["deform", "check", "{alg}", "{def}"],
    ["twoalg", "check", "{two}"],
    ["twoalg", "to-cocycle", "{two}"],
    ["twoalg", "to-crossed", "{strict}"],
    ["twoalg", "from-crossed", "{crossed}"],
)

MUTANTS = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.integers(-5, -1),
    st.text(alphabet="0123456789-/ .ex", max_size=5),
    st.lists(st.integers(-2, 2), max_size=3),
)


def _bases() -> tuple[dict, dict]:
    """Seeded dimension-2 documents, and the one-dimensional ones in which a
    boolean read as 1 would fit every integer field."""
    a0 = _a0_documents()
    return _generated_documents(), {**a0, "pla": a0["cochain"], "strict": a0["two"]}


BASES = _bases()


def _leaves(doc, path=()):
    """Paths of every non-container value, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_get_a_defined_outcome(fuzz_dir, data):
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS))
    base = data.draw(st.sampled_from(BASES))
    slots = [a[1:-1] for a in argv if a.startswith("{")]
    docs = {slot: copy.deepcopy(base[slot]) for slot in slots}
    for _ in range(data.draw(st.integers(1, 2))):
        slot = data.draw(st.sampled_from(slots))
        _set(docs[slot], data.draw(st.sampled_from(_leaves(docs[slot]))), data.draw(MUTANTS))
    bool_in_int_field = any(
        type(_get(base[slot], path)) is int and isinstance(_get(docs[slot], path), bool)
        for slot in slots
        for path in _leaves(base[slot])
    )
    paths = _write(fuzz_dir, docs)
    code, _ = _main([a.format(**paths) for a in argv])
    assert code in (0, 1, 2)
    if bool_in_int_field:
        assert code != 0

