import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rbprelie.extensions import CocyclePair, build_extension
from rbprelie.files import (
    ParseError,
    algebra_document,
    cochain_document,
    crossed_document,
    deformation_document,
    dump_document,
    extension_document,
    load_yaml,
    parse_algebra_file,
    parse_cochain_file,
    parse_crossed_file,
    parse_deformation_file,
    parse_extension_file,
    parse_rational,
    parse_twoalg_file,
    twoalg_document,
)
from rbprelie.generators import (
    random_crossed_module,
    random_gauge,
    random_rba_cochain,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.deformations import gauge_transform, trivial_deformation

from conftest import make_a0, make_a1n

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_rational_forms():
    assert parse_rational("3", "x") == Fraction(3)
    assert parse_rational("-7/3", "x") == Fraction(-7, 3)
    assert parse_rational(5, "x") == Fraction(5)
    with pytest.raises(ParseError):
        parse_rational("1/0", "x")
    with pytest.raises(ParseError):
        parse_rational(1.5, "x")
    with pytest.raises(ParseError):
        parse_rational("a/b", "x")
    # only "p" or "p/q" in ASCII digits: no decimal, exponent, digit separator
    # or other script's digits, all of which Fraction would read
    for text in ("0.5", "1e3", "1_0", "\u0663"):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational(text, "x")


def test_algebra_round_trip_with_module():
    rng = random.Random(0)
    for _ in range(8):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        text = dump_document(algebra_document(r, m, name="sample"))
        r2, m2, name = parse_algebra_file(text)
        assert (r2, m2, name) == (r, m, "sample")
        # serialize → parse → serialize is stable
        assert dump_document(algebra_document(r2, m2, name="sample")) == text


def test_algebra_minimal_a0_document():
    text = """
dimension: 1
weight: "0"
product:
- - ["0"]
operator:
- ["0"]
"""
    r, module, name = parse_algebra_file(text)
    assert r == make_a0()
    assert module is None and name is None


def test_unknown_field_rejected_with_location():
    with pytest.raises(ParseError) as err:
        parse_algebra_file("dimension: 1\nweight: '0'\nproduct: [[['0']]]\noperator: [['0']]\nbogus: 1\n")
    assert "bogus" in str(err.value)


def test_shape_mismatch_rejected():
    with pytest.raises(ParseError) as err:
        parse_algebra_file("dimension: 2\nweight: '0'\nproduct: [[['0']]]\noperator: [['0']]\n")
    assert "product" in str(err.value)


def test_a1n_fixture_file_parses():
    with open("fixtures/a1n.yaml", "r", encoding="utf-8") as handle:
        r, m, name = parse_algebra_file(handle.read())
    assert r == make_a1n(1)
    assert name == "a1n"
    # structure constants and operator column as documented
    assert r.algebra.c[0][0] == (Fraction(0), Fraction(1))
    assert r.operator.col(0) == (Fraction(0), Fraction(1))


def test_cochain_round_trip():
    rng = random.Random(1)
    for _ in range(10):
        d, md = rng.randint(1, 3), rng.randint(1, 2)
        c = random_rba_cochain(rng, rng.randint(0, 3), d, md)
        text = dump_document(cochain_document("rba", c))
        which, c2 = parse_cochain_file(text)
        assert which == "rba"
        assert c2.sub(c).is_zero()
        assert dump_document(cochain_document("rba", c2)) == text


def test_cochain_key_validation():
    bad = """
kind: cochain
complex: pla
degree: 3
base_dimension: 3
module_dimension: 1
entries:
- key: [2, 1, 1]
  value: ["1"]
"""
    with pytest.raises(ParseError):
        parse_cochain_file(bad)


def test_deformation_round_trip():
    rng = random.Random(2)
    from rbprelie.generators import random_rb_pre_lie

    for _ in range(5):
        r = random_rb_pre_lie(rng, rng.randint(1, 3))
        d = gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, r.dim, 2))
        text = dump_document(deformation_document(d))
        d2 = parse_deformation_file(text, r)
        assert d2 == d


def test_extension_round_trip():
    rng = random.Random(3)
    r, m = random_valid_pair(rng, 2)
    c = random_rba_cocycle(rng, r, m, 2)
    from rbprelie.cochains import bilinear_from_cochain, matrix_from_cochain

    pair = CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))
    ext = build_extension(r, m, pair).extension
    text = dump_document(extension_document(ext))
    ext2 = parse_extension_file(text)
    assert ext2 == ext


def test_twoalg_round_trip():
    rng = random.Random(4)
    from rbprelie.twoalg import cocycle_to_skeletal

    r, m = random_valid_pair(rng, 2)
    t = cocycle_to_skeletal(r, m, random_rba_cocycle(rng, r, m, 3))
    text = dump_document(twoalg_document(t, r.weight))
    t2, weight = parse_twoalg_file(text)
    assert t2 == t and weight == r.weight


def test_crossed_round_trip():
    rng = random.Random(5)
    cm = random_crossed_module(rng, 2)
    text = dump_document(crossed_document(cm))
    cm2 = parse_crossed_file(text)
    assert cm2 == cm


def test_missing_field_error_is_the_same_under_every_hash_seed(tmp_path):
    # required fields are looked for in file order, never in set order
    path = tmp_path / "only-dimension.yaml"
    path.write_text("dimension: 1\n", encoding="utf-8")
    errors = set()
    for seed in range(1, 9):
        proc = subprocess.run(
            [sys.executable, "-m", "rbprelie.cli", "check", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {f"parse error: {path}: algebra: missing field 'weight'\n"}


@pytest.mark.parametrize(
    "text, where",
    [
        ("dimension: -1\nweight: '0'\nproduct: []\noperator: []\n", "dimension"),
        ("dimension: 0\nweight: '0'\nproduct: []\noperator: []\nmodule: {dimension: -2, "
         "left_actions: [], right_actions: [], operator: []}\n", "module.dimension"),
    ],
)
def test_dimensions_are_non_negative_integers(text, where):
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert str(err.value) == f"{where}: dimension must be a non-negative integer"
    r, module, _ = parse_algebra_file(text.replace("-1", "0").replace("-2", "0"))
    assert r.dim == 0 and (module is None or module.mod_dim == 0)


# ---------------------------------------------------------- YAML with libyaml

PURE_DUMP = {"Dumper": yaml.SafeDumper, "sort_keys": False, "default_flow_style": None,
             "width": 100}


@pytest.fixture(params=["libyaml", "pure"])
def yaml_route(request, monkeypatch):
    """Run a test with PyYAML's libyaml classes, then with them taken away."""
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    return request.param


def _seeded_documents() -> list[dict]:
    rng = random.Random(12)
    docs = []
    for _ in range(6):
        r, m = random_valid_pair(rng, rng.randint(1, 3))
        c = random_rba_cochain(rng, 2, r.dim, m.mod_dim)
        gauged = gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, r.dim, 2))
        docs += [
            algebra_document(r, m, "seeded"),
            cochain_document("rba", c),
            deformation_document(gauged),
        ]
    return docs


def test_documents_read_and_write_as_with_the_pure_yaml_classes(yaml_route):
    for path in sorted(FIXTURES.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        assert load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader), path.name
    for doc in _seeded_documents():
        text = dump_document(doc)
        assert text == yaml.dump(doc, **PURE_DUMP)
        assert load_yaml(text) == doc


MALFORMED_YAML = [
    "product: [[\n",
    "a: b: c\n",
    'key: "\\x"\n',
    "\t- x\n",
    "a:\n  - 1\n - 2\n",
    "&x a: *y\n",
    "\x00",
    "\ud800",  # libyaml reads UTF-8 bytes, which a lone surrogate has none of
]


@pytest.mark.parametrize("text", MALFORMED_YAML, ids=repr)
def test_yaml_errors_read_as_the_pure_loader_words_them(text, yaml_route):
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.load(text, Loader=yaml.SafeLoader)
    with pytest.raises(ParseError) as got:
        load_yaml(text)
    assert str(got.value) == f"not valid YAML: {pure.value}"


# libyaml rejects these and the pure-Python loader would recurse past the
# interpreter's limit re-parsing them
DEEPLY_NESTED_YAML = ["[" * 5000, "{a: " * 5000]


@pytest.mark.parametrize("text", DEEPLY_NESTED_YAML, ids=lambda text: repr(text[:4]))
def test_deeply_nested_yaml_is_a_parse_error(text, yaml_route):
    with pytest.raises(ParseError, match="^not valid YAML: nested too deeply$"):
        load_yaml(text)


def test_libyaml_words_its_errors_differently():
    # the reason load_yaml parses a rejected text a second time
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.load(MALFORMED_YAML[0], Loader=yaml.SafeLoader)
    with pytest.raises(yaml.YAMLError) as fast:
        yaml.load(MALFORMED_YAML[0], Loader=yaml.CSafeLoader)
    assert str(fast.value) != str(pure.value)


# long strings that need escapes: the emitters fold them at different places
FOLDED = ["\u2218é" * 40, " line\n" * 30, "tab\t" * 30]

REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.sampled_from(FOLDED),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.from_regex(r"[a-z_]{1,12}", fullmatch=True), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(
    doc=st.dictionaries(st.from_regex(r"[a-z_]{1,12}", fullmatch=True), REPORT_VALUES, max_size=5)
)
def test_documents_dump_as_the_pure_dumper_writes_them(doc):
    assert dump_document(doc) == yaml.dump(doc, **PURE_DUMP)


@pytest.mark.parametrize("value", FOLDED, ids=["non-ascii", "indented-lines", "tabs"])
def test_folded_strings_dump_as_the_pure_dumper_writes_them(value, yaml_route):
    doc = {"command": "check", "name": value, "status": "ok", "rows": [[value, "1/2"]]}
    assert dump_document(doc) == yaml.dump(doc, **PURE_DUMP)
    if yaml_route == "libyaml":
        assert yaml.dump(doc, **{**PURE_DUMP, "Dumper": yaml.CSafeDumper}) != dump_document(doc)
