"""File formats.

All artifact files are YAML documents.  Rational scalars are written as
quoted strings ``"p"`` or ``"p/q"`` with positive denominator; plain YAML
integers are accepted on input (they parse exactly), floats are rejected.
Indices in keys are 1-based; every dimension, degree and order is a
non-negative integer.  Each document's fields are one tuple in file order
(``ALGEBRA_FIELDS`` …), which the writers follow and the readers check
through ``_check_fields``; unknown fields are parse errors.  The schemas
are documented in the README and are normative.

Orientation conventions: a ``product`` entry ``product[i][j][k]`` is the
coefficient of the k-th basis vector in (i-th) · (j-th); an ``operator``
is written by rows, so ``operator[r][c]`` is the r-th output coordinate of
the image of the c-th basis vector.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Sequence

import yaml

from .algebras import Bimodule, PreLieAlgebra, RBBimodule, RBPreLieAlgebra
from .cochains import Cochain, RBACochain, bilinear_from_cochain, matrix_from_cochain
from .deformations import TruncatedDeformation
from .extensions import CocyclePair, ExtensionData
from .linalg import RationalMatrix
from .twoalg import CrossedModule, TwoAlgebra


class ParseError(ValueError):
    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# "p" or "p/q", the one rational literal: an optional sign and ASCII digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("expected a rational literal", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ParseError(f"malformed rational {value!r} (expected \"p\" or \"p/q\")", path)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rational {value!r} ({exc})", path) from None
    raise ParseError(
        f"expected a rational as a quoted string or integer, got {type(value).__name__}", path
    )


def parse_int(value: Any, path: str, message: str, low: int, high: int | None = None) -> int:
    """An integer in [low, high]; a YAML boolean is not an integer here."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        raise ParseError(message, path)
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected a list, got {type(value).__name__}", path)
    return value


def parse_vector(value: Any, length: int, path: str) -> tuple[Fraction, ...]:
    items = _as_list(value, path)
    if len(items) != length:
        raise ParseError(f"expected {length} entries, got {len(items)}", path)
    return tuple(parse_rational(x, f"{path}[{i + 1}]") for i, x in enumerate(items))


def parse_matrix(value: Any, rows: int, cols: int, path: str) -> RationalMatrix:
    items = _as_list(value, path)
    if len(items) != rows:
        raise ParseError(f"expected {rows} rows, got {len(items)}", path)
    data = [parse_vector(row, cols, f"{path}[{i + 1}]") for i, row in enumerate(items)]
    return RationalMatrix.from_rows(data, cols)


def parse_table(value: Any, d1: int, d2: int, out: int, path: str):
    items = _as_list(value, path)
    if len(items) != d1:
        raise ParseError(f"expected {d1} rows, got {len(items)}", path)
    table = []
    for i, row in enumerate(items):
        row_items = _as_list(row, f"{path}[{i + 1}]")
        if len(row_items) != d2:
            raise ParseError(f"expected {d2} entries, got {len(row_items)}", f"{path}[{i + 1}]")
        table.append(
            tuple(
                parse_vector(v, out, f"{path}[{i + 1}][{j + 1}]") for j, v in enumerate(row_items)
            )
        )
    return tuple(table)


def _check_fields(
    data: Any, where: str, fields: tuple[str, ...], optional: tuple[str, ...] = (),
    kind: str | None = None,
) -> None:
    """``data`` is a mapping of ``fields`` (listed in file order), all but the
    ``optional`` ones required; with ``kind``, its ``kind`` field is that."""
    if not isinstance(data, dict):
        raise ParseError(f"expected a mapping, got {type(data).__name__}", where)
    for key in data:
        if key not in fields:
            raise ParseError(f"unknown field {key!r}", where)
    for key in fields:
        if key not in data and key not in optional:
            raise ParseError(f"missing field {key!r}", where)
    if kind is not None and data["kind"] != kind:
        raise ParseError(f"kind must be {kind!r}", "kind")


def _size(data: dict, label: str, prefix: str = "") -> int:
    """A dimension, degree or order field: a non-negative integer."""
    return parse_int(data[label], prefix + label, f"{label} must be a non-negative integer", 0)


def _actions(data: dict, n: int, dim: int, prefix: str, per: str):
    """The ``left_actions`` and ``right_actions`` of ``data``: one dim × dim
    matrix each per basis vector of an n-dimensional algebra."""
    lefts = _as_list(data["left_actions"], f"{prefix}left_actions")
    rights = _as_list(data["right_actions"], f"{prefix}right_actions")
    if len(lefts) != n or len(rights) != n:
        raise ParseError(f"need one action matrix per {per} basis vector", f"{prefix}left_actions")
    return tuple(
        tuple(parse_matrix(m, dim, dim, f"{prefix}{side}[{i + 1}]") for i, m in enumerate(mats))
        for side, mats in (("left_actions", lefts), ("right_actions", rights))
    )


def load_yaml(text: str) -> Any:
    """The document a YAML text holds; ``ParseError`` when it is not YAML.

    Parsed by libyaml when PyYAML has it.  A text libyaml rejects is parsed
    again by the pure-Python loader, whose document or error message is the
    answer, so a YAML error reads the same with or without libyaml.  Nesting
    deeper than the pure-Python loader can recurse is a parse error too.
    """
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, UnicodeEncodeError, RecursionError):  # libyaml reads UTF-8 bytes
        pass
    try:
        return yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}") from None
    except RecursionError:
        raise ParseError("not valid YAML: nested too deeply") from None


def serialize_vector(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


def serialize_matrix(m: RationalMatrix) -> list[list[str]]:
    return [serialize_vector(row) for row in m.entries]


def serialize_table(table) -> list:
    return [[serialize_vector(v) for v in row] for row in table]


# ---------------------------------------------------------------- algebras

# the fields of each document, in file order
ALGEBRA_FIELDS = ("name", "dimension", "weight", "product", "operator", "module")
MODULE_FIELDS = ("dimension", "left_actions", "right_actions", "operator")


def parse_algebra_document(data: Any) -> tuple[RBPreLieAlgebra, RBBimodule | None, str | None]:
    _check_fields(data, "algebra", ALGEBRA_FIELDS, optional=("name", "module"))
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string", "name")
    d = _size(data, "dimension")
    weight = parse_rational(data["weight"], "weight")
    table = parse_table(data["product"], d, d, d, "product")
    op = parse_matrix(data["operator"], d, d, "operator")
    r = RBPreLieAlgebra(PreLieAlgebra(d, table), weight, op)
    module = None
    if "module" in data:
        mdata = data["module"]
        _check_fields(mdata, "module", MODULE_FIELDS)
        md = _size(mdata, "dimension", "module.")
        S, P = _actions(mdata, d, md, "module.", "algebra")
        t_m = parse_matrix(mdata["operator"], md, md, "module.operator")
        module = RBBimodule(Bimodule(d, md, S, P), t_m)
    return r, module, name


def parse_algebra_file(text: str) -> tuple[RBPreLieAlgebra, RBBimodule | None, str | None]:
    return parse_algebra_document(load_yaml(text))


def algebra_document(
    r: RBPreLieAlgebra, module: RBBimodule | None = None, name: str | None = None
) -> dict:
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["dimension"] = r.dim
    doc["weight"] = str(r.weight)
    doc["product"] = serialize_table(r.algebra.c)
    doc["operator"] = serialize_matrix(r.operator)
    if module is not None:
        doc["module"] = {
            "dimension": module.mod_dim,
            "left_actions": [serialize_matrix(mat) for mat in module.bimodule.S],
            "right_actions": [serialize_matrix(mat) for mat in module.bimodule.P],
            "operator": serialize_matrix(module.t_m),
        }
    return doc


# ---------------------------------------------------------------- cochains

COCHAIN_FIELDS = (
    "kind", "complex", "degree", "base_dimension", "module_dimension", "entries",
    "operator_entries",
)


def _parse_entries(value: Any, degree: int, d: int, md: int, path: str) -> dict:
    entries = _as_list(value, path)
    vals: dict = {}
    for idx, item in enumerate(entries):
        where = f"{path}[{idx + 1}]"
        _check_fields(item, where, ("key", "value"))
        key_raw = _as_list(item["key"], f"{where}.key")
        if len(key_raw) != degree:
            raise ParseError(f"key needs {degree} indices", f"{where}.key")
        key = [
            parse_int(entry, f"{where}.key[{pos + 1}]", f"index out of range 1..{d}", 1, d) - 1
            for pos, entry in enumerate(key_raw)
        ]
        skew = key[:-1]
        if any(skew[i] >= skew[i + 1] for i in range(len(skew) - 1)):
            raise ParseError("skew indices must be strictly increasing", f"{where}.key")
        vals[tuple(key)] = parse_vector(item["value"], md, f"{where}.value")
    return vals


def parse_cochain_document(data: Any) -> tuple[str, RBACochain | Cochain]:
    _check_fields(data, "cochain", COCHAIN_FIELDS, optional=("operator_entries",), kind="cochain")
    which = data["complex"]
    if which not in ("pla", "rbo", "rba"):
        raise ParseError("complex must be one of pla, rbo, rba", "complex")
    n, d, md = (_size(data, label) for label in ("degree", "base_dimension", "module_dimension"))
    vals = _parse_entries(data["entries"], n, d, md, "entries")
    main = Cochain(n, d, md, vals)
    if which != "rba":
        if "operator_entries" in data:
            raise ParseError("operator_entries only belongs to the combined complex", "operator_entries")
        return which, main
    if n == 0:
        if "operator_entries" in data:
            raise ParseError("degree 0 has no operator component", "operator_entries")
        return which, RBACochain(main, None)
    second_vals = _parse_entries(data.get("operator_entries", []), n - 1, d, md, "operator_entries")
    return which, RBACochain(main, Cochain(n - 1, d, md, second_vals))


def parse_cochain_file(text: str) -> tuple[str, RBACochain | Cochain]:
    return parse_cochain_document(load_yaml(text))


def _entries_document(f: Cochain) -> list:
    out = []
    for key in sorted(f.values):
        out.append(
            {"key": [i + 1 for i in key], "value": serialize_vector(f.values[key])}
        )
    return out


def cochain_document(which: str, c: RBACochain | Cochain) -> dict:
    combined = isinstance(c, RBACochain)
    doc = {
        "kind": "cochain",
        "complex": which,
        "degree": c.degree,
        "base_dimension": c.base_dim,
        "module_dimension": c.mod_dim,
        "entries": _entries_document(c.pla_part if combined else c),
    }
    if combined and c.rbo_part is not None:
        doc["operator_entries"] = _entries_document(c.rbo_part)
    return doc


# ------------------------------------------------------------- deformations

DEFORMATION_FIELDS = ("kind", "order", "products", "operators")


def parse_deformation_document(data: Any, base: RBPreLieAlgebra) -> TruncatedDeformation:
    _check_fields(data, "deformation", DEFORMATION_FIELDS, kind="deformation")
    order = _size(data, "order")
    d = base.dim
    prods = _as_list(data["products"], "products")
    ops = _as_list(data["operators"], "operators")
    if len(prods) != order or len(ops) != order:
        raise ParseError(f"need exactly {order} coefficient blocks (orders 1..{order})", "products")
    tables = [base.algebra.c] + [
        parse_table(p, d, d, d, f"products[{i + 1}]") for i, p in enumerate(prods)
    ]
    mats = [base.operator] + [
        parse_matrix(o, d, d, f"operators[{i + 1}]") for i, o in enumerate(ops)
    ]
    return TruncatedDeformation(base, tuple(tables), tuple(mats))


def parse_deformation_file(text: str, base: RBPreLieAlgebra):
    return parse_deformation_document(load_yaml(text), base)


def deformation_document(d) -> dict:
    return {
        "kind": "deformation",
        "order": d.order,
        "products": [serialize_table(t) for t in d.products[1:]],
        "operators": [serialize_matrix(o) for o in d.operators[1:]],
    }


# -------------------------------------------------------------- extensions

EXTENSION_FIELDS = ("kind", "base_dimension", "module_dimension", "weight", "product", "operator")
SECTION_FIELDS = ("kind", "matrix")


def parse_extension_document(data: Any) -> ExtensionData:
    _check_fields(data, "extension", EXTENSION_FIELDS, kind="extension")
    d, md = (_size(data, label) for label in ("base_dimension", "module_dimension"))
    total_dim = d + md
    weight = parse_rational(data["weight"], "weight")
    table = parse_table(data["product"], total_dim, total_dim, total_dim, "product")
    op = parse_matrix(data["operator"], total_dim, total_dim, "operator")
    total = RBPreLieAlgebra(PreLieAlgebra(total_dim, table), weight, op)
    return ExtensionData(total, d, md)


def parse_extension_file(text: str) -> ExtensionData:
    return parse_extension_document(load_yaml(text))


def extension_document(e: ExtensionData) -> dict:
    return {
        "kind": "extension",
        "base_dimension": e.base_dim,
        "module_dimension": e.mod_dim,
        "weight": str(e.total.weight),
        "product": serialize_table(e.total.algebra.c),
        "operator": serialize_matrix(e.total.operator),
    }


def parse_section_document(data: Any, e: ExtensionData) -> RationalMatrix:
    _check_fields(data, "section", SECTION_FIELDS, kind="section")
    return parse_matrix(data["matrix"], e.total.dim, e.base_dim, "matrix")


def parse_pair_document(data: Any) -> CocyclePair:
    """A candidate degree-2 pair, stored as a combined-complex cochain file."""
    which, c = parse_cochain_document(data)
    if which != "rba" or not isinstance(c, RBACochain) or c.degree != 2:
        raise ParseError("expected a degree-2 cochain in the combined complex")
    return CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))


# ------------------------------------------------------------- two-algebras

TWOALG_FIELDS = (
    "kind", "dim0", "dim1", "weight", "d", "l2_00", "l2_01", "l2_10", "l3", "t0", "t1", "t2",
)
CROSSED_FIELDS = (
    "kind", "dim0", "dim1", "weight", "product0", "operator0", "product1", "d",
    "left_actions", "right_actions", "operator1",
)


def parse_twoalg_document(data: Any) -> tuple[TwoAlgebra, Fraction]:
    _check_fields(data, "two_algebra", TWOALG_FIELDS, kind="two_algebra")
    d0, d1 = _size(data, "dim0"), _size(data, "dim1")
    weight = parse_rational(data["weight"], "weight")
    dmap = parse_matrix(data["d"], d0, d1, "d")
    l2_00 = parse_table(data["l2_00"], d0, d0, d0, "l2_00")
    l2_01 = parse_table(data["l2_01"], d0, d1, d1, "l2_01")
    l2_10 = parse_table(data["l2_10"], d1, d0, d1, "l2_10")
    l3_vals = _parse_entries(data["l3"], 3, d0, d1, "l3")
    t0 = parse_matrix(data["t0"], d0, d0, "t0")
    t1 = parse_matrix(data["t1"], d1, d1, "t1")
    t2 = parse_table(data["t2"], d0, d0, d1, "t2")
    t = TwoAlgebra(
        dim0=d0, dim1=d1, d_map=dmap, l2_00=l2_00, l2_01=l2_01, l2_10=l2_10,
        l3=Cochain(3, d0, d1, l3_vals), t0=t0, t1=t1, t2=t2,
    )
    return t, weight


def parse_twoalg_file(text: str) -> tuple[TwoAlgebra, Fraction]:
    return parse_twoalg_document(load_yaml(text))


def twoalg_document(t: TwoAlgebra, weight: Fraction) -> dict:
    return {
        "kind": "two_algebra",
        "dim0": t.dim0,
        "dim1": t.dim1,
        "weight": str(weight),
        "d": serialize_matrix(t.d_map),
        "l2_00": serialize_table(t.l2_00),
        "l2_01": serialize_table(t.l2_01),
        "l2_10": serialize_table(t.l2_10),
        "l3": _entries_document(t.l3),
        "t0": serialize_matrix(t.t0),
        "t1": serialize_matrix(t.t1),
        "t2": serialize_table(t.t2),
    }


def parse_crossed_document(data: Any) -> CrossedModule:
    _check_fields(data, "crossed_module", CROSSED_FIELDS, kind="crossed_module")
    d0, d1 = _size(data, "dim0"), _size(data, "dim1")
    weight = parse_rational(data["weight"], "weight")
    g0 = RBPreLieAlgebra(
        PreLieAlgebra(d0, parse_table(data["product0"], d0, d0, d0, "product0")),
        weight,
        parse_matrix(data["operator0"], d0, d0, "operator0"),
    )
    product1 = parse_table(data["product1"], d1, d1, d1, "product1")
    dmap = parse_matrix(data["d"], d0, d1, "d")
    S, P = _actions(data, d0, d1, "", "level-0")
    t1 = parse_matrix(data["operator1"], d1, d1, "operator1")
    return CrossedModule(g0, product1, dmap, S, P, t1)


def parse_crossed_file(text: str) -> CrossedModule:
    return parse_crossed_document(load_yaml(text))


def crossed_document(cm: CrossedModule) -> dict:
    return {
        "kind": "crossed_module",
        "dim0": cm.dim0,
        "dim1": cm.dim1,
        "weight": str(cm.g0.weight),
        "product0": serialize_table(cm.g0.algebra.c),
        "operator0": serialize_matrix(cm.g0.operator),
        "product1": serialize_table(cm.g1_product),
        "d": serialize_matrix(cm.d_map),
        "left_actions": [serialize_matrix(m) for m in cm.S],
        "right_actions": [serialize_matrix(m) for m in cm.P],
        "operator1": serialize_matrix(cm.t1),
    }


def dump_document(doc: dict) -> str:
    """The YAML text of a document, emitted by libyaml when PyYAML has it.

    The two emitters differ only in where they fold double-quoted scalars
    (strings that need escapes), so a text holding a double quote is emitted
    again by the pure-Python dumper: the bytes never depend on libyaml.
    """
    options = {"sort_keys": False, "default_flow_style": None, "width": 100}
    text = yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), **options)
    if '"' in text:
        text = yaml.dump(doc, Dumper=yaml.SafeDumper, **options)
    return text
