"""File formats.

All artifact files are YAML documents.  Rational scalars are written as
quoted strings ``"p"`` or ``"p/q"`` with positive denominator; plain YAML
integers are accepted on input (they parse exactly), floats are rejected.
Indices in keys are 1-based.  The exact schemas (field names, required
order, array orientation) are documented in the README and are normative;
unknown fields are parse errors.

Orientation conventions: a ``product`` entry ``product[i][j][k]`` is the
coefficient of the k-th basis vector in (i-th) · (j-th); an ``operator``
is written by rows, so ``operator[r][c]`` is the r-th output coordinate of
the image of the c-th basis vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

import yaml

from .algebras import Bimodule, PreLieAlgebra, RBBimodule, RBPreLieAlgebra
from .cochains import Cochain, RBACochain
from .extensions import CocyclePair, ExtensionData
from .linalg import RationalMatrix
from .twoalg import CrossedModule, TwoAlgebra


class ParseError(ValueError):
    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def format_rational(q: Fraction) -> str:
    return str(q)


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("expected a rational literal", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            q = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rational {value!r} ({exc})", path) from None
        return q
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
    return RationalMatrix(rows, cols, tuple(data))


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


def _check_fields(data: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise ParseError(f"expected a mapping, got {type(data).__name__}", where)
    for key in data:
        if key not in allowed:
            raise ParseError(f"unknown field {key!r}", where)
    for key in required:
        if key not in data:
            raise ParseError(f"missing field {key!r}", where)


def _load(text: str) -> Any:
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}") from None


def serialize_vector(v: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in v]


def serialize_matrix(m: RationalMatrix) -> list[list[str]]:
    return [serialize_vector(row) for row in m.entries]


def serialize_table(table) -> list:
    return [[serialize_vector(v) for v in row] for row in table]


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)


# ---------------------------------------------------------------- algebras


def parse_algebra_document(data: Any) -> tuple[RBPreLieAlgebra, RBBimodule | None, str | None]:
    _check_fields(
        data,
        {"name", "dimension", "weight", "product", "operator", "module"},
        {"dimension", "weight", "product", "operator"},
        "algebra",
    )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string", "name")
    d = parse_int(data["dimension"], "dimension", "dimension must be a positive integer", 1)
    weight = parse_rational(data["weight"], "weight")
    table = parse_table(data["product"], d, d, d, "product")
    op = parse_matrix(data["operator"], d, d, "operator")
    r = RBPreLieAlgebra(PreLieAlgebra(d, table), weight, op)
    module = None
    if "module" in data:
        mdata = data["module"]
        _check_fields(
            mdata,
            {"dimension", "left_actions", "right_actions", "operator"},
            {"dimension", "left_actions", "right_actions", "operator"},
            "module",
        )
        md = parse_int(
            mdata["dimension"], "module.dimension", "dimension must be a positive integer", 1
        )
        lefts = _as_list(mdata["left_actions"], "module.left_actions")
        rights = _as_list(mdata["right_actions"], "module.right_actions")
        if len(lefts) != d or len(rights) != d:
            raise ParseError(
                "need one action matrix per algebra basis vector", "module.left_actions"
            )
        S = tuple(
            parse_matrix(mat, md, md, f"module.left_actions[{i + 1}]") for i, mat in enumerate(lefts)
        )
        P = tuple(
            parse_matrix(mat, md, md, f"module.right_actions[{i + 1}]")
            for i, mat in enumerate(rights)
        )
        t_m = parse_matrix(mdata["operator"], md, md, "module.operator")
        module = RBBimodule(Bimodule(d, md, S, P), t_m)
    return r, module, name


def parse_algebra_file(text: str) -> tuple[RBPreLieAlgebra, RBBimodule | None, str | None]:
    return parse_algebra_document(_load(text))


def algebra_document(
    r: RBPreLieAlgebra, module: RBBimodule | None = None, name: str | None = None
) -> dict:
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["dimension"] = r.dim
    doc["weight"] = format_rational(r.weight)
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


def serialize_algebra(
    r: RBPreLieAlgebra, module: RBBimodule | None = None, name: str | None = None
) -> str:
    return _dump(algebra_document(r, module, name))


# ---------------------------------------------------------------- cochains


def _parse_entries(value: Any, degree: int, d: int, md: int, path: str) -> dict:
    entries = _as_list(value, path)
    vals: dict = {}
    for idx, item in enumerate(entries):
        where = f"{path}[{idx + 1}]"
        _check_fields(item, {"key", "value"}, {"key", "value"}, where)
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
    _check_fields(
        data,
        {"kind", "complex", "degree", "base_dimension", "module_dimension", "entries",
         "operator_entries"},
        {"kind", "complex", "degree", "base_dimension", "module_dimension", "entries"},
        "cochain",
    )
    if data["kind"] != "cochain":
        raise ParseError("kind must be 'cochain'", "kind")
    which = data["complex"]
    if which not in ("pla", "rbo", "rba"):
        raise ParseError("complex must be one of pla, rbo, rba", "complex")
    n, d, md = (
        parse_int(data[label], label, f"{label} must be a suitable integer", low)
        for label, low in (("degree", 0), ("base_dimension", 1), ("module_dimension", 1))
    )
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
    return parse_cochain_document(_load(text))


def _entries_document(f: Cochain) -> list:
    out = []
    for key in sorted(f.values):
        out.append(
            {"key": [i + 1 for i in key], "value": serialize_vector(f.values[key])}
        )
    return out


def cochain_document(which: str, c: RBACochain | Cochain) -> dict:
    if isinstance(c, RBACochain):
        doc = {
            "kind": "cochain",
            "complex": which,
            "degree": c.degree,
            "base_dimension": c.base_dim,
            "module_dimension": c.mod_dim,
            "entries": _entries_document(c.pla_part),
        }
        if c.rbo_part is not None:
            doc["operator_entries"] = _entries_document(c.rbo_part)
        return doc
    return {
        "kind": "cochain",
        "complex": which,
        "degree": c.degree,
        "base_dimension": c.base_dim,
        "module_dimension": c.mod_dim,
        "entries": _entries_document(c),
    }


# ------------------------------------------------------------- deformations


def parse_deformation_document(data: Any, base: RBPreLieAlgebra):
    from .deformations import TruncatedDeformation

    _check_fields(
        data, {"kind", "order", "products", "operators"}, {"kind", "order", "products", "operators"},
        "deformation",
    )
    if data["kind"] != "deformation":
        raise ParseError("kind must be 'deformation'", "kind")
    order = parse_int(data["order"], "order", "order must be a non-negative integer", 0)
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
    return parse_deformation_document(_load(text), base)


def deformation_document(d) -> dict:
    return {
        "kind": "deformation",
        "order": d.order,
        "products": [serialize_table(t) for t in d.products[1:]],
        "operators": [serialize_matrix(o) for o in d.operators[1:]],
    }


# -------------------------------------------------------------- extensions


def parse_extension_document(data: Any) -> ExtensionData:
    _check_fields(
        data,
        {"kind", "base_dimension", "module_dimension", "weight", "product", "operator"},
        {"kind", "base_dimension", "module_dimension", "weight", "product", "operator"},
        "extension",
    )
    if data["kind"] != "extension":
        raise ParseError("kind must be 'extension'", "kind")
    d, md = (
        parse_int(data[label], label, f"{label} must be a positive integer", 1)
        for label in ("base_dimension", "module_dimension")
    )
    total_dim = d + md
    weight = parse_rational(data["weight"], "weight")
    table = parse_table(data["product"], total_dim, total_dim, total_dim, "product")
    op = parse_matrix(data["operator"], total_dim, total_dim, "operator")
    total = RBPreLieAlgebra(PreLieAlgebra(total_dim, table), weight, op)
    return ExtensionData(total, d, md)


def parse_extension_file(text: str) -> ExtensionData:
    return parse_extension_document(_load(text))


def extension_document(e: ExtensionData) -> dict:
    return {
        "kind": "extension",
        "base_dimension": e.base_dim,
        "module_dimension": e.mod_dim,
        "weight": format_rational(e.total.weight),
        "product": serialize_table(e.total.algebra.c),
        "operator": serialize_matrix(e.total.operator),
    }


def parse_section_document(data: Any, e: ExtensionData) -> RationalMatrix:
    _check_fields(data, {"kind", "matrix"}, {"kind", "matrix"}, "section")
    if data["kind"] != "section":
        raise ParseError("kind must be 'section'", "kind")
    return parse_matrix(data["matrix"], e.total.dim, e.base_dim, "matrix")


def parse_pair_document(data: Any) -> CocyclePair:
    """A candidate degree-2 pair, stored as a combined-complex cochain file."""
    which, c = parse_cochain_document(data)
    if which != "rba" or not isinstance(c, RBACochain) or c.degree != 2:
        raise ParseError("expected a degree-2 cochain in the combined complex")
    from .cochains import bilinear_from_cochain, matrix_from_cochain

    return CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))


# ------------------------------------------------------------- two-algebras


def _level_dims(data: dict) -> tuple[int, int]:
    return tuple(
        parse_int(data[label], label, f"{label} must be a non-negative integer", 0)
        for label in ("dim0", "dim1")
    )


def parse_twoalg_document(data: Any) -> tuple[TwoAlgebra, Fraction]:
    _check_fields(
        data,
        {"kind", "dim0", "dim1", "weight", "d", "l2_00", "l2_01", "l2_10", "l3", "t0", "t1", "t2"},
        {"kind", "dim0", "dim1", "weight", "d", "l2_00", "l2_01", "l2_10", "l3", "t0", "t1", "t2"},
        "two_algebra",
    )
    if data["kind"] != "two_algebra":
        raise ParseError("kind must be 'two_algebra'", "kind")
    d0, d1 = _level_dims(data)
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
    return parse_twoalg_document(_load(text))


def twoalg_document(t: TwoAlgebra, weight: Fraction) -> dict:
    return {
        "kind": "two_algebra",
        "dim0": t.dim0,
        "dim1": t.dim1,
        "weight": format_rational(weight),
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
    _check_fields(
        data,
        {"kind", "dim0", "dim1", "weight", "product0", "operator0", "product1", "d",
         "left_actions", "right_actions", "operator1"},
        {"kind", "dim0", "dim1", "weight", "product0", "operator0", "product1", "d",
         "left_actions", "right_actions", "operator1"},
        "crossed_module",
    )
    if data["kind"] != "crossed_module":
        raise ParseError("kind must be 'crossed_module'", "kind")
    d0, d1 = _level_dims(data)
    weight = parse_rational(data["weight"], "weight")
    g0 = RBPreLieAlgebra(
        PreLieAlgebra(d0, parse_table(data["product0"], d0, d0, d0, "product0")),
        weight,
        parse_matrix(data["operator0"], d0, d0, "operator0"),
    )
    product1 = parse_table(data["product1"], d1, d1, d1, "product1")
    dmap = parse_matrix(data["d"], d0, d1, "d")
    lefts = _as_list(data["left_actions"], "left_actions")
    rights = _as_list(data["right_actions"], "right_actions")
    if len(lefts) != d0 or len(rights) != d0:
        raise ParseError("need one action matrix per level-0 basis vector", "left_actions")
    S = tuple(parse_matrix(m, d1, d1, f"left_actions[{i + 1}]") for i, m in enumerate(lefts))
    P = tuple(parse_matrix(m, d1, d1, f"right_actions[{i + 1}]") for i, m in enumerate(rights))
    t1 = parse_matrix(data["operator1"], d1, d1, "operator1")
    return CrossedModule(g0, product1, dmap, S, P, t1)


def parse_crossed_file(text: str) -> CrossedModule:
    return parse_crossed_document(_load(text))


def crossed_document(cm: CrossedModule) -> dict:
    return {
        "kind": "crossed_module",
        "dim0": cm.dim0,
        "dim1": cm.dim1,
        "weight": format_rational(cm.g0.weight),
        "product0": serialize_table(cm.g0.algebra.c),
        "operator0": serialize_matrix(cm.g0.operator),
        "product1": serialize_table(cm.g1_product),
        "d": serialize_matrix(cm.d_map),
        "left_actions": [serialize_matrix(m) for m in cm.S],
        "right_actions": [serialize_matrix(m) for m in cm.P],
        "operator1": serialize_matrix(cm.t1),
    }


def dump_document(doc: dict) -> str:
    return _dump(doc)
