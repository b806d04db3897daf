"""Untimed correctness pass over the reports of one run.

``check(request, code, text, workdir)`` returns the list of problems with
one report; an empty list means the report is what the request's
construction (see ``gen.py``) guarantees.  Deformation reports are also
re-verified with the library's own checkers, reading the request's input
files from ``workdir``.
"""

from __future__ import annotations

from math import comb
from pathlib import Path

import yaml

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def chain_dim(kind: str, n: int, d: int, md: int) -> int:
    """Dimension of degree n of a complex, from the cochain basis
    (strictly increasing skew indices, then a last index)."""
    def pla(k: int) -> int:
        return md if k == 0 else comb(d, k - 1) * d * md

    if kind == "rba":
        return md if n == 0 else pla(n) + pla(n - 1)
    return pla(n)


def _cohomology(report: dict, expect: dict) -> list[str]:
    d, md, top = expect["dim"], expect["mod_dim"], expect["max_degree"]
    dims = report.get("dimensions", {})
    if sorted(dims) != ["pla", "rba", "rbo"] or any(len(v) != top + 1 for v in dims.values()):
        return [f"dimensions malformed: {dims}"]
    problems = []
    for kind, values in dims.items():
        for n, h in enumerate(values):
            if not 0 <= h <= chain_dim(kind, n, d, md):
                problems.append(f"H{n}_{kind} = {h} outside 0..{chain_dim(kind, n, d, md)}")
    # the long exact sequence ... → H^n_rba → H^n_pla → H^n_rbo → H^{n+1}_rba → ...
    order = [(n, kind) for n in range(top + 1) for kind in ("rba", "pla", "rbo")]
    seq = [dims[kind][n] for n, kind in order]
    for i, h in enumerate(seq[:-1]):  # the last term's successor is not computed
        before = seq[i - 1] if i else 0
        if h > before + seq[i + 1]:
            n, kind = order[i]
            problems.append(f"H{n}_{kind} = {h} exceeds its neighbours {before} + {seq[i + 1]}")
    return problems


def _les(report: dict, expect: dict) -> list[str]:
    positions = report.get("positions", [])
    problems = []
    if len(positions) != 3 * (expect["max_degree"] + 1):
        problems.append(f"{len(positions)} positions")
    for p in positions:
        if not p["exact"] or p["image_dim"] != p["kernel_dim"]:
            problems.append(f"{p['position']}: image {p['image_dim']} kernel {p['kernel_dim']}")
    problems += [f"{m['map']} not well defined" for m in report.get("map_checks", [])
                 if not m["well_defined"]]
    return problems


def _inputs(request: dict, workdir: Path):
    from rbprelie.files import parse_algebra_file, parse_deformation_file

    alg, dfile = request["argv"][2:4]
    r, _, _ = parse_algebra_file((workdir / alg).read_text(encoding="utf-8"))
    return r, parse_deformation_file((workdir / dfile).read_text(encoding="utf-8"), r)


def _deform(request: dict, code: int, report: dict, workdir: Path) -> list[str]:
    from rbprelie.deformations import (
        GaugeSeries,
        check_deformation,
        gauge_transform,
        trivial_deformation,
    )
    from rbprelie.files import parse_deformation_document, parse_matrix

    kind = request["kind"]
    r, dfm = _inputs(request, workdir)
    if kind == "deform-trivialize":
        if report.get("verdicts") != {"trivializable": "ok"}:
            return ["not trivialized"]
        maps = tuple(parse_matrix(m, r.dim, r.dim, "gauge") for m in report["gauge"])
        if gauge_transform(r, dfm, GaugeSeries(maps)) != trivial_deformation(r, dfm.order):
            return ["the gauge does not trivialize the deformation"]
        return []
    if code == 1:
        obstruction = report.get("obstruction", {})
        if kind != "deform-solve-cocycle" or obstruction.get("rhs_is_cocycle") is not True:
            return [f"obstructed: {obstruction}"]
        return []
    if report.get("solved_order") != dfm.order + 1:
        return [f"solved order {report.get('solved_order')}"]
    extended = parse_deformation_document(report["output"], r)
    if extended.products[: dfm.order + 1] != dfm.products or (
        extended.operators[: dfm.order + 1] != dfm.operators
    ):
        return ["the solution changed the given orders"]
    if not check_deformation(r, extended).ok:
        return ["the solution is not a deformation"]
    return []


def _light(request: dict, code: int, report: dict) -> list[str]:
    kind, expect = request["kind"], request["expect"]
    verdicts = report.get("verdicts", {})
    output = report.get("output")
    if kind == "check-broken":
        ok = "violated" in verdicts.values() and bool(report.get("violations"))
        return [] if ok else ["no violation reported"]
    if kind == "cocycle-open":
        return [] if verdicts == {"closed": "violated"} else [f"verdicts {verdicts}"]
    problems = [f"verdict {k}: {v}" for k, v in verdicts.items() if v != "ok"]
    if kind == "check-valid" and report.get("violations"):
        problems.append("violations reported")
    if kind == "star":
        from rbprelie.algebras import check_pre_lie, check_rb_operator
        from rbprelie.files import parse_algebra_document

        star, _, _ = parse_algebra_document(output)
        if star.dim != expect["dim"] or not (
            check_pre_lie(star.algebra).ok and check_rb_operator(star).ok
        ):
            problems.append("the star algebra is not a Rota-Baxter pre-Lie algebra")
    elif kind == "extend":
        dims = (output["base_dimension"], output["module_dimension"])
        if dims != (expect["dim"], expect["mod_dim"]):
            problems.append("extension has the wrong dimensions")
    elif kind == "extract":
        for field in ("entries", "operator_entries"):
            if output.get(field) != expect["output"].get(field):
                problems.append(f"extracted {field} differ from the pair extended")
    elif kind == "twoalg-from-cocycle":
        if (output["dim0"], output["dim1"]) != (expect["dim"], expect["mod_dim"]):
            problems.append("two-term structure has the wrong dimensions")
    elif kind in ("twoalg-to-crossed", "twoalg-from-crossed"):
        if output != expect["output"]:
            problems.append("output differs from the structure it was built from")
    return problems


def check(request: dict, code: int, text: str, workdir: Path) -> list[str]:
    """Problems with one report; empty when it is correct."""
    expect = request["expect"]
    if code not in expect["exit"]:
        return [f"exit {code}, expected {expect['exit']}: {text[:200]!r}"]
    if code == 2:
        if text.startswith("parse error: "):
            return []
        return [f"exit 2 without a parse error: {text!r}"]
    try:
        report = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        return [f"report is not YAML: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a mapping"]
    if report.get("status") != ("ok" if code == 0 else "violation"):
        return [f"status {report.get('status')!r} with exit {code}"]
    kind = request["kind"]
    try:
        if kind == "cohomology":
            return _cohomology(report, expect)
        if kind == "les":
            return _les(report, expect)
        if kind.startswith("deform-"):
            return _deform(request, code, report, workdir)
        return _light(request, code, report)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"report malformed: {type(exc).__name__}: {exc}"]
