"""Command-line front end.

Every subcommand reads YAML artifact files, runs library operations, and
prints a YAML report with a fixed field order.  Exit status: 0 when every
mathematical verdict is ok, 1 when some verdict fails, 2 on usage or parse
errors.  An input that is not the structure a command needs raises
``InvalidStructureError``; it is reported as ``error`` with status
``violation`` and exit 1.  Reports contain no volatile fields unless
``--timing`` is passed, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
import time
from .algebras import (
    InvalidStructureError,
    Verdict,
    check_bimodule,
    check_pre_lie,
    check_rb_bimodule,
    check_rb_operator,
    require_valid,
    star_algebra,
)
from .cochains import RBACochain
from .complexes import (
    ComplexData,
    ComplexKind,
    les_check,
    pla_differential,
    rba_differential,
    rbo_differential,
)
from .deformations import (
    DeformationError,
    check_deformation,
    solve_next_order,
    trivialize,
)
from .extensions import (
    build_extension,
    canonical_section,
    check_extension,
    extract_cocycle,
)
from .files import (
    ParseError,
    algebra_document,
    cochain_document,
    crossed_document,
    deformation_document,
    dump_document,
    extension_document,
    parse_algebra_file,
    parse_cochain_file,
    parse_crossed_file,
    parse_deformation_file,
    parse_extension_file,
    parse_pair_document,
    parse_section_document,
    parse_twoalg_file,
    serialize_matrix,
    serialize_vector,
    twoalg_document,
)
from .twoalg import (
    check_crossed_module,
    check_prelie_2alg,
    check_rb_2alg,
    cocycle_to_skeletal,
    crossed_to_strict,
    skeletal_to_cocycle,
    strict_to_crossed,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _verdict_doc(v: Verdict) -> str:
    return "ok" if v.ok else "violated"


def _violations_doc(violations) -> list:
    return [
        {
            "law": x.law,
            "indices": list(x.indices),
            "defect": serialize_vector(x.defect),
        }
        for x in violations
    ]


def _load_yaml(path: str):
    import yaml

    try:
        return yaml.safe_load(_read(path))
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: not valid YAML: {exc}") from None


def _algebra_and_module(args) -> tuple:
    r, module, name = parse_algebra_file(_read(args.file))
    if getattr(args, "module", None):
        other, inner, _ = parse_algebra_file(_read(args.module))
        if inner is None:
            raise ParseError(f"{args.module}: file carries no module block")
        if other.dim != r.dim:
            raise ParseError("module file does not match the algebra dimension")
        module = inner
    return r, module, name


def _cmd_check(args) -> tuple[dict, int]:
    r, module, name = _algebra_and_module(args)
    verdicts = {}
    violations = []
    pl = check_pre_lie(r.algebra)
    verdicts["pre_lie"] = _verdict_doc(pl)
    violations.extend(pl.violations)
    rb = check_rb_operator(r)
    verdicts["rota_baxter"] = _verdict_doc(rb)
    violations.extend(rb.violations)
    if module is not None:
        bm = check_bimodule(r.algebra, module.bimodule)
        verdicts["bimodule"] = _verdict_doc(bm)
        violations.extend(bm.violations)
        rbm = check_rb_bimodule(r, module)
        verdicts["rb_bimodule"] = _verdict_doc(rbm)
        violations.extend(rbm.violations)
    ok = all(v == "ok" for v in verdicts.values())
    report = {"command": "check"}
    if name:
        report["name"] = name
    report.update(
        {"verdicts": verdicts, "violations": _violations_doc(violations),
         "status": "ok" if ok else "violation"}
    )
    return report, 0 if ok else 1


def _require_dims(cochain, r, m) -> None:
    if cochain.base_dim != r.dim or cochain.mod_dim != m.mod_dim:
        raise ParseError("cochain dimensions do not match (algebra, module)")


def _cmd_cohomology(args) -> tuple[dict, int]:
    r, module, name = _algebra_and_module(args)
    m = require_valid(r, module)
    kinds = (
        [ComplexKind.PLA, ComplexKind.RBO, ComplexKind.RBA]
        if args.complex == "all"
        else [ComplexKind(args.complex)]
    )
    data = ComplexData(r, m)
    dims = {kind.value: data.cohomology_dims(kind, args.max_degree) for kind in kinds}
    report = {"command": "cohomology"}
    if name:
        report["name"] = name
    report.update(
        {
            "max_degree": args.max_degree,
            "module": "regular" if module is None else "file",
            "dimensions": dims,
            "status": "ok",
        }
    )
    return report, 0


def _cmd_star(args) -> tuple[dict, int]:
    r, module, name = _algebra_and_module(args)
    require_valid(r, module)
    st = star_algebra(r, trusted=True)
    doc = algebra_document(st, None, (name + "_star") if name else None)
    if args.output:
        _write(args.output, dump_document(doc))
    return {"command": "star", "output": doc, "status": "ok"}, 0


def _cmd_cocycle(args) -> tuple[dict, int]:
    r, module, _ = _algebra_and_module(args)
    m = require_valid(r, module)
    which, cochain = parse_cochain_file(_read(args.cochain))
    _require_dims(cochain, r, m)
    if which == "pla":
        defect = pla_differential(r.algebra, m.bimodule, cochain)
        closed = defect.is_zero()
    elif which == "rbo":
        defect = rbo_differential(r, m, cochain, trusted=True)
        closed = defect.is_zero()
    else:
        defect = rba_differential(r, m, cochain, trusted=True)
        closed = defect.is_zero()
    report = {
        "command": "cocycle",
        "complex": which,
        "degree": cochain.degree,
        "verdicts": {"closed": "ok" if closed else "violated"},
        "status": "ok" if closed else "violation",
    }
    return report, 0 if closed else 1


def _cmd_extend(args) -> tuple[dict, int]:
    r, module, _ = _algebra_and_module(args)
    m = require_valid(r, module)
    pair = parse_pair_document(_load_yaml(args.pair))
    if (pair.base_dim, pair.mod_dim) != (r.dim, m.mod_dim):
        raise ParseError("pair dimensions do not match (algebra, module)")
    built = build_extension(r, m, pair, trusted=True)
    doc = extension_document(built.extension)
    if args.output:
        _write(args.output, dump_document(doc))
    agree = built.axioms_ok == built.cocycle_ok
    report = {
        "command": "extend",
        "verdicts": {
            "total_axioms": "ok" if built.axioms_ok else "violated",
            "pair_cocycle": "ok" if built.cocycle_ok else "violated",
            "routes_agree": "ok" if agree else "violated",
        },
        "violations": _violations_doc(built.axiom_violations),
        "output": doc,
        "status": "ok" if built.axioms_ok and agree else "violation",
    }
    return report, 0 if built.axioms_ok and agree else 1


def _cmd_extract(args) -> tuple[dict, int]:
    ext = parse_extension_file(_read(args.file))
    well_formed = check_extension(ext)
    if not well_formed.ok:
        return (
            {
                "command": "extract",
                "verdicts": {"extension": "violated"},
                "violations": _violations_doc(well_formed.violations),
                "status": "violation",
            },
            1,
        )
    section = canonical_section(ext)
    if args.section:
        section = parse_section_document(_load_yaml(args.section), ext)
    result = extract_cocycle(ext, section)
    doc = cochain_document("rba", result.pair.as_cochain())
    if args.output:
        _write(args.output, dump_document(doc))
    report = {
        "command": "extract",
        "verdicts": {
            "extension": "ok",
            "pair_cocycle": "ok" if result.cocycle_ok else "violated",
        },
        "base": algebra_document(result.base, result.bimodule),
        "output": doc,
        "status": "ok" if result.cocycle_ok else "violation",
    }
    return report, 0 if result.cocycle_ok else 1


def _cmd_deform(args) -> tuple[dict, int]:
    r, module, _ = _algebra_and_module(args)
    require_valid(r, module)
    deformation = parse_deformation_file(_read(args.deformation), r)
    if args.action == "check":
        verdict = check_deformation(r, deformation)
        orders = [
            {"order": n, "verdict": _verdict_doc(v)} for n, v in enumerate(verdict.orders)
        ]
        violations = [x for v in verdict.orders for x in v.violations]
        report = {
            "command": "deform check",
            "order": deformation.order,
            "orders": orders,
            "violations": _violations_doc(violations),
            "status": "ok" if verdict.ok else "violation",
        }
        return report, 0 if verdict.ok else 1
    if args.action == "solve":
        try:
            result = solve_next_order(r, deformation)
        except DeformationError as exc:
            return (
                {"command": "deform solve", "error": str(exc), "status": "violation"},
                1,
            )
        if result.solution is not None:
            report = {
                "command": "deform solve",
                "solved_order": result.order,
                "verdicts": {"solvable": "ok"},
                "output": deformation_document(result.extended),
                "status": "ok",
            }
            return report, 0
        report = {
            "command": "deform solve",
            "solved_order": result.order,
            "verdicts": {"solvable": "violated"},
            "obstruction": {
                "residual": [
                    {"coordinate": idx + 1, "value": str(val)}
                    for idx, val in result.obstruction.residual
                ],
                "rhs_is_cocycle": bool(result.obstruction.rhs_is_cocycle),
            },
            "status": "violation",
        }
        return report, 1
    # trivialize
    try:
        result = trivialize(r, deformation)
    except DeformationError as exc:
        return (
            {"command": "deform trivialize", "error": str(exc), "status": "violation"},
            1,
        )
    if result.ok:
        report = {
            "command": "deform trivialize",
            "verdicts": {"trivializable": "ok"},
            "gauge": [serialize_matrix(mat) for mat in result.gauge.maps],
            "status": "ok",
        }
        return report, 0
    report = {
        "command": "deform trivialize",
        "verdicts": {"trivializable": "violated"},
        "obstruction": {
            "order": result.obstruction_order,
            "residual": [
                {"coordinate": idx + 1, "value": str(val)}
                for idx, val in result.obstruction.residual
            ],
        },
        "status": "violation",
    }
    return report, 1


def _cmd_twoalg(args) -> tuple[dict, int]:
    if args.action == "check":
        t, weight = parse_twoalg_file(_read(args.file))
        first = check_prelie_2alg(t)
        second = check_rb_2alg(t, weight)
        ok = first.ok and second.ok
        report = {
            "command": "twoalg check",
            "verdicts": {
                "two_term": _verdict_doc(first),
                "operator_triple": _verdict_doc(second),
            },
            "violations": _violations_doc(first.violations + second.violations),
            "status": "ok" if ok else "violation",
        }
        return report, 0 if ok else 1
    if args.action == "from-cocycle":
        r, module, _ = _algebra_and_module(args)
        m = require_valid(r, module)
        which, cochain = parse_cochain_file(_read(args.cochain))
        if which != "rba" or not isinstance(cochain, RBACochain) or cochain.degree != 3:
            raise ParseError("expected a degree-3 cochain in the combined complex")
        _require_dims(cochain, r, m)
        try:
            t = cocycle_to_skeletal(r, m, cochain)
        except InvalidStructureError:  # not a cocycle
            return (
                {
                    "command": "twoalg from-cocycle",
                    "verdicts": {"cocycle": "violated"},
                    "status": "violation",
                },
                1,
            )
        doc = twoalg_document(t, r.weight)
        if args.output:
            _write(args.output, dump_document(doc))
        report = {
            "command": "twoalg from-cocycle",
            "verdicts": {"cocycle": "ok"},
            "output": doc,
            "status": "ok",
        }
        return report, 0
    if args.action == "to-cocycle":
        t, weight = parse_twoalg_file(_read(args.file))
        r, m, cochain = skeletal_to_cocycle(t, weight)
        doc = cochain_document("rba", cochain)
        if args.output:
            _write(args.output, dump_document(doc))
        report = {
            "command": "twoalg to-cocycle",
            "verdicts": {"skeletal": "ok", "cocycle": "ok"},
            "base": algebra_document(r, m),
            "output": doc,
            "status": "ok",
        }
        return report, 0
    if args.action == "to-crossed":
        t, weight = parse_twoalg_file(_read(args.file))
        cm = strict_to_crossed(t, weight)
        doc = crossed_document(cm)
        if args.output:
            _write(args.output, dump_document(doc))
        return (
            {"command": "twoalg to-crossed", "verdicts": {"strict": "ok"}, "output": doc,
             "status": "ok"},
            0,
        )
    # from-crossed
    cm = parse_crossed_file(_read(args.file))
    verdict = check_crossed_module(cm)
    if not verdict.ok:
        return (
            {
                "command": "twoalg from-crossed",
                "verdicts": {"crossed_module": "violated"},
                "violations": _violations_doc(verdict.violations),
                "status": "violation",
            },
            1,
        )
    t = crossed_to_strict(cm, trusted=True)
    doc = twoalg_document(t, cm.g0.weight)
    if args.output:
        _write(args.output, dump_document(doc))
    return (
        {"command": "twoalg from-crossed", "verdicts": {"crossed_module": "ok"},
         "output": doc, "status": "ok"},
        0,
    )


def _cmd_les(args) -> tuple[dict, int]:
    r, module, name = _algebra_and_module(args)
    m = require_valid(r, module)
    report_data = les_check(r, m, args.max_degree)
    report = {"command": "les"}
    if name:
        report["name"] = name
    report.update(
        {
            "max_degree": args.max_degree,
            "positions": [
                {
                    "position": p.position,
                    "image_dim": p.image_dim,
                    "kernel_dim": p.kernel_dim,
                    "exact": p.exact,
                }
                for p in report_data.positions
            ],
            "map_checks": [{"map": nm, "well_defined": ok} for nm, ok in report_data.map_checks],
            "status": "ok" if report_data.ok else "violation",
        }
    )
    return report, 0 if report_data.ok else 1


def _degree(text: str) -> int:
    """argparse type of ``--max-degree``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbprelie",
        description="Exact checks and cohomology for weighted Rota-Baxter pre-Lie algebras.",
    )
    parser.add_argument("--timing", action="store_true", help="include elapsed time in the report")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="verify the axioms of an algebra file")
    p.add_argument("file")
    p.add_argument("--module", help="algebra file whose module block supplies coefficients")

    p = sub.add_parser("cohomology", help="cohomology dimensions of the complexes")
    p.add_argument("file")
    p.add_argument("--module")
    p.add_argument("--complex", choices=["pla", "rbo", "rba", "all"], default="all")
    p.add_argument("--max-degree", type=_degree, default=3)

    p = sub.add_parser("star", help="emit the induced star-product algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("cocycle", help="check a cochain file for closedness")
    p.add_argument("file")
    p.add_argument("cochain")
    p.add_argument("--module")

    p = sub.add_parser("extend", help="build the abelian extension of a degree-2 pair")
    p.add_argument("file")
    p.add_argument("pair")
    p.add_argument("--module")
    p.add_argument("-o", "--output")

    p = sub.add_parser("extract", help="extract the degree-2 pair of an extension file")
    p.add_argument("file")
    p.add_argument("--section", help="YAML file with an explicit section matrix")
    p.add_argument("-o", "--output")

    p = sub.add_parser("deform", help="deformation checks and solvers")
    p.add_argument("action", choices=["check", "solve", "trivialize"])
    p.add_argument("file")
    p.add_argument("deformation")

    p = sub.add_parser("twoalg", help="two-term structures")
    p.add_argument(
        "action", choices=["check", "from-cocycle", "to-cocycle", "to-crossed", "from-crossed"]
    )
    p.add_argument("file")
    p.add_argument("cochain", nargs="?")
    p.add_argument("--module")
    p.add_argument("-o", "--output")

    p = sub.add_parser("les", help="long exact sequence exactness report")
    p.add_argument("file")
    p.add_argument("--module")
    p.add_argument("--max-degree", type=_degree, default=3)
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "cohomology": _cmd_cohomology,
    "star": _cmd_star,
    "cocycle": _cmd_cocycle,
    "extend": _cmd_extend,
    "extract": _cmd_extract,
    "deform": _cmd_deform,
    "twoalg": _cmd_twoalg,
    "les": _cmd_les,
}


def run_command(argv) -> tuple[dict, int]:
    """Dispatch a parsed command line; returns (report, exit status)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "twoalg" and args.action == "from-cocycle":
        if args.cochain is None:
            parser.error("twoalg from-cocycle needs an algebra file and a cochain file")
    start = time.monotonic()
    try:
        report, code = _HANDLERS[args.cmd](args)
    except InvalidStructureError as exc:
        report, code = {"command": args.cmd, "error": str(exc), "status": "violation"}, 1
    if args.timing:
        report["elapsed_seconds"] = round(time.monotonic() - start, 3)
    return report, code


def main(argv=None) -> int:
    try:
        report, code = run_command(sys.argv[1:] if argv is None else argv)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(dump_document(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
