"""Command-line front end.

Every subcommand reads YAML artifact files, runs library operations, and
prints a YAML report with a fixed field order.  The parser is built once, at
import; each command and each ``deform``/``twoalg`` action is a leaf that
declares exactly the arguments its handler reads.  Each handler returns the
report's fields and whether every verdict holds; :func:`run_command` alone
frames them with ``command`` and ``status``, writes the ``output`` field to
``-o/--output`` for the leaves that declare it, and picks the exit status:
0 when every mathematical verdict is ok, 1 when some verdict fails.  Usage and
parse errors exit 2.  An input that is not the structure a command needs
raises ``InvalidStructureError``; it is reported as ``error`` under the bare
command name, with status ``violation`` and exit 1.  Reports contain no volatile fields unless
``--timing`` is passed, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from .algebras import (
    InvalidStructureError,
    check_bimodule,
    check_pre_lie,
    check_rb_bimodule,
    check_rb_operator,
    require_valid,
    star_algebra,
)
from .cochains import RBACochain
from .complexes import ComplexData, ComplexKind, les_check
from .deformations import (
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
    load_yaml,
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
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None


def _verdict_doc(ok) -> str:
    return "ok" if ok else "violated"


def _violations_doc(violations) -> list:
    return [
        {
            "law": x.law,
            "indices": list(x.indices),
            "defect": serialize_vector(x.defect),
        }
        for x in violations
    ]


def _residual_doc(obstruction) -> list:
    return [{"coordinate": idx + 1, "value": str(val)} for idx, val in obstruction.residual]


@contextlib.contextmanager
def _reading(path: str):
    """Name the file in every parse error raised while it is read."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(str(exc), path) from None


def _parse(parse, path: str, *extra):
    """``parse`` applied to the text of ``path``; its parse errors name the file."""
    with _reading(path):
        return parse(_read(path), *extra)


def _load_yaml(path: str):
    return load_yaml(_read(path))


def _algebra_and_module(path: str, module_path: str | None = None) -> tuple:
    """The algebra of ``path`` and the module block of ``module_path``, or its own."""
    r, module, name = _parse(parse_algebra_file, path)
    if module_path:
        other, module, _ = _parse(parse_algebra_file, module_path)
        if module is None:
            raise ParseError("file carries no module block", module_path)
        if other.dim != r.dim:
            raise ParseError("module file does not match the algebra dimension", module_path)
    return r, module, name


def _named(name: str | None) -> dict:
    return {"name": name} if name else {}


def _cmd_check(args) -> tuple[dict, bool]:
    r, module, name = _algebra_and_module(args.file, args.module)
    verdicts = {"pre_lie": check_pre_lie(r.algebra), "rota_baxter": check_rb_operator(r)}
    if module is not None:
        verdicts["bimodule"] = check_bimodule(r.algebra, module.bimodule)
        verdicts["rb_bimodule"] = check_rb_bimodule(r, module)
    fields = {
        **_named(name),
        "verdicts": {law: _verdict_doc(v) for law, v in verdicts.items()},
        "violations": _violations_doc(x for v in verdicts.values() for x in v.violations),
    }
    return fields, all(verdicts.values())


def _require_dims(cochain, r, m, path: str) -> None:
    if cochain.base_dim != r.dim or cochain.mod_dim != m.mod_dim:
        raise ParseError("cochain dimensions do not match (algebra, module)", path)


def _cmd_cohomology(args) -> tuple[dict, bool]:
    r, module, name = _algebra_and_module(args.file, args.module)
    m = require_valid(r, module)
    kinds = (
        [ComplexKind.PLA, ComplexKind.RBO, ComplexKind.RBA]
        if args.complex == "all"
        else [ComplexKind(args.complex)]
    )
    data = ComplexData(r, m)
    dims = {kind.value: data.cohomology_dims(kind, args.max_degree) for kind in kinds}
    fields = {
        **_named(name),
        "max_degree": args.max_degree,
        "module": "regular" if module is None else "file",
        "dimensions": dims,
    }
    return fields, True


def _cmd_star(args) -> tuple[dict, bool]:
    r, module, name = _algebra_and_module(args.file)
    require_valid(r, module)
    st = star_algebra(r, trusted=True)
    return {"output": algebra_document(st, None, (name + "_star") if name else None)}, True


def _cmd_cocycle(args) -> tuple[dict, bool]:
    r, module, _ = _algebra_and_module(args.file, args.module)
    m = require_valid(r, module)
    which, cochain = _parse(parse_cochain_file, args.cochain)
    _require_dims(cochain, r, m, args.cochain)
    closed = ComplexData(r, m).coboundary(ComplexKind(which), cochain).is_zero()
    fields = {
        "complex": which,
        "degree": cochain.degree,
        "verdicts": {"closed": _verdict_doc(closed)},
    }
    return fields, closed


def _cmd_extend(args) -> tuple[dict, bool]:
    r, module, _ = _algebra_and_module(args.file, args.module)
    m = require_valid(r, module)
    with _reading(args.pair):
        pair = parse_pair_document(_load_yaml(args.pair))
    if (pair.base_dim, pair.mod_dim) != (r.dim, m.mod_dim):
        raise ParseError("pair dimensions do not match (algebra, module)", args.pair)
    built = build_extension(r, m, pair, trusted=True)
    agree = built.axioms_ok == built.cocycle_ok
    fields = {
        "verdicts": {
            "total_axioms": _verdict_doc(built.axioms_ok),
            "pair_cocycle": _verdict_doc(built.cocycle_ok),
            "routes_agree": _verdict_doc(agree),
        },
        "violations": _violations_doc(built.axiom_violations),
        "output": extension_document(built.extension),
    }
    return fields, built.axioms_ok and agree


def _cmd_extract(args) -> tuple[dict, bool]:
    ext = _parse(parse_extension_file, args.file)
    well_formed = check_extension(ext)
    if not well_formed.ok:
        return {
            "verdicts": {"extension": "violated"},
            "violations": _violations_doc(well_formed.violations),
        }, False
    section = canonical_section(ext)
    if args.section:
        with _reading(args.section):
            section = parse_section_document(_load_yaml(args.section), ext)
    result = extract_cocycle(ext, section)
    fields = {
        "verdicts": {"extension": "ok", "pair_cocycle": _verdict_doc(result.cocycle_ok)},
        "base": algebra_document(result.base, result.bimodule),
        "output": cochain_document("rba", result.pair.as_cochain()),
    }
    return fields, result.cocycle_ok


def _base_and_deformation(args) -> tuple:
    """The valid base algebra and the deformation file read against it."""
    r, module, _ = _algebra_and_module(args.file)
    require_valid(r, module)
    return r, _parse(parse_deformation_file, args.deformation, r)


def _deform_check(args) -> tuple[dict, bool]:
    r, deformation = _base_and_deformation(args)
    verdict = check_deformation(r, deformation)
    fields = {
        "order": deformation.order,
        "orders": [
            {"order": n, "verdict": _verdict_doc(v)} for n, v in enumerate(verdict.orders)
        ],
        "violations": _violations_doc(x for v in verdict.orders for x in v.violations),
    }
    return fields, verdict.ok


def _deform_solve(args) -> tuple[dict, bool]:
    result = solve_next_order(*_base_and_deformation(args))
    if result.solution is not None:
        return {
            "solved_order": result.order,
            "verdicts": {"solvable": "ok"},
            "output": deformation_document(result.extended),
        }, True
    return {
        "solved_order": result.order,
        "verdicts": {"solvable": "violated"},
        "obstruction": {
            "residual": _residual_doc(result.obstruction),
            "rhs_is_cocycle": bool(result.obstruction.rhs_is_cocycle),
        },
    }, False


def _deform_trivialize(args) -> tuple[dict, bool]:
    result = trivialize(*_base_and_deformation(args))
    if result.ok:
        return {
            "verdicts": {"trivializable": "ok"},
            "gauge": [serialize_matrix(mat) for mat in result.gauge.maps],
        }, True
    return {
        "verdicts": {"trivializable": "violated"},
        "obstruction": {
            "order": result.obstruction_order,
            "residual": _residual_doc(result.obstruction),
        },
    }, False


def _twoalg_from_cocycle(args) -> tuple[dict, bool]:
    r, module, _ = _algebra_and_module(args.file, args.module)
    m = require_valid(r, module)
    which, cochain = _parse(parse_cochain_file, args.cochain)
    if which != "rba" or not isinstance(cochain, RBACochain) or cochain.degree != 3:
        raise ParseError("expected a degree-3 cochain in the combined complex", args.cochain)
    _require_dims(cochain, r, m, args.cochain)
    try:
        t = cocycle_to_skeletal(r, m, cochain)
    except InvalidStructureError:  # not a cocycle
        return {"verdicts": {"cocycle": "violated"}}, False
    return {"verdicts": {"cocycle": "ok"}, "output": twoalg_document(t, r.weight)}, True


def _twoalg_from_crossed(args) -> tuple[dict, bool]:
    cm = _parse(parse_crossed_file, args.file)
    verdict = check_crossed_module(cm)
    if not verdict.ok:
        return {
            "verdicts": {"crossed_module": "violated"},
            "violations": _violations_doc(verdict.violations),
        }, False
    doc = twoalg_document(crossed_to_strict(cm, trusted=True), cm.g0.weight)
    return {"verdicts": {"crossed_module": "ok"}, "output": doc}, True


def _twoalg_check(args) -> tuple[dict, bool]:
    t, weight = _parse(parse_twoalg_file, args.file)
    first = check_prelie_2alg(t)
    second = check_rb_2alg(t, weight)
    fields = {
        "verdicts": {
            "two_term": _verdict_doc(first),
            "operator_triple": _verdict_doc(second),
        },
        "violations": _violations_doc(first.violations + second.violations),
    }
    return fields, first.ok and second.ok


def _twoalg_to_cocycle(args) -> tuple[dict, bool]:
    r, m, cochain = skeletal_to_cocycle(*_parse(parse_twoalg_file, args.file))
    return {
        "verdicts": {"skeletal": "ok", "cocycle": "ok"},
        "base": algebra_document(r, m),
        "output": cochain_document("rba", cochain),
    }, True


def _twoalg_to_crossed(args) -> tuple[dict, bool]:
    doc = crossed_document(strict_to_crossed(*_parse(parse_twoalg_file, args.file)))
    return {"verdicts": {"strict": "ok"}, "output": doc}, True


def _cmd_les(args) -> tuple[dict, bool]:
    r, module, name = _algebra_and_module(args.file, args.module)
    m = require_valid(r, module)
    report = les_check(r, m, args.max_degree)
    fields = {
        **_named(name),
        "max_degree": args.max_degree,
        "positions": [
            {
                "position": p.position,
                "image_dim": p.image_dim,
                "kernel_dim": p.kernel_dim,
                "exact": p.exact,
            }
            for p in report.positions
        ],
        "map_checks": [{"map": nm, "well_defined": ok} for nm, ok in report.map_checks],
    }
    return fields, report.ok


def _degree(text: str) -> int:
    """argparse type of ``--max-degree``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _leaf(sub, command: str, handler, **kw) -> argparse.ArgumentParser:
    """The subparser named by the last word of ``command``; it runs ``handler``."""
    p = sub.add_parser(command.rsplit(" ", 1)[-1], **kw)
    p.set_defaults(handler=handler, command=command)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbprelie",
        description="Exact checks and cohomology for weighted Rota-Baxter pre-Lie algebras.",
    )
    parser.add_argument("--timing", action="store_true", help="include elapsed time in the report")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = _leaf(sub, "check", _cmd_check, help="verify the axioms of an algebra file")
    p.add_argument("file")
    p.add_argument("--module", help="algebra file whose module block supplies coefficients")

    p = _leaf(sub, "cohomology", _cmd_cohomology, help="cohomology dimensions of the complexes")
    p.add_argument("file")
    p.add_argument("--module")
    p.add_argument("--complex", choices=["pla", "rbo", "rba", "all"], default="all")
    p.add_argument("--max-degree", type=_degree, default=3)

    p = _leaf(sub, "star", _cmd_star, help="emit the induced star-product algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = _leaf(sub, "cocycle", _cmd_cocycle, help="check a cochain file for closedness")
    p.add_argument("file")
    p.add_argument("cochain")
    p.add_argument("--module")

    p = _leaf(sub, "extend", _cmd_extend, help="build the abelian extension of a degree-2 pair")
    p.add_argument("file")
    p.add_argument("pair")
    p.add_argument("--module")
    p.add_argument("-o", "--output")

    p = _leaf(sub, "extract", _cmd_extract, help="extract the degree-2 pair of an extension file")
    p.add_argument("file")
    p.add_argument("--section", help="YAML file with an explicit section matrix")
    p.add_argument("-o", "--output")

    actions = sub.add_parser("deform", help="deformation checks and solvers")
    actions = actions.add_subparsers(dest="action", required=True)
    for name, handler in (
        ("check", _deform_check), ("solve", _deform_solve), ("trivialize", _deform_trivialize)
    ):
        p = _leaf(actions, f"deform {name}", handler)
        p.add_argument("file")
        p.add_argument("deformation")

    actions = sub.add_parser("twoalg", help="two-term structures")
    actions = actions.add_subparsers(dest="action", required=True)
    _leaf(actions, "twoalg check", _twoalg_check).add_argument("file")
    p = _leaf(actions, "twoalg from-cocycle", _twoalg_from_cocycle)
    p.add_argument("file")
    p.add_argument("cochain")
    p.add_argument("--module")
    p.add_argument("-o", "--output")
    for name, handler in (("to-cocycle", _twoalg_to_cocycle), ("to-crossed", _twoalg_to_crossed),
                          ("from-crossed", _twoalg_from_crossed)):
        p = _leaf(actions, f"twoalg {name}", handler)
        p.add_argument("file")
        p.add_argument("-o", "--output")

    p = _leaf(sub, "les", _cmd_les, help="long exact sequence exactness report")
    p.add_argument("file")
    p.add_argument("--module")
    p.add_argument("--max-degree", type=_degree, default=3)
    return parser


_PARSER = build_parser()


def run_command(argv) -> tuple[dict, int]:
    """Dispatch a parsed command line; returns (report, exit status).

    The leaf a command line reaches names its handler, which returns its
    report fields and whether every verdict holds; this is the one place
    that adds ``command`` and ``status``, writes ``error`` reports, writes
    the ``output`` document to ``-o/--output`` and picks the exit status.
    """
    args = _PARSER.parse_args(argv)
    command, start = args.command, time.monotonic()
    try:
        fields, ok = args.handler(args)
    except InvalidStructureError as exc:
        command, fields, ok = args.cmd, {"error": str(exc)}, False
    if getattr(args, "output", None) and "output" in fields:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dump_document(fields["output"]))
    report = {"command": command, **fields, "status": "ok" if ok else "violation"}
    if args.timing:
        report["elapsed_seconds"] = round(time.monotonic() - start, 3)
    return report, 0 if ok else 1


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
