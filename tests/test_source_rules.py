"""Rules the package source keeps.

No function-level global caches: matrices and bases are kept per request by
``complexes.ComplexData``, never by ``functools.lru_cache``/``functools.cache``.

Each checker in ``algebras`` checks one family of laws: no ``check_*``
function there calls another, so a verdict never depends on a law it does
not name, and combining laws is the job of ``algebras.require_valid``.

Unit vectors and identity blocks come from ``linalg`` (``unit_vector``,
``RationalMatrix.identity``, ``RationalMatrix.block``): no other module lays
out a 1-if-equal-else-0 entry by hand, and a section of an extension is its
matrix, with no wrapper class.
"""

import ast
from pathlib import Path

import pytest

import rbprelie

SOURCES = sorted(Path(rbprelie.__file__).resolve().parent.glob("*.py"))
GLOBAL_CACHES = {"lru_cache", "cache"}


def _global_caches(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names if alias.name in GLOBAL_CACHES)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in GLOBAL_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            yield f"functools.{node.attr}"


def test_sources_found():
    assert any(path.name == "complexes.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_global_function_caches(path):
    found = list(_global_caches(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, f"{path.name} uses {found}"


def _checker_calls(tree: ast.AST):
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_"):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
                        callee, "id", ""
                    )
                    if name.startswith("check_"):
                        yield f"{fn.name} calls {name}"


def test_algebra_checkers_check_one_law_family():
    path = next(path for path in SOURCES if path.name == "algebras.py")
    found = list(_checker_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, found


def _calls_by_function(tree: ast.AST, outer: str = "<module>"):
    """(enclosing function name, call node) for every call in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(node, node.name)
            continue
        if isinstance(node, ast.Call):
            yield outer, node
        yield from _calls_by_function(node, outer)


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else "?"
        return f"{owner}.{func.attr}"
    return getattr(func, "id", "?")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_verdicts_are_built_only_by_verdict(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"{fn} calls {_callee(call)}"
        for fn, call in _calls_by_function(tree)
        if _callee(call) in ("Violation", "Verdict", "bad.append")
        and not (path.name == "algebras.py" and fn == "verdict" and _callee(call) != "bad.append")
    ]
    assert not found, f"{path.name}: {found}"


def test_cli_status_is_written_only_by_run_command():
    path = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    run = next(
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "run_command"
    )

    def status_keys(root):
        return [
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Constant) and node.value == "status"
        ]

    assert status_keys(run)
    outside = sorted(set(status_keys(tree)) - set(status_keys(run)))
    assert not outside, f"cli.py writes 'status' outside run_command at lines {outside}"


def _is_constant(node: ast.AST, value: int) -> bool:
    """``value``, ``Fraction(value)`` or linalg's ``_ONE`` / ``_ZERO``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value == value
    if isinstance(node, ast.Name):
        return node.id == ("_ONE" if value else "_ZERO")
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "Fraction"
        and len(node.args) == 1
        and _is_constant(node.args[0], value)
    )


def _hand_laid_units(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp) and (
            _is_constant(node.body, 1) and _is_constant(node.orelse, 0)
            or isinstance(node.body, ast.Name) and node.body.id == "_ONE"
        ):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_units_and_identities_come_from_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [] if path.name == "linalg.py" else list(_hand_laid_units(tree))
    assert not found, f"{path.name} lays out a unit vector by hand at lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_a_section_is_its_matrix(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Section"
    ]
    assert not found, f"{path.name} defines a Section class at lines {found}"
