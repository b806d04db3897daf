"""Rules the package source keeps.

No function-level global caches: matrices and bases are kept per request by
``complexes.ComplexData``, never by ``functools.lru_cache``/``functools.cache``.

Each checker in ``algebras`` checks one family of laws: no ``check_*``
function there calls another, so a verdict never depends on a law it does
not name, and combining laws is the job of ``algebras.require_valid``.
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
