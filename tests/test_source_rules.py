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
