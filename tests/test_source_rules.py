"""Rules the package source keeps.

No function-level global caches: matrices and bases are kept per request by
``complexes.ComplexData``, never by ``functools.lru_cache``/``functools.cache``.
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
