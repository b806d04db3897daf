"""The benchmark reaches into the package by name; those names must exist.

``bench/tracing.py`` wraps the functions and methods its tables list, and
skips any it cannot find without a word, so a renamed or moved function
would make its per-layer metric read 0.  The other bench scripts import
names from the package and index ``RationalMatrix.entries`` as dense rows.
This reads the tables and the imports only; nothing is installed or run.
"""

import ast
import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rbprelie.generators import random_matrix
from rbprelie.linalg import RationalMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_module(name: str):
    return importlib.import_module(f"rbprelie.{name}")


def test_traced_functions_resolve_in_their_modules():
    tracing = _tracing()
    for home, name in tracing.LAYER_OF:
        obj = getattr(_package_module(home), name, None)
        assert callable(obj), f"rbprelie.{home}.{name} is gone"
        # install() matches a function by the module that defines it
        assert obj.__module__ == f"rbprelie.{home}", (home, name, obj.__module__)
    assert tracing.OWN_MODULE <= set(tracing.LAYER_OF)
    for name in tracing.NAMESPACES:
        _package_module(name)


def test_traced_methods_exist():
    tracing = _tracing()
    for home, cls, method in tracing.METHODS:
        klass = getattr(_package_module(home), cls, None)
        assert klass is not None, f"rbprelie.{home}.{cls} is gone"
        assert callable(getattr(klass, method, None)), f"{cls}.{method} is gone"


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_from_the_package_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rbprelie"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}"
                ), f"{script}: {node.module}.{alias.name} is gone"


def test_matrix_entries_are_dense_fraction_rows():
    # tracing.matrix_counts counts cells and nonzeros over `entries`, and
    # gen.py takes `random_matrix(...).entries[i]` as a coordinate vector
    for m, shape in (
        (RationalMatrix.from_rows([[1, 0, 0], [0, 0, Fraction(2, 3)]]), (2, 3)),
        (random_matrix(random.Random(0), 3, 4), (3, 4)),
        (random_matrix(random.Random(0), 0, 3), (0, 3)),
        (random_matrix(random.Random(0), 3, 0), (3, 0)),
        (RationalMatrix.identity(3).matmul(RationalMatrix.zeros(3, 2)), (3, 2)),
    ):
        assert (m.rows, m.cols) == shape
        assert isinstance(m.entries, tuple) and len(m.entries) == m.rows
        for row in m.entries:
            assert isinstance(row, tuple) and len(row) == m.cols
            assert all(isinstance(x, Fraction) for x in row)
