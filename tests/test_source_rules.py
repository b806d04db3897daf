"""Rules the package source keeps.

No function-level global caches: matrices and bases are kept per request by
``complexes.ComplexData``, never by ``functools.lru_cache``/``functools.cache``.

Each checker in ``algebras`` checks one family of laws: no ``check_*``
function there calls another, so a verdict never depends on a law it does
not name, and combining laws is the job of ``algebras.require_valid``.

Each file schema is written once: ``files._check_fields`` gets every
document's fields as one ordered tuple, never a set, and alone checks the
``kind`` field.

In ``cli``, only ``run_command`` writes a report's ``status`` and ``error``
fields.

Unit vectors and identity blocks come from ``linalg`` (``unit_vector``,
``RationalMatrix.identity``, ``RationalMatrix.block``): no other module lays
out a 1-if-equal-else-0 entry by hand, and a section of an extension is its
matrix, with no wrapper class.

Assembly evaluates no cochain: ``complexes`` builds every matrix from the
structure constants and never calls ``.eval``, and the evaluation routes it
is compared against live in ``tests/oracles.py``, which no package module
imports.

LES exactness is decided by ranks: ``complexes`` neither imports nor calls
``same_subspace`` or ``echelon_basis``; the subspace walk it replaced is the
oracle ``les_by_subspaces`` in ``tests/oracles.py``.  The residue vectors
whose ranks it takes are read as rows: ``complexes`` never calls
``RationalMatrix.from_cols``, which would copy them into dense columns only
for elimination to read them back as sparse rows.

Every product outside the integer cores and the gauge transform is read
through the left and right multiplication matrices of its table
(``algebras.multiplication_matrices`` and ``algebras.bilinear``): no package
module defines or imports ``apply_table``, and no product or action call
(``.product``, ``.left``, ``.right``) takes a basis vector (a
``unit_vector``, ``basis_vector``, ``basis0`` or ``basis1`` call, or a name
bound to one in the same function) as an argument: a product with a basis
vector is one ``apply`` of a multiplication matrix, and of two basis vectors
a table entry.  The integer cores of ``algebras`` (``pre_lie_core``,
``rota_baxter_core``, ``bimodule_core``, ``star_core``, ``derived_core``)
with their entry points
(``pre_lie_defects``, ``rota_baxter_defects``, ``bimodule_defects``,
``rb_bimodule_defects``, ``star_algebra``, ``derived_bimodule``), the
change of basis ``transport_table``, ``deformations.gauge_transform`` and
the two-term and crossed-module checks of ``twoalg``
(``_prelie_2alg_defects``, ``_rb_2alg_defects``, ``_crossed_module_defects``)
are the exception: apart from the top coherences below, they read their
tables and matrices once as ``int`` tensors over one common denominator per
family, and make ``Fraction`` values only for the entries they return, so
they call none of ``vadd``, ``vsub``, ``vscale``, ``bilinear``, ``.apply`` or
``.eval``.

Each law of the levels is written once: ``twoalg`` defines no integer core
and no ``_star`` or ``_twisted_actions`` of its own, but imports the cores it
reads from ``algebras``; ``_prelie_2alg_defects`` calls ``pre_lie_core`` and
``bimodule_core``, and ``_rb_2alg_defects`` calls ``rota_baxter_core``.

The top coherences of a two-term structure are the assembled d₃: the two
checks read conditions f and v off the complexes of its levels, so
``_prelie_2alg_defects`` calls ``pla_differential`` (f = δ₃l₃) and
``_rb_2alg_defects`` calls ``coboundary`` and ``phi`` (v = ∂₂T₂ + Φ₃l₃), and
the hand expansions ``_condition_f``, ``_condition_v`` and ``_insert`` are
defined nowhere.

One weighted Rota-Baxter law serves the algebra, its modules and each
deformation order, and μ(A·, B·) is summed in one place: ``rb_bimodule_core``
is defined nowhere, and ``rota_baxter_core``, ``star_core``,
``check_morphism``, ``transport_table``, ``gauge_transform`` and
``_crossed_module_defects`` call the kernel ``linalg.int_pullback``.

A table is moved along matrices in one place: ``generators.conjugate_algebra``,
``generators.conjugate_bimodule``, ``generators.random_crossed_module``,
``twoalg.strict_to_crossed`` and ``extensions._read_off`` (which reads a pair
off a section as the change of basis to Q = [s | ι]) call
``algebras.transport_table``.  Outside ``algebras`` no package module calls
``.product`` or builds the (L, R) of a table (``multiplication_matrices``),
and no package function or assigned attribute is named ``lr00``, ``lr01``,
``lr10``, ``lr_t2``, ``l3_last`` or ``l3_first``: the mixed actions of a
two-term structure are ``algebras.bimodule_from_tables`` of its tables, and
its two-term checks contract the integer tables with ``int_sum``, keeping
no multiplication-matrix or transposed-l₃ view of them.

The LES walk runs on ``int`` vectors and eliminates each dₙ once:
``les_check`` (nested functions included) calls none of ``rank``,
``kernel_basis``, ``column_space``, ``solve_linear``, ``Fraction``,
``.apply``, ``.from_rows``, ``.kernel_vectors`` (the ``Fraction`` reader of
Zₙ) or ``.solve``; it reads Z and B from ``ComplexData.elimination``.

A matrix has one integer view: its ``integer_columns`` (s, columns), the
nonzeros of each column of s·M for s the lcm of its denominators.  No
package source names ``integer_rows`` or ``IntegerRow``,
``RationalMatrix.apply`` and ``RationalMatrix.matmul`` call ``int_apply``
on it, and ``Elimination`` reads no other view of its matrix (neither
``sparse_rows`` nor ``entries``).

Every reduced echelon form comes from one step, ``IntegerEchelon.reduced``:
``column_space`` and ``Elimination`` call it, and no other package function
re-adds echelon rows in reverse order (calls both ``reversed`` and
``.add``) or reads a row at its last nonzero (``row[max(row)]``), the
column-order kernel reader it replaced.

Each dₙ is applied to a cochain one way: outside ``complexes`` no package
module calls ``ComplexData.d`` (any ``.d(...)`` call); callers apply dₙ
through ``ComplexData.coboundary``, which builds no matrix for the zero
cochain.

Each request eliminates each dₙ once: ``complexes`` imports none of
``rank``, ``kernel_basis``, ``column_space`` or ``solve_linear``, and no
method of ``ComplexData`` calls them; its ranks, cocycle bases and solves
are read off the one ``ComplexData.elimination`` of each dₙ.

Package imports stand at the top of each module: no function body under
``src/rbprelie/`` imports from the package (a relative import or one of
``rbprelie``), since its modules have no import cycle to break, so every
dependency of a module shows in its header.

No package module imports a name it never reads or lists in ``__all__``,
and no function assigns a local it never reads (``_``-prefixed names
aside).

Code whose only callers are tests lives in the tests: every package
function and method outside ``__all__`` has a caller in the package.  The
exemptions, each with its reason, are listed by
``test_every_private_function_has_a_package_caller``.

A matrix's value is its sparse rows, and only ``linalg`` builds them: no
other package module calls the ``RationalMatrix(...)`` constructor directly;
matrices come from ``from_rows``, ``from_cols``, ``from_sparse``,
``identity``, ``zeros`` or ``block``, which store nonzeros only, by
increasing column.

Only ``linalg`` reads rationals in the integer form (nested ``int`` lists
over one denominator) and defines the operations on it: outside
``linalg.py`` no package module reads ``.numerator`` or ``.denominator`` of
anything but the weight ``lam``, and none defines ``fractions_over`` or an
``integer_*``/``int_*`` function.  The integer twins that ``algebras``,
``twoalg`` and ``deformations`` once kept of those operations are defined
nowhere.

No option that no caller sets: every keyword-only parameter of a package
function or method is passed by keyword at some call site in the package or
in ``bench/``, outside the function's own body (tests do not count).

Each map has one builder: in ``complexes``, ``_assemble`` is called only by
``_coboundary_matrix`` (δ, and ∂ on the star data) and ``phi_matrix``, and
``RationalMatrix.block`` only inside ``ComplexData``, whose ``d`` is the one
composer of the combined matrix.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import rbprelie

SOURCES = sorted(Path(rbprelie.__file__).resolve().parent.glob("*.py"))
BENCH_SOURCES = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
CLASSES = {
    (module, node.name)
    for module, tree in MODULES.items()
    for node in tree.body
    if isinstance(node, ast.ClassDef)
}
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


def _nodes_by_function(tree: ast.AST, outer: str = "<module>"):
    """(enclosing function name, node) for every node in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _nodes_by_function(node, node.name)
            continue
        yield outer, node
        yield from _nodes_by_function(node, outer)


def _calls_by_function(tree: ast.AST):
    """(enclosing function name, call node) for every call in the tree."""
    return ((fn, node) for fn, node in _nodes_by_function(tree) if isinstance(node, ast.Call))


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


def _cli_field_lines(field: str) -> tuple[list[int], list[int]]:
    """Lines of cli.py naming ``field``: inside run_command, and elsewhere."""
    path = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    run = next(
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "run_command"
    )

    def lines(root):
        return {
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Constant) and node.value == field
        }

    return sorted(lines(run)), sorted(lines(tree) - lines(run))


def test_cli_status_is_written_only_by_run_command():
    inside, outside = _cli_field_lines("status")
    assert inside
    assert not outside, f"cli.py writes 'status' outside run_command at lines {outside}"


def test_cli_error_is_written_only_by_run_command():
    # every failed precondition reaches the report through run_command's one except
    inside, outside = _cli_field_lines("error")
    assert inside
    assert not outside, f"cli.py writes 'error' outside run_command at lines {outside}"


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


def _is_set(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("set", "frozenset")
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_schemas_are_ordered_and_kind_is_checked_once(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"line {call.lineno} passes a set to _check_fields"
        for _, call in _calls_by_function(tree)
        if _callee(call) == "_check_fields"
        and any(_is_set(arg) for arg in call.args + [k.value for k in call.keywords])
    ] + [
        f"line {node.lineno} in {fn} checks a kind"
        for fn, node in _nodes_by_function(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "kind must be" in node.value
        and not (path.name == "files.py" and fn == "_check_fields")
    ]
    assert not found, f"{path.name}: {found}"


def test_assembly_evaluates_no_cochain():
    path = next(path for path in SOURCES if path.name == "complexes.py")
    found = [
        f"line {call.lineno} in {fn}"
        for fn, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call.func, ast.Attribute) and call.func.attr == "eval"
    ]
    assert not found, f"complexes.py calls .eval: {found}"


SUBSPACE_COMPARISONS = {"same_subspace", "echelon_basis"}


def test_les_exactness_is_decided_by_ranks():
    path = next(path for path in SOURCES if path.name == "complexes.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"line {node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] in SUBSPACE_COMPARISONS
    ] + [
        f"line {call.lineno} in {fn} calls {_callee(call)}"
        for fn, call in _calls_by_function(tree)
        if _callee(call).split(".")[-1] in SUBSPACE_COMPARISONS
    ]
    assert not found, f"complexes.py: {found}"


def test_residue_ranks_take_no_dense_detour():
    path = next(path for path in SOURCES if path.name == "complexes.py")
    found = [
        f"line {call.lineno} in {fn}"
        for fn, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call.func, ast.Attribute) and call.func.attr == "from_cols"
    ]
    assert not found, f"complexes.py calls RationalMatrix.from_cols: {found}"


FRACTION_WALK = {"rank", "kernel_basis", "column_space", "solve_linear", "Fraction", "apply",
                 "from_rows", "kernel_vectors", "solve"}


def test_les_walk_runs_on_integer_vectors():
    path = next(path for path in SOURCES if path.name == "complexes.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    walk = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "les_check")
    called = [
        (call.lineno, _callee(call)) for call in ast.walk(walk) if isinstance(call, ast.Call)
    ]
    found = [f"line {line} calls {name}" for line, name in called
             if name.split(".")[-1] in FRACTION_WALK]
    assert not found, f"les_check: {found}"
    assert "data.elimination" in {name for _, name in called}


FORMER_VIEWS = {"integer_rows", "IntegerRow"}
MATRIX_VIEWS = {"sparse_rows", "entries", "integer_columns", *FORMER_VIEWS}


def test_a_matrix_has_one_integer_view():
    found = [f"{path.name} names {name}" for path in SOURCES
             for name in sorted(FORMER_VIEWS) if name in path.read_text(encoding="utf-8")]
    assert not found, found
    classes = {node.name: node for node in MODULES["linalg"].body if isinstance(node, ast.ClassDef)}
    methods = {item.name: item for item in classes["RationalMatrix"].body
               if isinstance(item, ast.FunctionDef)}
    for name in ("apply", "matmul"):
        called = {_callee(call) for call in ast.walk(methods[name]) if isinstance(call, ast.Call)}
        assert "int_apply" in called, f"RationalMatrix.{name} does not call int_apply"
    read = {node.attr for node in ast.walk(classes["Elimination"])
            if isinstance(node, ast.Attribute) and node.attr in MATRIX_VIEWS}
    assert read == {"integer_columns"}, f"Elimination reads {sorted(read)}"


def test_reduced_echelon_forms_come_from_one_step():
    found = []
    for module, tree in MODULES.items():
        for qualified, _, fn in _definitions(module, tree):
            called = {_called_name(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
            if {"reversed", "add"} <= called and qualified != "linalg.IntegerEchelon.reduced":
                found.append(f"{qualified} re-adds rows in reverse")
            found += [
                f"{qualified} line {node.lineno} reads a row at its last nonzero"
                for node in ast.walk(fn)
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Call)
                and _called_name(node.slice) == "max"
            ]
    assert not found, found
    callers = {
        qualified.rsplit(".", 1)[0] if ".Elimination." in qualified else qualified
        for qualified, _, fn in _definitions("linalg", MODULES["linalg"])
        if any(isinstance(node, ast.Call) and _called_name(node) == "reduced"
               for node in ast.walk(fn))
    }
    assert {"linalg.column_space", "linalg.Elimination"} <= callers, callers


SEPARATE_ELIMINATIONS = {"rank", "kernel_basis", "column_space", "solve_linear"}


def test_complex_data_reads_the_one_elimination():
    path = next(path for path in SOURCES if path.name == "complexes.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    data = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "ComplexData")
    found = [
        f"line {node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] in SEPARATE_ELIMINATIONS
    ] + [
        f"line {call.lineno} calls {_callee(call)}"
        for call in ast.walk(data)
        if isinstance(call, ast.Call) and _callee(call).split(".")[-1] in SEPARATE_ELIMINATIONS
    ]
    assert not found, f"complexes.py: {found}"


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "complexes.py"], ids=lambda path: path.name
)
def test_coboundaries_are_applied_by_coboundary(path):
    found = [
        f"line {call.lineno} calls {_callee(call)}"
        for call in ast.walk(MODULES[path.stem])
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "d"
    ]
    assert not found, f"{path.name}: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_does_not_import_the_tests(path):
    test_modules = {"tests", "oracles", "conftest"}
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] in test_modules
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] in test_modules for alias in node.names)
    ]
    assert not found, f"{path.name} imports test code at lines {found}"


def _imports_from_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "rbprelie"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "rbprelie" for alias in node.names
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_imports_stand_at_module_top(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _imports_from_the_package(node)
    )
    assert not found, f"{path.name} imports from the package inside {found}"


PRODUCT_CALLS = {"product", "left", "right"}
BASIS_CALLS = {"unit_vector", "basis_vector", "basis0", "basis1"}


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _is_basis_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _called_name(node) in BASIS_CALLS


def _products_of_basis_vectors(tree: ast.AST):
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.Lambda))]
    for fn in [tree, *functions]:
        basis_names = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and _is_basis_call(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _called_name(node) in PRODUCT_CALLS:
                for arg in node.args + [k.value for k in node.keywords]:
                    if _is_basis_call(arg) or isinstance(arg, ast.Name) and arg.id in basis_names:
                        yield f"line {node.lineno}: {_called_name(node)} of a basis vector"


def _apply_table_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "apply_table":
            yield f"line {node.lineno} defines apply_table"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            alias.name.split(".")[-1] == "apply_table" for alias in node.names
        ):
            yield f"line {node.lineno} imports apply_table"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_products_go_through_multiplication_matrices(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(set(_products_of_basis_vectors(tree))) + list(_apply_table_names(tree))
    assert not found, f"{path.name}: {found}"


LAW_CORES = {"pre_lie_core", "rota_baxter_core", "bimodule_core", "star_core", "derived_core"}
INTEGER_KERNELS = {
    "algebras.py": LAW_CORES | {"pre_lie_defects", "rota_baxter_defects", "bimodule_defects",
                                "rb_bimodule_defects", "star_algebra", "derived_bimodule",
                                "transport_table"},
    "deformations.py": {"gauge_transform"},
    "twoalg.py": {"_prelie_2alg_defects", "_rb_2alg_defects", "_crossed_module_defects"},
}
FRACTION_ROUTES = {"vadd", "vsub", "vscale", "bilinear", "apply", "eval"}


@pytest.mark.parametrize("name", sorted(INTEGER_KERNELS))
def test_law_kernels_make_fractions_only_for_returned_entries(name):
    path = next(path for path in SOURCES if path.name == name)
    kernels = {
        fn.name: fn
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef) and fn.name in INTEGER_KERNELS[name]
    }
    assert set(kernels) == INTEGER_KERNELS[name]
    found = [
        f"{fn} calls {_called_name(call)} at line {call.lineno}"
        for fn, kernel in sorted(kernels.items())
        for call in ast.walk(kernel)
        if isinstance(call, ast.Call) and _called_name(call) in FRACTION_ROUTES
    ]
    assert not found, f"{name}: {found}"


def _direct_constructions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "RationalMatrix":
            yield f"line {node.lineno}"


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "linalg.py"], ids=lambda path: path.name
)
def test_matrices_come_from_the_named_constructors(path):
    found = list(_direct_constructions(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, f"{path.name} calls the RationalMatrix constructor at {found}"


def test_each_map_has_one_builder():
    path = next(path for path in SOURCES if path.name == "complexes.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assemblers = {fn for fn, call in _calls_by_function(tree) if _callee(call) == "_assemble"}
    assert assemblers == {"_coboundary_matrix", "phi_matrix"}, assemblers
    data = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ComplexData"
    )

    def blocks(root):
        return {
            call.lineno
            for call in ast.walk(root)
            if isinstance(call, ast.Call) and _callee(call) == "RationalMatrix.block"
        }

    inside, outside = blocks(data), blocks(tree) - blocks(data)
    assert inside
    assert not outside, f"complexes.py calls RationalMatrix.block outside ComplexData at {outside}"


# each two-term condition that contains a law of the levels, and the cores it reads
LEVEL_LAWS = {
    "_prelie_2alg_defects": {"pre_lie_core", "bimodule_core"},
    "_rb_2alg_defects": {"rota_baxter_core"},
}


def test_twoalg_defines_no_law_of_its_levels():
    path = next(path for path in SOURCES if path.name == "twoalg.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "algebras"
        for alias in node.names
    }
    defined = set(functions) & (LAW_CORES | {"_star", "_twisted_actions"})
    found = [f"defines {name}" for name in sorted(defined)]
    read = set().union(*LEVEL_LAWS.values())
    found += [f"does not import {name} from algebras" for name in sorted(read - imported)]
    for name, cores in sorted(LEVEL_LAWS.items()):
        calls = [call for call in ast.walk(functions[name]) if isinstance(call, ast.Call)]
        called = {_called_name(call) for call in calls}
        found += [f"{name} does not call {core}" for core in sorted(cores - called)]
    assert not found, f"twoalg.py: {found}"


# each top coherence check of twoalg, and the maps of complexes it reads its condition off
TOP_COHERENCES = {
    "_prelie_2alg_defects": {"pla_differential"},
    "_rb_2alg_defects": {"coboundary", "phi"},
}
FORMER_TOP_COHERENCES = {"_condition_f", "_condition_v", "_insert"}


def test_top_coherences_are_read_off_the_complexes():
    functions = {
        (path.name, fn.name): fn
        for path in SOURCES
        for fn in ast.walk(MODULES[path.stem])
        if isinstance(fn, ast.FunctionDef)
    }
    found = [f"{file} defines {name}" for file, name in functions if name in FORMER_TOP_COHERENCES]
    for name, maps in sorted(TOP_COHERENCES.items()):
        called = {
            _called_name(call)
            for call in ast.walk(functions["twoalg.py", name])
            if isinstance(call, ast.Call)
        }
        found += [f"{name} does not call {fn}" for fn in sorted(maps - called)]
    assert not found, found


# the functions that sum μ(A·, B·), each through the one kernel in linalg
PULLBACK_CALLERS = {
    "algebras.py": {"rota_baxter_core", "star_core", "check_morphism", "transport_table"},
    "deformations.py": {"gauge_transform"},
    "twoalg.py": {"_crossed_module_defects"},
}


def test_bilinear_pullbacks_are_summed_in_one_place():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
        if "rb_bimodule_core" in functions:
            found.append(f"{path.name} defines rb_bimodule_core")
        for name in sorted(PULLBACK_CALLERS.get(path.name, ())):
            called = {
                _called_name(call) for call in ast.walk(functions[name]) if isinstance(call, ast.Call)
            }
            if "int_pullback" not in called:
                found.append(f"{path.name}: {name} does not call int_pullback")
    assert not found, found


# the functions that move a table along matrices, each through transport_table
TRANSPORT_CALLERS = {
    "generators": {"conjugate_algebra", "conjugate_bimodule", "random_crossed_module"},
    "twoalg": {"strict_to_crossed"},
    "extensions": {"_read_off"},
}


def test_tables_are_moved_by_transport_table():
    found = [
        f"{module}.{name} does not call transport_table"
        for module, names in sorted(TRANSPORT_CALLERS.items())
        for name in sorted(names)
        if "transport_table" not in {
            _called_name(call)
            for fn in MODULES[module].body
            if isinstance(fn, ast.FunctionDef) and fn.name == name
            for call in ast.walk(fn)
            if isinstance(call, ast.Call)
        }
    ]
    assert not found, found


FORMER_TABLE_VIEWS = {"lr00", "lr01", "lr10", "lr_t2", "l3_last", "l3_first"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_algebras_multiplies_through_matrices(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"line {node.lineno} defines {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in FORMER_TABLE_VIEWS
    ] + [
        f"line {node.lineno} assigns {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr in FORMER_TABLE_VIEWS
    ]
    if path.name != "algebras.py":
        found += [
            f"line {call.lineno} calls {_called_name(call)}"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and (
                isinstance(call.func, ast.Attribute) and call.func.attr == "product"
                or _called_name(call) == "multiplication_matrices"
            )
        ]
    assert not found, f"{path.name}: {found}"


def _unused_imports(tree: ast.AST):
    """Names a module imports and never reads, nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        element.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for element in ast.walk(node.value)
        if isinstance(element, ast.Constant)
    }
    for name, line in imported.items():
        if name not in read | exported:
            yield f"line {line} imports {name}"


def _unread_locals(tree: ast.AST):
    """Names a function assigns and never reads (``_``-prefixed names aside)."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stored, read, declared = {}, set(), set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            stored.setdefault(name.id, name.lineno)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        for name, line in stored.items():
            if name not in read | declared and not name.startswith("_"):
                yield f"line {line} assigns {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import_or_unread_local(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(set(_unused_imports(tree)) | set(_unread_locals(tree)))
    assert not found, f"{path.name}: {found}"


# functions and methods that stay in the package with no package caller
NO_CALLER_NEEDED = {
    "linalg.echelon_basis": "bench/tracing.py wraps it by name",
    "linalg.same_subspace": "bench/tracing.py wraps it by name",
    "deformations.infinitesimal": "a map of the paper that no CLI command reaches yet",
    "deformations.trivial_deformation": "a map of the paper that no CLI command reaches yet",
    "deformations.rbo_cocycle_check": "a map of the paper that no CLI command reaches yet",
    "extensions.sections_same_class": "a map of the paper that no CLI command reaches yet",
    "extensions.iso_from_coboundary": "a map of the paper that no CLI command reaches yet",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, class name or None, definition) of each module-level
    function and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", node.name, item


def _uses(module: str, tree: ast.AST) -> Counter:
    """The names a tree reads, resolved: a name to (defining module, name)
    through the module's own definitions and its package imports, an
    attribute of a package class to (module, class, attribute), and any
    other attribute to (None, None, attribute)."""
    home = {node.name: module for node in MODULES[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home.update((alias.asname or alias.name, node.module) for alias in node.names)
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in home:
            uses[home[node.id], node.id] += 1
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if (home.get(owner), owner) not in CLASSES:
                owner = None
            uses[home.get(owner), owner, node.attr] += 1
    return uses


def _has_package_caller(module: str, cls: str | None, node: ast.FunctionDef, uses: Counter):
    """Whether code outside the definition itself reads its name."""
    own = _uses(module, node)
    if cls is None:
        keys = [(module, node.name)]
    else:
        keys = [(module, cls, node.name), (None, None, node.name)]
    return sum(uses[key] - own[key] for key in keys) > 0


def test_every_private_function_has_a_package_caller():
    """Code whose only callers are tests lives in the tests.  Exempt: the
    names in ``__all__`` and the methods of classes there (the public
    interface), dunders (called by Python), the CLI handlers and ``main``
    (reached through argparse and the console script), the ``generators``
    module (``bench/gen.py`` draws its inputs from it), and
    ``NO_CALLER_NEEDED`` with the reason of each."""
    public = set(rbprelie.__all__)
    uses = sum((_uses(module, tree) for module, tree in MODULES.items()), Counter())
    found, exempt = [], set()
    for module, tree in MODULES.items():
        for qualified, cls, node in _definitions(module, tree):
            name = node.name
            if (
                module == "generators"
                or (name.startswith("__") and name.endswith("__"))
                or (module == "cli" and (name == "main" or name.startswith("_cmd_")))
                or (cls or name) in public
                or _has_package_caller(module, cls, node, uses)
            ):
                continue
            if qualified in NO_CALLER_NEEDED:
                exempt.add(qualified)
            else:
                found.append(f"{qualified} (line {node.lineno})")
    assert not found, f"no package caller: {found}"
    assert exempt == set(NO_CALLER_NEEDED), f"stale exemptions: {set(NO_CALLER_NEEDED) - exempt}"


# the integer twins folded into linalg's integer form and its int_* operations
FOLDED_INTO_LINALG = {
    "common_denominator", "integer_tables", "integer_matrices", "nonzero_columns",
    "_is_nonzero_table", "integer_times", "integer_combination", "integer_mix",
    "integer_matmul", "_minus", "_minus_rows", "_columns", "_integer_lr", "_matrix_sum",
}


def _integer_form_outside_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name in FOLDED_INTO_LINALG:
                yield f"line {node.lineno} defines {node.name}"
            elif path.name != "linalg.py" and (
                node.name == "fractions_over" or node.name.startswith(("integer_", "int_"))
            ):
                yield f"line {node.lineno} defines {node.name} outside linalg"
        elif (
            path.name != "linalg.py"
            and isinstance(node, ast.Attribute)
            and node.attr in ("numerator", "denominator")
            and not (isinstance(node.value, ast.Name) and node.value.id == "lam")
        ):
            yield f"line {node.lineno} reads .{node.attr}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_linalg_reads_the_integer_form(path):
    found = list(_integer_form_outside_linalg(path))
    assert not found, f"{path.name}: {found}"


def _keyword_only_options():
    """(module, function name, option, definition) for each keyword-only
    parameter of a package function or method."""
    for module, tree in MODULES.items():
        for qualified, _, node in _definitions(module, tree):
            for arg in node.args.kwonlyargs:
                yield qualified, node.name, arg.arg, node


def test_every_option_is_set_by_a_caller():
    trees = list(MODULES.values()) + [
        ast.parse(path.read_text(encoding="utf-8")) for path in BENCH_SOURCES
    ]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = []
    for qualified, name, option, node in _keyword_only_options():
        own = {id(call) for call in ast.walk(node)}
        if not any(
            _called_name(call) == name
            and id(call) not in own
            and any(keyword.arg == option for keyword in call.keywords)
            for call in calls
        ):
            found.append(f"{qualified}({option})")
    assert not found, f"options no package or bench caller sets: {found}"
