"""Spans around the package's public functions, installed from outside.

``install(tracer)`` replaces each function listed in ``LAYER_OF`` in the
namespace of every package module that imports it (the name a caller
actually looks up), plus the few listed in ``OWN_MODULE`` inside their own
module, and wraps the matrix-vector methods on their classes.  Nothing in
``src/`` changes.

A span is (layer, start, end, parent span, request id).  Spans of a leaf
layer are opaque: wrapped calls made inside them run unrecorded, so the
``RationalMatrix.apply`` calls inside assembly and axiom checking count as
assembly and checking, and a single leaf span costs one wrapper.  ``vadd``,
``vsub`` and ``vscale`` are not wrapped: they run millions of times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

_VALIDATE = ("check_pre_lie", "check_rb_operator", "check_bimodule", "check_rb_bimodule",
             "check_morphism")
_PARSE = ("parse_algebra_file", "parse_cochain_file", "parse_crossed_file",
          "parse_deformation_file", "parse_extension_file", "parse_pair_document",
          "parse_section_document", "parse_twoalg_file")
_DUMP = ("algebra_document", "cochain_document", "crossed_document", "deformation_document",
         "extension_document", "twoalg_document", "serialize_matrix", "serialize_vector",
         "dump_document")

# (defining module, function) -> layer
LAYER_OF: dict[tuple[str, str], str] = {
    **{("files", name): "files.parse" for name in _PARSE},
    ("cli", "_load_yaml"): "files.parse",
    **{("files", name): "files.dump" for name in _DUMP},
    **{("algebras", name): "algebras.validate" for name in _VALIDATE},
    ("algebras", "star_algebra"): "algebras.derive",
    ("algebras", "derived_bimodule"): "algebras.derive",
    ("algebras", "regular_bimodule"): "algebras.derive",
    ("complexes", "differential_matrix"): "complexes.assemble",
    ("complexes", "phi_matrix"): "complexes.assemble",
    ("complexes", "pla_differential"): "complexes.differential",
    ("complexes", "rbo_differential"): "complexes.differential",
    ("complexes", "rba_differential"): "complexes.differential",
    ("complexes", "phi"): "complexes.differential",
    ("complexes", "cohomology_dims"): "complexes.cohomology",
    ("complexes", "les_check"): "complexes.les",
    ("linalg", "rank"): "linalg.eliminate",
    ("linalg", "kernel_basis"): "linalg.eliminate",
    ("linalg", "solve_linear"): "linalg.eliminate",
    ("linalg", "echelon_basis"): "linalg.eliminate",
    ("linalg", "column_space"): "linalg.eliminate",
    ("linalg", "same_subspace"): "linalg.matvec",
    ("deformations", "check_deformation"): "deformations",
    ("deformations", "gauge_transform"): "deformations",
    ("deformations", "solve_next_order"): "deformations",
    ("deformations", "trivialize"): "deformations",
    ("extensions", "build_extension"): "extensions",
    ("extensions", "canonical_section"): "extensions",
    ("extensions", "check_extension"): "extensions",
    ("extensions", "extract_cocycle"): "extensions",
    **{("twoalg", name): "twoalg" for name in (
        "check_crossed_module", "check_prelie_2alg", "check_rb_2alg", "cocycle_to_skeletal",
        "crossed_to_strict", "skeletal_to_cocycle", "strict_to_crossed")},
    ("cli", "run_command"): "cli",
}
# looked up inside their own module: assembly by cohomology_dims and
# les_check, run_command and dump_document by the benchmark loop
OWN_MODULE = {("complexes", "differential_matrix"), ("complexes", "phi_matrix"),
              ("cli", "run_command"), ("cli", "_load_yaml"), ("files", "dump_document")}
METHODS = (("linalg", "RationalMatrix", "apply"), ("linalg", "EchelonBasis", "reduce"),
           ("linalg", "EchelonBasis", "contains"))
NAMESPACES = ("cli", "files", "algebras", "complexes", "linalg", "deformations", "extensions",
              "twoalg")
LEAVES = {"files.parse", "files.dump", "algebras.validate", "algebras.derive",
          "complexes.assemble", "complexes.differential", "linalg.eliminate", "linalg.matvec"}


def _cells(layer: str, args) -> int:
    """Rows × columns of the matrix (or vectors × ambient dimension) a call works on."""
    first = args[0]
    if layer == "linalg.eliminate":
        if isinstance(first, list):  # echelon_basis(vectors, ambient)
            return len(first) * args[1]
        return first.rows * first.cols
    if hasattr(first, "dim_ambient"):  # EchelonBasis.reduce / contains, same_subspace
        extra = args[1].dim if hasattr(args[1], "dim_ambient") else 0
        return (first.dim + extra) * first.dim_ambient
    return first.rows * first.cols


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.in_leaf = 0
        self.request = -1
        self.counts: Counter = Counter()
        self.matrices: list = []

    def wrap(self, fn, layer: str):
        leaf = layer in LEAVES
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None) if layer == "complexes.assemble" else None
        tracer = self

        def traced(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            if layer == "linalg.eliminate" and fn.__name__ == "echelon_basis":
                args = (list(args[0]),) + args[1:]
            hits = cache_info().hits if cache_info else 0
            index = len(spans)
            spans.append(None)
            stack.append(index)
            tracer.in_leaf += leaf
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.in_leaf -= leaf
                stack.pop()
                spans[index] = (layer, start, end, stack[-1] if stack else -1, tracer.request)
                counts[layer] += 1
                if layer in ("linalg.eliminate", "linalg.matvec"):
                    counts[layer + ".cells"] += _cells(layer, args)
                elif cache_info:
                    counts["complexes.assemble.hits"] += cache_info().hits - hits

        if layer == "complexes.assemble":
            # keep the returned matrix so its cells are counted after the run
            def assembled(*args, **kwargs):
                result = traced(*args, **kwargs)
                if not tracer.in_leaf:
                    tracer.matrices.append(result)
                return result

            return functools.update_wrapper(assembled, fn)
        return functools.update_wrapper(traced, fn)

    def matrix_counts(self) -> tuple[int, int]:
        cells = nnz = 0
        for m in self.matrices:
            cells += m.rows * m.cols
            nnz += sum(1 for row in m.entries for x in row if x != 0)
        return cells, nnz


def install(tracer: Tracer) -> None:
    """Wrap every listed function where callers look it up."""
    modules = {name: sys.modules[f"rbprelie.{name}"] for name in NAMESPACES}
    wrapped: dict = {}
    for ns_name, module in modules.items():
        for attr, obj in list(vars(module).items()):
            home = getattr(obj, "__module__", "") or ""
            if not callable(obj) or not home.startswith("rbprelie."):
                continue
            key = (home.removeprefix("rbprelie."), attr)
            if key not in LAYER_OF or (key[0] == ns_name and key not in OWN_MODULE):
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(obj, LAYER_OF[key])
            setattr(module, attr, wrapped[id(obj)])
    for mod, cls, method in METHODS:
        klass = getattr(modules[mod], cls)
        setattr(klass, method, tracer.wrap(getattr(klass, method), "linalg.matvec"))
