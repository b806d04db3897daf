"""Write the inputs of one benchmark workload.

    python3 bench/gen.py --workload NAME --seed N --count C --out DIR

Writes C requests into DIR: their YAML input files, ``manifest.json``, a
list of ``{"argv", "kind", "expect"}`` in the order the timed loop issues
them, and ``argv.json``, the command lines alone.  ``expect`` is the outcome
the construction guarantees; ``check.py`` holds every report against it.

This runs in its own process, before the timed one starts: drawing
cocycles assembles coboundary matrices with ``differential_matrix``, and its
``lru_cache`` would otherwise hand the timed requests prebuilt matrices.
Request i draws from its own ``Random(f"{workload}:{seed}:{i}")``, so the
first requests of a pool do not depend on the pool's size.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rbprelie.algebras import (  # noqa: E402
    PreLieAlgebra,
    RBPreLieAlgebra,
    check_pre_lie,
    check_rb_operator,
    regular_bimodule,
)
from rbprelie.cochains import (  # noqa: E402
    Cochain,
    RBACochain,
    basis_keys,
    bilinear_from_cochain,
    matrix_from_cochain,
)
from rbprelie.complexes import ComplexKind, differential_matrix, rba_differential  # noqa: E402
from rbprelie.deformations import (  # noqa: E402
    TruncatedDeformation,
    check_deformation,
    gauge_transform,
    trivial_deformation,
)
from rbprelie.extensions import CocyclePair, build_extension  # noqa: E402
from rbprelie.files import (  # noqa: E402
    ParseError,
    algebra_document,
    cochain_document,
    crossed_document,
    deformation_document,
    extension_document,
    parse_algebra_file,
    twoalg_document,
)
from rbprelie.generators import (  # noqa: E402
    conjugate_bimodule,
    conjugate_rb,
    invert,
    random_crossed_module,
    random_gauge,
    random_invertible,
    random_matrix,
    random_rb_pre_lie,
    random_rba_cochain,
    random_valid_pair,
)
from rbprelie.linalg import is_zero_vector, kernel_basis, vadd, vscale, zero_vector  # noqa: E402
from rbprelie.twoalg import crossed_to_strict  # noqa: E402

_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _yaml(doc: dict) -> str:
    """``files.dump_document``'s text, from libyaml when it is there (4x faster)."""
    return yaml.dump(doc, Dumper=_Dumper, sort_keys=False, default_flow_style=None, width=100)


# the weight set of generators.random_rb_pre_lie
WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-7, 3), Fraction(1, 2))

LIGHT_KINDS = (
    "check-valid",
    "check-broken",
    "check-malformed",
    "star",
    "cocycle-closed",
    "cocycle-open",
    "extend",
    "extract",
    "twoalg-from-cocycle",
    "twoalg-to-crossed",
    "twoalg-from-crossed",
)
# requests that carry a cochain stay at dimensions 1-2: the dimension-3
# kernels their cocycles come from would add seconds to every run's set-up
COCHAIN_KINDS = {"cocycle-closed", "cocycle-open", "extend", "extract", "twoalg-from-cocycle"}

COCYCLE_BASES = 3


class Writer:
    """Numbers the files of one request and refuses repeated algebras, so no
    two requests of a run can share an ``lru_cache`` entry."""

    def __init__(self, out: Path):
        self.out = out
        self.seen: set[str] = set()
        self.index = 0

    def fresh(self, r, module=None) -> str | None:
        text = _yaml(algebra_document(r, module))
        if text in self.seen:
            return None
        self.seen.add(text)
        return text

    def file(self, stem: str, text: str) -> str:
        name = f"r{self.index:04d}-{stem}.yaml"
        (self.out / name).write_text(text, encoding="utf-8")
        return name


def _fresh_algebra(rng, w: Writer, dim: int):
    while True:
        r = random_rb_pre_lie(rng, dim)
        text = w.fresh(r)
        if text is not None:
            return r, text


def _fresh_pair(rng, w: Writer, dim: int):
    while True:
        r, m = random_valid_pair(rng, dim)
        text = w.fresh(r, m)
        if text is not None:
            return r, m, text


def _catalogue_algebra(rng, w: Writer, j: int):
    """Class j mod 6 of a fixed catalogue of dimension-3 algebras, one class
    per weight, moved along a random change of basis drawn from the seed.

    Between random dimension-3 algebras the cost of one request varies
    2-3 fold (a zero product with an invertible operator is the slowest), so
    with the few requests a run completes, per-request random algebras let
    the mix, not the program, set a run's figures.  Fixing the classes and
    letting the seed choose coordinates keeps every run's mix the same while
    every request still reads an algebra no earlier request has seen.
    """
    j %= len(WEIGHTS)
    crng = random.Random(f"catalogue:{j}")
    while True:
        base = random_rb_pre_lie(crng, 3, WEIGHTS[j])
        probe = random_invertible(crng, 3)
        if conjugate_rb(base, probe, invert(probe)) != base:  # not fixed by every basis change
            break
    while True:
        phi = random_invertible(rng, 3)
        r = conjugate_rb(base, phi, invert(phi))
        text = w.fresh(r)
        if text is not None:
            return r, text


def gen_cohomology(rng, w: Writer, i: int) -> dict:
    _, text = _catalogue_algebra(rng, w, i)
    alg = w.file("alg", text)
    return {
        "argv": ["cohomology", alg, "--complex", "all", "--max-degree", "3"],
        "kind": "cohomology",
        "class": i % len(WEIGHTS),
        "expect": {"exit": [0], "dim": 3, "mod_dim": 3, "max_degree": 3},
    }


def gen_les(rng, w: Writer, i: int) -> dict:
    _, text = _catalogue_algebra(rng, w, i)
    alg = w.file("alg", text)
    return {
        "argv": ["les", alg, "--max-degree", "2"],
        "kind": "les",
        "class": i % len(WEIGHTS),
        "expect": {"exit": [0], "max_degree": 2},
    }


class CocycleBases:
    """Random cocycles of the combined complex at the cost of a change of basis.

    The kernel of one differential is computed for a few fixed base pairs,
    as fixed as the catalogue of ``_catalogue_algebra``.  A request takes a
    random combination of kernel vectors and moves it,
    with its pair, along random invertible maps φ on the algebra and ρ on
    the module: f'(x₁, …, xₙ) = ρ⁻¹ f(φx₁, …, φxₙ).  That is a cocycle of
    the moved pair, which is a fresh algebra as far as any cache can tell.
    """

    def __init__(self) -> None:
        self.bases: dict[tuple, tuple] = {}

    def _base(self, dim: int, degree: int, b: int, regular: bool):
        key = (dim, degree, b, regular)
        if key not in self.bases:
            rng = random.Random(f"base:{dim}:{degree}:{b}:{regular}")
            while True:
                r, m = random_valid_pair(rng, dim)
                if regular:
                    m = regular_bimodule(r)
                kernel = kernel_basis(differential_matrix(ComplexKind.RBA, r, m, degree))
                if kernel:
                    break
            self.bases[key] = (r, m, kernel)
        return self.bases[key]

    def sample(self, rng, dim: int, degree: int, b: int, regular: bool = False):
        r, m, kernel = self._base(dim, degree, b, regular)
        coords = zero_vector(len(kernel[0]))
        while all(x == 0 for x in coords):
            for v in kernel:
                coords = vadd(coords, vscale(Fraction(rng.randint(-2, 2)), v))
        c = RBACochain.from_coords(degree, dim, m.mod_dim, coords)
        phi = random_invertible(rng, dim)
        phi_inv = invert(phi)
        rho, rho_inv = (phi, phi_inv) if regular else (
            (rho := random_invertible(rng, m.mod_dim)), invert(rho))

        def move(f: Cochain) -> Cochain:
            vals = {}
            for key in basis_keys(f.degree, dim):
                v = rho_inv.apply(f.eval([phi.col(i) for i in key]))
                if not is_zero_vector(v):
                    vals[key] = v
            return Cochain(f.degree, dim, m.mod_dim, vals)

        moved = RBACochain(move(c.pla_part), move(c.rbo_part))
        return (conjugate_rb(r, phi, phi_inv), conjugate_bimodule(m, phi, phi_inv, rho, rho_inv),
                moved)

    def fresh(self, rng, w: Writer, dim: int, degree: int, b: int, regular: bool = False):
        """A sample whose algebra file is new to the run; a repeat (likely at
        dimension 1, where few changes of basis exist) moves on to a new base."""
        for attempt in itertools.count():
            r, m, c = self.sample(rng, dim, degree, b + attempt * COCYCLE_BASES, regular)
            text = w.fresh(r, None if regular else m)
            if text is not None:
                return r, m, c, text


def gen_deform(rng, w: Writer, i: int, bases: CocycleBases) -> dict:
    kind = ("deform-solve-gauge", "deform-trivialize", "deform-solve-cocycle")[i % 3]
    if kind == "deform-solve-cocycle":
        r, _, c, text = bases.fresh(rng, w, 3, 2, (i // 3) % COCYCLE_BASES, regular=True)
        mu1, t1 = bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part)
        dfm = TruncatedDeformation(r, (r.algebra.c, mu1), (r.operator, t1))
        if not check_deformation(r, dfm).ok:
            raise RuntimeError("a degree-2 cocycle did not give an order-1 deformation")
        expect = {"exit": [0, 1], "order": 1}
    else:
        r, text = _catalogue_algebra(rng, w, i // 3)
        dfm = gauge_transform(r, trivial_deformation(r, 3), random_gauge(rng, 3, 3))
        expect = {"exit": [0], "order": 3}
    alg = w.file("alg", text)
    dfile = w.file("def", _yaml(deformation_document(dfm)))
    action = "trivialize" if kind == "deform-trivialize" else "solve"
    return {"argv": ["deform", action, alg, dfile], "kind": kind, "expect": expect}


def _malformed(doc: dict, variant: int) -> str:
    if variant == 0:
        doc["weight"] = "1/0"
    elif variant == 1:
        doc["product"][0][0][0] = 0.5
    elif variant == 2:
        doc["extra"] = 1
    else:
        return _yaml(doc).replace("product:", "product: [[", 1)
    return _yaml(doc)


def _broken(rng, dim: int) -> RBPreLieAlgebra:
    while True:
        table = random_matrix(rng, dim * dim, dim).entries
        alg = PreLieAlgebra(
            dim, tuple(tuple(table[i * dim + j] for j in range(dim)) for i in range(dim))
        )
        r = RBPreLieAlgebra(alg, WEIGHTS[rng.randrange(len(WEIGHTS))], random_matrix(rng, dim, dim))
        if not (check_pre_lie(r.algebra).ok and check_rb_operator(r).ok):
            return r


def gen_light(rng, w: Writer, i: int, bases: CocycleBases) -> dict:
    kind = LIGHT_KINDS[i % len(LIGHT_KINDS)]
    cycle = i // len(LIGHT_KINDS)
    dim = 1 + cycle % (2 if kind in COCHAIN_KINDS else 3)
    expect: dict = {"exit": [0], "dim": dim}
    if kind == "check-valid":
        _, _, text = _fresh_pair(rng, w, dim)
        argv = ["check", w.file("alg", text)]
    elif kind == "check-broken":
        r = _broken(rng, dim)
        argv = ["check", w.file("alg", _yaml(algebra_document(r)))]
        expect["exit"] = [1]
    elif kind == "check-malformed":
        r = random_rb_pre_lie(rng, dim)
        text = _malformed(algebra_document(r), cycle % 4)
        try:
            parse_algebra_file(text)
        except ParseError:
            pass
        else:
            raise RuntimeError("a malformed algebra file parsed")
        argv = ["check", w.file("alg", text)]
        expect["exit"] = [2]
    elif kind == "star":
        _, text = _fresh_algebra(rng, w, dim)
        argv = ["star", w.file("alg", text)]
    elif kind == "twoalg-to-crossed":
        cm = random_crossed_module(rng, dim)
        doc = twoalg_document(crossed_to_strict(cm, trusted=True), cm.g0.weight)
        argv = ["twoalg", "to-crossed", w.file("two", _yaml(doc))]
        expect["output"] = crossed_document(cm)
    elif kind == "twoalg-from-crossed":
        cm = random_crossed_module(rng, dim)
        argv = ["twoalg", "from-crossed", w.file("crossed", _yaml(crossed_document(cm)))]
        expect["output"] = twoalg_document(crossed_to_strict(cm, trusted=True), cm.g0.weight)
    elif kind == "cocycle-open":
        # over some pairs every degree-2 cochain is closed, so redraw the pair
        while True:
            r, m, text = _fresh_pair(rng, w, dim)
            c = random_rba_cochain(rng, 2, dim, m.mod_dim)
            if not rba_differential(r, m, c, trusted=True).is_zero():
                break
        argv = ["cocycle", w.file("alg", text),
                w.file("cochain", _yaml(cochain_document("rba", c)))]
        expect.update({"exit": [1], "mod_dim": m.mod_dim})
    else:
        degree = 3 if kind == "twoalg-from-cocycle" else 2
        r, m, c, text = bases.fresh(rng, w, dim, degree, cycle % COCYCLE_BASES)
        alg = w.file("alg", text)
        cfile = w.file("cochain", _yaml(cochain_document("rba", c)))
        expect["mod_dim"] = m.mod_dim
        if kind == "cocycle-closed":
            argv = ["cocycle", alg, cfile]
        elif kind == "extend":
            argv = ["extend", alg, cfile]
        elif kind == "twoalg-from-cocycle":
            argv = ["twoalg", "from-cocycle", alg, cfile]
        else:
            pair = CocyclePair(bilinear_from_cochain(c.pla_part), matrix_from_cochain(c.rbo_part))
            ext = build_extension(r, m, pair, trusted=True).extension
            argv = ["extract", w.file("ext", _yaml(extension_document(ext)))]
            expect["output"] = cochain_document("rba", c)
    return {"argv": argv, "kind": kind, "expect": expect}


def generate(workload: str, seed: int, count: int, out: Path) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    w = Writer(out)
    bases = CocycleBases()
    requests = []
    for i in range(count):
        rng = random.Random(f"{workload}:{seed}:{i}")
        w.index = i
        if workload == "cohomology-d3":
            requests.append(gen_cohomology(rng, w, i))
        elif workload == "les-d3":
            requests.append(gen_les(rng, w, i))
        elif workload == "deform-d3":
            requests.append(gen_deform(rng, w, i, bases))
        elif workload == "light-mix":
            requests.append(gen_light(rng, w, i, bases))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(requests), encoding="utf-8")
    # the timed process reads only the command lines, so its memory does not
    # depend on the size of the expected outputs
    (out / "argv.json").write_text(json.dumps([r["argv"] for r in requests]), encoding="utf-8")
    return requests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.count, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
