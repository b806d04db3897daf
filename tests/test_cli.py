import argparse
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from rbprelie import rba_differential, regular_bimodule
from rbprelie.cli import main, run_command
from rbprelie.cochains import Cochain, RBACochain
from rbprelie.algebras import zero_table
from rbprelie.deformations import TruncatedDeformation, gauge_transform, trivial_deformation
from rbprelie.files import (
    algebra_document,
    cochain_document,
    deformation_document,
    dump_document,
    twoalg_document,
)
from rbprelie.generators import (
    random_gauge,
    random_rba_cochain,
    random_rba_cocycle,
    random_valid_pair,
)
from rbprelie.linalg import RationalMatrix
from rbprelie.twoalg import TwoAlgebra
from conftest import (
    make_a0,
    make_a1n,
    make_idempotent,
    make_noncommuting_module,
    skeletal_with_pair,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _run(argv):
    return run_command([str(a) for a in argv])


def test_check_ok_file():
    report, code = _run(["check", FIXTURES / "a0.yaml"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["verdicts"]["pre_lie"] == "ok"
    assert report["verdicts"]["rb_bimodule"] == "ok"


def test_check_violation_file():
    report, code = _run(["check", FIXTURES / "a1_broken_rb.yaml"])
    assert code == 1
    assert report["status"] == "violation"
    witness = report["violations"][0]
    assert witness["law"] == "rota_baxter"
    assert witness["indices"] == [1, 1]
    assert witness["defect"] == ["0", "-1"]


def test_malformed_file_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "rbprelie.cli", "check", str(FIXTURES / "malformed.yaml")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "rbprelie.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_reports_byte_identical_across_runs():
    cmd = [
        sys.executable,
        "-m",
        "rbprelie.cli",
        "cohomology",
        str(FIXTURES / "a0.yaml"),
        "--complex",
        "all",
        "--max-degree",
        "3",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


def test_cohomology_a0_golden():
    report, code = _run(
        ["cohomology", FIXTURES / "a0.yaml", "--complex", "rba", "--max-degree", "3"]
    )
    assert code == 0
    assert report["dimensions"]["rba"] == [0, 1, 2, 1]


def test_cohomology_all_kinds():
    report, _ = _run(["cohomology", FIXTURES / "a0.yaml", "--max-degree", "3"])
    assert report["dimensions"] == {
        "pla": [1, 1, 1, 0],
        "rbo": [1, 1, 1, 0],
        "rba": [0, 1, 2, 1],
    }


def test_star_emits_parseable_algebra(tmp_path):
    out = tmp_path / "star.yaml"
    report, code = _run(["star", FIXTURES / "a1n.yaml", "-o", out])
    assert code == 0
    sub_report, sub_code = _run(["check", out])
    assert sub_code == 0


def test_star_validates_once(monkeypatch):
    from rbprelie import algebras, cli

    calls = []
    check = algebras.check_pre_lie

    def counting(a):
        calls.append(a)
        return check(a)

    monkeypatch.setattr(algebras, "check_pre_lie", counting)
    monkeypatch.setattr(cli, "check_pre_lie", counting)
    for fixture in ("a0.yaml", "a1n.yaml"):
        calls.clear()
        report, code = _run(["star", FIXTURES / fixture])
        assert code == 0 and report["status"] == "ok"
        assert len(calls) == 1


def test_cocycle_command(tmp_path):
    rng = random.Random(0)
    r, m = random_valid_pair(rng, 2)
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    c = random_rba_cocycle(rng, r, m, 2)
    good = tmp_path / "cocycle.yaml"
    good.write_text(dump_document(cochain_document("rba", c)))
    report, code = _run(["cocycle", alg, good])
    assert code == 0 and report["verdicts"]["closed"] == "ok"


def test_extend_extract_round_trip(tmp_path):
    rng = random.Random(1)
    r, m = random_valid_pair(rng, 2)
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    c = random_rba_cocycle(rng, r, m, 2)
    pair_file = tmp_path / "pair.yaml"
    pair_file.write_text(dump_document(cochain_document("rba", c)))
    ext_file = tmp_path / "ext.yaml"
    report, code = _run(["extend", alg, pair_file, "-o", ext_file])
    assert code == 0
    assert report["verdicts"] == {
        "total_axioms": "ok",
        "pair_cocycle": "ok",
        "routes_agree": "ok",
    }
    report, code = _run(["extract", ext_file])
    assert code == 0
    assert report["output"]["entries"] == cochain_document("rba", c)["entries"]


def test_extract_with_explicit_section(tmp_path):
    rng = random.Random(5)
    r, m = random_valid_pair(rng, 2)
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    c = random_rba_cocycle(rng, r, m, 2)
    pair_file = tmp_path / "pair.yaml"
    pair_file.write_text(dump_document(cochain_document("rba", c)))
    ext_file = tmp_path / "ext.yaml"
    _run(["extend", alg, pair_file, "-o", ext_file])
    d, md = r.dim, m.mod_dim
    rows = [["1" if j == i else "0" for j in range(d)] for i in range(d)]
    rows += [[str(1 + i + j) for j in range(d)] for i in range(md)]
    section = tmp_path / "section.yaml"
    section.write_text(dump_document({"kind": "section", "matrix": rows}))
    report, code = _run(["extract", ext_file, "--section", section])
    assert code == 0
    assert report["verdicts"]["pair_cocycle"] == "ok"


def test_deform_commands(tmp_path):
    rng = random.Random(2)
    from rbprelie.generators import random_rb_pre_lie

    r = random_rb_pre_lie(rng, 2)
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r)))
    d = gauge_transform(r, trivial_deformation(r, 2), random_gauge(rng, 2, 2))
    deff = tmp_path / "def.yaml"
    deff.write_text(dump_document(deformation_document(d)))
    report, code = _run(["deform", "check", alg, deff])
    assert code == 0 and report["status"] == "ok"
    report, code = _run(["deform", "solve", alg, deff])
    assert code == 0 and report["verdicts"]["solvable"] == "ok"
    report, code = _run(["deform", "trivialize", alg, deff])
    assert code == 0 and report["verdicts"]["trivializable"] == "ok"


def test_deform_trivialize_obstruction(tmp_path):
    a0 = make_a0()
    alg = tmp_path / "a0.yaml"
    alg.write_text(dump_document(algebra_document(a0)))
    doc = {
        "kind": "deformation",
        "order": 1,
        "products": [[[["1"]]]],
        "operators": [[["0"]]],
    }
    deff = tmp_path / "def.yaml"
    deff.write_text(dump_document(doc))
    report, code = _run(["deform", "trivialize", alg, deff])
    assert code == 1
    assert report["obstruction"]["order"] == 1


def test_twoalg_commands(tmp_path):
    rng = random.Random(3)
    r, m = random_valid_pair(rng, 2)
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    c = random_rba_cocycle(rng, r, m, 3)
    coc = tmp_path / "c3.yaml"
    coc.write_text(dump_document(cochain_document("rba", c)))
    two = tmp_path / "two.yaml"
    report, code = _run(["twoalg", "from-cocycle", alg, coc, "-o", two])
    assert code == 0
    report, code = _run(["twoalg", "check", two])
    assert code == 0
    back = tmp_path / "back.yaml"
    report, code = _run(["twoalg", "to-cocycle", two, "-o", back])
    assert code == 0
    assert yaml.safe_load(back.read_text())["entries"] == cochain_document("rba", c)["entries"]


def test_twoalg_crossed_commands(tmp_path):
    rng = random.Random(4)
    from rbprelie.files import crossed_document
    from rbprelie.generators import random_crossed_module

    cm = random_crossed_module(rng, 2)
    crossed = tmp_path / "crossed.yaml"
    crossed.write_text(dump_document(crossed_document(cm)))
    two = tmp_path / "two.yaml"
    report, code = _run(["twoalg", "from-crossed", crossed, "-o", two])
    assert code == 0
    report, code = _run(["twoalg", "check", two])
    assert code == 0
    back = tmp_path / "crossed2.yaml"
    report, code = _run(["twoalg", "to-crossed", two, "-o", back])
    assert code == 0
    assert yaml.safe_load(back.read_text()) == crossed_document(cm)


def test_les_command():
    report, code = _run(["les", FIXTURES / "a0.yaml", "--max-degree", "3"])
    assert code == 0
    assert all(p["exact"] for p in report["positions"])
    assert len(report["positions"]) == 12


def test_timing_flag_only_addition():
    plain, _ = _run(["check", FIXTURES / "a0.yaml"])
    timed, _ = _run(["--timing", "check", FIXTURES / "a0.yaml"])
    assert "elapsed_seconds" in timed
    timed.pop("elapsed_seconds")
    assert timed == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", FIXTURES / "a0.yaml", "--max-degree", "-1"],
        ["les", FIXTURES / "a0.yaml", "--max-degree", "-1"],
        ["les", FIXTURES / "a0.yaml", "--max-degree", "-2"],
    ],
)
def test_negative_max_degree_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2


def _two_term_file(tmp_path, *, d=0, product=0, t0=0, t2=0):
    """A two-term structure with one-dimensional g₀ and g₁ at weight 0."""
    def one(x):
        return RationalMatrix.from_rows([[x]])

    def table(x):
        return (((Fraction(x),),),)

    t = TwoAlgebra(1, 1, one(d), table(product), table(0), table(0), Cochain.zero(3, 1, 1),
                   one(t0), one(0), table(t2))
    path = tmp_path / "two.yaml"
    path.write_text(dump_document(twoalg_document(t, Fraction(0))))
    return path


def _unclosed_skeletal_file(tmp_path):
    """A skeletal structure over a valid pair whose (l₃, T₂) is not closed:
    it fails only the top coherences f and v."""
    rng = random.Random(37)
    r, m = random_valid_pair(rng, 2)
    c = random_rba_cochain(rng, 3, r.dim, m.mod_dim)
    assert not rba_differential(r, m, c).is_zero()
    path = tmp_path / "two.yaml"
    path.write_text(dump_document(twoalg_document(skeletal_with_pair(r, m, c), r.weight)))
    return path


def _extract_with_bad_section(tmp_path):
    rng = random.Random(5)
    r, m = random_valid_pair(rng, 2)
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    pair_file = tmp_path / "pair.yaml"
    pair_file.write_text(dump_document(cochain_document("rba", random_rba_cocycle(rng, r, m, 2))))
    ext_file = tmp_path / "ext.yaml"
    _run(["extend", alg, pair_file, "-o", ext_file])
    # the base block is 2·Id, so p∘s ≠ Id
    rows = [["2" if j == i else "0" for j in range(r.dim)] for i in range(r.dim)]
    rows += [["0"] * r.dim for _ in range(m.mod_dim)]
    section = tmp_path / "section.yaml"
    section.write_text(dump_document({"kind": "section", "matrix": rows}))
    return ["extract", ext_file, "--section", section]


def _deform_invalid_at_order_one(action):
    """``deform ACTION`` on a valid base, e·e = e at weight 1 with T = 0,
    whose order-1 coefficient T₁ = 1 breaks the Rota-Baxter law at order 1."""

    def make_argv(tmp_path):
        r = make_idempotent(1)
        d = TruncatedDeformation(
            r, (r.algebra.c, zero_table(1, 1, 1)), (r.operator, RationalMatrix.from_rows([[1]]))
        )
        alg, deff = tmp_path / "alg.yaml", tmp_path / "def.yaml"
        alg.write_text(dump_document(algebra_document(r)))
        deff.write_text(dump_document(deformation_document(d)))
        return ["deform", action, alg, deff]

    return make_argv


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (lambda p: ["twoalg", "to-cocycle", _two_term_file(p, d=1)], "not skeletal"),
        # e·e = e with T = Id at weight 0 breaks the Rota-Baxter law
        (lambda p: ["twoalg", "to-cocycle", _two_term_file(p, product=1, t0=1)], "two-term checks"),
        (lambda p: ["twoalg", "to-cocycle", _unclosed_skeletal_file(p)], "two-term checks"),
        (lambda p: ["twoalg", "to-crossed", _two_term_file(p, t2=1)], "not strict"),
        (_extract_with_bad_section, "not a section"),
        (_deform_invalid_at_order_one("solve"), "lower orders invalid (first bad order 1)"),
        (_deform_invalid_at_order_one("trivialize"), "deformation invalid at order 1"),
    ],
    ids=["to-cocycle-not-skeletal", "to-cocycle-fails-checks", "to-cocycle-pair-not-closed",
         "to-crossed-not-strict",
         "extract-not-a-section", "deform-solve-invalid-order-1",
         "deform-trivialize-invalid-order-1"],
)
def test_invalid_structure_is_violation(tmp_path, capsys, make_argv, message):
    argv = [str(a) for a in make_argv(tmp_path)]
    report, code = run_command(argv)
    assert code == 1
    # an error report names the bare command, even for a deform action
    assert list(report) == ["command", "error", "status"]
    assert report["status"] == "violation"
    assert report["command"] == argv[0]
    assert message in report["error"]
    capsys.readouterr()
    assert main(argv) == 1
    assert yaml.safe_load(capsys.readouterr().out) == report


def _noncommuting_module_files(tmp_path):
    """The algebra file with a module failing only the bimodule laws, and
    zero cochains of each kind the validating commands read."""
    r, m = make_noncommuting_module()
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    files = {"alg": alg}
    for name, which, degree in (("c1", "pla", 1), ("c2", "rba", 2), ("c3", "rba", 3)):
        path = tmp_path / f"{name}.yaml"
        zero = Cochain.zero(degree, r.dim, m.mod_dim)
        cochain = zero if which == "pla" else RBACochain(
            zero, Cochain.zero(degree - 1, r.dim, m.mod_dim)
        )
        path.write_text(dump_document(cochain_document(which, cochain)))
        files[name] = path
    deff = tmp_path / "def.yaml"
    deff.write_text(dump_document(deformation_document(trivial_deformation(r, 1))))
    files["def"] = deff
    return files


@pytest.mark.parametrize("action", ["check", "solve", "trivialize"])
def test_deform_over_an_invalid_base_fails_validity_first(action):
    # the base is checked before the deformation file is read, so a
    # malformed file over a broken base still reports the broken base
    for deformation in ("malformed.yaml", "a1_broken_rb.yaml"):
        report, code = run_command(
            ["deform", action, str(FIXTURES / "a1_broken_rb.yaml"), str(FIXTURES / deformation)]
        )
        assert code == 1
        assert report == {
            "command": "deform",
            "error": "input is not a Rota-Baxter pre-Lie algebra; run `check`",
            "status": "violation",
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "{alg}", "--max-degree", "2"],
        ["les", "{alg}", "--max-degree", "1"],
        ["star", "{alg}"],
        ["cocycle", "{alg}", "{c1}"],
        ["extend", "{alg}", "{c2}"],
        ["deform", "solve", "{alg}", "{def}"],
        ["twoalg", "from-cocycle", "{alg}", "{c3}"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith(("{", "-")) and not a.isdigit()),
)
def test_module_that_is_not_a_representation_is_rejected(tmp_path, capsys, argv):
    files = _noncommuting_module_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    report, code = run_command(argv)
    assert code == 1
    assert report == {
        "command": argv[0],
        "error": "module is not a Rota-Baxter bimodule; run `check`",
        "status": "violation",
    }
    capsys.readouterr()
    assert main(argv) == 1
    assert yaml.safe_load(capsys.readouterr().out) == report
    check, check_code = run_command(["check", argv[argv.index(str(files["alg"]))]])
    assert check_code == 1
    assert check["verdicts"] == {
        "pre_lie": "ok", "rota_baxter": "ok", "bimodule": "violated", "rb_bimodule": "ok"
    }


def test_from_cocycle_dimension_mismatch_is_parse_error(tmp_path, capsys):
    alg = tmp_path / "alg.yaml"
    alg.write_text(dump_document(algebra_document(make_a0())))
    zero = RBACochain(Cochain.zero(3, 2, 2), Cochain.zero(2, 2, 2))
    coc = tmp_path / "c3.yaml"
    coc.write_text(dump_document(cochain_document("rba", zero)))
    assert main(["twoalg", "from-cocycle", str(alg), str(coc)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: {coc}: cochain dimensions do not match (algebra, module)\n"
    )


def _mismatch_files(tmp_path):
    """A dimension-1 algebra file, a dimension-2 one with its regular module,
    and zero rba pairs of degree 2: one of dimension 2, one of dimension 1."""
    small, large = tmp_path / "a0.yaml", tmp_path / "a1n.yaml"
    small.write_text(dump_document(algebra_document(make_a0())))
    a1n = make_a1n()
    large.write_text(dump_document(algebra_document(a1n, regular_bimodule(a1n))))
    wide, low = tmp_path / "wide.yaml", tmp_path / "low.yaml"
    wide.write_text(dump_document(cochain_document(
        "rba", RBACochain(Cochain.zero(2, 2, 2), Cochain.zero(1, 2, 2))
    )))
    low.write_text(dump_document(cochain_document(
        "rba", RBACochain(Cochain.zero(2, 1, 1), Cochain.zero(1, 1, 1))
    )))
    return {"small": small, "large": large, "wide": wide, "low": low}


@pytest.mark.parametrize(
    "argv, named, message",
    [
        (["cohomology", "{small}", "--module", "{large}"], "large",
         "module file does not match the algebra dimension"),
        (["extend", "{small}", "{wide}"], "wide", "pair dimensions do not match (algebra, module)"),
        (["cocycle", "{small}", "{wide}"], "wide",
         "cochain dimensions do not match (algebra, module)"),
        (["twoalg", "from-cocycle", "{small}", "{low}"], "low",
         "expected a degree-3 cochain in the combined complex"),
    ],
    ids=["cohomology-module", "extend-pair", "cocycle-cochain", "from-cocycle-degree-2"],
)
def test_mismatched_input_is_parse_error_naming_the_file(tmp_path, capsys, argv, named, message):
    files = _mismatch_files(tmp_path)
    assert main([a.format(**files) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: {files[named]}: {message}\n"


def test_from_cocycle_of_a_noncocycle_is_violation(tmp_path, capsys):
    rng = random.Random(12)
    r, m = random_valid_pair(rng, 2)
    c = random_rba_cochain(rng, 3, r.dim, m.mod_dim)
    assert not rba_differential(r, m, c).is_zero()
    alg, coc = tmp_path / "alg.yaml", tmp_path / "c3.yaml"
    alg.write_text(dump_document(algebra_document(r, m)))
    coc.write_text(dump_document(cochain_document("rba", c)))
    argv = ["twoalg", "from-cocycle", str(alg), str(coc)]
    assert main(argv) == 1
    assert yaml.safe_load(capsys.readouterr().out) == {
        "command": "twoalg from-cocycle", "verdicts": {"cocycle": "violated"}, "status": "violation"
    }


def test_deform_has_no_module_option(tmp_path):
    # deformations always take coefficients in the regular module
    a1n = FIXTURES / "a1n.yaml"
    deff = tmp_path / "def.yaml"
    deff.write_text(dump_document(deformation_document(trivial_deformation(make_a1n(), 1))))
    argv = ["deform", "check", a1n, deff]
    assert _run(argv)[1] == 0
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--module", a1n])
    assert exc.value.code == 2


def _crossed_file(tmp_path):
    from rbprelie.files import crossed_document
    from rbprelie.generators import random_crossed_module

    path = tmp_path / "crossed.yaml"
    path.write_text(dump_document(crossed_document(random_crossed_module(random.Random(6), 1))))
    return path


@pytest.mark.parametrize(
    "action, extra",
    [
        ("check", "cochain"),
        ("check", "--module"),
        ("check", "-o"),
        ("to-cocycle", "cochain"),
        ("to-cocycle", "--module"),
        ("to-crossed", "cochain"),
        ("to-crossed", "--module"),
        ("from-crossed", "cochain"),
        ("from-crossed", "--module"),
    ],
)
def test_twoalg_action_rejects_arguments_it_does_not_read(tmp_path, action, extra):
    # each twoalg action declares only the arguments its handler reads
    two = _two_term_file(tmp_path)
    argv = ["twoalg", action, _crossed_file(tmp_path) if action == "from-crossed" else two]
    assert _run(argv)[1] == 0
    out = tmp_path / "out.yaml"
    extra = {
        "cochain": [two],
        "--module": ["--module", FIXTURES / "a0.yaml"],
        "-o": ["-o", out],
    }[extra]
    with pytest.raises(SystemExit) as exc:
        _run(argv + extra)
    assert exc.value.code == 2
    assert not out.exists()


def test_twoalg_from_cocycle_needs_a_cochain():
    with pytest.raises(SystemExit) as exc:
        _run(["twoalg", "from-cocycle", FIXTURES / "a0.yaml"])
    assert exc.value.code == 2


def _untimed(stdout: str) -> str:
    return re.sub(r"^elapsed_seconds: .*\n", "", stdout, flags=re.M)


def test_one_process_answers_like_separate_calls(tmp_path, capsys, monkeypatch):
    # the parser is built once, at import: a run of requests in one process,
    # usage errors among them, prints what separate processes print
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    two = _two_term_file(tmp_path)
    requests = [
        ["check", FIXTURES / "a0.yaml"],
        ["twoalg", "check", two, "-o", tmp_path / "out.yaml"],
        ["--timing", "cohomology", FIXTURES / "a1n.yaml", "--max-degree", "2"],
        ["frobnicate"],
        ["check", FIXTURES / "a1_broken_rb.yaml"],
        ["deform", "check"],
        ["twoalg", "to-crossed", two],
        ["check", FIXTURES / "malformed.yaml"],
        ["--timing", "twoalg", "check", two],
        ["les", FIXTURES / "a0.yaml", "--max-degree", "-1"],
        _deform_invalid_at_order_one("solve")(tmp_path),
    ]
    for argv in requests:
        argv = [str(a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-m", "rbprelie.cli", *argv], capture_output=True, text=True
        )
        assert (code, _untimed(out), err) == (
            alone.returncode, _untimed(alone.stdout), alone.stderr
        ), argv
        assert ("elapsed_seconds" in out) == (argv[0] == "--timing")
    assert not built
