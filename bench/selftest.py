"""Self-test of the benchmark.

    python3 bench/selftest.py

1. The checker rejects deliberately wrong reports, and accepts the genuine
   ones they were made from, so ``failed`` is not vacuous.
2. Every workload runs at a tiny size (a reference prefix of one request),
   untraced and traced: each emits exactly the metrics BENCHMARK.json names,
   with their units, the run is correct, and the per-layer self times add up
   to the traced wall time.

Exits 0 when everything holds; takes about a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import yaml

import run
from check import check

sys.path.insert(0, str(run.ROOT / "src"))

from gen import generate  # noqa: E402
from rbprelie import files  # noqa: E402
from rbprelie.cli import run_command  # noqa: E402


def _report(request: dict, workdir: Path) -> tuple[int, str]:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        report, code = run_command(request["argv"])
    finally:
        os.chdir(cwd)
    return code, files.dump_document(report)


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


def _first(requests: list[dict], kind: str) -> dict:
    return next(r for r in requests if r["kind"] == kind)


def wrong_reports(scratch: Path) -> None:
    """Pairs (genuine report, forged report) per request kind."""
    cases = []

    def case(workload: str, kind: str, forge) -> None:
        workdir = scratch / workload
        if not workdir.exists():
            generate(workload, 0, 12, workdir)
        requests = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
        request = _first(requests, kind)
        code, text = _report(request, workdir)
        genuine = check(request, code, text, workdir)
        assert genuine == [], (kind, genuine)
        doc = yaml.safe_load(text)
        bad_code, bad_doc = forge(code, copy.deepcopy(doc))
        problems = check(request, bad_code, _dump(bad_doc), workdir)
        assert problems, f"the checker accepted a forged {kind} report"
        cases.append((kind, problems[0]))

    def too_big(code, doc):
        doc["dimensions"]["pla"][1] = 10**6
        return code, doc

    def not_les(code, doc):
        # inside every chain-dimension range, but H1_pla has zero neighbours
        doc["dimensions"] = {k: [0] * len(v) for k, v in doc["dimensions"].items()}
        doc["dimensions"]["pla"][1] = 1
        return code, doc

    def inexact(code, doc):
        doc["positions"][2]["image_dim"] += 1
        return code, doc

    def untrivialized(code, doc):
        identity = doc["gauge"][0]
        zero = [["0"] * len(identity)] * len(identity)
        doc["gauge"] = [identity] + [zero] * (len(doc["gauge"]) - 1)
        return code, doc

    def false_obstruction(code, doc):
        return 1, {"command": "deform solve", "solved_order": 2,
                   "verdicts": {"solvable": "violated"},
                   "obstruction": {"residual": [], "rhs_is_cocycle": False},
                   "status": "violation"}

    def wrong_exit(code, doc):
        return 1, dict(doc, status="violation")

    def altered_entries(code, doc):
        doc["output"]["entries"].append({"key": [1, 1], "value": ["7"]})
        return code, doc

    case("cohomology-d3", "cohomology", too_big)
    case("cohomology-d3", "cohomology", not_les)
    case("les-d3", "les", inexact)
    case("deform-d3", "deform-trivialize", untrivialized)
    case("deform-d3", "deform-solve-cocycle", false_obstruction)
    case("light-mix", "check-valid", wrong_exit)
    case("light-mix", "extract", altered_entries)
    for kind, problem in cases:
        print(f"rejected forged {kind}: {problem}")


def tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, workload in sorted(run.WORKLOADS.items()):
        run.WORKLOADS[name] = dataclasses.replace(workload, reference=1, cycle=1)
        for trace, expected in ((0, e2e), (1, per_layer)):
            outcome = run.measure(name, 0, 0.5, trace)
            units = {k: v["unit"] for k, v in outcome["metrics"].items()}
            assert units == expected, (name, trace, set(units) ^ set(expected))
            assert outcome["correct"] and outcome["failed"] == 0, (name, trace, outcome)
            if trace:
                values = {k: v["value"] for k, v in outcome["metrics"].items()}
                wall = values["trace.wall_s"]
                harness = values["bench.harness_s"]
                # harness_s is the wall time no span covers: the loop itself
                assert 0 <= harness <= 0.02 * wall + 0.005, (name, harness, wall)
            print(f"{name} trace {trace}: {len(units)} metrics with their units")


def main() -> int:
    scratch = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        wrong_reports(scratch)
        tiny_runs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
