"""Measure the baseline: every listed workload over ten seeds, plus one traced run.

    python3 bench/baseline.py

Runs ``bench/run.py`` as an external runner would, one process per run,
with seeds 1..10 and the ``run_seconds`` of BENCHMARK.json, for each
workload BENCHMARK.json lists.  For each it records every end-to-end value,
the median, the quartiles and the spread (quartile distance over the
median), the report digests, and the per-layer metrics of one traced run
with seed 1, checked against the splits the workloads were chosen for.
Writes ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, SELF_METRIC

LAYER_TIMES = list(SELF_METRIC.values()) + ["bench.harness_s"]
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def splits(workload: str, layers: dict) -> dict:
    """The per-layer split each workload was chosen for, as measured."""
    if workload == "les-d3":
        share = (layers["linalg.matvec_s"] + layers["linalg.eliminate_s"]) / layers["trace.wall_s"]
        return {"matvec_plus_eliminate_share": share, "holds": share >= 1 / 3}
    if workload == "light-mix":
        front = (layers["algebras.validate_s"] + layers["files.parse_s"] + layers["files.dump_s"]
                 + layers["cli.self_s"])
        return {"validate_files_cli_s": front, "assemble_s": layers["complexes.assemble_s"],
                "holds": front > layers["complexes.assemble_s"]}
    largest = max(LAYER_TIMES, key=layers.get)  # deform-d3
    return {"largest_layer": largest, "holds": largest == "complexes.assemble_s"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "traced_seed": SEEDS[0],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        started = time.monotonic()
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in SEEDS:
            outcome, notes = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": outcome["correct"],
                         "attempted": outcome["attempted"], "failed": outcome["failed"],
                         "report_sha256": next(x.split()[4] for x in notes
                                               if x.startswith("report_sha256"))})
            for name, metric in outcome["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        traced, notes = run_once(workload, SEEDS[0], seconds, 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        out["workloads"][workload] = {
            "end_to_end": {name: dict(summary(v), unit=units[name]) for name, v in values.items()},
            "runs": runs,
            "per_layer": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
            "per_layer_digest": notes[-1] if notes else "",
            "split": splits(workload, layers),
        }
        spreads = ", ".join(f"{k} {s['spread']:.3f}"
                            for k, s in out["workloads"][workload]["end_to_end"].items())
        print(f"{workload}: {time.monotonic() - started:.0f} s; spreads {spreads}", flush=True)
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
