"""Benchmark of the rbprelie command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; needs only the standard library and the
package's own dependency (PyYAML).  Steps, each in its own process:

1. ``gen.py`` writes the workload's inputs from the seed;
2. eleven ``worker.py --probe`` launches and the timed launch give ``setup_s``;
3. ``worker.py`` runs the closed loop: for S seconds, at least the
   workload's reference prefix of requests and whole cycles of request
   classes (``--trace 0``), or exactly that prefix once untraced and once
   traced (``--trace 1``);
4. ``check.py`` checks every report, untimed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 11


@dataclass(frozen=True)
class Workload:
    # requests always completed, digested and replayed by the traced run;
    # peak RSS is read after them, so a faster program doing more requests
    # in the same seconds is not charged for the extra cache entries
    reference: int
    # the loop stops only after a whole cycle of the input classes (gen.py),
    # so every run has the same mix; the classes differ up to 2-3 fold in
    # cost, and a run that ended mid-cycle would report its mix.  A cycle
    # closes every index gen.py derives from the request number: deform-d3
    # takes the kind from i mod 3 and the catalogue class from i // 3 mod 6,
    # light-mix the kind from i mod 11, the dimension, cocycle base and
    # malformed variant from i // 11 mod 6, 3 and 4
    cycle: int
    # inputs generated per measured second: about twice the seed code's
    # throughput on 2 cores, so a faster program still has fresh inputs
    pool_per_s: float


WORKLOADS = {
    "cohomology-d3": Workload(reference=6, cycle=6, pool_per_s=2.5),
    "les-d3": Workload(reference=6, cycle=6, pool_per_s=1.0),
    "deform-d3": Workload(reference=18, cycle=18, pool_per_s=3.0),
    "light-mix": Workload(reference=132, cycle=132, pool_per_s=70.0),
}

PER_LAYER_UNITS = {
    "files.parse_s": "s",
    "files.dump_s": "s",
    "algebras.validate_s": "s",
    "algebras.validate_calls": "count",
    "algebras.derive_s": "s",
    "complexes.assemble_s": "s",
    "complexes.assemble_calls": "count",
    "complexes.assemble_cache_hits": "count",
    "complexes.matrix_cells": "count",
    "complexes.matrix_nnz": "count",
    "complexes.nnz_share": "share",
    "complexes.differential_s": "s",
    "complexes.cohomology_self_s": "s",
    "complexes.les_self_s": "s",
    "linalg.eliminate_s": "s",
    "linalg.eliminate_calls": "count",
    "linalg.eliminate_cells": "count",
    "linalg.matvec_s": "s",
    "linalg.matvec_calls": "count",
    "linalg.matvec_cells": "count",
    "deformations.self_s": "s",
    "extensions.self_s": "s",
    "twoalg.self_s": "s",
    "cli.self_s": "s",
    "bench.harness_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.requests": "count",
}
# span layer -> per-layer time metric (self time)
SELF_METRIC = {
    "files.parse": "files.parse_s",
    "files.dump": "files.dump_s",
    "algebras.validate": "algebras.validate_s",
    "algebras.derive": "algebras.derive_s",
    "complexes.assemble": "complexes.assemble_s",
    "complexes.differential": "complexes.differential_s",
    "complexes.cohomology": "complexes.cohomology_self_s",
    "complexes.les": "complexes.les_self_s",
    "linalg.eliminate": "linalg.eliminate_s",
    "linalg.matvec": "linalg.matvec_s",
    "deformations": "deformations.self_s",
    "extensions": "extensions.self_s",
    "twoalg": "twoalg.self_s",
    "cli": "cli.self_s",
}
COUNT_METRIC = {
    "algebras.validate": "algebras.validate_calls",
    "complexes.assemble": "complexes.assemble_calls",
    "complexes.assemble.hits": "complexes.assemble_cache_hits",
    "complexes.matrix_cells": "complexes.matrix_cells",
    "complexes.matrix_nnz": "complexes.matrix_nnz",
    "linalg.eliminate": "linalg.eliminate_calls",
    "linalg.eliminate.cells": "linalg.eliminate_cells",
    "linalg.matvec": "linalg.matvec_calls",
    "linalg.matvec.cells": "linalg.matvec_cells",
}


class BenchError(RuntimeError):
    pass


class Run:
    """One benchmark run: its scratch directory and child-process environment."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        # bytecode is cached, as for an installed CLI, in one place whatever
        # the caller's environment; gen.py's import fills it before set-up
        # is measured
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_work" / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def generate(self, count: int) -> list[dict]:
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--count", str(count), "--out", str(self.dir)],
            env=self.env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
        )
        return json.loads((self.dir / "manifest.json").read_text(encoding="utf-8"))

    def launch(self, *args: str) -> tuple[subprocess.Popen, float]:
        """Start a worker; returns it and the seconds until it was ready."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != b"ready":
            proc.kill()
            proc.wait()
            raise BenchError("the worker did not start")
        return proc, ready

    def work(self, tag: str, *, seconds: float, minimum: int, maximum: int = 0, cycle: int = 1,
             trace: int = 0) -> tuple[dict, float]:
        out = self.dir / f"result-{tag}.json"
        proc, ready = self.launch(
            "--workdir", str(self.dir), "--out", str(out), "--seconds", str(seconds),
            "--min-requests", str(minimum), "--max-requests", str(maximum),
            "--cycle", str(cycle), "--trace", str(trace))
        try:
            proc.stdout.read()
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"the worker exited with {code}")
        return json.loads(out.read_text(encoding="utf-8")), ready

    def probe_setup(self) -> list[float]:
        times = []
        for _ in range(SETUP_PROBES):
            proc, ready = self.launch("--probe")
            proc.stdout.read()
            proc.wait(timeout=WORKER_TIMEOUT_S)
            times.append(ready)
        return times


def check_all(requests: list[dict], result: dict, workdir: Path) -> int:
    """Count the reports that fail their check; print the first few problems."""
    from check import check

    failed = 0
    for i, (code, text) in enumerate(zip(result["codes"], result["outputs"])):
        problems = check(requests[i], code, text, workdir)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"request {i} ({requests[i]['kind']}): {'; '.join(problems)}",
                      file=sys.stderr)
    return failed


def digest(result: dict, count: int) -> str:
    h = hashlib.sha256()
    for i, (code, text) in enumerate(zip(result["codes"][:count], result["outputs"][:count])):
        h.update(f"{i}\t{code}\n{text}\n".encode("utf-8"))
    return h.hexdigest()


def layer_metrics(result: dict, untraced_wall: float) -> dict[str, float]:
    spans = result["spans"]
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    values = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER_UNITS.items()}
    for (layer, start, end, _, _), inner in zip(spans, child):
        values[SELF_METRIC[layer]] += end - start - inner
    for key, count in result["counts"].items():
        if key in COUNT_METRIC:
            values[COUNT_METRIC[key]] = count
    cells = values["complexes.matrix_cells"]
    values["complexes.nnz_share"] = values["complexes.matrix_nnz"] / cells if cells else 0.0
    values["bench.harness_s"] = result["wall_s"] - sum(values[m] for m in SELF_METRIC.values())
    values["trace.wall_s"] = result["wall_s"]
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = result["wall_s"] - untraced_wall
    values["trace.requests"] = len(result["codes"])
    return values


def per_layer(run: Run, spec: Workload) -> dict:
    """The reference prefix untraced, then traced: per-layer metrics."""
    ref = spec.reference
    requests = run.generate(ref)
    plain, _ = run.work("plain", seconds=0, minimum=ref, maximum=ref)
    traced, _ = run.work("traced", seconds=0, minimum=ref, maximum=ref, trace=1)
    failed = check_all(requests, plain, run.dir) + check_all(requests, traced, run.dir)
    same = digest(plain, ref) == digest(traced, ref)
    print(f"report_sha256 {run.workload} seed {run.seed}: {digest(traced, ref)} "
          f"over {ref} requests, traced and untraced {'agree' if same else 'DIFFER'}")
    values = layer_metrics(traced, plain["wall_s"])
    return {"correct": failed == 0 and same,
            "attempted": len(plain["codes"]) + len(traced["codes"]), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER_UNITS.items()}}


def end_to_end(run: Run, spec: Workload, seconds: float) -> dict:
    """Set-up probes, then the timed loop: end-to-end metrics."""
    ref = spec.reference
    pool = max(ref, spec.pool_per_s * seconds)
    requests = run.generate(math.ceil(pool / spec.cycle) * spec.cycle)
    setup = run.probe_setup()
    result, ready = run.work("timed", seconds=seconds, minimum=ref, cycle=spec.cycle)
    setup.append(ready)
    failed = check_all(requests, result, run.dir)

    n = len(result["codes"])
    lat = result["latencies"]
    print(f"{run.workload} seed {run.seed}: {n} requests in {result['wall_s']:.3f} s, "
          f"failed {failed} (failed_ratio {failed / n:.4f}), latency p50 over {n} samples")
    by_class: dict[str, list[float]] = {}
    for request, latency in zip(requests, lat):
        name = request["kind"] + (f"/class{request['class']}" if "class" in request else "")
        by_class.setdefault(name, []).append(latency)
    print("latency p50 by request class: " + ", ".join(
        f"{name} {statistics.median(v):.4f} s ({len(v)})" for name, v in sorted(by_class.items())))
    if n >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"latency_p90_s {p90:.6f} ({sum(x > p90 for x in lat)} samples above)")
    if result["exhausted"]:
        print(f"all {n} generated requests done before {seconds} s; raise pool_per_s",
              file=sys.stderr)
    print(f"report_sha256 {run.workload} seed {run.seed}: {digest(result, ref)} over the first "
          f"{ref} requests")
    metrics = {
        "throughput_rps": (n / result["wall_s"], "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb_at_min"] / 1024, "MB"),
    }
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = Run(workload, seed)
    try:
        if trace:
            return per_layer(run, WORKLOADS[workload])
        return end_to_end(run, WORKLOADS[workload], seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rbprelie" / "cli.py").is_file():
        print(f"no rbprelie package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for check.py
    try:
        outcome = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
