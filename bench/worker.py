"""The timed process: a closed loop of CLI requests, one at a time.

    python3 bench/worker.py --workdir DIR --out FILE [--seconds S]
        [--min-requests K] [--max-requests N] [--cycle C] [--trace 0|1]
    python3 bench/worker.py --probe

Reads the command lines ``gen.py`` wrote to DIR/argv.json and runs them
with DIR as working directory.  Prints ``ready`` once ``rbprelie.cli`` is
imported, which is the end of set-up; ``--probe`` stops there.  Each request is
``cli.run_command(argv)`` followed by ``files.dump_document(report)``,
which is what ``rbprelie.cli.main`` does minus interpreter start; parse and
I/O errors become exit code 2 exactly as in ``main``.  Requests are issued
until S seconds have passed, at least K are done and the count is a multiple
of C, or until N are done.
Results go to FILE as JSON once the loop has ended.
"""

import sys
import time

import rbprelie.cli as cli

print("ready", flush=True)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from rbprelie import files  # noqa: E402


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def issue(argv: list[str]) -> tuple[int, str]:
    """One request; returns (exit code, what ``main`` would print)."""
    try:
        report, code = cli.run_command(argv)
        return code, files.dump_document(report)
    except files.ParseError as exc:
        return 2, f"parse error: {exc}\n"
    except OSError as exc:
        return 2, f"error: {exc}\n"
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0), ""
    except Exception:  # a traceback is a failed request, not a failed run
        return -1, traceback.format_exc()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-requests", type=int, default=1)
    ap.add_argument("--max-requests", type=int, default=0)
    ap.add_argument("--cycle", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    if args.probe:
        return 0
    os.chdir(args.workdir)
    with open("argv.json", encoding="utf-8") as handle:
        requests = json.load(handle)
    if args.max_requests:
        requests = requests[: args.max_requests]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes, outputs, latencies = [], [], []
    rss_at_min = 0
    clock = time.perf_counter
    start = clock()
    for i, argv in enumerate(requests):
        if i >= args.min_requests and i % args.cycle == 0 and clock() - start >= args.seconds:
            break
        if tracer:
            tracer.request = i
        t0 = clock()
        code, text = issue(argv)
        latencies.append(clock() - t0)
        codes.append(code)
        outputs.append(text)
        if i + 1 == args.min_requests:
            rss_at_min = _peak_rss_kb()
    wall = clock() - start

    result = {
        "wall_s": wall,
        "codes": codes,
        "outputs": outputs,
        "latencies": latencies,
        "peak_rss_kb_at_min": rss_at_min or _peak_rss_kb(),
        "exhausted": len(codes) == len(requests) and wall < args.seconds,
    }
    if tracer:
        cells, nnz = tracer.matrix_counts()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts, **{"complexes.matrix_cells": cells,
                                                 "complexes.matrix_nnz": nnz})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
