"""One workload in a fresh interpreter: set up, run timed rounds, check, report.

Started by run.py with `src` on PYTHONPATH:

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR [--setup-only]

The last line of standard output is one JSON record.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback

import ustlocal  # noqa: F401  (part of set-up: every run pays this import)

from common import Checks, Round
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)  # a module of this directory, checked by run.py
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = importlib.import_module(args.workload).Workload(args.workdir, args.seed)
    workload.setup()
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    times: list[float] = []
    prints: list[dict[str, str]] = []  # output digests of each completed round
    attempted = failed = 0
    error = None
    # whole rounds, stopping at the round boundary nearest to --seconds
    while not times or sum(times) + statistics.mean(times) / 2 < args.seconds:
        rnd = Round(tracer)
        if tracer:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            workload.pipeline(rnd)
        except Exception:  # an operation raised: it failed, and the run stops
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.enabled = False
        if error:
            attempted += len(rnd.outputs) + 1
            failed += 1
            break
        times.append(elapsed)
        prints.append(rnd.fingerprints())  # before the next round overwrites the files
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    extra_ops: list[str] = []
    if not error:
        try:
            extra_ops = workload.check(checks)
        except Exception:  # an output the checks could not read
            error = traceback.format_exc()
            attempted += 1
            failed += 1
    bad = checks.failed_ops()
    # later rounds must reproduce the first round's outputs
    failed += sum(op in bad or p[op] != prints[0][op] for p in prints for op in p)
    failed += sum(op in bad for op in extra_ops)
    attempted += sum(len(p) for p in prints) + len(extra_ops)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(times),
        "round_s": times,
        # the mean round, total timed time over rounds: this machine's speed
        # switches between a fast and a slow state, and the median of a few
        # rounds jumps between them where the mean does not (bench/README.md)
        "run_s": sum(times) / len(times) if times else None,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "error": error,
        "checks": checks.results,
    }
    if tracer:
        record["per_layer"] = tracer.summary(max(len(times), 1))
        record["spans"] = len(tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
