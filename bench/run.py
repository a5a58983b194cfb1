"""Benchmark of ustlocal's three pipelines; see bench/README.md.

Run from the repository root:

    python3 bench/run.py --workload ust_local_limit --seed 1 --seconds 25 --trace 0

Each workload runs in fresh interpreters with `src` on PYTHONPATH: several
set-up-only ones time set-up, one more runs the timed rounds and the output
checks.  The last line of standard output is one JSON record; with --trace 0
it holds the end-to-end metrics, with --trace 1 the per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ust_local_limit", "ball_law", "expander_parts")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        return _fail("--seed must be >= 0")

    started = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ustlocal", "__init__.py")):
        return _fail(f"no ustlocal sources under {src}; run from the repository root")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: two spinning OpenBLAS threads on a 2-vCPU machine time
    # the hypervisor's co-scheduling more than the program (bench/README.md)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    child = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", workdir]

    def run_child(extra: list[str]) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.monotonic() - started)
        return subprocess.run(child + extra, env=env, cwd=root, capture_output=True, text=True,
                              timeout=max(left, 1.0))

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                proc = run_child(["--setup-only"])
                setup.append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    return _fail(f"set-up failed:\n{proc.stderr}")
        proc = run_child(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except subprocess.TimeoutExpired:
        return _fail(f"workload did not finish within {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return _fail(f"workload exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = setup
    with open(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if record["error"]:
        sys.stderr.write(record["error"])
    for c in record["checks"]:
        if not c["ok"]:
            sys.stderr.write(f"check failed: {c['op']}: {c['check']} ({c['detail']})\n")

    if record["run_s"] is None:
        return _fail("no round of the pipeline completed")
    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit} for name, unit in metric_names()}
        print(f"traced run_s {record['run_s']} over {record['rounds']} round(s), {record['spans']} spans")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": record["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
