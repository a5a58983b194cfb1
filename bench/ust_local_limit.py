"""Workload ust_local_limit: the paper's main theorem at desk scale.

gen a W-random graph at n = 2000 from a 2-block graphon, sample USTs with a
radius-2 census on two threads, tabulate Freq(T; W) for the height-2 patterns
the census is compared with, and count spanning trees.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

import ustlocal as ul
from common import Round, check_sampled_graph, graphon_b, laplacian, root_degree_law, write_json, z_gap

N = 2000
SAMPLES = 24
RADIUS = 2
THREADS = 2
PREFIX = 4  # samples rerun on one thread for the determinism check
MAX_PATTERN = 6
# blocks with clearly different b_i (1.48 and 0.52), every entry positive
GRAPHON = {"mu": [0.5, 0.5], "W": [[0.9, 0.5], [0.5, 0.1]]}
# Ball indicators of one tree are correlated: the variance of a per-sample
# frequency was up to 3.7 times the binomial one (seeds 2 to 7), so the
# z-bounds below use 4 times the binomial variance.
DESIGN_EFFECT = 4.0


class Workload:
    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.graphon = os.path.join(workdir, "graphon.json")
        self.graph = os.path.join(workdir, "graph.txt")
        self.ust = os.path.join(workdir, "ust.jsonl")
        self.count = os.path.join(workdir, "count.json")

    def setup(self) -> None:
        write_json(self.graphon, GRAPHON)

    def pipeline(self, rnd) -> None:
        self.gen_stdout = rnd.cli("gen", "gen", "--graphon", self.graphon, "--n", N, "--seed", self.seed,
                                  out=self.graph)
        rnd.cli("ust", "ust", "--graph", self.graph, "--samples", SAMPLES, "--seed", self.seed + 1,
                "--radius", RADIUS, "--threads", THREADS, out=self.ust)
        g = ul.load_graphon(self.graphon)
        patterns = rnd.call("enumerate_rooted_trees", ul.enumerate_rooted_trees, MAX_PATTERN,
                            min_height=RADIUS, max_height=RADIUS)
        self.patterns = {T.canonical_code(): T for T in patterns}
        self.freq = {code: rnd.call(f"freq_graphon {code}", ul.freq_graphon, T, g).value
                     for code, T in self.patterns.items()}
        rnd.cli("count-trees", "count-trees", "--graph", self.graph, "--graphon", self.graphon, out=self.count)

    def check(self, checks) -> list[str]:
        """Check the last round's outputs; return the extra operations run for it."""
        W = np.array(GRAPHON["W"])
        n, edges, labels, _deg = check_sampled_graph(checks, "gen", self.graph, self.gen_stdout, W, N)
        # references use the block measures the graph realized, which the
        # graph converges to; the kernel is the graphon's
        mu_hat = np.bincount(labels, minlength=len(W)) / n
        with open(self.ust, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        records = [json.loads(line) for line in lines]
        self._check_samples(checks, records, n)
        self._check_degree_law(checks, records, n, mu_hat, W)
        self._check_census(checks, records, n, mu_hat, W)
        for code, value in self.freq.items():
            checks.check(f"freq_graphon {code}", "value in (0, 1)", 0.0 < value < 1.0, value)
        self._check_count(checks, n, edges, W)
        return self._check_threads(checks, lines)

    def _check_samples(self, checks, records, n) -> None:
        ok = len(records) == SAMPLES and [r["sample"] for r in records] == list(range(SAMPLES))
        checks.check("ust", "one record per sample, in order", ok, len(records))
        for r in records:
            degs = {int(k): v for k, v in r["degree_counts"].items()}
            ok = (
                r["radius"] == RADIUS
                and sum(r["census"].values()) == n
                and sum(degs.values()) == n
                and sum(k * v for k, v in degs.items()) == 2 * (n - 1)
            )
            checks.check("ust", f"sample {r['sample']} sums", ok)

    def _check_degree_law(self, checks, records, n, mu_hat, W) -> None:
        total = n * len(records)
        pooled = {}
        for r in records:
            for k, v in r["degree_counts"].items():
                pooled[int(k)] = pooled.get(int(k), 0) + v
        worst = 0.0
        ok = True
        for k in range(1, 9):
            expected = root_degree_law(mu_hat, W, k)
            got = pooled.get(k, 0) / total
            gap = abs(got - expected)
            worst = max(worst, gap)
            ok &= gap <= z_gap(expected, total, DESIGN_EFFECT)
        checks.check("ust", "pooled degree law", ok, f"worst gap {worst:.5f}")
        leaf = pooled.get(1, 0) / total
        bound = math.exp(-1)
        checks.check("ust", "leaf density >= 1/e", leaf >= bound - z_gap(bound, total, DESIGN_EFFECT), leaf)

    def _check_census(self, checks, records, n, mu_hat, W) -> None:
        g_hat = ul.StepGraphon(mu_hat, W)
        total = n * len(records)
        worst = 0.0
        ok = True
        for code in self.freq:
            expected = ul.freq_graphon(self.patterns[code], g_hat).value
            got = sum(r["census"].get(code, 0) for r in records) / total
            gap = abs(got - expected)
            worst = max(worst, gap)
            ok &= gap <= z_gap(expected, total, DESIGN_EFFECT)
        checks.check("ust", "pooled radius-2 census against Freq", ok, f"worst gap {worst:.5f}")

    def _check_count(self, checks, n, edges, W) -> None:
        with open(self.count, encoding="ascii") as fh:
            payload = json.load(fh)
        L = laplacian(n, edges)
        chol = np.linalg.cholesky(L[1:, 1:])
        log_t = 2.0 * float(np.log(np.diag(chol)).sum())
        checks.check("count-trees", "log_t equals own log-determinant",
                     abs(payload["log_t"] - log_t) <= 1e-9 * abs(log_t), (payload["log_t"], log_t))
        d, _b = graphon_b(np.array(GRAPHON["mu"]), W)
        rhs = math.exp(float(np.dot(GRAPHON["mu"], np.log(d))))
        checks.check("count-trees", "graphon_rhs closed form",
                     abs(payload["graphon_rhs"] - rhs) <= 1e-12, (payload["graphon_rhs"], rhs))

    def _check_threads(self, checks, lines) -> list[str]:
        """Rerun a prefix of the samples on one thread: the bytes must agree."""
        prefix = os.path.join(self.dir, "ust-prefix.jsonl")
        rnd = Round()
        rnd.cli("ust --threads 1", "ust", "--graph", self.graph, "--samples", PREFIX, "--seed", self.seed + 1,
                "--radius", RADIUS, "--threads", 1, out=prefix)
        with open(prefix, encoding="ascii") as fh:
            got = fh.read()
        checks.check("ust --threads 1", "bytes equal the threaded prefix", got == "\n".join(lines[:PREFIX]) + "\n")
        return list(rnd.outputs)


