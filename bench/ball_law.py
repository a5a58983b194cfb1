"""Workload ball_law: the limit object, with no graph code at all.

The branching Monte Carlo of the depth-2 ball law on a 3-block graphon, and
the exact Freq(T; W) table for every rooted tree with 2 to 8 vertices on it.
"""
from __future__ import annotations

import os

import numpy as np

import ustlocal as ul
from common import root_degree_law, write_json, z_gap

DEPTH = 2
SAMPLES = 1_000_000
MAX_PATTERN = 8
GRAPHON = {"mu": [0.2, 0.3, 0.5], "W": [[0.9, 0.5, 0.2], [0.5, 0.6, 0.3], [0.2, 0.3, 0.8]]}


class Workload:
    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.graphon = os.path.join(workdir, "graphon.json")
        self.law = os.path.join(workdir, "law.csv")

    def setup(self) -> None:
        write_json(self.graphon, GRAPHON)

    def pipeline(self, rnd) -> None:
        rnd.cli("branching", "branching", "--graphon", self.graphon, "--depth", DEPTH, "--samples", SAMPLES,
                "--seed", self.seed, out=self.law)
        g = ul.load_graphon(self.graphon)
        patterns = rnd.call("enumerate_rooted_trees", ul.enumerate_rooted_trees, MAX_PATTERN, min_height=1)
        self.table = {}  # code -> (pattern, Freq(T; W))
        for T in patterns:
            code = T.canonical_code()
            self.table[code] = (T, rnd.call(f"freq_graphon {code}", ul.freq_graphon, T, g).value)

    def check(self, checks) -> list[str]:
        """Check the last round's outputs; return the extra operations run for it."""
        with open(self.law, encoding="ascii") as fh:
            rows = fh.read().splitlines()
        counts = {}
        for row in rows[1:]:
            code, count = row.rsplit(",", 1)
            counts[code] = int(count)
        checks.check("branching", "csv header", rows[0] == "code,count", rows[0])
        checks.check("branching", "counts sum to the sample count", sum(counts.values()) == SAMPLES,
                     sum(counts.values()))

        # Monte Carlo against Freq, for every height-2 pattern of the table
        worst = 0.0
        ok = True
        for code, (T, value) in self.table.items():
            if T.height != DEPTH:
                continue
            gap = abs(counts.get(code, 0) / SAMPLES - value)
            worst = max(worst, gap / z_gap(value, SAMPLES))
            ok &= gap <= z_gap(value, SAMPLES)
        checks.check("branching", "height-2 frequencies within the z-bound of Freq", ok,
                     f"worst deviation {worst:.3f} of the allowance")

        mu, W = np.array(GRAPHON["mu"]), np.array(GRAPHON["W"])
        heights = {}
        for code, (T, value) in self.table.items():
            op = f"freq_graphon {code}"
            checks.check(op, "value in (0, 1)", 0.0 < value < 1.0, value)
            heights[T.height] = heights.get(T.height, 0.0) + value
            if T.height == 1:  # a star with k leaves: the root-degree law
                expected = root_degree_law(mu, W, T.size - 1)
                checks.check(op, "star equals the root-degree law", abs(value - expected) <= 1e-12 * expected,
                             (value, expected))
        for h, total in sorted(heights.items()):
            checks.check("enumerate_rooted_trees", f"height {h} patterns sum to at most 1", total <= 1.0 + 1e-12,
                         total)
        checks.check("enumerate_rooted_trees", "rooted trees with 2 to 8 vertices",
                     len(self.table) == 199, len(self.table))
        return []
