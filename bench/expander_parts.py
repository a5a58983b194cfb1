"""Workload expander_parts: the finite-graph side of the proof.

gen a planted 2-block graph at n = 600 (dense blocks, sparse cross edges),
decompose it, evaluate the discrete Freq(T; G) against the decomposition,
profile the lazy walk, and compute resistances and hitting probabilities.
"""
from __future__ import annotations

import os

import numpy as np

import ustlocal as ul
from common import check_sampled_graph, laplacian, read_json, write_json, z_gap

N = 600
# A part is big only if its inner edges reach c_f alpha^(1/9) |V_i| n, that is
# W_ii (|V_i| - 1) / 2 >= 0.4 * 1e-3^(1/9) * n: at W_ii = 0.9 a block needs
# 249 of its expected 300 vertices (4 standard deviations of the block size).
PLANTED = {"mu": [0.5, 0.5], "W": [[0.9, 0.02], [0.02, 0.9]]}
GAMMA, ETA, EPS = 0.1, 0.1, 0.1
# goodness needs deg_in >= (1 - eps^2) deg; at the default eps = 0.05 no vertex
# of this graph (about 2.2% cross edges) is good and every value would be 0
FREQ_EPS = 0.25
PATTERNS = [[-1, 0, 0], [-1, 0, 1], [-1, 0, 1, 1], [-1, 0, 0, 1, 2]]
HIT_WALKS = 20_000
AGREEMENT = 0.95
PART_DEGREE = PLANTED["W"][0][0] * N * PLANTED["mu"][0]


class Workload:
    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.graphon = os.path.join(workdir, "planted.json")
        self.graph = os.path.join(workdir, "graph.txt")
        self.dec = os.path.join(workdir, "dec.json")
        self.patterns = [os.path.join(workdir, f"pattern{i}.json") for i in range(len(PATTERNS))]

    def setup(self) -> None:
        write_json(self.graphon, PLANTED)
        for path, parent in zip(self.patterns, PATTERNS):
            write_json(path, {"parent": parent})

    def _out(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def pipeline(self, rnd) -> None:
        self.gen_stdout = rnd.cli("gen", "gen", "--graphon", self.graphon, "--n", N, "--seed", self.seed,
                                  out=self.graph)
        rnd.cli("decompose", "decompose", "--graph", self.graph, "--gamma", GAMMA, "--eta", ETA, "--eps", EPS,
                out=self.dec)
        for i, pattern in enumerate(self.patterns):
            rnd.cli(f"freq {i}", "freq", "--pattern", pattern, "--graph", self.graph, "--decomp", self.dec,
                    "--eps", FREQ_EPS, out=self._out(f"freq{i}.json"))
        rnd.cli("walk", "walk", "--graph", self.graph, out=self._out("walk.json"))
        self.pairs, self.triples = _probes(self.graph + ".labels")
        for u, v in self.pairs:
            rnd.cli(f"resistance {u} {v}", "resistance", "--graph", self.graph, "--u", u, "--v", v,
                    out=self._out(f"r{u}-{v}.json"))
        G = ul.read_edge_list(self.graph)
        self.hitting = {}
        for w, u, v in self.triples:
            mc = rnd.call(f"hitting mc {w} {u} {v}", ul.hitting_before_return_mc, G, w, u, v, HIT_WALKS, self.seed)
            exact = rnd.call(f"hitting exact {w} {u} {v}", ul.hitting_before_return_exact, G, w, u, v)
            self.hitting[(w, u, v)] = (mc[0], exact)

    def check(self, checks) -> list[str]:
        """Check the last round's outputs; return the extra operations run for it."""
        W = np.array(PLANTED["W"])
        n, edges, labels, deg = check_sampled_graph(checks, "gen", self.graph, self.gen_stdout, W, N)

        dec = read_json(self.dec)
        parts = np.array(dec["labels"])
        checks.check("decompose", "G1 to G3 ok", dec["verified"]["ok"], dec["verified"]["ok"])
        checks.check("decompose", "two parts", parts.max() == 2, int(parts.max()))
        agree = max(np.mean(parts == labels + 1), np.mean(parts == 2 - labels))
        checks.check("decompose", f"agrees with the planted blocks on >= {AGREEMENT:.0%}", agree >= AGREEMENT, agree)

        g = ul.load_graphon(self.graphon)
        cross = W[0, 1] / (W[0, 0] + W[0, 1])
        for i, parent in enumerate(PATTERNS):
            got = read_json(self._out(f"freq{i}.json"))["value"]
            expected = ul.freq_graphon(ul.RootedTree(parent), g).value
            # relative error of at most `cross` (the share of cross edges a
            # part ignores) plus 1/d (degree fluctuations, d the expected
            # degree inside a part) per pattern vertex
            tol = len(parent) * (cross + 1.0 / PART_DEGREE)
            checks.check(f"freq {i}", "within the stated tolerance of Freq(T; W)",
                         abs(got - expected) <= tol * expected, (got, expected, tol))

        walk = read_json(self._out("walk.json"))
        checks.check("walk", "gap <= 2 phi_star", 0.0 < walk["gap"] <= 2.0 * walk["phi_star"] + 1e-12,
                     (walk["gap"], walk["phi_star"]))

        Lplus = np.linalg.pinv(laplacian(n, edges))
        for u, v in self.pairs:
            got = read_json(self._out(f"r{u}-{v}.json"))["r_eff"]
            expected = Lplus[u, u] + Lplus[v, v] - 2.0 * Lplus[u, v]
            checks.check(f"resistance {u} {v}", "equals own pseudo-inverse", abs(got - expected) <= 1e-9 * expected,
                         (got, expected))

        for (w, u, v), (mc, exact) in self.hitting.items():
            checks.check(f"hitting mc {w} {u} {v}", "within the z-bound of the absorbing chain",
                         abs(mc - exact) <= z_gap(exact, HIT_WALKS), (mc, exact))
            if w == u:  # escape probability: P_u[tau_v < tau_u^+] = 1 / (deg(u) R_eff(u, v))
                r = Lplus[u, u] + Lplus[v, v] - 2.0 * Lplus[u, v]
                checks.check(f"hitting exact {w} {u} {v}", "escape equals 1 / (deg R_eff)",
                             abs(exact * deg[u] * r - 1.0) <= 1e-9, exact * deg[u] * r)
            else:
                checks.check(f"hitting exact {w} {u} {v}", "probability in (0, 1)", 0.0 < exact < 1.0, exact)
        return []


def _probes(label_path: str):
    """Resistance pairs and hitting triples of a fixed block structure.

    The first vertices of each planted block, so that every seed asks the
    same kinds of question: within a block, across blocks, and an escape.
    """
    with open(label_path, encoding="ascii") as fh:
        blocks = [int(line.split()[1]) for line in fh]
    a = [v for v, b in enumerate(blocks) if b == 0][:4]
    b = [v for v, b in enumerate(blocks) if b == 1][:4]
    pairs = [(a[0], a[1]), (b[0], b[1]), (a[2], b[2])]
    triples = [(a[0], a[0], b[0]), (a[1], a[2], a[3]), (b[1], a[3], b[3])]
    return pairs, triples
