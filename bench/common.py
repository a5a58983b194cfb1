"""Shared pieces of the workloads: operations, CLI calls, input parsing, checks."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import ustlocal.cli

from tracer import cli_span_name

Z = 5.0  # z-bound of every statistical check: a false alarm is rarer than 1 in 10^6


class OperationFailed(Exception):
    pass


class Round:
    """One pass of a workload's pipeline; `outputs` maps each operation to its output.

    An operation is one subcommand or one library call.  CLI outputs are the
    files the subcommand wrote, library outputs are the returned values.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outputs: dict[str, object] = {}

    def call(self, op: str, fn, *args, **kwargs):
        value = fn(*args, **kwargs)
        self.outputs[op] = value
        return value

    def cli(self, op: str, command: str, *args, out: str) -> str:
        argv = [command, *(str(a) for a in args), "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        span = self.tracer.span(cli_span_name(command)) if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = ustlocal.cli.main(argv)
        if code != 0:
            raise OperationFailed(f"ustlocal {' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
        self.outputs[op] = out
        return stdout.getvalue()

    def fingerprints(self) -> dict[str, str]:
        """Digest of every output: file bytes for CLI operations, repr otherwise."""
        out = {}
        for op, value in self.outputs.items():
            h = hashlib.sha256()
            if isinstance(value, str) and os.path.isfile(value):
                with open(value, "rb") as fh:
                    h.update(fh.read())
                labels = value + ".labels"
                if os.path.isfile(labels):
                    with open(labels, "rb") as fh:
                        h.update(fh.read())
            else:
                h.update(repr(value).encode())
            out[op] = h.hexdigest()
        return out


class Checks:
    """Outcome of the output checks, grouped by the operation they check."""

    def __init__(self):
        self.results: list[dict] = []

    def check(self, op: str, name: str, ok: bool, detail="") -> None:
        if not isinstance(detail, str):
            detail = json.dumps(detail, default=float)
        self.results.append({"op": op, "check": name, "ok": bool(ok), "detail": detail})

    def failed_ops(self) -> set[str]:
        return {r["op"] for r in self.results if not r["ok"]}


# -- inputs the benchmark reads itself -------------------------------------------------


def write_json(path: str, payload) -> str:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
    return path


def read_json(path: str):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def parse_edge_list(path: str) -> tuple[int, int, np.ndarray]:
    """(n, header m, edges) of a simple-graph edge list, parsed with numpy alone."""
    with open(path, encoding="ascii") as fh:
        n, m = (int(x) for x in fh.readline().split())
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if edges.shape != (m, 2):
        raise ValueError(f"{path}: expected {m} lines 'u v', got shape {edges.shape}")
    return n, m, edges


def parse_labels(path: str, n: int) -> np.ndarray:
    rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if rows.shape != (n, 2) or not (rows[:, 0] == np.arange(n)).all():
        raise ValueError(f"{path}: expected lines 'v block' for v = 0..{n - 1}")
    return rows[:, 1]


def laplacian(n: int, edges: np.ndarray) -> np.ndarray:
    L = np.zeros((n, n))
    u, v = edges[:, 0], edges[:, 1]
    np.add.at(L, (u, v), -1.0)
    np.add.at(L, (v, u), -1.0)
    L[np.diag_indices(n)] = -L.sum(axis=1)
    return L


# -- closed forms ------------------------------------------------------------------------


def graphon_b(mu: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block degrees d_i = sum_j W_ij mu_j and b_i = sum_j W_ij mu_j / d_j."""
    d = W @ mu
    return d, (W * (mu / d)[None, :]).sum(axis=1)


def root_degree_law(mu: np.ndarray, W: np.ndarray, k: int) -> float:
    """P(root degree = k) = sum_i mu_i e^{-b_i} b_i^{k-1} / (k-1)!."""
    _d, b = graphon_b(mu, W)
    return float(sum(m * math.exp(-bi) * bi ** (k - 1) / math.factorial(k - 1) for m, bi in zip(mu, b)))


def z_gap(p: float, n: int, design_effect: float = 1.0) -> float:
    """Allowed gap of a frequency over n trials from p: Z sd, plus Z counts.

    The counts cover rare outcomes, whose Poisson tail the normal bound
    misses.  `design_effect` scales the binomial variance for correlated trials.
    """
    p = min(max(p, 0.0), 1.0)
    return Z * math.sqrt(design_effect * p * (1.0 - p) / n) + Z / n


# -- checks shared by the workloads that sample a graph -----------------------------------


def check_sampled_graph(checks: Checks, op: str, graph: str, gen_stdout: str, W: np.ndarray, n_expected: int):
    """Handshake, gen's summary, and edges per block pair within a binomial bound of W."""
    n, m, edges = parse_edge_list(graph)
    summary = json.loads(gen_stdout)
    checks.check(op, "vertex count", n == n_expected and summary["n"] == n, (n, summary["n"]))
    u, v = edges[:, 0], edges[:, 1]
    simple = bool((u < v).all() and (v < n).all() and (u >= 0).all())
    simple = simple and len(np.unique(u * n + v)) == m
    checks.check(op, "simple graph", simple)
    # handshake: the degrees of the written file add up to twice the edges gen reported
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    checks.check(op, "handshake", int(deg.sum()) == 2 * summary["edges"], (int(deg.sum()), summary["edges"]))
    labels = parse_labels(graph + ".labels", n)
    k = W.shape[0]
    sizes = np.bincount(labels, minlength=k)
    for i in range(k):
        for j in range(i, k):
            pairs = sizes[i] * (sizes[i] - 1) // 2 if i == j else sizes[i] * sizes[j]
            got = int((((labels[u] == i) & (labels[v] == j)) | ((labels[u] == j) & (labels[v] == i))).sum())
            mean = pairs * W[i, j]
            sd = math.sqrt(pairs * W[i, j] * (1.0 - W[i, j]))
            checks.check(op, f"edges in blocks {i},{j}", abs(got - mean) <= Z * sd + 1, (got, round(mean, 1)))
    return n, edges, labels, deg
