"""Step-function graphons: block degrees, b-functional, cut norm, sampling.

A step graphon is a symmetric k x k kernel W with block measures mu.  The
block degree is d_i = sum_j W_ij mu_j and b_i = sum_j (W_ij / d_j) mu_j; for
every nondegenerate kernel the average sum_i mu_i b_i is exactly 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricKernel,
    ConfigParse,
    DegenerateGraphon,
    EntryOutOfRange,
    MeasuresDontSumToOne,
    TooManyBlocks,
    VertexOutOfRange,
    malformed_json,
)
from .multigraph import MultiGraph
from .rng import stream

CUT_NORM_BLOCK_LIMIT = 15


@dataclass(eq=False)
class StepGraphon:
    mu: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.W = np.asarray(self.W, dtype=np.float64)
        k = self.mu.shape[0]
        if self.W.shape != (k, k):
            raise AsymmetricKernel(f"kernel shape {self.W.shape} does not match {k} blocks")
        if abs(float(self.mu.sum()) - 1.0) > 1e-12 or (self.mu <= 0).any():
            raise MeasuresDontSumToOne("block measures must be positive and sum to 1")
        if not np.allclose(self.W, self.W.T, atol=1e-12, rtol=0.0):
            raise AsymmetricKernel("kernel must be symmetric")
        if (self.W < -1e-15).any() or (self.W > 1.0 + 1e-15).any():
            raise EntryOutOfRange("kernel entries must lie in [0, 1]")

    @property
    def k(self) -> int:
        return len(self.mu)

    @property
    def block_degrees(self) -> np.ndarray:
        """d_i = sum_j W_ij mu_j."""
        return self.W @ self.mu

    @property
    def nondegenerate(self) -> bool:
        return bool(self.block_degrees.min() > 0.0)

    @property
    def block_b(self) -> np.ndarray:
        """b_i = sum_j (W_ij / d_j) mu_j; needs nondegeneracy."""
        d = self.block_degrees
        if d.min() <= 0.0:
            raise DegenerateGraphon("b undefined: some block has zero degree")
        return (self.W / d[None, :]) @ self.mu

    def require_nondegenerate(self) -> None:
        if not self.nondegenerate:
            raise DegenerateGraphon("graphon has an (almost-everywhere) zero-degree block")

    def to_json(self) -> str:
        return json.dumps({"mu": self.mu.tolist(), "W": self.W.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "StepGraphon":
        with malformed_json("graphon"):
            data = json.loads(text)
            mu = np.array(data["mu"], dtype=np.float64)
            W = np.array(data["W"], dtype=np.float64)
        if mu.ndim != 1:
            raise ConfigParse("graphon 'mu' must be a list of block measures")
        return cls(mu, W)


def constant_graphon(p: float) -> StepGraphon:
    return StepGraphon(np.array([1.0]), np.array([[float(p)]]))


@dataclass
class ValidationReport:
    nondegenerate: bool
    d: np.ndarray
    b: np.ndarray | None
    avg_b: float | None


def validate(g: StepGraphon) -> ValidationReport:
    """Degrees, b-values, and the E[b_W] = 1 identity check."""
    d = g.block_degrees
    if not g.nondegenerate:
        return ValidationReport(False, d, None, None)
    b = g.block_b
    return ValidationReport(True, d, b, float(np.dot(g.mu, b)))


def cut_norm_step(U: np.ndarray, mu: np.ndarray, block_limit: int = CUT_NORM_BLOCK_LIMIT) -> float:
    """Exact cut norm of a signed symmetric step function.

    The bilinear objective over the box [0,1]^k x [0,1]^k attains its optimum
    at a vertex, so enumerating block indicator sets S is exact; for each S
    the optimal T collects the positive (or negative) column sums.
    """
    U = np.asarray(U, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    k = len(mu)
    if U.shape != (k, k):
        raise AsymmetricKernel(f"shape {U.shape} does not match {k} blocks")
    if not np.allclose(U, U.T, atol=1e-12, rtol=0.0):
        raise AsymmetricKernel("step function must be symmetric")
    if (np.abs(U) > 1.0 + 1e-15).any():
        raise EntryOutOfRange("entries must lie in [-1, 1]")
    if k > block_limit:
        raise TooManyBlocks(f"{k} blocks > limit {block_limit}")
    M = mu[:, None] * mu[None, :] * U
    best = 0.0
    members = np.array([1 << i for i in range(k)], dtype=np.int64)
    for s in range(1, 1 << k):
        rows = (s & members) != 0
        col = M[rows].sum(axis=0)
        pos = float(col[col > 0].sum())
        neg = float(-col[col < 0].sum())
        best = max(best, pos, neg)
    return best


def sample_w_random_graph(g: StepGraphon, n: int, seed: int) -> tuple[MultiGraph, np.ndarray]:
    """W-random simple graph: iid block labels, independent edges W[type u][type v]."""
    if int(n) < 0:
        raise VertexOutOfRange(f"negative vertex count {n}")
    rng = stream(seed)
    cum = np.cumsum(g.mu)
    labels = np.searchsorted(cum, rng.random(n), side="right")
    labels = np.minimum(labels, g.k - 1).astype(np.int64)
    iu, ju = np.triu_indices(n, k=1)
    probs = g.W[labels[iu], labels[ju]]
    keep = rng.random(len(iu)) < probs
    return MultiGraph.from_arrays(n, iu[keep], ju[keep]), labels


@dataclass
class DegreeProfileReport:
    max_discrepancy: float
    graph_hist: np.ndarray
    graphon_hist: np.ndarray
    bin_edges: np.ndarray


def degree_profile_compare(G: MultiGraph, g: StepGraphon, bins: int = 20) -> DegreeProfileReport:
    """Histogram deg(v)/n against the graphon's degree point masses (a diagnostic)."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    scaled = G.degrees / max(G.n, 1)
    graph_hist, _ = np.histogram(np.clip(scaled, 0.0, 1.0), bins=edges)
    graph_hist = graph_hist / max(G.n, 1)
    graphon_hist = np.zeros(bins)
    d = g.block_degrees
    for i in range(g.k):
        b = min(int(d[i] * bins), bins - 1)
        graphon_hist[b] += g.mu[i]
    return DegreeProfileReport(
        max_discrepancy=float(np.abs(graph_hist - graphon_hist).max()),
        graph_hist=graph_hist,
        graphon_hist=graphon_hist,
        bin_edges=edges,
    )


def load_graphon(path) -> StepGraphon:
    with open(path, "r", encoding="ascii") as fh:
        return StepGraphon.from_json(fh.read())


def save_graphon(g: StepGraphon, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(g.to_json())
