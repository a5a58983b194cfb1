"""Random-walk and spectral diagnostics.

The lazy walk has transition p(x,y) = e({x},{y}) / (2 deg(x)) off-diagonal and
p(x,x) = 1/2, stationary law pi(x) = deg(x) / 2|E|.  Its spectrum lies in
[0, 1] and obeys the Cheeger sandwich Phi^2/2 <= 1 - lambda_2 <= 2 Phi.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
import scipy.linalg

from .errors import GraphDisconnected, InvalidVertices, ParameterOutOfRange
from .multigraph import MultiGraph
from .rng import stream

EXACT_CHEEGER_LIMIT = 18


@dataclass
class WalkProfile:
    cheeger: float
    cheeger_exact: bool  # exact minimum vs sweep-cut upper bound
    lambda2: float
    gap: float
    min_stationary: float

    def mixing_bound(self, eps: float) -> float:
        """Relaxation-time bound on T_mix(eps); universal constant taken as 1."""
        if not (0 < eps < 0.5):
            raise ParameterOutOfRange("eps must lie in (0, 1/2)")
        return (0.5 * math.log(1.0 / self.min_stationary) + math.log(1.0 / (2 * eps))) / self.gap


def _lazy_lambda2(G: MultiGraph) -> float:
    deg = G.degrees.astype(np.float64)
    A = G.adjacency_matrix()
    inv_sqrt = 1.0 / np.sqrt(deg)
    N = A * inv_sqrt[:, None] * inv_sqrt[None, :]
    M = 0.5 * (np.eye(G.n) + N)
    vals = scipy.linalg.eigvalsh(M)
    return float(vals[-2])


def _fiedler_vector(G: MultiGraph) -> np.ndarray:
    """Eigenvector for lambda_2 of the lazy chain, in walk coordinates."""
    deg = G.degrees.astype(np.float64)
    A = G.adjacency_matrix()
    inv_sqrt = 1.0 / np.sqrt(deg)
    N = A * inv_sqrt[:, None] * inv_sqrt[None, :]
    M = 0.5 * (np.eye(G.n) + N)
    vals, vecs = scipy.linalg.eigh(M)
    y = vecs[:, -2] * inv_sqrt
    # canonical sign: entry of largest magnitude is positive
    pivot = int(np.argmax(np.abs(y)))
    if y[pivot] < 0:
        y = -y
    return y


def exact_cheeger(G: MultiGraph) -> float:
    """Phi_* = min_{pi(S) <= 1/2} e(S, V\\S) / (2 vol(S)), by Gray-code enumeration."""
    n = G.n
    nbrs, mults = G.adjacency_lists()
    deg = G.degrees
    total_vol = int(deg.sum())
    in_s = np.zeros(n, dtype=bool)
    cut = 0
    vol = 0
    best = float("inf")
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        into_s = int(mults[v][in_s[nbrs[v]]].sum()) if len(nbrs[v]) else 0
        if in_s[v]:
            in_s[v] = False
            cut -= deg[v] - 2 * into_s
            vol -= deg[v]
        else:
            in_s[v] = True
            cut += deg[v] - 2 * into_s
            vol += deg[v]
        if 0 < vol and 2 * vol <= total_vol:
            ratio = cut / (2.0 * vol)
            if ratio < best:
                best = ratio
    return float(best)


def sweep_cuts(G: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """The Fiedler order of G and the cut of each of its proper prefixes.

    cuts[k] = e(S, V\\S) for S = order[:k + 1], k = 0..n-2, counted with
    multiplicity.  An edge becomes internal to the prefix at the later of
    its endpoints' ranks, so every cut follows from one cumulative sum.
    """
    n = G.n
    order = np.argsort(-_fiedler_vector(G), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    joined = np.bincount(np.maximum(rank[G.u], rank[G.v]), weights=G.mult, minlength=n)
    internal = np.cumsum(joined.astype(np.int64))
    cuts = np.cumsum(G.degrees[order]) - 2 * internal
    return order, cuts[: n - 1]


def sweep_cut_cheeger(G: MultiGraph) -> float:
    """Upper bound on Phi_* from prefixes of the Fiedler order."""
    order, cuts = sweep_cuts(G)
    deg = G.degrees
    vol = np.cumsum(deg[order])[: G.n - 1]
    side_vol = np.minimum(vol, int(deg.sum()) - vol)
    has_side = side_vol > 0
    if not has_side.any():
        return float("inf")
    return float((cuts[has_side] / (2.0 * side_vol[has_side])).min())


def spectral_profile(G: MultiGraph, exact_cheeger_limit: int = EXACT_CHEEGER_LIMIT) -> WalkProfile:
    """Cheeger constant (exact below the limit, else sweep upper bound) and lazy gap."""
    if G.n < 2:
        raise InvalidVertices(f"walk diagnostics need at least 2 vertices, graph has {G.n}")
    if not G.is_connected():
        raise GraphDisconnected("walk diagnostics need a connected graph")
    lam2 = _lazy_lambda2(G)
    if G.n <= exact_cheeger_limit:
        phi, exact = exact_cheeger(G), True
    else:
        phi, exact = sweep_cut_cheeger(G), False
    deg = G.degrees.astype(np.float64)
    min_pi = float(deg.min() / deg.sum())
    return WalkProfile(
        cheeger=phi,
        cheeger_exact=exact,
        lambda2=lam2,
        gap=1.0 - lam2,
        min_stationary=min_pi,
    )


def _check_hitting_args(G: MultiGraph, w: int, u: int, v: int) -> None:
    for x in (w, u, v):
        if not (0 <= x < G.n):
            raise InvalidVertices(f"vertex {x} outside 0..{G.n - 1}")
    if u == v:
        raise InvalidVertices("u and v must be distinct")
    if w == v:
        raise InvalidVertices("w must differ from the target v")
    if not G.is_connected():
        raise GraphDisconnected("hitting probabilities need a connected graph")


def hitting_before_return_exact(G: MultiGraph, w: int, u: int, v: int) -> float:
    """P_w[tau_v < tau_u^+] by an absorbing-chain solve.

    Absorb at v (success) and u (failure); when w = u the answer conditions on
    the first step of the walk.
    """
    _check_hitting_args(G, w, u, v)
    deg = G.degrees.astype(np.float64)
    A = G.adjacency_matrix()
    P = A / deg[:, None]
    transient = [x for x in range(G.n) if x not in (u, v)]
    h = np.zeros(G.n)
    h[v] = 1.0
    if transient:
        idx = np.array(transient)
        Q = P[np.ix_(idx, idx)]
        b = P[idx, v]
        h[idx] = np.linalg.solve(np.eye(len(idx)) - Q, b)
    if w == u:
        return float(np.dot(P[u], h))
    return float(h[w])


def hitting_before_return_mc(
    G: MultiGraph, w: int, u: int, v: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of P_w[tau_v < tau_u^+] with binomial standard error.

    All walkers advance in lockstep, one exact draw from the CSR per
    walker-step.  The expanded neighbour array `nb` repeats each neighbour of
    a row once per parallel copy, so it holds sum(deg) entries (the degree
    sum with multiplicity) and row x is the slice base[x] : base[x] + deg(x).
    A walker at x moves to nb[base[x] + U] with U uniform on 0..deg(x) - 1,
    that is to y with probability mult(x, y) / deg(x).  Walkers that reach u
    or v leave the array after the step.
    """
    _check_hitting_args(G, w, u, v)
    if samples < 1:
        raise ParameterOutOfRange("samples must be >= 1")
    rng = stream(seed)
    _indptr, indices, weights = G.csr()
    nb = np.repeat(indices, weights)
    deg = G.degrees
    base = np.cumsum(deg) - deg
    cur = np.full(samples, w, dtype=np.int64)
    success = 0
    while cur.size:
        cur = nb[base[cur] + rng.integers(0, deg[cur])]
        hit_v = cur == v
        success += int(hit_v.sum())
        cur = cur[~(hit_v | (cur == u))]
    p = success / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr
