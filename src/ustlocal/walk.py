"""Random-walk and spectral diagnostics.

The lazy walk has transition p(x,y) = e({x},{y}) / (2 deg(x)) off-diagonal and
p(x,x) = 1/2, stationary law pi(x) = deg(x) / 2|E|.  Its spectrum lies in
[0, 1] and obeys the Cheeger sandwich Phi^2/2 <= 1 - lambda_2 <= 2 Phi.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import GraphDisconnected, InvalidVertices, ParameterOutOfRange, is_integer
from .multigraph import MultiGraph, subset_cuts
from .rng import sample_count, stream

EXACT_CHEEGER_LIMIT = 18
# lockstep walk steps between two compactions of the walker array
_COMPACT_EVERY = 8


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


# the lazy matrix M and deg^-1/2, as `_lazy_walk_matrix` returns them
_Lazy = tuple[np.ndarray, np.ndarray]


def _lazy_walk_matrix(G: MultiGraph) -> _Lazy:
    """The lazy chain symmetrized as D^1/2 P D^-1/2, and deg^-1/2.

    M = N / 2 with 1/2 added on the diagonal, built in place; halving is
    exact, so this equals 0.5 * (I + N) bit for bit.
    """
    deg = G.degrees.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    M = G.adjacency_matrix() * inv_sqrt[:, None] * inv_sqrt[None, :]
    M *= 0.5
    M.flat[:: G.n + 1] += 0.5
    return M, inv_sqrt


def _lazy_lambda2(G: MultiGraph, lazy: _Lazy | None = None) -> float:
    """lambda_2 of the lazy chain, from all n eigenvalues; `lazy` as in `_fiedler_vector`."""
    import scipy.linalg

    M, _inv_sqrt = _lazy_walk_matrix(G) if lazy is None else lazy
    return float(scipy.linalg.eigvalsh(M)[-2])


_SIGN_TIE = 1e-9  # relative gap below which two Fiedler magnitudes tie for the sign


def _fiedler_vector(G: MultiGraph, lazy: _Lazy | None = None) -> np.ndarray:
    """Eigenvector for lambda_2 of the lazy chain, in walk coordinates.

    Only the top two eigenpairs of the symmetrized matrix are computed, and
    the lambda_2 vector is the first of them.  Its sign makes the smallest
    vertex of largest magnitude positive, where magnitudes within a relative
    `_SIGN_TIE` of the largest count as largest, so that a tie between
    opposite signs (the two ends of a path) is not decided by rounding.
    `lazy` is `_lazy_walk_matrix(G)` when the caller already holds it.
    """
    import scipy.linalg

    M, inv_sqrt = _lazy_walk_matrix(G) if lazy is None else lazy
    n = G.n
    try:
        vecs = scipy.linalg.eigh(M, subset_by_index=[n - 2, n - 1])[1]
    except np.linalg.LinAlgError:
        vecs = np.empty((n, 0))
    if vecs.shape[1] < 2:
        # on a highly degenerate spectrum (K30, K200) LAPACK dsyevr over an
        # index range can find no pairs and still report success, or fail;
        # the full eigh of the same matrix stands in
        vecs = scipy.linalg.eigh(M)[1][:, -2:]
    y = vecs[:, 0] * inv_sqrt
    mag = np.abs(y)
    pivot = int(np.argmax(mag >= (1.0 - _SIGN_TIE) * mag.max()))
    if y[pivot] < 0:
        y = -y
    return y


def exact_cheeger(G: MultiGraph) -> float:
    """Phi_* = min_{pi(S) <= 1/2} e(S, V\\S) / (2 vol(S)), from `subset_cuts`.

    A set and its complement have one cut, so the sets without vertex n-1
    cover every split, each scored by its side of smaller volume.  Refuses
    above EXACT_EXPANDER_LIMIT vertices.
    """
    _size, vol, cut = subset_cuts(G)
    side = np.minimum(vol, float(G.degrees.sum()) - vol)
    has_side = side > 0
    return float((cut[has_side] / (2.0 * side[has_side])).min(initial=np.inf))


def sweep_cuts(G: MultiGraph, lazy: _Lazy | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Fiedler order of G and the cut of each of its proper prefixes.

    cuts[k] = e(S, V\\S) for S = order[:k + 1], k = 0..n-2, counted with
    multiplicity.  An edge becomes internal to the prefix at the later of
    its endpoints' ranks, so every cut follows from one cumulative sum.
    `lazy` is passed on to `_fiedler_vector`.
    """
    n = G.n
    order = np.argsort(-_fiedler_vector(G, lazy), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    joined = np.bincount(np.maximum(rank[G.u], rank[G.v]), weights=G.mult, minlength=n)
    internal = np.cumsum(joined.astype(np.int64))
    cuts = np.cumsum(G.degrees[order]) - 2 * internal
    return order, cuts[: n - 1]


def sweep_cut_cheeger(G: MultiGraph, lazy: _Lazy | None = None) -> float:
    """Upper bound on Phi_* from prefixes of the Fiedler order."""
    order, cuts = sweep_cuts(G, lazy)
    deg = G.degrees
    vol = np.cumsum(deg[order])[: G.n - 1]
    side_vol = np.minimum(vol, int(deg.sum()) - vol)
    has_side = side_vol > 0
    if not has_side.any():
        return float("inf")
    return float((cuts[has_side] / (2.0 * side_vol[has_side])).min())


def spectral_profile(G: MultiGraph) -> WalkProfile:
    """Cheeger constant (exact below the limit, else sweep upper bound) and lazy gap.

    lambda_2 comes from the full `eigvalsh`, and the sweep reads the same
    lazy matrix.
    """
    if G.n < 2:
        raise InvalidVertices(f"walk diagnostics need at least 2 vertices, graph has {G.n}")
    if not G.is_connected():
        raise GraphDisconnected("walk diagnostics need a connected graph")
    lazy = _lazy_walk_matrix(G)
    lam2 = _lazy_lambda2(G, lazy)
    if G.n <= EXACT_CHEEGER_LIMIT:
        phi, exact = exact_cheeger(G), True
    else:
        phi, exact = sweep_cut_cheeger(G, lazy), False
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
        if not is_integer(x):
            raise InvalidVertices(f"vertex {x!r} is not an integer")
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

    All walkers advance in lockstep through `MultiGraph.step_table`: a
    walker at x moves to nb[base[x] + floor(U deg(x))] with U uniform on
    [0, 1), that is to y with probability mult(x, y) / deg(x) up to
    deg(x) 2^-53, since U takes multiples of 2^-53.  Every walker first
    steps away from w, so w = u counts returns to u.  From then on u and v
    are absorbing: their rows are overridden by a one-entry row that holds
    the vertex itself, so a walker there stays put.  Every
    `_COMPACT_EVERY` steps the absorbed walkers are counted and leave the
    array.
    """
    _check_hitting_args(G, w, u, v)
    samples = sample_count(samples)
    rng = stream(seed)
    nb, base, deg = G.step_table()
    start, width = base.copy(), deg.astype(np.float64)
    for x in (u, v):
        # x appears in the (sorted) row of its first neighbour y
        y = nb[base[x]]
        start[x] = base[y] + np.searchsorted(nb[base[y] : base[y] + deg[y]], x)
        width[x] = 1.0
    cur = nb[base[w] + (rng.random(samples) * deg[w]).astype(np.int64)]
    success = 0
    while True:
        hit_v = cur == v
        success += int(hit_v.sum())
        cur = cur[~(hit_v | (cur == u))]
        if not cur.size:
            break
        for _ in range(_COMPACT_EVERY):
            cur = nb[start[cur] + (rng.random(cur.size) * width[cur]).astype(np.int64)]
    p = success / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr
