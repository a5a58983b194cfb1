"""Laplacian-based electrical computations.

Effective resistance via a grounded dense Cholesky solve, Kirchhoff edge
probabilities, and matrix-tree counting in log space (t(K_100) ~ e^451, so
raw determinants would overflow).  Both factor the same grounded Laplacian
minor, written once in place by `_grounded_minor`.  scipy.linalg loads on
first use.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateGraphon,
    EdgeNotInGraph,
    GraphDisconnected,
    InvalidVertices,
    MalformedEdge,
    NotSimple,
    NumericError,
    ParameterOutOfRange,
    SameVertex,
    VertexOutOfRange,
    is_integer,
)
from .multigraph import MultiGraph


# edges scattered per chunk into the grounded minor
_MINOR_EDGES = 1 << 16


def _grounded_minor(G: MultiGraph, ground: int) -> np.ndarray:
    """The Laplacian of G without row and column `ground`, as one (n-1)^2 float64 array.

    -mult is scattered off the diagonal, _MINOR_EDGES edges at a time, and
    the degrees go on it, so the entries equal those of (diag(deg) - A) with
    `ground` deleted.  The array is symmetric and C-ordered; its transpose
    is the Fortran-ordered view LAPACK can overwrite.
    """
    vertex = np.arange(G.n)
    at = vertex - (vertex > ground)  # each vertex's row in the minor
    minor = np.zeros((G.n - 1, G.n - 1))
    for lo in range(0, len(G.u), _MINOR_EDGES):
        u, v = G.u[lo:lo + _MINOR_EDGES], G.v[lo:lo + _MINOR_EDGES]
        inside = (u != ground) & (v != ground)
        a, b = at[u[inside]], at[v[inside]]
        w = -G.mult[lo:lo + _MINOR_EDGES][inside].astype(np.float64)
        minor[a, b] = w
        minor[b, a] = w
    np.fill_diagonal(minor, np.delete(G.degrees, ground))
    return minor


def _factor_grounded(G: MultiGraph, ground: int) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of the grounded minor, in `scipy.linalg.cho_factor` form.

    Needs n >= 2; a factorization that fails raises NumericError.
    """
    import scipy.linalg

    try:
        return scipy.linalg.cho_factor(_grounded_minor(G, ground).T, lower=True, overwrite_a=True,
                                       check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"grounded Laplacian minor is not positive definite ({exc})") from None


class LaplacianSystem:
    """Dense graph Laplacian with a cached Cholesky factor of the grounded matrix.

    Read-only after construction; concurrent solves against one factorization
    are safe.  Requires a connected graph and a ground vertex of it.
    """

    def __init__(self, G: MultiGraph, ground: int = 0):
        if not G.is_connected():
            raise GraphDisconnected("Laplacian system needs a connected graph")
        if G.n and not (is_integer(ground) and 0 <= ground < G.n):
            raise VertexOutOfRange(f"ground {ground!r} is not a vertex in 0..{G.n - 1}")
        self.n = G.n
        self.ground = ground
        self._keep = np.flatnonzero(np.arange(G.n) != ground)
        self._factor = _factor_grounded(G, ground) if G.n > 1 else None

    def solve_grounded(self, b: np.ndarray) -> np.ndarray:
        """Solve L x = b with x[ground] = 0; b must sum to zero."""
        x = np.zeros(self.n)
        if self._factor is not None:
            import scipy.linalg

            x[self._keep] = scipy.linalg.cho_solve(
                self._factor, b[self._keep], check_finite=False
            )
        return x

    def resistance(self, u: int, v: int) -> float:
        if not (is_integer(u) and is_integer(v) and 0 <= u < self.n and 0 <= v < self.n):
            raise VertexOutOfRange(f"vertices ({u!r},{v!r}) are not integers in 0..{self.n - 1}")
        if u == v:
            raise SameVertex(f"u = v = {u}")
        b = np.zeros(self.n)
        b[u] += 1.0
        b[v] -= 1.0
        x = self.solve_grounded(b)
        return float(x[u] - x[v])


def effective_resistance(G: MultiGraph, u: int, v: int) -> float:
    """R_eff(u <-> v); +inf for vertices in different components."""
    if not (is_integer(u) and is_integer(v)):
        raise ParameterOutOfRange(f"vertices ({u!r},{v!r}) are not integers")
    if u == v:
        raise SameVertex(f"u = v = {u}")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ParameterOutOfRange(f"vertices ({u},{v}) outside 0..{G.n - 1}")
    labels = G.component_labels()
    if labels[u] != labels[v]:
        return float("inf")
    if G.is_connected():
        return LaplacianSystem(G, ground=v).resistance(u, v)
    comp = np.flatnonzero(labels == labels[u])
    sub, index = G.induced_subgraph(comp)
    return LaplacianSystem(sub, ground=index[v]).resistance(index[u], index[v])


def edge_ust_probability(G: MultiGraph, e) -> float:
    """P(e in UST) = R_eff across the edge's endpoints (Kirchhoff)."""
    if len(e) < 2 or not (is_integer(e[0]) and is_integer(e[1])):
        raise MalformedEdge(f"edge {tuple(e)!r} does not start with two integer endpoints")
    x, y = int(e[0]), int(e[1])
    if G.multiplicity(x, y) == 0:
        raise EdgeNotInGraph(f"({x},{y})")
    if not G.is_connected():
        raise GraphDisconnected("UST undefined on a disconnected graph")
    return effective_resistance(G, x, y)


def log_spanning_tree_count(G: MultiGraph) -> float:
    """log t(G) = log det of the grounded Laplacian minor, 2 sum log diag of its Cholesky factor."""
    if G.n == 0:
        raise InvalidVertices("a graph with no vertices has no spanning tree")
    if not G.is_connected():
        raise GraphDisconnected("spanning trees exist only in connected graphs")
    if G.n <= 1:
        return 0.0
    factor, _lower = _factor_grounded(G, 0)
    return 2.0 * float(np.log(np.diag(factor)).sum())


def graphon_tree_count_rhs(W) -> float:
    """exp(sum_i mu_i log d_i): the graphon side of the normalized tree count."""
    d = W.block_degrees
    if float(d.min()) <= 0.0:
        raise DegenerateGraphon("graphon has a zero-degree block")
    return math.exp(float(np.dot(W.mu, np.log(d))))


def normalized_tree_count_vs_graphon(G: MultiGraph, W) -> tuple[float, float]:
    """Return (t(G)^{1/n} / n, exp(sum_i mu_i log d_i)); comparison left to caller."""
    log_t = log_spanning_tree_count(G)
    lhs = float(np.exp(log_t / G.n) / G.n)  # the bits `count-trees` prints as "normalized"
    return lhs, graphon_tree_count_rhs(W)


def kostochka_upper_check(G: MultiGraph) -> bool:
    """t(G) <= prod_i d_i / (n - 1), evaluated in log space."""
    if not G.is_simple:
        raise NotSimple("bound stated for simple graphs")
    if not G.is_connected():
        raise GraphDisconnected("bound stated for connected graphs")
    deg = G.degrees
    if int(deg.min()) <= 1:
        raise ParameterOutOfRange("bound needs minimum degree > 1")
    log_t = log_spanning_tree_count(G)
    rhs = float(np.log(deg.astype(np.float64)).sum()) - math.log(G.n - 1)
    return log_t <= rhs + 1e-9
