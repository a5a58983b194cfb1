"""Reference tree count and grounded minor that only the tests use.

The earlier, plainer forms of `ustlocal.electric`: the dense Laplacian
diag(deg) - A with a row and column deleted, and log t(G) as the `slogdet`
(LU) of its minor at vertex 0.
"""
import numpy as np

from ustlocal.errors import GraphDisconnected, InvalidVertices, NumericError


def dense_grounded_minor(G, ground):
    """diag(deg) - A without row and column `ground`."""
    L = np.diag(G.degrees.astype(np.float64)) - G.adjacency_matrix()
    keep = [v for v in range(G.n) if v != ground]
    return L[np.ix_(keep, keep)]


def slogdet_log_spanning_tree_count(G):
    """log t(G) via the LU log-determinant of the Laplacian minor at vertex 0."""
    if G.n == 0:
        raise InvalidVertices("a graph with no vertices has no spanning tree")
    if not G.is_connected():
        raise GraphDisconnected("spanning trees exist only in connected graphs")
    if G.n <= 1:
        return 0.0
    sign, logdet = np.linalg.slogdet(dense_grounded_minor(G, 0))
    if sign <= 0:
        raise NumericError(f"nonpositive minor determinant (sign {sign})")
    return float(logdet)
