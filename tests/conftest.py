"""Shared generators for seeded random test instances."""
import numpy as np
import pytest

from ustlocal.multigraph import MultiGraph


def random_connected_graph(rng, n, p=0.5, max_mult=1):
    """Random graph conditioned on connectivity (resample until connected)."""
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    m = 1 if max_mult == 1 else int(rng.integers(1, max_mult + 1))
                    edges.append((u, v, m))
        G = MultiGraph.build(n, edges)
        if G.is_connected():
            return G


def random_connected_min_degree(rng, n, p, min_degree):
    while True:
        G = random_connected_graph(rng, n, p)
        if int(G.degrees.min()) >= min_degree:
            return G


def two_cliques_matching(m):
    """Two copies of K_m joined by the perfect matching i -- m + i."""
    edges = []
    for base in (0, m):
        edges += [(base + i, base + j, 1) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + i, 1) for i in range(m)]
    return MultiGraph.build(2 * m, edges)


def without_copies(G, pairs):
    """G less one parallel copy of each listed (u, v), which must be an edge of G."""
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    mult = G.mult.copy()
    np.subtract.at(mult, np.searchsorted(G.u * G.n + G.v, np.minimum(a, b) * G.n + np.maximum(a, b)), 1)
    assert (G.multiplicities(a, b) > 0).all() and (mult >= 0).all()
    keep = mult > 0
    return MultiGraph.from_arrays(G.n, G.u[keep], G.v[keep], mult[keep])


def gnp(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return MultiGraph.build(n, [(int(u), int(v), 1) for u, v in zip(iu[keep], ju[keep])])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
