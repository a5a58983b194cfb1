"""Reference spanning-tree operations that only the tests use.

`wilson_sample` is the library's earlier sampler: one `_step` call and one
buffered uniform per walk step, and the tree built from its (u, v, copy)
edge list.  The library sampler must return the same trees, copies
included.  `aldous_broder_sample`, the first-entrance walk on the same
steps, is the independent sampler that the uniformity tests also check.

`enumerate_spanning_trees` is the exhaustive deletion-contraction
enumerator, which the library no longer carries: the Kirchhoff, uniformity
and tree-count tests read their exact tree sets from it.  It carries its
own union-find, so that it shares no graph code with the library beyond
`MultiGraph`, `SpanningTree` and the log tree count of its budget check,
and refuses graphs past its budget with its own `TooManyTrees`.
"""
import math

import numpy as np

from ustlocal.electric import log_spanning_tree_count
from ustlocal.errors import BudgetError, GraphDisconnected, VertexOutOfRange
from ustlocal.rng import stream
from ustlocal.ust import SpanningTree


class TooManyTrees(BudgetError):
    """More spanning trees than `enumerate_spanning_trees` will list."""


class _Uniforms:
    """Scalar uniforms from blocks of 256, doubling on refill up to 16384."""

    def __init__(self, gen, size=256, cap=16384):
        self._gen = gen
        self._size = size
        self._cap = cap
        self._buf = gen.random(size)
        self._pos = 0

    def __call__(self):
        if self._pos == self._size:
            self._size = min(2 * self._size, self._cap)
            self._buf = self._gen.random(self._size)
            self._pos = 0
        self._pos += 1
        return self._buf[self._pos - 1]


def _step(x, unif, nb, base, deg):
    """One walk step from x; u deg(x) rounding up to deg(x) takes the last copy."""
    d = deg[x]
    k = int(unif() * d)
    return int(nb[base[x] + (k if k < d else d - 1)])


def _assign_copies(G, pairs, rng):
    """Pick which parallel copy realizes each tree edge, uniformly at random."""
    if G.is_simple:
        return [(u, v, 0) for (u, v) in pairs]
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    mult = G.multiplicities(ends[:, 0], ends[:, 1]).tolist()
    return [(u, v, int(rng.integers(0, m)) if m > 1 else 0) for (u, v), m in zip(pairs, mult)]


def _walk_setup(G, root):
    if not (0 <= root < G.n):
        raise VertexOutOfRange(f"root {root} outside 0..{G.n - 1}")
    if not G.is_connected():
        raise GraphDisconnected("no spanning tree in a disconnected graph")
    nb, base, deg = G.step_table()
    return nb, base.tolist(), deg.tolist()


def wilson_sample(G, seed, root=0):
    """Wilson's loop-erased walks, one `_step` call per step."""
    nb, base, deg = _walk_setup(G, root)
    if G.n == 1:
        return SpanningTree(1, [])
    rng = stream(seed)
    unif = _Uniforms(rng)
    in_tree = [False] * G.n
    nxt = [-1] * G.n
    in_tree[root] = True
    for start in range(G.n):
        u = start
        while not in_tree[u]:
            nxt[u] = _step(u, unif, nb, base, deg)
            u = nxt[u]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = nxt[u]
    pairs = [(v, nxt[v]) for v in range(G.n) if v != root]
    return SpanningTree(G.n, _assign_copies(G, pairs, rng))


def aldous_broder_sample(G, seed, root=0):
    """First-entrance walk, one `_step` call per step."""
    nb, base, deg = _walk_setup(G, root)
    if G.n == 1:
        return SpanningTree(1, [])
    rng = stream(seed)
    unif = _Uniforms(rng)
    visited = [False] * G.n
    visited[root] = True
    remaining = G.n - 1
    pairs = []
    cur = root
    while remaining:
        nxt = _step(cur, unif, nb, base, deg)
        if not visited[nxt]:
            visited[nxt] = True
            remaining -= 1
            pairs.append((nxt, cur))
        cur = nxt
    return SpanningTree(G.n, _assign_copies(G, pairs, rng))


def enumerate_spanning_trees(G, max_trees=10**6):
    """All spanning trees by deletion-contraction, with a dict union-find per delete."""
    if not G.is_connected():
        raise GraphDisconnected("no spanning tree in a disconnected graph")
    if G.n > 12:
        raise TooManyTrees(f"{G.n} vertices > enumeration limit 12")
    log_t = log_spanning_tree_count(G)
    if log_t > math.log(max_trees) + 1e-9:
        raise TooManyTrees(f"about exp({log_t:.1f}) trees > cap {max_trees}")

    base_edges = [(u, v, (u, v, c)) for (u, v, m) in G.edges() for c in range(m)]
    trees = []

    def connected(edges, labels_alive):
        parent = {x: x for x in labels_alive}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        comps = len(parent)
        for (a, b, _eid) in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps == 1

    def rec(labels_alive, edges, chosen):
        if len(labels_alive) == 1:
            trees.append(SpanningTree(G.n, list(chosen)))
            return
        a0, b0, eid0 = edges[0]
        rest = edges[1:]
        merged = []
        for (a, b, eid) in rest:
            na = a0 if a == b0 else a
            nb = a0 if b == b0 else b
            if na != nb:
                merged.append((na, nb, eid))
        rec(labels_alive - {b0}, merged, chosen + [eid0])
        if connected(rest, labels_alive):
            rec(labels_alive, rest, chosen)

    rec(frozenset(range(G.n)), base_edges, [])
    return trees
