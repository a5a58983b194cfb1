"""Reference spanning-tree operations that only the tests use.

`wilson_sample` and `aldous_broder_sample` are the library's earlier
samplers: one `_step` call and one buffered uniform per walk step, and the
tree built from its (u, v, copy) edge list.  The library samplers must
return the same trees, copies included.

The earlier form of `ustlocal.ust.conditional_sample`, which built its own
quotient graph, and `enumerate_spanning_trees`, the exhaustive
deletion-contraction enumerator, which the library no longer carries: the
Kirchhoff, uniformity and tree-count tests read their exact tree sets from
it.  They carry their own union-finds and walk with the Wilson sampler
above, so that they share no graph code with the library beyond
`MultiGraph` and `SpanningTree` themselves.
"""
import math

import numpy as np

from ustlocal.electric import log_spanning_tree_count
from ustlocal.errors import (
    ConditioningDisconnects,
    GraphDisconnected,
    IncludeHasCycle,
    TooManyTrees,
    VertexOutOfRange,
)
from ustlocal.multigraph import MultiGraph, _edge_multiset
from ustlocal.rng import stream
from ustlocal.ust import SpanningTree


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


def _forest_prefix(n, pairs):
    """Join the pairs in order while they form a forest; stop at the first cycle.

    Returns each vertex's root (its tree's smallest vertex) and the number
    of pairs joined.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    joined = 0
    for (u, v) in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            break
        parent[max(ru, rv)] = min(ru, rv)
        joined += 1
    return [find(x) for x in range(n)], joined


def conditional_sample(G, include, exclude, seed):
    """UST of G given include present and exclude absent, on a hand-built quotient."""
    inc_u, inc_v, _counts = _edge_multiset(include)
    include_pairs = list(zip(inc_u.tolist(), inc_v.tolist()))
    absent = np.flatnonzero(G.multiplicities(inc_u, inc_v) == 0)
    first_absent = int(absent[0]) if len(absent) else len(include_pairs)
    roots, joined = _forest_prefix(G.n, include_pairs[:first_absent])
    if joined < first_absent:
        u, v = include_pairs[joined]
        raise IncludeHasCycle(f"include set closes a cycle at ({u},{v})")
    if len(absent):
        u, v = include_pairs[first_absent]
        raise ConditioningDisconnects(f"include edge ({u},{v}) not in graph")
    tree_roots, vmap = np.unique(np.array(roots, dtype=np.int64), return_inverse=True)

    try:
        stripped = G.delete(exclude)
    except Exception as exc:  # noqa: BLE001 - surface as a conditioning failure
        raise ConditioningDisconnects(str(exc)) from exc
    gone = np.flatnonzero(stripped.multiplicities(inc_u, inc_v) == 0)
    if len(gone):
        u, v = include_pairs[int(gone[0])]
        raise ConditioningDisconnects(f"every copy of include edge ({u},{v}) is excluded")

    qu, qv = vmap[stripped.u], vmap[stripped.v]
    cross = np.flatnonzero(qu != qv)
    qa, qb = np.minimum(qu[cross], qv[cross]), np.maximum(qu[cross], qv[cross])
    quotient = MultiGraph.from_arrays(len(tree_roots), qa, qb, stripped.mult[cross])
    if not quotient.is_connected():
        raise ConditioningDisconnects("conditioning leaves no spanning tree")
    lift = {}
    host = (stripped.u[cross], stripped.v[cross], stripped.mult[cross])
    for a, b, u, v, m in zip(qa.tolist(), qb.tolist(), *(arr.tolist() for arr in host)):
        lift.setdefault((a, b), []).append((u, v, m))

    qtree = wilson_sample(quotient, seed)
    edges = [(u, v, 0) for (u, v) in include_pairs]
    for (a, b, c) in qtree.edges:
        offset = c
        for (u, v, m) in lift[(a, b)]:
            if offset < m:
                edges.append((u, v, offset))
                break
            offset -= m
    return SpanningTree(G.n, edges)


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
