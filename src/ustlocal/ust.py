"""Exact-uniform spanning tree sampling and an exhaustive enumeration oracle.

Sampling is Wilson's loop-erased-random-walk algorithm rooted at vertex 0
(uniformity is root-independent; fixing the root aids reproducibility).
Parallel copies are distinguishable: a tree edge is (u, v, copy).

Both walk samplers step through `MultiGraph.step_table`, whose row x lists
each neighbour once per parallel copy: a walker at x draws a uniform u and
moves to nb[base[x] + floor(u deg(x))], that is to y with probability
mult(x, y) / deg(x).
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .electric import log_spanning_tree_count
from .errors import (
    ConditioningDisconnects,
    EdgeNotInGraph,
    GraphDisconnected,
    IncludeHasCycle,
    PreconditionError,
    TooManyTrees,
    VertexOutOfRange,
    ZeroMultiplicity,
)
from .multigraph import MultiGraph, _edge_multiset, _normalize_pair, forest_roots
from .rng import UniformBuffer, stream


class SpanningTree:
    """A spanning tree of an n-vertex host graph as a set of (u, v, copy) edges."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        self.n = int(n)
        norm = []
        for (u, v, c) in edges:
            a, b = _normalize_pair(int(u), int(v))
            if a < 0 or b >= self.n:
                raise VertexOutOfRange(f"tree edge ({a},{b}) outside 0..{self.n - 1}")
            norm.append((a, b, int(c)))
        self.edges = tuple(sorted(norm))
        if len(self.edges) != self.n - 1:
            raise PreconditionError(
                f"{len(self.edges)} edges cannot span {self.n} vertices"
            )
        _roots, first_cycle = forest_roots(self.n, ((u, v) for (u, v, _c) in self.edges))
        if first_cycle < len(self.edges):
            raise PreconditionError("edge set contains a cycle")
        self._adj: list[list[int]] | None = None

    def adjacency(self) -> list[list[int]]:
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for (u, v, _c) in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = adj
        return self._adj

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for (u, v, _c) in self.edges]

    def validate_against(self, G: MultiGraph) -> None:
        for (u, v, c) in self.edges:
            assert 0 <= c < G.multiplicity(u, v), f"edge ({u},{v},{c}) absent from host"

    def __eq__(self, other) -> bool:
        return isinstance(other, SpanningTree) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SpanningTree(n={self.n})"


def _step(x: int, unif, nb: np.ndarray, base: list[int], deg: list[int]) -> int:
    """One walk step from x; u deg(x) rounding up to deg(x) takes the last copy."""
    d = deg[x]
    k = int(unif() * d)
    return int(nb[base[x] + (k if k < d else d - 1)])


def _assign_copies(G: MultiGraph, pairs: Sequence[tuple[int, int]], rng) -> list[tuple[int, int, int]]:
    """Pick which parallel copy realizes each tree edge, uniformly at random."""
    if G.is_simple:
        return [(u, v, 0) for (u, v) in pairs]
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    mult = G.multiplicities(ends[:, 0], ends[:, 1]).tolist()
    return [(u, v, int(rng.integers(0, m)) if m > 1 else 0) for (u, v), m in zip(pairs, mult)]


def _check_root(G: MultiGraph, root: int) -> None:
    if not (0 <= root < G.n):
        raise VertexOutOfRange(f"root {root} outside 0..{G.n - 1}")


def wilson_sample(G: MultiGraph, seed: int, root: int = 0) -> SpanningTree:
    """Exact-uniform spanning tree by loop-erased random walks."""
    _check_root(G, root)
    if not G.is_connected():
        raise GraphDisconnected("no spanning tree in a disconnected graph")
    if G.n == 1:
        return SpanningTree(1, [])
    rng = stream(seed)
    unif = UniformBuffer(rng)
    nb, base, deg = G.step_table()
    base, deg = base.tolist(), deg.tolist()
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


def aldous_broder_sample(G: MultiGraph, seed: int, root: int = 0) -> SpanningTree:
    """First-entrance random-walk sampler, kept as an independent cross-check."""
    _check_root(G, root)
    if not G.is_connected():
        raise GraphDisconnected("no spanning tree in a disconnected graph")
    if G.n == 1:
        return SpanningTree(1, [])
    rng = stream(seed)
    unif = UniformBuffer(rng)
    nb, base, deg = G.step_table()
    base, deg = base.tolist(), deg.tolist()
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


def conditional_sample(
    G: MultiGraph,
    include: Iterable[Sequence[int]],
    exclude: Iterable[Sequence[int]],
    seed: int,
) -> SpanningTree:
    """UST of G conditioned on include being present and exclude absent.

    Realized through the spatial Markov property: delete the exclude set,
    contract the include set, sample, and lift edges back through the
    contraction.  Exclude entries follow delete() semantics: (u, v) removes
    one parallel copy, (u, v, m) removes m.  An exclude set that names an
    absent edge or a count below 1 raises ConditioningDisconnects; a
    malformed entry raises MalformedEdge.
    """
    inc_u, inc_v, _counts = _edge_multiset(include)
    include_pairs = list(zip(inc_u.tolist(), inc_v.tolist()))
    # pairs are checked in order: the first absent or cycle-closing one raises
    absent = np.flatnonzero(G.multiplicities(inc_u, inc_v) == 0)
    first_absent = int(absent[0]) if len(absent) else len(include_pairs)
    _roots, first_cycle = forest_roots(G.n, include_pairs[:first_absent])
    if first_cycle < first_absent:
        u, v = include_pairs[first_cycle]
        raise IncludeHasCycle(f"include set closes a cycle at ({u},{v})")
    if len(absent):
        u, v = include_pairs[first_absent]
        raise ConditioningDisconnects(f"include edge ({u},{v}) not in graph")

    try:
        stripped = G.delete(exclude)
    except (EdgeNotInGraph, ZeroMultiplicity) as exc:
        raise ConditioningDisconnects(str(exc)) from exc
    try:
        quotient, vmap = stripped.contract(include_pairs)
        qtree = wilson_sample(quotient, seed)
    except EdgeNotInGraph as exc:
        raise ConditioningDisconnects(f"every copy of an include edge is excluded: {exc}") from exc
    except GraphDisconnected as exc:
        raise ConditioningDisconnects("conditioning leaves no spanning tree") from exc

    # the host pairs over one quotient pair, in host order, lift a quotient
    # edge copy back to a host edge copy
    qu, qv = vmap[stripped.u], vmap[stripped.v]
    cross = np.flatnonzero(qu != qv)
    qa, qb = np.minimum(qu[cross], qv[cross]), np.maximum(qu[cross], qv[cross])
    lift: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    host = (stripped.u[cross], stripped.v[cross], stripped.mult[cross])
    for a, b, u, v, m in zip(qa.tolist(), qb.tolist(), *(arr.tolist() for arr in host)):
        lift.setdefault((a, b), []).append((u, v, m))
    edges: list[tuple[int, int, int]] = [(u, v, 0) for (u, v) in include_pairs]
    for (a, b, c) in qtree.edges:
        offset = c
        for (u, v, m) in lift[(a, b)]:
            if offset < m:
                edges.append((u, v, offset))
                break
            offset -= m
    return SpanningTree(G.n, edges)


def enumerate_spanning_trees(G: MultiGraph, max_trees: int = 10**6) -> list[SpanningTree]:
    """All spanning trees, each parallel-edge choice counted separately.

    Deletion-contraction recursion: the first edge copy either belongs to the
    tree (contract) or not (delete), so every tree is produced exactly once.
    """
    if not G.is_connected():
        raise GraphDisconnected("no spanning tree in a disconnected graph")
    if G.n > 12:
        raise TooManyTrees(f"{G.n} vertices > enumeration limit 12")
    log_t = log_spanning_tree_count(G)
    if log_t > math.log(max_trees) + 1e-9:
        raise TooManyTrees(f"about exp({log_t:.1f}) trees > cap {max_trees}")

    # edge copies carry their original identity through contractions
    base_edges = []
    for (u, v, m) in G.edges():
        for c in range(m):
            base_edges.append((u, v, (u, v, c)))

    trees: list[SpanningTree] = []

    def rec(labels_alive: frozenset, edges: list, chosen: list) -> None:
        if len(labels_alive) == 1:
            trees.append(SpanningTree(G.n, list(chosen)))
            return
        a0, b0, eid0 = edges[0]
        rest = edges[1:]
        # branch 1: eid0 in the tree -> contract b0 into a0
        merged = []
        for (a, b, eid) in rest:
            na = a0 if a == b0 else a
            nb = a0 if b == b0 else b
            if na != nb:
                merged.append((na, nb, eid))
        rec(labels_alive - {b0}, merged, chosen + [eid0])
        # branch 2: eid0 not in the tree -> drop it if connectivity survives;
        # the edges always connect the alive labels, so the rest does exactly
        # when it still joins a0 and b0
        roots, _first_cycle = forest_roots(G.n, ((a, b) for (a, b, _eid) in rest))
        if roots[a0] == roots[b0]:
            rec(labels_alive, rest, chosen)

    rec(frozenset(range(G.n)), base_edges, [])
    return trees
