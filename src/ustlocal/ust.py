"""Exact-uniform spanning tree sampling and an exhaustive enumeration oracle.

Sampling is Wilson's loop-erased-random-walk algorithm rooted at vertex 0
(uniformity is root-independent; fixing the root aids reproducibility).
Parallel copies are distinguishable: a tree edge is (u, v, copy).

Both walk samplers step through `MultiGraph.step_table`, whose row x lists
each neighbour once per parallel copy: a walker at x draws a uniform u and
moves to nb[base[x] + floor(u deg(x))], that is to y with probability
mult(x, y) / deg(x).  The step is inlined in each sampler's loop, over a
memoryview of `nb`.  The walk's parent pointers are the tree: a sampler
returns them with one copy index per vertex (`SpanningTree.from_parents`).
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
from .rng import stream, uniform_blocks


class SpanningTree:
    """A spanning tree of an n-vertex host graph, with (u, v, copy) edges.

    Built from an edge list, or from a parent array (`from_parents`), the
    form the walk samplers produce.  Each form is derived from the other
    on first use: `edges`, the sorted tuple of (u, v, copy) with u < v,
    which equality, hashing and `edge_pairs` read; and `rooted()`, the
    parent array, which the census and `degree_counts` read.  A tree built
    from a parent array keeps its copy indices for `edges`.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        self.n = int(n)
        norm = []
        for (u, v, c) in edges:
            a, b = _normalize_pair(int(u), int(v))
            if a < 0 or b >= self.n:
                raise VertexOutOfRange(f"tree edge ({a},{b}) outside 0..{self.n - 1}")
            norm.append((a, b, int(c)))
        self._edges: tuple[tuple[int, int, int], ...] | None = tuple(sorted(norm))
        if len(self._edges) != self.n - 1:
            raise PreconditionError(
                f"{len(self._edges)} edges cannot span {self.n} vertices"
            )
        _roots, first_cycle = forest_roots(self.n, ((u, v) for (u, v, _c) in self._edges))
        if first_cycle < len(self._edges):
            raise PreconditionError("edge set contains a cycle")
        self._parent: np.ndarray | None = None
        self._copies: np.ndarray | None = None
        self._root = 0
        self._adj: list[list[int]] | None = None

    @classmethod
    def from_parents(cls, n: int, parent, copies, root: int) -> "SpanningTree":
        """The tree joining each vertex v != root to parent[v] by copy copies[v].

        parent[root] is root.  Refused as the edge-list constructor refuses
        an edge set: a root or parent outside 0..n-1 raises VertexOutOfRange;
        arrays that are not n long, a root that is not its own parent, and
        a vertex that never reaches the root (on a cycle, or its own parent)
        raise PreconditionError.  The last is checked by pointer doubling:
        after k rounds every vertex points 2^k steps up.
        """
        n = int(n)
        parent = np.asarray(parent, dtype=np.int64)
        copies = np.asarray(copies, dtype=np.int64)
        if len(parent) != n or len(copies) != n:
            raise PreconditionError(f"{len(parent)} parents and {len(copies)} copies for {n} vertices")
        if not 0 <= root < n:
            raise VertexOutOfRange(f"root {root} outside 0..{n - 1}")
        outside = (parent < 0) | (parent >= n)
        if outside.any():
            v = int(np.argmax(outside))
            raise VertexOutOfRange(f"parent {int(parent[v])} of vertex {v} outside 0..{n - 1}")
        if parent[root] != root:
            raise PreconditionError(f"root {root} has parent {int(parent[root])}")
        up = parent
        for _ in range(max(n - 2, 0).bit_length()):
            up = up[up]
        if not bool((up == root).all()):
            raise PreconditionError("parent array contains a cycle")
        tree = cls.__new__(cls)
        tree.n = n
        tree._edges = None
        tree._parent, tree._copies, tree._root = parent, copies, int(root)
        tree._adj = None
        return tree

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        if self._edges is None:
            pairs = zip(self._parent.tolist(), self._copies.tolist())
            self._edges = tuple(sorted(
                (v, p, c) if v < p else (p, v, c) for v, (p, c) in enumerate(pairs) if v != self._root
            ))
        return self._edges

    def rooted(self) -> tuple[np.ndarray, int]:
        """(parent, root): parent[v] is v's neighbour toward the root, and
        parent[root] is root.

        A tree built from edges is rooted at vertex 0 on first use.
        """
        if self._parent is None:
            adj = self.adjacency()
            parent = list(range(self.n))
            seen = [False] * self.n
            seen[0] = True
            order = [0]
            for x in order:
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        parent[y] = x
                        order.append(y)
            self._parent = np.array(parent, dtype=np.int64)
        return self._parent, self._root

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


def _copies(G: MultiGraph, parent: np.ndarray, rng, order=None) -> np.ndarray:
    """Which parallel copy joins each vertex to its parent, uniformly at random.

    On a multigraph one `integers` draw per vertex of `order` (by default
    every vertex but the root, in vertex order) with more than one copy.
    """
    copies = np.zeros(G.n, dtype=np.int64)
    if not G.is_simple:
        if order is None:
            order = np.flatnonzero(parent != np.arange(G.n))  # the root is its own parent
        order = np.asarray(order, dtype=np.int64)
        mult = G.multiplicities(order, parent[order]).tolist()
        copies[order] = [int(rng.integers(0, m)) if m > 1 else 0 for m in mult]
    return copies


def _walk_table(G: MultiGraph, root: int):
    """The step table of a connected G, as (nb, base, deg) for a Python loop."""
    if not (0 <= root < G.n):
        raise VertexOutOfRange(f"root {root} outside 0..{G.n - 1}")
    if not G.is_connected():
        raise GraphDisconnected("no spanning tree in a disconnected graph")
    nb, base, deg = G.step_table()
    return memoryview(nb), base.tolist(), deg.tolist()


def _wilson_walk(nb: memoryview, base: list[int], deg: list[int], root: int, rng) -> tuple[list[int], int]:
    """Wilson's `Next` array, the tree as parent pointers toward `root`
    (whose entry is itself), and the number of walk steps taken.

    A walker at x moves to nb[base[x] + floor(u deg(x))] for the next
    uniform u of `uniform_blocks`: one uniform per step, as from a scalar
    buffer with the same block schedule.
    """
    n = len(deg)
    blocks = uniform_blocks(rng)
    unif = next(blocks)
    size = drawn = len(unif)
    pos = 0
    in_tree = [False] * n
    in_tree[root] = True
    nxt = list(range(n))
    for start in range(n):
        x = start
        while not in_tree[x]:
            if pos == size:
                unif = next(blocks)
                size = len(unif)
                drawn += size
                pos = 0
            d = deg[x]
            k = int(unif[pos] * d)  # u deg(x) rounding up to deg(x) takes the last copy
            pos += 1
            y = nb[base[x] + (k if k < d else d - 1)]
            nxt[x] = y
            x = y
        x = start
        while not in_tree[x]:
            in_tree[x] = True
            x = nxt[x]
    return nxt, drawn - size + pos


def wilson_sample(G: MultiGraph, seed: int, root: int = 0) -> SpanningTree:
    """Exact-uniform spanning tree by loop-erased random walks."""
    table = _walk_table(G, root)
    if G.n == 1:
        return SpanningTree(1, [])
    rng = stream(seed)
    nxt, _steps = _wilson_walk(*table, root, rng)
    parent = np.array(nxt, dtype=np.int64)
    return SpanningTree.from_parents(G.n, parent, _copies(G, parent, rng), root)


def aldous_broder_sample(G: MultiGraph, seed: int, root: int = 0) -> SpanningTree:
    """First-entrance random-walk sampler, kept as an independent cross-check.

    Steps as `_wilson_walk` does; each vertex's parent is the vertex the
    walk first entered it from, and copies are drawn in order of entry.
    """
    nb, base, deg = _walk_table(G, root)
    if G.n == 1:
        return SpanningTree(1, [])
    rng = stream(seed)
    blocks = uniform_blocks(rng)
    unif = next(blocks)
    size = len(unif)
    pos = 0
    parent = list(range(G.n))
    visited = [False] * G.n
    visited[root] = True
    order = []
    x = root
    while len(order) < G.n - 1:
        if pos == size:
            unif = next(blocks)
            size = len(unif)
            pos = 0
        d = deg[x]
        k = int(unif[pos] * d)
        pos += 1
        y = nb[base[x] + (k if k < d else d - 1)]
        if not visited[y]:
            visited[y] = True
            parent[y] = x
            order.append(y)
        x = y
    parent = np.array(parent, dtype=np.int64)
    return SpanningTree.from_parents(G.n, parent, _copies(G, parent, rng, order), root)


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
