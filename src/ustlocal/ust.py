"""Exact-uniform spanning tree sampling.

Sampling is Wilson's loop-erased-random-walk algorithm rooted at vertex 0
(uniformity is root-independent; fixing the root aids reproducibility).
Parallel copies are distinguishable: a tree edge is (u, v, copy).

Both walk samplers step through `MultiGraph.step_table`, whose row x lists
each neighbour once per parallel copy: a walker at x draws a uniform u and
moves to nb[base[x] + floor(u deg(x))], that is to y with probability
mult(x, y) / deg(x).  The step is inlined in each sampler's loop, over a
memoryview of `nb`.  The walk's parent pointers are the tree: a sampler
returns them with one copy index per vertex (`SpanningTree.from_parents`).
Edge-built trees are checked by the one connectivity routine,
`multigraph.forest_roots`.  The exhaustive deletion-contraction
enumerator is a test oracle (`tests/ust_oracle.py`), not part of the
library.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import (
    GraphDisconnected,
    MalformedEdge,
    PreconditionError,
    VertexOutOfRange,
    is_integer,
)
from .multigraph import MultiGraph, _normalize_pair, forest_roots, vertex_count
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
        self.n = vertex_count(n)
        norm = []
        for entry in edges:
            if len(entry) != 3 or not all(is_integer(x) for x in entry):
                raise MalformedEdge(f"tree edge {tuple(entry)!r} is not (u, v, copy) in integers")
            a, b = _normalize_pair(int(entry[0]), int(entry[1]))
            if a < 0 or b >= self.n:
                raise VertexOutOfRange(f"tree edge ({a},{b}) outside 0..{self.n - 1}")
            norm.append((a, b, int(entry[2])))
        self._edges: tuple[tuple[int, int, int], ...] | None = tuple(sorted(norm))
        if len(self._edges) != self.n - 1:
            raise PreconditionError(
                f"{len(self._edges)} edges cannot span {self.n} vertices"
            )
        # n - 1 edges form a tree exactly when they leave one root, vertex 0
        ends = np.array([(a, b) for (a, b, _c) in self._edges], dtype=np.int64).reshape(-1, 2)
        if forest_roots(self.n, ends[:, 0], ends[:, 1]).any():
            raise PreconditionError("edge set contains a cycle")
        self._parent: np.ndarray | None = None
        self._copies: np.ndarray | None = None
        self._root = 0
        self._adj: list[list[int]] | None = None

    @classmethod
    def from_parents(cls, n: int, parent, copies, root: int) -> "SpanningTree":
        """The tree joining each vertex v != root to parent[v] by copy copies[v].

        parent[root] is root.  Refused as the edge-list constructor refuses
        an edge set: a vertex count, root or parent that is not an integer
        in range raises VertexOutOfRange, a copy index that is not an
        integer MalformedEdge; arrays that are not n long, a root
        that is not its own parent, and a vertex that never reaches the root
        (on a cycle, or its own parent) raise PreconditionError.  The last is
        checked by pointer doubling: after k rounds every vertex points 2^k
        steps up.
        """
        n = vertex_count(n)
        parent, copies = np.asarray(parent), np.asarray(copies)
        if len(parent) != n or len(copies) != n:
            raise PreconditionError(f"{len(parent)} parents and {len(copies)} copies for {n} vertices")
        _check_root(root, n)
        # a cast would read a parent of 1.5 as 1
        if parent.dtype.kind not in "iu":
            raise VertexOutOfRange(f"parents of dtype {parent.dtype} are not integers")
        if copies.dtype.kind not in "iu":
            raise MalformedEdge(f"copies of dtype {copies.dtype} are not integers")
        parent, copies = parent.astype(np.int64, copy=False), copies.astype(np.int64, copy=False)
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


def _check_root(root, n: int) -> None:
    """Refuse a root that is not an integer in 0..n-1 (1.5, True, "1") with VertexOutOfRange."""
    if not is_integer(root) or not 0 <= root < n:
        raise VertexOutOfRange(f"root {root!r} is not an integer in 0..{n - 1}")


def _walk_table(G: MultiGraph, root: int):
    """The step table of a connected G, as (nb, base, deg) for a Python loop."""
    _check_root(root, G.n)
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
