"""Rooted tree patterns, canonical codes, balls and local censuses.

Canonical codes are length-prefixed nested parentheses over sorted child
codes: a vertex with subtree size s and children codes c_1 <= ... <= c_k
serializes as "(s:c_1...c_k)".  Equal codes <=> root-preserving isomorphism.

`CodeInterner` is the one canonicalizer behind them (Aho-Hopcroft-Ullman):
a rooted tree is an integer id keyed by the sorted tuple of its children's
ids, and the string code is made from an id only when asked for, memoized.
`RootedTree`, `local_census` and the branching Monte Carlo all intern
through it; stabilizer sizes count equal child ids.

`local_census` is one rerooting pass over a spanning tree rooted once at
vertex 0.  For h < r it keeps two ids per vertex: `down[v]`, the subtree of
v away from its parent cut at depth h, and `up[v]`, the parent's side seen
from v (the parent with its other children's `down` at depth h - 1 and its
own `up`).  The r-ball of v is then v with the depth-(r-1) `down` of its
children and its `up`, so a census costs O(r * sum of degrees) interns.
`ball` builds one ball directly; it is the census's test oracle.
"""
from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterable

from .errors import InvalidVertices, PartitionMismatch, VertexOutOfRange, malformed_json


class CodeInterner:
    """Rooted trees up to root-preserving isomorphism as integer ids.

    Id 0 is the single vertex.  `intern` takes a tree's children as a sorted
    tuple of ids; a tree is always interned after its children, so its id is
    larger than theirs.
    """

    def __init__(self):
        self.ids: dict[tuple[int, ...], int] = {(): 0}
        self.children: list[tuple[int, ...]] = [()]
        self.sizes: list[int] = [1]
        self._codes: dict[int, str] = {0: "(1:)"}

    def intern(self, child_ids: tuple[int, ...]) -> int:
        got = self.ids.get(child_ids)
        if got is not None:
            return got
        new = len(self.children)
        self.ids[child_ids] = new
        self.children.append(child_ids)
        sizes = self.sizes
        sizes.append(1 + sum([sizes[c] for c in child_ids]))
        return new

    def to_code(self, cid: int) -> str:
        """The string code of id `cid`, memoized per id."""
        codes = self._codes
        got = codes.get(cid)
        if got is not None:
            return got
        missing = set()
        stack = [cid]
        while stack:
            x = stack.pop()
            if x not in codes and x not in missing:
                missing.add(x)
                stack.extend(self.children[x])
        for x in sorted(missing):  # children before parents
            kids = sorted([codes[c] for c in self.children[x]])
            codes[x] = f"({self.sizes[x]}:{''.join(kids)})"
        return codes[cid]


class RootedTree:
    """Finite rooted tree given by a parent array (root marked -1)."""

    def __init__(self, parent: Iterable[int]):
        parent = tuple(int(p) for p in parent)
        n = len(parent)
        roots = [i for i, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise InvalidVertices(f"need exactly one root, found {len(roots)}")
        for i, p in enumerate(parent):
            if p != -1 and not (0 <= p < n):
                raise InvalidVertices(f"parent {p} of vertex {i} out of range")
        self.parent = parent
        self.root = roots[0]
        self.size = n
        children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parent):
            if p != -1:
                children[p].append(i)
        self.children = [tuple(c) for c in children]
        heights = [-1] * n
        heights[self.root] = 0
        stack = [self.root]
        seen = 1
        while stack:
            x = stack.pop()
            for c in self.children[x]:
                heights[c] = heights[x] + 1
                stack.append(c)
                seen += 1
        if seen != n:
            raise InvalidVertices("parent array contains a cycle")
        self.heights = tuple(heights)
        self.height = max(heights)
        self._interner = CodeInterner()
        self._ids: list[int] | None = None

    # -- canonical form -------------------------------------------------------

    def _subtree_ids(self) -> list[int]:
        """Interned id of every vertex's subtree."""
        if self._ids is None:
            ids = [0] * self.size
            intern = self._interner.intern
            for v in sorted(range(self.size), key=lambda v: -self.heights[v]):
                ids[v] = intern(tuple(sorted([ids[c] for c in self.children[v]])))
            self._ids = ids
        return self._ids

    def canonical_code(self) -> str:
        return self._interner.to_code(self._subtree_ids()[self.root])

    def stab_size(self) -> int:
        """Order of the root-preserving automorphism group."""
        ids = self._subtree_ids()
        total = 1
        for v in range(self.size):
            for mult in Counter([ids[c] for c in self.children[v]]).values():
                total *= factorial(mult)
        return total

    # -- normalization --------------------------------------------------------

    def normalized(self) -> tuple["RootedTree", int]:
        """Reorder so heights are nondecreasing; return (tree, p).

        p is the first index at maximal height, so positions p..size-1 are
        exactly the vertices at the tree's height.  Ties inside a height level
        break by subtree code, then original index.
        """
        ids = self._subtree_ids()
        code = self._interner.to_code
        order = sorted(range(self.size), key=lambda v: (self.heights[v], code(ids[v]), v))
        new_index = {v: i for i, v in enumerate(order)}
        parent = [-1] * self.size
        for i, v in enumerate(order):
            if self.parent[v] != -1:
                parent[i] = new_index[self.parent[v]]
        tree = RootedTree(parent)
        p = next(i for i, v in enumerate(order) if self.heights[v] == self.height)
        return tree, p

    def edge_list(self) -> list[tuple[int, int]]:
        return [(p, i) for i, p in enumerate(self.parent) if p != -1]

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"parent": list(self.parent)})

    @classmethod
    def from_json(cls, text: str) -> "RootedTree":
        with malformed_json("pattern"):
            return cls(json.loads(text)["parent"])

    def __repr__(self) -> str:
        return f"RootedTree({self.canonical_code()})"


# -- balls and censuses over spanning trees ------------------------------------


def ball(tree, v: int, r: int) -> RootedTree:
    """B_T(v, r) as a rooted tree in the normalized height order."""
    if not (0 <= v < tree.n):
        raise VertexOutOfRange(f"vertex {v}")
    if r < 0:
        raise VertexOutOfRange(f"radius {r}")
    adj = tree.adjacency()
    dist = {v: 0}
    order = [v]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        if dist[x] == r:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                order.append(y)
    parent = [-1] * len(order)
    index = {x: i for i, x in enumerate(order)}
    for x in order:
        if x != v:
            for y in adj[x]:
                if y in dist and dist[y] == dist[x] - 1:
                    parent[index[x]] = index[y]
                    break
    raw = RootedTree(parent)
    return raw.normalized()[0]


def _rooted_at_zero(tree) -> list[list[int]]:
    """Children lists of `tree` rooted at vertex 0, by BFS."""
    adj = tree.adjacency()
    children: list[list[int]] = [[] for _ in range(tree.n)]
    seen = [False] * tree.n
    seen[0] = True
    order = [0]
    for x in order:
        kids = children[x]
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                kids.append(y)
                order.append(y)
    return children


def local_census(tree, r: int) -> dict[str, int]:
    """Counts of ball codes over all n root choices; values sum to n.

    Equal to counting `ball(tree, v, r).canonical_code()` over every v, in
    one rerooting pass (see the module docstring).
    """
    if r < 0:
        raise VertexOutOfRange(f"radius {r}")
    n = tree.n
    if r == 0:
        return {"(1:)": n}
    children = _rooted_at_zero(tree)
    interner = CodeInterner()
    intern = interner.intern
    # cut at depth 0 both sides are a single vertex (id 0); the root's up is never read
    down = [0] * n
    up = [0] * n
    for _h in range(1, r):
        new_down = [intern(tuple(sorted([down[c] for c in kids]))) if kids else 0
                    for kids in children]
        new_up = [0] * n
        for p, kids in enumerate(children):
            if not kids:
                continue
            pool = [down[c] for c in kids]
            if p:
                pool.append(up[p])
            pool.sort()
            shared: dict[int, int] = {}  # children with equal down see equal up
            for c in kids:
                d = down[c]
                got = shared.get(d)
                if got is None:
                    rest = pool.copy()
                    rest.remove(d)
                    got = shared[d] = intern(tuple(rest))
                new_up[c] = got
        if new_down == down and new_up == up:
            break  # every deeper truncation is the same tree
        down, up = new_down, new_up
    counts: Counter[int] = Counter()
    for v, kids in enumerate(children):
        ball_kids = [down[c] for c in kids]
        if v:
            ball_kids.append(up[v])
        ball_kids.sort()
        counts[intern(tuple(ball_kids))] += 1
    return {interner.to_code(cid): k for cid, k in counts.items()}


def degree_counts(tree) -> dict[int, int]:
    """L_k = number of vertices of tree-degree k."""
    counts: Counter[int] = Counter(len(a) for a in tree.adjacency())
    return dict(counts)


def cross_edge_count(tree, decomposition) -> int:
    """|O|: tree edges between parts or touching the residual set V_0."""
    labels = decomposition.labels
    if len(labels) != tree.n:
        raise PartitionMismatch(f"partition covers {len(labels)} vertices, tree has {tree.n}")
    total = 0
    for u, v, _copy in tree.edges:
        if labels[u] != labels[v] or labels[u] == 0 or labels[v] == 0:
            total += 1
    return total


# -- pattern enumeration ---------------------------------------------------------


@lru_cache(maxsize=None)
def _trees_of_size(size: int) -> tuple[tuple[int, ...], ...]:
    """All rooted trees on `size` vertices, as parent tuples, one per iso class."""
    if size == 1:
        return ((-1,),)
    results: list[tuple[int, ...]] = []

    def splits(budget: int, min_size: int):
        # nondecreasing child subtree sizes avoid permuted duplicates
        if budget == 0:
            yield []
            return
        for s in range(min_size, budget + 1):
            for rest in splits(budget - s, s):
                yield [s] + rest

    def assemble(sizes: list[int], chosen: list[tuple[int, ...]], start_indices: list[int]):
        if len(chosen) == len(sizes):
            parent = [-1]
            offset = 1
            for sub in chosen:
                parent.extend(offset + p if p != -1 else 0 for p in sub)
                # root of the subtree attaches to the global root
                parent[offset] = 0
                offset += len(sub)
            results.append(tuple(parent))
            return
        i = len(chosen)
        pool = _trees_of_size(sizes[i])
        # equal-size children chosen with nondecreasing pool index: no duplicates
        lo = start_indices[i - 1] if i > 0 and sizes[i] == sizes[i - 1] else 0
        for j in range(lo, len(pool)):
            start_indices[i] = j
            assemble(sizes, chosen + [pool[j]], start_indices)

    for sizes in splits(size - 1, 1):
        assemble(sizes, [], [0] * len(sizes))
    # dedupe defensively by canonical code, deterministic order
    by_code = {}
    for parent in results:
        code = RootedTree(parent).canonical_code()
        by_code.setdefault(code, parent)
    return tuple(parent for _code, parent in sorted(by_code.items()))


def enumerate_rooted_trees(
    max_vertices: int, min_height: int = 0, max_height: int | None = None
) -> list[RootedTree]:
    """All rooted-tree isomorphism classes with <= max_vertices vertices."""
    out = []
    for size in range(1, max_vertices + 1):
        for parent in _trees_of_size(size):
            t = RootedTree(parent)
            if t.height < min_height:
                continue
            if max_height is not None and t.height > max_height:
                continue
            out.append(t)
    return out
