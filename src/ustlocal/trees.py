"""Rooted tree patterns, canonical codes, balls and local censuses.

Canonical codes are length-prefixed nested parentheses over sorted child
codes: a vertex with subtree size s and children codes c_1 <= ... <= c_k
serializes as "(s:c_1...c_k)".  Equal codes <=> root-preserving isomorphism.

`CodeInterner` is the one canonicalizer behind them (Aho-Hopcroft-Ullman):
a rooted tree is an integer id keyed by the sorted tuple of its children's
ids, and string codes are made from ids only when asked for, in id order.
`RootedTree`, `local_census` and the branching Monte Carlo all intern
through it; stabilizer sizes count equal child ids.  `_intern_generation`
is its array form, one level at a time: rows of child ids in, ids out,
each distinct row of a chunk of parents interned once.  The census and the
branching Monte Carlo both run on it.

`local_census` is one rerooting pass over a spanning tree's parent array,
rooted where the tree is rooted.  For h < r it keeps two ids per vertex:
`down[v]`, the subtree of v away from its parent cut at depth h, and
`up[v]`, the parent's side seen from v (the parent with its other
children's `down` at depth h - 1 and its own `up`).  The r-ball of v is
then v with the depth-(r-1) `down` of its children and its `up`, so a
census is O(r) array passes over O(sum of degrees) ids.  `ball` builds one
ball directly; it is the census's test oracle.
"""
from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterable

import numpy as np

from .errors import InvalidVertices, PartitionMismatch, VertexOutOfRange, is_integer, malformed_json

_CHUNK_ROWS = 1 << 16  # parents per chunk of the branching draws and of `_intern_generation`


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
        self._codes: list[str] = ["(1:)"]

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
        """The string code of id `cid`.

        Codes are made in id order, children before parents, up to `cid`,
        and kept.
        """
        codes = self._codes
        for x in range(len(codes), cid + 1):
            kids = sorted([codes[c] for c in self.children[x]])
            codes.append(f"({self.sizes[x]}:{''.join(kids)})")
        return codes[cid]


def _intern_generation(
    interner: CodeInterner, counts: np.ndarray, child_codes: np.ndarray | None
) -> np.ndarray:
    """Code ids of the parents with `counts` children each, from their children's ids.

    `child_codes` lists the children parent by parent; None means every child
    is a leaf (id 0), so a parent's ball is a star and its id depends on its
    child count alone.  The parents are taken `_CHUNK_ROWS` at a time, in
    parent order; a row interned in an earlier chunk keeps its id, so ids
    follow each row's first parent, as interning parent by parent gives.
    The ids come in the narrowest unsigned type that holds every id of
    `interner` once this generation is in; childless parents get 0.
    """
    out = np.empty(len(counts), dtype=np.min_scalar_type(len(interner.children) - 1))
    at = 0  # the first child of the chunk's first parent
    for lo in range(0, len(counts), _CHUNK_ROWS):
        chunk = counts[lo:lo + _CHUNK_ROWS]
        n = int(chunk.sum())
        ids = _intern_chunk(interner, chunk, None if child_codes is None else child_codes[at:at + n])
        at += n
        if ids.dtype.itemsize > out.dtype.itemsize:
            out = out.astype(ids.dtype)
        out[lo:lo + len(chunk)] = ids
    return out


def _intern_chunk(
    interner: CodeInterner, counts: np.ndarray, child_codes: np.ndarray | None
) -> np.ndarray:
    """`_intern_generation` on one chunk of parents.

    Parents are bucketed by child count L, so each bucket is an exact
    (m_L, L) matrix of sorted child ids.  `intern` runs once per distinct
    row, in order of the row's first parent.
    """
    by_count = np.bincount(counts)
    if child_codes is None:
        present = np.flatnonzero(by_count).tolist()
        firsts = [int(np.argmax(counts == L)) for L in present]
        lookup = [0] * len(by_count)
        for i in np.argsort(firsts).tolist():
            lookup[present[i]] = interner.intern((0,) * present[i])
        return _narrow_ids(interner, lookup)[counts]
    starts = np.cumsum(counts, dtype=np.int64) - counts
    # parents in order of child count, each bucket in parent order; the
    # narrow key makes the stable sort a radix sort
    order = np.argsort(counts.astype(np.min_scalar_type(len(by_count) - 1)), kind="stable")
    bounds = np.cumsum(by_count).tolist()
    span = int(child_codes.max(initial=0)) + 1
    # 1 + index into rows, 0 for no children; there is at most one row per parent
    row_of = np.zeros(len(counts), dtype=np.min_scalar_type(len(counts)))
    rows: list[list[int]] = []  # distinct rows of every bucket, bucket by bucket
    firsts = []
    for L in np.flatnonzero(by_count[1:]).tolist():
        L += 1
        parents = order[bounds[L - 1]:bounds[L]]
        mat = child_codes[starts[parents][:, None] + np.arange(L)]
        mat.sort(axis=1)
        keys = mat
        if span**L <= 2**63:
            # a sorted row as one integer in base `span`, packed in 64 bits
            # and then narrowed so that the stable sort below is a radix
            # sort where it can be
            key = mat[:, 0].astype(np.int64)
            for j in range(1, L):
                key *= span
                key += mat[:, j]
            keys = key.astype(np.min_scalar_type(span**L - 1))[:, None]
        perm = np.lexsort(keys.T[::-1])  # stable, so equal rows keep parent order
        keys = keys[perm]
        parents = parents[perm]
        new = np.ones(len(perm), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        row_of[parents] = len(rows) + np.cumsum(new)
        rows.extend(mat[perm[new]].tolist())
        firsts.append(parents[new])
    ids = [0] * (len(rows) + 1)
    intern = interner.intern
    if rows:
        for i in np.argsort(np.concatenate(firsts)).tolist():
            ids[i + 1] = intern(tuple(rows[i]))
    return _narrow_ids(interner, ids)[row_of]


def _narrow_ids(interner: CodeInterner, ids: list[int]) -> np.ndarray:
    """`ids` in the narrowest unsigned type that holds every id of `interner`."""
    return np.array(ids, dtype=np.min_scalar_type(len(interner.children) - 1))


class RootedTree:
    """Finite rooted tree given by a parent array (root marked -1)."""

    def __init__(self, parent: Iterable[int]):
        parent = tuple(parent)
        n = len(parent)
        for i, p in enumerate(parent):
            # numpy integers are taken; a cast would read 0.5 and "0" as 0, and True as 1
            if not is_integer(p) or not -1 <= p < n:
                raise InvalidVertices(f"parent {p!r} of vertex {i} is not an integer in -1..{n - 1}")
        parent = tuple(int(p) for p in parent)
        roots = [i for i, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise InvalidVertices(f"need exactly one root, found {len(roots)}")
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


def _check_radius(r) -> None:
    if not is_integer(r) or r < 0:
        raise VertexOutOfRange(f"radius {r!r} is not an integer >= 0")


def ball(tree, v: int, r: int) -> RootedTree:
    """B_T(v, r) as a rooted tree in the normalized height order."""
    if not is_integer(v) or not (0 <= v < tree.n):
        raise VertexOutOfRange(f"vertex {v!r}")
    _check_radius(r)
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


def local_census(tree, r: int) -> dict[str, int]:
    """Counts of ball codes over all n root choices; values sum to n.

    Equal to counting `ball(tree, v, r).canonical_code()` over every v, in
    one rerooting pass (see the module docstring) over the tree's parent
    array.  Every level is a few `_intern_generation` calls:
    - `down` interns each vertex's children's `down`;
    - `up` interns, for each parent p and each distinct `down` d among its
      children, p's pool (its children's `down` and its own `up`) minus the
      slot of one child with `down` d; all those children share that row;
    - the balls intern every vertex's whole pool.
    At depth 0 every id is 0 (the single vertex), so the first level's rows
    are stars, interned by length alone.
    """
    _check_radius(r)
    n = tree.n
    if r == 0:
        return {"(1:)": n}
    parent, root = tree.rooted()
    is_child = np.arange(n) != root
    others = np.flatnonzero(is_child)
    kids = others[np.argsort(parent[others], kind="stable")]  # children, parent by parent
    n_kids = np.bincount(parent[kids], minlength=n)
    deg = n_kids + is_child
    # the pool of v: slots for its children's down, in `kids` order, then
    # one for its own up; pool_src indexes the concatenation (down, up)
    pool_start = np.cumsum(deg) - deg
    slot = np.empty(n, dtype=np.int64)  # each child's slot in its parent's pool
    kid_start = np.cumsum(n_kids) - n_kids
    slot[kids] = np.arange(len(kids)) + (pool_start - kid_start)[parent[kids]]
    pool_src = np.empty(int(deg.sum()), dtype=np.int64)
    pool_src[slot[kids]] = kids
    pool_src[pool_start[others] + n_kids[others]] = n + others

    interner = CodeInterner()
    down = up = np.zeros(n, dtype=np.uint8)
    for h in range(1, r):
        if h == 1:
            new_down = _intern_generation(interner, n_kids, None)
            new_up = _intern_generation(interner, np.where(is_child, deg[parent] - 1, 0), None)
        else:
            new_down = _intern_generation(interner, n_kids, down[kids])
            new_up = _up_level(interner, parent, kids, slot, deg, pool_start,
                               down, np.concatenate([down, up])[pool_src])
        if np.array_equal(new_down, down) and np.array_equal(new_up, up):
            break  # every deeper truncation is the same tree
        down, up = new_down, new_up
    balls = _intern_generation(interner, deg, np.concatenate([down, up])[pool_src])
    tally = np.bincount(balls)
    return {interner.to_code(cid): int(tally[cid]) for cid in np.flatnonzero(tally).tolist()}


def _up_level(interner, parent, kids, slot, deg, pool_start, down, pool) -> np.ndarray:
    """Each child's next `up`: its parent's `pool` minus its own slot, one
    row per parent and distinct child `down`."""
    by_down = kids[np.lexsort((down[kids], parent[kids]))]
    p, d = parent[by_down], down[by_down]
    first = np.ones(len(by_down), dtype=bool)
    first[1:] = (p[1:] != p[:-1]) | (d[1:] != d[:-1])
    rep = by_down[first]
    owner = parent[rep]
    lens = deg[owner]
    at = np.arange(int(lens.sum())) + np.repeat(pool_start[owner] - (np.cumsum(lens) - lens), lens)
    row_ids = _intern_generation(interner, lens - 1, pool[at[at != np.repeat(slot[rep], lens)]])
    new_up = np.zeros(len(parent), dtype=row_ids.dtype)
    new_up[by_down] = row_ids[np.cumsum(first) - 1]
    return new_up


def degree_counts(tree) -> dict[int, int]:
    """L_k = number of vertices of tree-degree k, from one bincount of the parent array."""
    parent, root = tree.rooted()
    deg = np.bincount(parent, minlength=tree.n) + 1  # children, plus the parent edge
    deg[root] -= 2  # the root counted itself as its own child and has no parent edge
    tally = np.bincount(deg)
    return {k: int(tally[k]) for k in np.flatnonzero(tally).tolist()}


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
