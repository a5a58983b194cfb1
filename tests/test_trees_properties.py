"""Property tests: the rerooting census and the interned codes against oracles.

The census is checked against counting the per-vertex `ball` codes and
against the earlier list-by-list census, and
`RootedTree`'s codes, stabilizer sizes and normalized order against the
string-code construction kept here as a reference.
"""
import heapq
from collections import Counter
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from ustlocal.trees import RootedTree, ball, degree_counts, local_census
from ustlocal.ust import SpanningTree

import trees_oracle

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def prufer_edges(n, seq):
    """The labelled tree on 0..n-1 with Pruefer sequence `seq` (length n - 2)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    if n >= 2:
        edges.append(tuple(leaves))
    return edges


@st.composite
def labelled_trees(draw, max_n=40):
    """(n, edges): a Pruefer-random tree, a path or a star on 0..n-1.

    Half the draws have at most 8 vertices, where radii up to 4 reach past
    the tree's depth from vertex 0.
    """
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, max_n)))
    kind = draw(st.sampled_from(["prufer", "path", "star"]))
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        centre = draw(st.integers(0, n - 1))
        return n, [(centre, v) for v in range(n) if v != centre]
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return n, prufer_edges(n, seq)


def spanning_tree(n, edges, perm=None):
    perm = perm or list(range(n))
    return SpanningTree(n, [(perm[u], perm[v], 0) for u, v in edges])


def rooted(n, edges, root):
    """Parent array of the tree rooted at `root`."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [None] * n
    parent[root] = -1
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if parent[y] is None:
                parent[y] = x
                stack.append(y)
    return parent


def reference_codes(tree):
    """Per-vertex string codes built from sorted child strings, as before interning."""
    codes = [""] * tree.size
    sizes = [1] * tree.size
    for v in sorted(range(tree.size), key=lambda v: -tree.heights[v]):
        kids = sorted(codes[c] for c in tree.children[v])
        sizes[v] = 1 + sum(sizes[c] for c in tree.children[v])
        codes[v] = f"({sizes[v]}:{''.join(kids)})"
    return codes


def reference_stab(tree, codes):
    total = 1
    for v in range(tree.size):
        for mult in Counter(codes[c] for c in tree.children[v]).values():
            total *= factorial(mult)
    return total


@PROPERTY
@given(labelled_trees(), st.data())
def test_census_equals_ball_oracle(graph, data):
    # relabelled so that the census's root, vertex 0, sits at a drawn vertex
    n, edges = graph
    perm = data.draw(st.permutations(range(n)))
    zero = data.draw(st.integers(0, n - 1))
    at = perm.index(0)
    perm[at], perm[zero] = perm[zero], 0
    tree = spanning_tree(n, edges, perm)
    for r in range(5):
        oracle = Counter(ball(tree, v, r).canonical_code() for v in range(n))
        assert local_census(tree, r) == dict(oracle)


@PROPERTY
@given(labelled_trees(), st.data())
def test_array_census_equals_list_census(graph, data):
    # the parent-array census against the earlier list-by-list one, with the
    # tree rooted at a drawn vertex; a radius of n + 1 is past the diameter
    n, edges = graph
    root = data.draw(st.integers(0, n - 1))
    parent = rooted(n, edges, root)
    parent[root] = root
    from_parents = SpanningTree.from_parents(n, parent, [0] * n, root)
    from_edges = spanning_tree(n, edges)
    assert from_parents == from_edges
    for r in (*range(5), n + 1):
        want = trees_oracle.local_census(from_edges, r)
        assert local_census(from_parents, r) == want
        assert local_census(from_edges, r) == want
    want = Counter(len(a) for a in from_edges.adjacency())
    assert degree_counts(from_parents) == degree_counts(from_edges) == dict(want)


@PROPERTY
@given(labelled_trees(), st.data())
def test_census_invariant_under_relabelling(graph, data):
    n, edges = graph
    relabelled = spanning_tree(n, edges, data.draw(st.permutations(range(n))))
    tree = spanning_tree(n, edges)
    for r in range(5):
        assert local_census(relabelled, r) == local_census(tree, r)


@PROPERTY
@given(labelled_trees(), st.data())
def test_rooted_tree_against_string_reference(graph, data):
    n, edges = graph
    perm = data.draw(st.permutations(range(n)))
    relabelled = [(perm[u], perm[v]) for u, v in edges]
    tree = RootedTree(rooted(n, relabelled, data.draw(st.integers(0, n - 1))))
    codes = reference_codes(tree)
    assert tree.canonical_code() == codes[tree.root]
    assert tree.stab_size() == reference_stab(tree, codes)
    order = sorted(range(n), key=lambda v: (tree.heights[v], codes[v], v))
    new_index = {v: i for i, v in enumerate(order)}
    norm, p = tree.normalized()
    assert norm.parent == tuple(-1 if tree.parent[v] == -1 else new_index[tree.parent[v]] for v in order)
    assert p == next(i for i, v in enumerate(order) if tree.heights[v] == tree.height)
