import itertools
from collections import Counter

import numpy as np
import pytest

from ustlocal.decompose import ExpanderDecomposition
from ustlocal.errors import InvalidVertices, PartitionMismatch, VertexOutOfRange
from ustlocal.trees import (
    RootedTree,
    ball,
    cross_edge_count,
    degree_counts,
    enumerate_rooted_trees,
    local_census,
)
from ustlocal.ust import SpanningTree, wilson_sample

from conftest import random_connected_graph
from trees_oracle import rooted_isomorphic, truncate


def brute_force_stab(tree: RootedTree) -> int:
    """Count root-preserving automorphisms by permutation search."""
    others = [v for v in range(tree.size) if v != tree.root]
    edges = {frozenset(e) for e in tree.edge_list()}
    count = 0
    for perm in itertools.permutations(others):
        mapping = {tree.root: tree.root}
        mapping.update(dict(zip(others, perm)))
        if {frozenset((mapping[a], mapping[b])) for (a, b) in edges} == edges:
            count += 1
    return count


def test_star_codes_identical_under_relabeling():
    star_a = RootedTree([-1, 0, 0, 0])
    star_b = RootedTree([1, -1, 1, 1])
    assert star_a.canonical_code() == star_b.canonical_code()
    assert rooted_isomorphic(star_a, star_b)


def test_path_root_position_distinguished():
    end = RootedTree([-1, 0, 1])
    center = RootedTree([1, -1, 1])
    assert end.canonical_code() != center.canonical_code()


def test_all_small_trees_distinguished():
    trees = enumerate_rooted_trees(3)
    assert len(trees) == 4
    codes = [t.canonical_code() for t in trees]
    assert len(set(codes)) == 4


def test_code_completeness_against_brute_force():
    # equal codes <=> root-preserving isomorphism, checked by exhaustive search
    trees = enumerate_rooted_trees(5)
    for t1, t2 in itertools.combinations(trees, 2):
        assert t1.canonical_code() != t2.canonical_code()


def test_rooted_tree_validation():
    with pytest.raises(InvalidVertices):
        RootedTree([0, 1])  # no root
    with pytest.raises(InvalidVertices):
        RootedTree([-1, -1])  # two roots


def test_stab_examples():
    assert RootedTree([-1, 0, 0, 0]).stab_size() == 6
    assert RootedTree([-1, 0, 1]).stab_size() == 1
    two_paths = RootedTree([-1, 0, 0, 1, 2])
    assert two_paths.stab_size() == 2


def test_stab_matches_brute_force():
    for t in enumerate_rooted_trees(7):
        if t.size <= 7:
            assert t.stab_size() == brute_force_stab(t), t.canonical_code()


def test_enumeration_counts():
    # rooted trees per size: OEIS A000081
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    got = [sum(1 for t in enumerate_rooted_trees(8) if t.size == s) for s in range(1, 9)]
    assert got == expected


def test_normalized_order():
    t = RootedTree([2, 2, -1, 0, 0, 1])
    norm, p = t.normalized()
    assert norm.heights == tuple(sorted(norm.heights))
    assert all(norm.heights[i] == norm.height for i in range(p, norm.size))
    assert all(norm.heights[i] < norm.height for i in range(p))
    assert rooted_isomorphic(t, norm)


def test_ball_examples():
    path = SpanningTree(3, [(0, 1, 0), (1, 2, 0)])
    assert ball(path, 1, 1).canonical_code() == RootedTree([-1, 0, 0]).canonical_code()
    assert ball(path, 0, 1).canonical_code() == RootedTree([-1, 0]).canonical_code()
    assert ball(path, 0, 5).canonical_code() == RootedTree([-1, 0, 1]).canonical_code()
    assert ball(path, 0, 0).size == 1


def test_ball_truncation_consistency(rng):
    # ball(v, r) is the height-r truncation of ball(v, r+1)
    G = random_connected_graph(rng, 12, 0.4)
    tree = wilson_sample(G, seed=2)
    for v in range(0, 12, 3):
        for r in (1, 2):
            inner = ball(tree, v, r)
            outer = ball(tree, v, r + 1)
            assert inner.canonical_code() == truncate(outer, r).canonical_code()


def test_census_path5():
    tree = SpanningTree(5, [(i, i + 1, 0) for i in range(4)])
    census = local_census(tree, 1)
    edge = RootedTree([-1, 0]).canonical_code()
    star2 = RootedTree([-1, 0, 0]).canonical_code()
    assert census == {edge: 2, star2: 3}


def test_census_star():
    tree = SpanningTree(5, [(0, i, 0) for i in range(1, 5)])
    census = local_census(tree, 1)
    star4 = RootedTree([-1, 0, 0, 0, 0]).canonical_code()
    edge = RootedTree([-1, 0]).canonical_code()
    assert census == {star4: 1, edge: 4}


def test_census_radius_zero_and_conservation(rng):
    G = random_connected_graph(rng, 9, 0.5)
    tree = wilson_sample(G, seed=8)
    assert local_census(tree, 0) == {"(1:)": 9}
    for r in (1, 2, 3):
        assert sum(local_census(tree, r).values()) == 9


def test_degree_counts():
    path = SpanningTree(5, [(i, i + 1, 0) for i in range(4)])
    assert degree_counts(path) == {1: 2, 2: 3}
    star = SpanningTree(5, [(0, i, 0) for i in range(1, 5)])
    assert degree_counts(star) == {4: 1, 1: 4}


def test_degree_counts_handshake(rng):
    G = random_connected_graph(rng, 10, 0.5)
    tree = wilson_sample(G, seed=77)
    counts = degree_counts(tree)
    assert sum(counts.values()) == 10
    assert sum(k * v for k, v in counts.items()) == 2 * 9


def test_cross_edges_single_part():
    tree = SpanningTree(5, [(i, i + 1, 0) for i in range(4)])
    dec = ExpanderDecomposition(np.ones(5, dtype=int), 0.1, 0.1, 0.1)
    assert cross_edge_count(tree, dec) == 0


def test_cross_edges_all_residual():
    tree = SpanningTree(5, [(i, i + 1, 0) for i in range(4)])
    dec = ExpanderDecomposition(np.zeros(5, dtype=int), 0.1, 0.1, 0.1)
    assert cross_edge_count(tree, dec) == 4


def test_cross_edges_partition_mismatch():
    tree = SpanningTree(5, [(i, i + 1, 0) for i in range(4)])
    dec = ExpanderDecomposition(np.ones(4, dtype=int), 0.1, 0.1, 0.1)
    with pytest.raises(PartitionMismatch):
        cross_edge_count(tree, dec)


def test_tree_json_roundtrip():
    t = RootedTree([-1, 0, 0, 1])
    assert RootedTree.from_json(t.to_json()).canonical_code() == t.canonical_code()


def test_census_single_vertex_and_negative_radius():
    single = SpanningTree(1, [])
    for r in (0, 1, 3):
        assert local_census(single, r) == {"(1:)": 1}
    with pytest.raises(VertexOutOfRange):
        local_census(SpanningTree(3, [(0, 1, 0), (1, 2, 0)]), -1)


def test_deep_trees_need_no_recursion():
    n = 3000
    path = RootedTree([-1] + list(range(n - 1)))
    code = path.canonical_code()
    assert code.startswith(f"({n}:({n - 1}:") and code.endswith("(1:)" + ")" * (n - 1))
    assert path.stab_size() == 1


def test_census_beyond_the_diameter():
    # on a path every radius >= n - 1 sees the whole path; v and n-1-v agree
    n = 41
    tree = SpanningTree(n, [(i, i + 1, 0) for i in range(n - 1)])
    expected = Counter(ball(tree, v, n - 1).canonical_code() for v in range(n))
    assert sorted(expected.values()) == [1] + [2] * (n // 2)
    for r in (n - 1, n, 10 * n):
        assert local_census(tree, r) == dict(expected)
