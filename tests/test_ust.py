import math
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ustlocal import ust
from ustlocal.electric import LaplacianSystem, edge_ust_probability
from ustlocal.errors import GraphDisconnected, PreconditionError, VertexOutOfRange
from ustlocal.graphon import StepGraphon, sample_w_random_graph
from ustlocal.multigraph import MultiGraph, complete_graph, cycle_graph, path_graph
from ustlocal.rng import stream
from ustlocal.ust import SpanningTree, wilson_sample

from conftest import random_connected_graph
from ust_oracle import TooManyTrees, aldous_broder_sample, enumerate_spanning_trees


def test_enumerate_cycle():
    trees = enumerate_spanning_trees(cycle_graph(4))
    assert len(trees) == 4
    assert len(set(t.edges for t in trees)) == 4


def test_enumerate_k4():
    assert len(enumerate_spanning_trees(complete_graph(4))) == 16


def test_enumerate_double_edge():
    trees = enumerate_spanning_trees(MultiGraph.build(2, [(0, 1, 2)]))
    assert sorted(t.edges for t in trees) == [((0, 1, 0),), ((0, 1, 1),)]


def test_enumerate_count_matches_matrix_tree(rng):
    from ustlocal.electric import log_spanning_tree_count

    for _ in range(8):
        G = random_connected_graph(rng, 6, 0.7, max_mult=2)
        trees = enumerate_spanning_trees(G)
        assert len(trees) == round(math.exp(log_spanning_tree_count(G)))
        assert len(set(t.edges for t in trees)) == len(trees)


def test_enumerate_budget():
    with pytest.raises(TooManyTrees):
        enumerate_spanning_trees(complete_graph(13))
    with pytest.raises(TooManyTrees):
        enumerate_spanning_trees(complete_graph(10), max_trees=100)


def test_wilson_on_tree_returns_it():
    G = path_graph(6)
    t = wilson_sample(G, seed=5)
    assert t.edge_pairs() == [(i, i + 1) for i in range(5)]


def test_wilson_disconnected():
    with pytest.raises(GraphDisconnected):
        wilson_sample(MultiGraph.build(3, [(0, 1, 1)]), seed=1)


def test_wilson_deterministic():
    G = complete_graph(8)
    assert wilson_sample(G, seed=9).edges == wilson_sample(G, seed=9).edges


def _chi_square_uniform(sampler, G, samples, seed0):
    support = {t.edges: i for i, t in enumerate(enumerate_spanning_trees(G))}
    counts = np.zeros(len(support))
    for i in range(samples):
        t = sampler(G, seed0 + i)
        counts[support[t.edges]] += 1
    stat, p = scipy.stats.chisquare(counts)
    return p


def test_wilson_uniform_c4():
    assert _chi_square_uniform(wilson_sample, cycle_graph(4), 12000, 100) > 1e-3


def test_wilson_uniform_k4():
    assert _chi_square_uniform(wilson_sample, complete_graph(4), 16000, 4000) > 1e-3


def test_wilson_uniform_multigraph():
    G = MultiGraph.build(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    assert _chi_square_uniform(wilson_sample, G, 12000, 77000) > 1e-3


def test_aldous_broder_uniform_c4():
    assert _chi_square_uniform(aldous_broder_sample, cycle_graph(4), 12000, 900000) > 1e-3


def test_wilson_edge_frequency_matches_kirchhoff(rng):
    G = random_connected_graph(rng, 6, 0.7)
    samples = 4000
    counts = Counter()
    for i in range(samples):
        counts.update(wilson_sample(G, seed=31337 + i).edge_pairs())
    for (u, v, _m) in G.edges():
        p = edge_ust_probability(G, (u, v))
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(counts[(u, v)] / samples - p) <= 4 * max(se, 1e-3)


def test_prufer_degree_law():
    # degree of a fixed vertex in the UST of K_n is 1 + Bin(n-2, 1/n); the KS
    # statistic is evaluated at the integers (both CDFs right-continuous),
    # with the continuous Kolmogorov p-value, which is conservative here
    n = 50
    G = complete_graph(n)
    samples = 3000
    degs = np.array(
        [len(wilson_sample(G, seed=7_000_000 + i).adjacency()[17]) for i in range(samples)]
    )
    dist = scipy.stats.binom(n - 2, 1.0 / n)
    grid = np.arange(0, degs.max() + 2)
    emp = np.searchsorted(np.sort(degs), grid, side="right") / samples
    model = dist.cdf(grid - 1)
    d_stat = np.abs(emp - model).max()
    pvalue = scipy.special.kolmogorov(math.sqrt(samples) * d_stat)
    assert pvalue > 1e-3


def test_spanning_tree_validates_against_host(rng):
    G = random_connected_graph(rng, 7, 0.6, max_mult=2)
    for i in range(5):
        for tree in (wilson_sample(G, seed=i), aldous_broder_sample(G, seed=i)):
            for (u, v, c) in tree.edges:
                assert 0 <= c < G.multiplicity(u, v), f"edge ({u},{v},{c}) absent from host"


@pytest.mark.parametrize("sampler", [wilson_sample])
@pytest.mark.parametrize("root", [-1, 5, 7])
def test_sampler_root_out_of_range(sampler, root):
    with pytest.raises(VertexOutOfRange):
        sampler(cycle_graph(5), seed=1, root=root)


def test_spanning_tree_rejects_cycles_and_outside_vertices():
    with pytest.raises(PreconditionError):
        SpanningTree(3, [(0, 1, 0), (1, 0, 1)])  # two copies of one pair
    with pytest.raises(PreconditionError):
        SpanningTree(4, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
    with pytest.raises(VertexOutOfRange):
        SpanningTree(3, [(0, 1, 0), (1, 3, 0)])
    assert SpanningTree(4, [(2, 3, 0), (0, 1, 0), (1, 2, 0)]).edge_pairs() == [(0, 1), (1, 2), (2, 3)]


def test_parent_array_refusals():
    zeros = [0] * 4
    with pytest.raises(PreconditionError):
        SpanningTree.from_parents(4, [0, 2, 1, 0], zeros, 0)  # 1 and 2 point at each other
    with pytest.raises(PreconditionError):
        SpanningTree.from_parents(4, [0, 0, 2, 2], zeros, 0)  # 2 is its own parent
    with pytest.raises(PreconditionError):
        SpanningTree.from_parents(4, [1, 0, 0, 0], zeros, 0)  # the root is not its own parent
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(4, [0, 0, 4, 0], zeros, 0)
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(4, [0, -1, 0, 0], zeros, 0)
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(4, [0, 0, 0, 0], zeros, 4)
    with pytest.raises(PreconditionError):
        SpanningTree.from_parents(4, [0, 0, 0], zeros, 0)
    with pytest.raises(PreconditionError):
        SpanningTree.from_parents(4, [0, 0, 0, 0], [0] * 5, 0)
    # a path 0..19 and, apart from it, a cycle 20 -> 21 -> ... -> 39 -> 20
    parent = [0] + list(range(19)) + list(range(21, 40)) + [20]
    with pytest.raises(PreconditionError):
        SpanningTree.from_parents(40, parent, [0] * 40, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 17, 33, 64, 65])
def test_parent_array_paths_pass_pointer_doubling(n):
    # a path hung from one end is as deep as a tree gets: n - 1 steps
    tree = SpanningTree.from_parents(n, [0] + list(range(n - 1)), [0] * n, 0)
    assert tree == SpanningTree(n, [(i, i + 1, 0) for i in range(n - 1)])
    assert hash(tree) == hash(SpanningTree(n, [(i, i + 1, 0) for i in range(n - 1)]))
    # hung from the other end
    tree = SpanningTree.from_parents(n, list(range(1, n)) + [n - 1], [0] * n, n - 1)
    assert tree.edge_pairs() == [(i, i + 1) for i in range(n - 1)]


def test_wilson_expected_steps_is_degree_weighted_resistance():
    # Wilson (1996): the walks take sum_v deg(v) R_eff(root, v) steps on average
    g = StepGraphon(np.array([0.4, 0.6]), np.array([[0.9, 0.3], [0.3, 0.6]]))
    G, _labels = sample_w_random_graph(g, 30, seed=12)
    assert G.is_connected()
    lap = LaplacianSystem(G, ground=0)
    expected = sum(float(G.degrees[v]) * lap.resistance(0, v) for v in range(1, G.n))
    runs = 2000
    steps = np.empty(runs)
    table = ust._walk_table(G, 0)
    for i in range(runs):
        # the walk counts its own steps: one uniform each
        _nxt, steps[i] = ust._wilson_walk(*table, 0, stream(700 + i))
    se = steps.std(ddof=1) / math.sqrt(runs)
    assert abs(steps.mean() - expected) <= 4 * se
