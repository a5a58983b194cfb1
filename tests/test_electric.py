import math

import numpy as np
import pytest

from ustlocal import electric
from ustlocal.electric import (
    LaplacianSystem,
    edge_ust_probability,
    effective_resistance,
    kostochka_upper_check,
    log_spanning_tree_count,
    normalized_tree_count_vs_graphon,
)
from ustlocal.errors import (
    EdgeNotInGraph,
    GraphDisconnected,
    NotSimple,
    NumericError,
    ParameterOutOfRange,
    SameVertex,
    VertexOutOfRange,
)
from ustlocal.graphon import constant_graphon
from ustlocal.multigraph import MultiGraph, complete_graph, cycle_graph, path_graph

from conftest import random_connected_graph, without_copies
from electric_oracle import dense_grounded_minor
from ust_oracle import enumerate_spanning_trees


def test_series_path():
    assert effective_resistance(path_graph(3), 0, 2) == pytest.approx(2.0, abs=1e-12)


def test_triangle_resistance():
    assert effective_resistance(complete_graph(3), 0, 1) == pytest.approx(2 / 3, abs=1e-12)


def test_k4_adjacent_pair():
    assert effective_resistance(complete_graph(4), 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_same_vertex_error():
    with pytest.raises(SameVertex):
        effective_resistance(complete_graph(3), 1, 1)


def test_disconnected_pair_infinite():
    G = MultiGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    assert effective_resistance(G, 0, 2) == math.inf
    # same component still works
    assert effective_resistance(G, 0, 1) == pytest.approx(1.0)


def test_edge_probability_triangle_vs_oracle():
    G = complete_graph(3)
    trees = enumerate_spanning_trees(G)
    frac = sum(1 for t in trees if (0, 1, 0) in t.edges) / len(trees)
    assert edge_ust_probability(G, (0, 1)) == pytest.approx(frac, abs=1e-12)


def test_bridge_probability_one():
    G = MultiGraph.build(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)])
    assert edge_ust_probability(G, (2, 3)) == pytest.approx(1.0, abs=1e-12)


def test_parallel_copy_probability_half():
    G = MultiGraph.build(2, [(0, 1, 2)])
    assert edge_ust_probability(G, (0, 1)) == pytest.approx(0.5, abs=1e-12)


def test_edge_probability_errors():
    with pytest.raises(EdgeNotInGraph):
        edge_ust_probability(path_graph(3), (0, 2))
    with pytest.raises(GraphDisconnected):
        edge_ust_probability(MultiGraph.build(4, [(0, 1, 1), (2, 3, 1)]), (0, 1))


def test_tree_count_on_trees(rng):
    assert log_spanning_tree_count(path_graph(5)) == pytest.approx(0.0, abs=1e-9)


def test_tree_count_k4_and_c5():
    assert log_spanning_tree_count(complete_graph(4)) == pytest.approx(math.log(16), abs=1e-9)
    assert log_spanning_tree_count(cycle_graph(5)) == pytest.approx(math.log(5), abs=1e-9)


def test_tree_count_cayley():
    for n in (3, 5, 10, 30):
        assert log_spanning_tree_count(complete_graph(n)) == pytest.approx(
            (n - 2) * math.log(n), rel=1e-10
        )


def test_tree_count_matches_enumeration(rng):
    for _ in range(10):
        G = random_connected_graph(rng, 6, 0.6, max_mult=2)
        t = len(enumerate_spanning_trees(G))
        assert round(math.exp(log_spanning_tree_count(G))) == t


def test_tree_count_disconnected():
    with pytest.raises(GraphDisconnected):
        log_spanning_tree_count(MultiGraph.build(3, [(0, 1, 1)]))


def test_tree_count_singular_float_minor():
    # 1 + 2**60 rounds to 2**60 in float64, so the minor's Cholesky factor meets a zero pivot
    with pytest.raises(NumericError):
        log_spanning_tree_count(MultiGraph.from_arrays(3, [0, 1], [1, 2], [1, 2**60]))


def test_normalized_count_complete_graph():
    lhs, rhs = normalized_tree_count_vs_graphon(complete_graph(100), constant_graphon(1.0))
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs == pytest.approx(100 ** (-2 / 100), rel=1e-10)


def test_normalized_count_constant_rhs():
    _, rhs = normalized_tree_count_vs_graphon(complete_graph(10), constant_graphon(0.37))
    assert rhs == pytest.approx(0.37, abs=1e-12)


def test_kostochka_examples():
    assert kostochka_upper_check(complete_graph(3))
    assert kostochka_upper_check(complete_graph(4))
    assert kostochka_upper_check(cycle_graph(4))


def test_kostochka_preconditions():
    with pytest.raises(NotSimple):
        kostochka_upper_check(MultiGraph.build(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)]))
    with pytest.raises(ParameterOutOfRange):
        kostochka_upper_check(path_graph(3))  # endpoint degree 1


def test_foster_sum(rng):
    # sum over edge copies of R_eff equals n - 1
    for _ in range(10):
        n = int(rng.integers(3, 9))
        G = random_connected_graph(rng, n, 0.6, max_mult=2)
        total = sum(m * effective_resistance(G, u, v) for (u, v, m) in G.edges())
        assert total == pytest.approx(n - 1, abs=1e-9)


def test_rayleigh_monotonicity(rng):
    for _ in range(15):
        G = random_connected_graph(rng, 7, 0.6)
        pairs = G.edge_pairs()
        u, v = pairs[int(rng.integers(len(pairs)))]
        base = effective_resistance(G, u, v)
        drop = pairs[int(rng.integers(len(pairs)))]
        H = without_copies(G, [drop])
        if not H.is_connected():
            continue
        assert effective_resistance(H, u, v) >= base - 1e-12


def test_dirichlet_duality(rng):
    # any test function with h(u)=0, h(v)=1 has energy >= 1/R_eff
    for _ in range(10):
        G = random_connected_graph(rng, 7, 0.6)
        u, v = 0, 6
        r = effective_resistance(G, u, v)
        h = rng.random(7)
        h[u], h[v] = 0.0, 1.0
        energy = sum(m * (h[x] - h[y]) ** 2 for (x, y, m) in G.edges())
        assert energy >= 1.0 / r - 1e-9


def test_resistance_below_path_length(rng):
    # series bound: R_eff <= graph distance
    G = cycle_graph(8)
    assert effective_resistance(G, 0, 4) <= 4.0 + 1e-12


@pytest.mark.parametrize("u,v", [(-1, 2), (2, -1), (0, 4), (4, 0)])
def test_laplacian_resistance_vertex_range(u, v):
    with pytest.raises(VertexOutOfRange):
        LaplacianSystem(path_graph(4)).resistance(u, v)


@pytest.mark.parametrize("ground", [-1, 4, 1.5, True])
def test_laplacian_ground_vertex_range(ground):
    with pytest.raises(VertexOutOfRange):
        LaplacianSystem(path_graph(4), ground=ground)


@pytest.mark.parametrize("max_mult", [1, 4])
def test_minor_does_not_depend_on_the_chunk(monkeypatch, rng, max_mult):
    G = random_connected_graph(rng, 25, 0.4, max_mult=max_mult)
    for ground in (0, 11, 24):
        want = dense_grounded_minor(G, ground)
        for edges in (1, 7, electric._MINOR_EDGES):
            monkeypatch.setattr(electric, "_MINOR_EDGES", edges)
            got = electric._grounded_minor(G, ground)
            assert got.dtype == np.float64 and np.array_equal(got, want)
