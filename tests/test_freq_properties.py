"""The partition-lattice evaluator against its earlier einsum form.

`freq_oracle.mobius_value` contracts the whole presence matrix once per
admissible partition and top-height position; the library visits only the
independent-set partitions, works on the allowed vertices, and takes tree
quotients by a leaf-to-root pass.  Patterns of 4 or more vertices have
quotients with a cycle, so the einsum branch is exercised too.
"""
import numpy as np
import pytest

from ustlocal import freq as freq_mod
from ustlocal.decompose import trivial_decomposition
from ustlocal.errors import PatternTooLarge
from ustlocal.freq import freq_graph_component
from ustlocal.multigraph import complete_graph
from ustlocal.trees import RootedTree, enumerate_rooted_trees

from conftest import random_connected_graph
from freq_oracle import mobius_value


def _oracle_component(T, G, labels, good):
    """freq_graph_component's value and tuple count from the earlier evaluator."""
    norm, p = T.normalized()
    ell, edges = norm.size, norm.edge_list()
    deg = G.degrees.astype(np.float64)
    mask = good.astype(np.float64)
    expb = np.exp(-freq_mod._b_vector(G, labels))
    weights = [mask * expb / deg if j < p else mask / deg for j in range(ell)]
    presence = (G.adjacency_matrix() > 0).astype(np.float64)
    total = mobius_value(presence, weights, deg, p, edges)
    count = mobius_value(presence, [mask] * ell, None, p, edges)
    return total / (T.stab_size() * G.n), int(round(count))


def test_lattice_evaluator_matches_oracle(rng, monkeypatch):
    monkeypatch.setattr(freq_mod, "_BACKTRACK_WORK_LIMIT", 0)  # always the lattice evaluator
    trees = [T for ell in range(2, 8) for T in enumerate_rooted_trees(ell, min_height=1) if T.size == ell]
    assert {T.size for T in trees} == set(range(2, 8))
    graphs = 3
    for g in range(graphs):
        n = int(rng.integers(8, 11))
        G = random_connected_graph(rng, n, float(rng.uniform(0.5, 0.9)))
        dec = trivial_decomposition(G)
        good = rng.random(n) < 0.85
        # the oracle takes about 0.3 s per 7-vertex tree, so each graph gets a
        # third of them; every smaller tree runs on every graph
        for i, T in enumerate(trees):
            if T.size == 7 and i % graphs != g:
                continue
            rep = freq_graph_component(T, G, dec, 1, good)
            value, count = _oracle_component(T, G, dec.labels, good)
            assert rep.method == "mobius"
            # a sum whose distinct tuples all vanish is 0 up to cancellation
            assert rep.value == pytest.approx(value, rel=1e-12, abs=1e-13), T.parent
            assert rep.tuple_count == count, T.parent


def test_independent_partitions_number_bell(rng):
    # the cap on Bell(ell - 1) bounds the lattice walk for every tree shape
    for ell in range(2, 9):
        for _ in range(3):
            parent = [-1] + [int(rng.integers(0, j)) for j in range(1, ell)]
            seen = {tuple(block_of) for block_of, _blocks in freq_mod._independent_partitions(parent)}
            assert len(seen) == freq_mod._bell(ell - 1)
    assert [freq_mod._bell(k) for k in range(11)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_partition_lattice_refuses_12_vertices_before_enumerating(monkeypatch):
    # Bell(11) = 678570 partitions exceed the cap; none is generated
    def no_walk(parent):
        raise AssertionError("partitions generated")

    monkeypatch.setattr(freq_mod, "_independent_partitions", no_walk)
    G = complete_graph(30)
    star = RootedTree([-1] + [0] * 11)
    with pytest.raises(PatternTooLarge, match="12-vertex"):
        freq_graph_component(star, G, trivial_decomposition(G), 1, np.ones(30, dtype=bool))
