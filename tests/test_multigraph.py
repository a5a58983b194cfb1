import numpy as np
import pytest

from ustlocal.errors import (
    EdgeNotInGraph,
    LoopEdge,
    PartitionMismatch,
    TooLargeForExactCheck,
    VertexOutOfRange,
    ZeroMultiplicity,
)
from ustlocal.multigraph import (
    MultiGraph,
    _parse_edge_list_bytes,
    complete_graph,
    cycle_graph,
    forest_roots,
    path_graph,
    read_edge_list,
)

from conftest import random_connected_graph


def test_build_triangle():
    G = MultiGraph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert G.n == 3
    assert G.max_multiplicity == 1
    assert list(G.degrees) == [2, 2, 2]


def test_build_double_edge():
    G = MultiGraph.build(2, [(0, 1, 2)])
    assert list(G.degrees) == [2, 2]
    assert G.max_multiplicity == 2


def test_build_accumulates_parallel_entries():
    G = MultiGraph.build(2, [(0, 1, 1), (1, 0, 2)])
    assert G.multiplicity(0, 1) == 3


def test_build_rejects_loop():
    with pytest.raises(LoopEdge):
        MultiGraph.build(2, [(0, 0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        MultiGraph.build(2, [(0, 2, 1)])


def test_build_rejects_zero_multiplicity():
    with pytest.raises(ZeroMultiplicity):
        MultiGraph.build(2, [(0, 1, 0)])


def test_handshake_after_build(rng):
    for _ in range(25):
        n = int(rng.integers(2, 10))
        G = random_connected_graph(rng, n, 0.6, max_mult=3)
        G.check_handshake()


def test_pair_count_single_edge_both_sets():
    G = MultiGraph.build(2, [(0, 1, 1)])
    assert G.pair_count([0, 1], [0, 1]) == 2


def test_pair_count_star_split():
    G = complete_graph(3)
    assert G.pair_count([0], [1, 2]) == 2


def test_pair_count_empty():
    G = complete_graph(3)
    assert G.pair_count([], [0, 1, 2]) == 0


def test_pair_count_symmetry(rng):
    for _ in range(20):
        G = random_connected_graph(rng, 7, 0.5, max_mult=2)
        A = [int(v) for v in rng.choice(7, size=3, replace=False)]
        B = [int(v) for v in rng.choice(7, size=4, replace=False)]
        assert G.pair_count(A, B) == G.pair_count(B, A)


def test_pair_count_degree_identity(rng):
    # sum_{v in P} deg(v, P) = e(P, P)
    for _ in range(10):
        G = random_connected_graph(rng, 8, 0.5, max_mult=2)
        P = [1, 2, 6, 7]
        in_p = np.zeros(8, dtype=np.int64)
        in_p[P] = 1
        assert G.same_part_sums(in_p, np.ones(8))[P].sum() == G.pair_count(P, P)


def test_same_part_sums_length_mismatch():
    G = complete_graph(6)
    with pytest.raises(PartitionMismatch):
        G.same_part_sums(np.zeros(9, dtype=np.int64), np.ones(6))
    with pytest.raises(PartitionMismatch):
        G.same_part_sums(np.zeros(6, dtype=np.int64), np.ones(5))


def test_contract_triangle_edge():
    G = complete_graph(3)
    H, vmap = G.contract([(0, 1)])
    assert H.n == 2
    assert H.multiplicity(0, 1) == 2
    assert vmap[0] == vmap[1]


def test_contract_whole_path():
    G = path_graph(3)
    H, _ = G.contract([(0, 1), (1, 2)])
    assert H.n == 1
    assert H.num_edges == 0


def test_contract_k4_edge():
    G = complete_graph(4)
    H, vmap = G.contract([(0, 1)])
    assert H.n == 3
    merged = vmap[0]
    others = sorted(set(range(3)) - {merged})
    assert H.multiplicity(merged, others[0]) == 2
    assert H.multiplicity(merged, others[1]) == 2
    assert H.multiplicity(others[0], others[1]) == 1


def test_contract_vertex_count_identity(rng):
    # v(G/S) = v(G) - |spanning forest of S|
    for _ in range(10):
        G = random_connected_graph(rng, 8, 0.6)
        pairs = G.edge_pairs()
        take = [pairs[i] for i in rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)]
        H, _ = G.contract(take)
        forest = MultiGraph.build(8, [(u, v, 1) for u, v in take])
        forest_edges = 8 - (int(forest.component_labels().max()) + 1)
        assert H.n == G.n - forest_edges


def test_contract_missing_edge():
    with pytest.raises(EdgeNotInGraph):
        path_graph(3).contract([(0, 2)])


def test_delete_examples():
    K3 = complete_graph(3)
    P = K3.delete([(0, 1)])
    assert P.num_edges == 2 and P.is_connected()

    D = MultiGraph.build(2, [(0, 1, 2)]).delete([(0, 1)])
    assert D.multiplicity(0, 1) == 1

    K4 = complete_graph(4)
    C = K4.delete([(0, 1), (2, 3)])
    assert sorted(C.degrees) == [2, 2, 2, 2]
    assert C.is_connected()


def test_delete_too_many_copies():
    with pytest.raises(EdgeNotInGraph):
        MultiGraph.build(2, [(0, 1, 2)]).delete([(0, 1, 3)])


def test_delete_keeps_isolated_vertices():
    G = path_graph(2).delete([(0, 1)])
    assert G.n == 2
    assert G.num_edges == 0


def test_expander_c4():
    C4 = cycle_graph(4)
    assert C4.is_gamma_expander(0.5)
    assert not C4.is_gamma_expander(0.6)


def test_expander_k4():
    assert complete_graph(4).is_gamma_expander(1.0)


def test_expander_disconnected():
    G = MultiGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    assert not G.is_gamma_expander(1e-9)


def test_expander_monotone(rng):
    for _ in range(10):
        G = random_connected_graph(rng, 7, 0.6)
        gamma = G.exact_expansion()
        assert G.is_gamma_expander(gamma)
        assert G.is_gamma_expander(gamma / 2)
        assert not G.is_gamma_expander(gamma + 1e-6)


def test_expander_too_large():
    with pytest.raises(TooLargeForExactCheck):
        complete_graph(21).is_gamma_expander(0.5)


def test_removal_robustness(rng):
    # strip edges at one vertex of an exact gamma-expander while keeping its
    # degree >= gamma * m; the result stays a gamma/2-expander (m >= 8 l^2 / gamma^2)
    for _ in range(5):
        m = 16
        G = random_connected_graph(rng, m, 0.9)
        gamma = G.exact_expansion()
        if 8.0 / gamma**2 > m:
            continue
        v = int(rng.integers(m))
        nbrs = [u for u in range(m) if G.multiplicity(v, u) > 0]
        slack = int(G.degree(v) - np.ceil(gamma * m))
        strip = min(slack, m, len(nbrs))
        if strip <= 0:
            continue
        removed = [(v, u) for u in nbrs[:strip]]
        H = G.delete(removed)
        assert H.degree(v) >= gamma * m - 1e-9
        assert H.is_gamma_expander(gamma / 2)


def test_induced_subgraph():
    K4 = complete_graph(4)
    H, index = K4.induced_subgraph([0, 1, 3])
    assert H.n == 3 and H.num_edges == 3
    assert set(index) == {0, 1, 3}

    E, _ = K4.induced_subgraph([])
    assert E.n == 0

    two = MultiGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    H, _ = two.induced_subgraph([0, 1])
    assert H.num_edges == 1


def test_edge_list_roundtrip(rng):
    G = random_connected_graph(rng, 9, 0.4, max_mult=3)
    text = G.to_edge_list_text()
    H = MultiGraph.from_edge_list_text(text)
    assert H.n == G.n
    assert list(H.edges()) == list(G.edges())


def test_edge_list_rejects_loops():
    with pytest.raises(LoopEdge):
        MultiGraph.from_edge_list_text("2 1\n0 0\n")


def test_edge_list_rejects_bad_index():
    with pytest.raises(VertexOutOfRange):
        MultiGraph.from_edge_list_text("2 1\n0 5\n")


@pytest.mark.parametrize("text", [
    "2 1\n0 x\n",      # non-integer vertex token
    "2 1\n0 1 1.5\n",  # non-integer multiplicity
    "n m\n0 1\n",      # header with no integers
    "2 one\n0 1\n",    # header edge count not an integer
])
def test_edge_list_rejects_non_integer_tokens(text):
    with pytest.raises(VertexOutOfRange):
        MultiGraph.from_edge_list_text(text)


def test_edge_list_fallback_rows(tmp_path):
    # a 20-digit token leaves int64: the checked reader names it
    with pytest.raises(VertexOutOfRange, match="is not an integer"):
        MultiGraph.from_edge_list_text("2 1\n0 99999999999999999999\n")
    # a sign is not plain digits, so the line reader takes it, and int() accepts it
    assert _parse_edge_list_bytes("2 1\n0 +1\n") is None
    assert list(MultiGraph.from_edge_list_text("2 1\n0 +1\n").edges()) == [(0, 1, 1)]
    empty = MultiGraph.from_edge_list_text("3 0\n")
    assert (empty.n, empty.num_edges) == (3, 0)
    text = "4 3\n0 1\n1 2 2\n\n2 3\n"
    (tmp_path / "lf.txt").write_bytes(text.encode("ascii"))
    (tmp_path / "crlf.txt").write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    G, H = read_edge_list(tmp_path / "lf.txt"), read_edge_list(tmp_path / "crlf.txt")
    assert (H.n, list(H.edges())) == (G.n, list(G.edges())) == (4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])


def test_edge_list_errors_in_line_order():
    with pytest.raises(LoopEdge):
        MultiGraph.from_edge_list_text("3 2\n1 1\n0 5\n")
    with pytest.raises(VertexOutOfRange):
        MultiGraph.from_edge_list_text("3 2\n0 5\n1 1\n")
    with pytest.raises(ZeroMultiplicity):
        MultiGraph.from_edge_list_text("3 2\n0 1 0\n1 1\n")


def test_from_arrays_matches_build():
    G = MultiGraph.from_arrays(4, [2, 0, 1, 3], [0, 1, 0, 1], [1, 2, 3, 1])
    H = MultiGraph.build(4, [(2, 0, 1), (0, 1, 2), (1, 0, 3), (3, 1, 1)])
    assert list(G.edges()) == list(H.edges()) == [(0, 1, 5), (0, 2, 1), (1, 3, 1)]


def test_edge_arrays_are_read_only():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        G.mult[0] = 2
    with pytest.raises(ValueError):
        G.adjacency_lists()[0][0][0] = 2
    for arr in G.step_table():
        with pytest.raises(ValueError):
            arr[0] = 2


@pytest.mark.parametrize("text", ["3 2\n0\n1 2\n", "3 2\n0 1 1 1\n1 2\n", "3 2\n0 1\n\n"])
def test_edge_list_rejects_bad_edge_lines(text):
    with pytest.raises(VertexOutOfRange):
        MultiGraph.from_edge_list_text(text)


def test_forest_roots_stops_at_first_cycle():
    roots, joined = forest_roots(6, [(3, 4), (1, 3), (4, 5)])
    assert (roots, joined) == ([0, 1, 2, 1, 1, 1], 3)
    roots, joined = forest_roots(4, [(2, 3), (0, 1), (3, 2), (1, 2)])
    assert joined == 2  # (3, 2) repeats the first pair
    assert roots == [0, 0, 2, 2]
    assert forest_roots(3, [(0, 0)])[1] == 0  # a loop closes a cycle at once
