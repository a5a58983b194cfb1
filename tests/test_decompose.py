import numpy as np
import pytest

from ustlocal.decompose import (
    ExpanderDecomposition,
    _best_split,
    _clean_cluster,
    _first_violating_prefix,
    big_parts,
    expander_decompose,
    good_vertices,
    spectral_expansion_certificate,
    trivial_decomposition,
    verify_decomposition,
)
from ustlocal.errors import ParameterOutOfRange, PartitionMismatch
from ustlocal.graphon import StepGraphon, sample_w_random_graph
from ustlocal.multigraph import MultiGraph, complete_graph
from ustlocal.walk import _fiedler_vector, sweep_cuts

from conftest import random_connected_graph, two_cliques_matching


def test_complete_graph_single_part():
    G = complete_graph(16)
    dec = expander_decompose(G, gamma=0.5, eta=0.5, eps=0.2)
    assert dec.k == 1
    assert len(dec.residual()) == 0
    assert dec.verification.ok
    assert dec.verification.g3_checks[0].mode == "exact"


def test_two_cliques_matching_recovered():
    G = two_cliques_matching(100)
    dec = expander_decompose(G, gamma=0.1, eta=0.05, eps=0.05)
    assert dec.k == 2
    assert len(dec.residual()) == 0
    assert dec.verification.ok
    for i in (1, 2):
        part = dec.part(i)
        sides = set(int(v) // 100 for v in part)
        assert len(sides) == 1
    # cross edges: 100 <= eta |V_i| n
    for (_i, boundary, budget) in dec.verification.g2_checks:
        assert boundary == 100
        assert boundary <= budget


def test_disconnected_components_isolated():
    edges = [(i, j, 1) for i in range(8) for j in range(i + 1, 8)]
    edges += [(8 + i, 8 + j, 1) for i in range(8) for j in range(i + 1, 8)]
    G = MultiGraph.build(16, edges)
    dec = expander_decompose(G, gamma=0.2, eta=0.2, eps=0.2)
    assert dec.k == 2
    assert dec.verification.ok


def test_parameter_range_check():
    with pytest.raises(ParameterOutOfRange):
        expander_decompose(complete_graph(4), gamma=0.0, eta=0.5, eps=0.5)


def test_verify_trivial_k4_exact():
    G = complete_graph(4)
    dec = trivial_decomposition(G, gamma=1.0, eta=1.0 - 1e-9, eps=0.5)
    report = verify_decomposition(G, dec)
    assert report.ok
    assert report.g3_checks[0].mode == "exact"
    assert report.g3_checks[0].value == pytest.approx(1.0)


def test_verify_detects_bad_split():
    # half a clique labeled alone forces a dense boundary: (G2) fails
    G = complete_graph(20)
    labels = np.ones(20, dtype=int)
    labels[:10] = 2
    dec = ExpanderDecomposition(labels, gamma=0.5, eta=0.05, eps=0.05)
    report = verify_decomposition(G, dec)
    assert not report.g2_ok


def test_verify_detects_sparse_part():
    # a 2-vertex part with no internal edge fails (G3)
    G = MultiGraph.build(6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)])
    labels = np.array([1, 1, 1, 2, 0, 2])
    dec = ExpanderDecomposition(labels, gamma=0.1, eta=0.9, eps=0.9)
    report = verify_decomposition(G, dec)
    assert not report.g3_ok


def test_verify_partition_mismatch():
    G = complete_graph(4)
    with pytest.raises(PartitionMismatch):
        verify_decomposition(G, ExpanderDecomposition(np.ones(3, dtype=int), 0.1, 0.1, 0.1))


def test_verify_recheckable(rng):
    G = random_connected_graph(rng, 12, 0.6)
    dec = expander_decompose(G, gamma=0.05, eta=0.3, eps=0.3)
    r1 = verify_decomposition(G, dec)
    r2 = verify_decomposition(G, dec)
    assert r1.to_dict() == r2.to_dict()


def test_spectral_certificate_is_lower_bound(rng):
    for _ in range(8):
        G = random_connected_graph(rng, 10, 0.7)
        cert = spectral_expansion_certificate(G)
        assert cert <= G.exact_expansion() + 1e-9


def test_good_vertices_complete_graph():
    G = complete_graph(30)
    dec = trivial_decomposition(G)
    for alpha in (0.01, 0.5, 0.99):
        rep = good_vertices(G, dec, alpha=alpha, eps=0.5)
        assert rep.good.all()
        assert rep.conditions[5].all()


def test_residual_vertices_never_good():
    # eps = 0.4 tolerates the one neighbor lost to V_0 in condition (b)
    G = complete_graph(10)
    labels = np.ones(10, dtype=int)
    labels[3] = 0
    dec = ExpanderDecomposition(labels, 0.1, 0.1, 0.1)
    rep = good_vertices(G, dec, alpha=0.5, eps=0.4)
    assert not rep.good[3]
    assert rep.good.sum() == 9


def test_good_vertices_two_cliques():
    G = two_cliques_matching(200)
    labels = np.concatenate([np.ones(200, dtype=int), np.full(200, 2, dtype=int)])
    dec = ExpanderDecomposition(labels, 0.1, 0.05, 0.05)
    rep = good_vertices(G, dec, alpha=0.1, eps=0.1)
    assert rep.good.all()


def test_big_parts_complete_graph():
    G = complete_graph(40)
    dec = trivial_decomposition(G)
    rep = good_vertices(G, dec, alpha=0.5, eps=0.1)
    assert big_parts(G, dec, rep) == {1}


def test_big_parts_reject_independent_set():
    # star center carries all edges; the leaf part spans none
    G = MultiGraph.build(8, [(0, i, 1) for i in range(1, 8)])
    labels = np.ones(8, dtype=int)
    labels[4:] = 2
    dec = ExpanderDecomposition(labels, 0.01, 0.9, 0.9)
    rep = good_vertices(G, dec, alpha=0.5, eps=0.01)
    assert 2 not in big_parts(G, dec, rep)


def test_big_parts_mass_on_block_diagonal_sample():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.9, 0.0], [0.0, 0.9]]))
    n = 400
    G, labels = sample_w_random_graph(g, n, seed=14)
    dec = expander_decompose(G, gamma=0.05, eta=0.05, eps=0.05)
    rep = good_vertices(G, dec, alpha=1e-3, eps=0.05)
    big = big_parts(G, dec, rep)
    covered = sum(len(dec.part(i)) for i in big)
    assert covered >= 0.95 * n


def test_big_parts_labels_longer_than_graph():
    K9 = complete_graph(9)
    dec = trivial_decomposition(K9)
    rep = good_vertices(K9, dec, alpha=0.5, eps=0.1)
    with pytest.raises(PartitionMismatch):
        big_parts(complete_graph(6), dec, rep)




def test_planted_labels_recovered():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.9, 0.0], [0.0, 0.9]]))
    G, planted = sample_w_random_graph(g, 300, seed=3)
    dec = expander_decompose(G, gamma=0.05, eta=0.05, eps=0.05)
    assert dec.k == 2
    agree = 0
    for i in (1, 2):
        part = dec.part(i)
        votes = planted[part]
        majority = np.bincount(votes).argmax()
        agree += int((votes == majority).sum())
    assert agree >= 0.95 * 300


def _planted_blocks(k, n=400, seed=3):
    W = np.full((k, k), 0.01)
    np.fill_diagonal(W, 0.9)
    return sample_w_random_graph(StepGraphon(np.full(k, 1.0 / k), W), n, seed=seed)


def test_best_split_ignores_cluster_order():
    # phase 1 pushes its side in Fiedler order, and the side is split again
    G, _planted = _planted_blocks(4)
    _ratio, side = _best_split(G, np.arange(G.n))
    assert side.tolist() != sorted(side.tolist())
    for cluster in (side, np.arange(G.n)):
        ratio, got = _best_split(G, cluster)
        for shuffled in (cluster[::-1], np.random.default_rng(7).permutation(cluster)):
            again, got_shuffled = _best_split(G, shuffled)
            assert again == ratio
            assert got_shuffled.tolist() == got.tolist()


@pytest.mark.parametrize("k", [3, 4, 5])
def test_planted_blocks_recovered_exactly(k):
    G, planted = _planted_blocks(k)
    dec = expander_decompose(G, gamma=0.1, eta=0.1, eps=0.1)
    assert dec.k == k
    assert len(dec.residual()) == 0
    assert sorted(len(set(planted[part].tolist())) for part in dec.parts()) == [1] * k
    assert dec.verification.ok


def test_best_split_separates_components():
    # triangles {0, 1, 2} and {3, 4, 5}, and 6 with no neighbour in the cluster
    G = MultiGraph.build(8, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (6, 7, 1)])
    for cluster, first in (([4, 0, 5, 2, 3, 1], [0, 1, 2]), ([6, 5, 4, 3], [3, 4, 5])):
        ratio, side = _best_split(G, np.array(cluster))
        assert ratio == 0.0 and side.tolist() == first


def test_decompose_splits_disconnected_sides():
    # the first sweep cut leaves the side {1, 3, 5, 7}, in which 3 has no
    # neighbour; a lazy walk on it would divide by a zero degree
    G = MultiGraph.build(8, [(0, 2, 1), (0, 6, 1), (1, 5, 1), (1, 6, 1), (2, 4, 1), (2, 6, 1),
                             (2, 7, 1), (3, 4, 1), (4, 5, 1), (4, 6, 1), (5, 7, 1)])
    ratio, side = _best_split(G, np.array([1, 3, 5, 7]))
    assert ratio == 0.0 and side.tolist() == [1, 5, 7]
    dec = expander_decompose(G, gamma=0.5, eta=0.8, eps=0.5)
    assert dec.labels.tolist() == [1, 2, 1, 0, 1, 2, 1, 2]
    assert dec.verification.ok


def test_idempotence_of_cleaning(rng):
    G = two_cliques_matching(50)
    dec = expander_decompose(G, gamma=0.1, eta=0.1, eps=0.1)
    for i in range(1, dec.k + 1):
        part = dec.part(i)
        sub, _ = G.induced_subgraph(part)
        again = expander_decompose(sub, gamma=0.1, eta=0.1, eps=0.1)
        assert again.k == 1
        assert len(again.residual()) == 0


def test_decomposition_json_roundtrip():
    G = complete_graph(6)
    dec = expander_decompose(G, gamma=0.5, eta=0.5, eps=0.5)
    back = ExpanderDecomposition.from_json(dec.to_json())
    assert (back.labels == dec.labels).all()
    assert back.gamma == dec.gamma


def test_decompose_requires_simple_graph():
    from ustlocal.errors import NotSimple

    G = MultiGraph.build(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(NotSimple):
        expander_decompose(G, gamma=0.1, eta=0.1, eps=0.1)


def _first_violating_prefix_by_pair_count(sub, gamma):
    """Reference for the cleaning sweep: one pair count per Fiedler prefix."""
    order = np.argsort(-_fiedler_vector(sub), kind="stable")
    candidates = [order[:k] for k in range(1, sub.n)] + [order[::-1][:k] for k in range(1, sub.n)]
    for cand in candidates:
        if len(cand) > 0.6 * sub.n:
            continue
        others = np.setdiff1d(np.arange(sub.n), cand)
        if sub.pair_count(cand.tolist(), others.tolist()) < gamma * len(cand) * len(others):
            return cand
    return None


def test_sweep_cuts_match_pair_counts(rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        G = random_connected_graph(rng, n, 0.5, max_mult=3)
        order, cuts = sweep_cuts(G)
        assert np.array_equal(order, np.argsort(-_fiedler_vector(G), kind="stable"))
        for k in range(n - 1):
            assert cuts[k] == G.pair_count(order[: k + 1], order[k + 1:])


def test_cleaning_sweep_matches_pair_count_scan(rng):
    found = 0
    for _ in range(30):
        n = int(rng.integers(3, 14))
        sub = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        for gamma in (0.2, 0.5, 0.8):
            got = _first_violating_prefix(sub, gamma)
            ref = _first_violating_prefix_by_pair_count(sub, gamma)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got.tolist() == ref.tolist()
                found += 1
    assert found > 0  # the scan reaches violating sets, not only the no-violation case


def test_cleaning_sweep_reaches_reversed_prefixes():
    # cliques {0, 1}, {2..8} and {9..12} with sparse cross edges: the 2-clique
    # sits at the negative end of the Fiedler order, and no forward prefix
    # violates, so only the reversed scan finds it
    blocks = [range(0, 2), range(2, 9), range(9, 13)]
    edges = [(a, b) for blk in blocks for a in blk for b in blk if a < b]
    edges += [(0, 6), (0, 8), (1, 3), (1, 8), (2, 9), (2, 12), (3, 9), (3, 11),
              (7, 10), (7, 11), (8, 11), (8, 12)]
    sub = MultiGraph.build(13, edges)
    order, _cuts = sweep_cuts(sub)
    got = _first_violating_prefix(sub, 0.2)
    assert got.tolist() == order[::-1][:2].tolist() == [0, 1]
    assert got.tolist() == _first_violating_prefix_by_pair_count(sub, 0.2).tolist()


def test_cleaning_keeps_clique_of_reversed_cluster():
    # cliques {0..7} and {8..11} joined by (i, i + 8), i < 4: the sweep
    # strips the small clique whatever order the cluster arrives in
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(i, j) for i in range(8, 12) for j in range(i + 1, 12)]
    edges += [(i, i + 8) for i in range(4)]
    G = MultiGraph.build(12, edges)
    for cluster in (np.arange(12), np.arange(12)[::-1]):
        kept, stripped = _clean_cluster(G, cluster, 0.3)
        assert kept.tolist() == list(range(8))
        assert stripped.tolist() == list(range(8, 12))
