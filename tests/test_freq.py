import itertools
import math

import numpy as np
import pytest

from ustlocal import freq as freq_mod
from ustlocal.decompose import ExpanderDecomposition, trivial_decomposition
from ustlocal.errors import (
    DegenerateGraphon,
    ParameterOutOfRange,
    PartIndexOutOfRange,
    PartitionMismatch,
    PatternTooLarge,
    VertexOutOfRange,
)
from ustlocal.freq import freq_graph, freq_graph_component, freq_graphon, freq_minus
from ustlocal.graphon import StepGraphon, constant_graphon
from ustlocal.multigraph import MultiGraph, complete_graph
from ustlocal.trees import RootedTree, enumerate_rooted_trees

from conftest import random_connected_graph

EDGE = RootedTree([-1, 0])
W1 = constant_graphon(1.0)


def brute_force_freq_minus(T, G, V0, E0):
    """Independent literal evaluation of the tuple sum from the definition."""
    norm, p = T.normalized()
    ell = norm.size
    edges = norm.edge_list()
    deg = G.degrees.astype(float)
    b = np.zeros(G.n)
    for v in range(G.n):
        for u in range(G.n):
            if G.multiplicity(u, v):
                b[v] += G.multiplicity(u, v) / deg[u]
    banned_pairs = {frozenset(e[:2]) for e in E0}
    v0 = set(V0)
    total = 0.0
    for tup in itertools.permutations(range(G.n), ell):
        if any(v in v0 for v in tup):
            continue
        ok = all(
            G.multiplicity(tup[i], tup[j]) > 0 and frozenset((tup[i], tup[j])) not in banned_pairs
            for (i, j) in edges
        )
        if not ok:
            continue
        w = math.exp(-sum(b[tup[j]] for j in range(p)))
        w *= sum(deg[tup[j]] for j in range(p, ell))
        w /= math.prod(deg[tup[j]] for j in range(ell))
        total += w
    return total / (T.stab_size() * G.n)


def _freq_graphon_enumerated(T, g):
    """Freq(T; W) as the literal sum over all k^ell block assignments."""
    norm, p = T.normalized()
    ell = norm.size
    edges = norm.edge_list()
    mu = g.mu
    d = g.block_degrees
    expb = np.exp(-g.block_b)
    terms = {i: 0.0 for i in range(g.k)}
    for assign in itertools.product(range(g.k), repeat=ell):
        w = 1.0
        for (i, j) in edges:
            w *= g.W[assign[i], assign[j]]
        for j in range(ell):
            w *= mu[assign[j]] / d[assign[j]]
            if j < p:
                w *= expb[assign[j]]
        w *= sum(d[assign[j]] for j in range(p, ell))
        terms[assign[0]] += w
    terms = {i: t / T.stab_size() for i, t in terms.items()}
    return sum(terms.values()), terms


def test_freq_graphon_single_edge():
    rep = freq_graphon(EDGE, W1)
    assert rep.value == pytest.approx(math.exp(-1), abs=1e-14)
    assert rep.stab == 1


def test_freq_graphon_stars():
    for leaves, expect in ((2, math.exp(-1)), (3, math.exp(-1) / 2)):
        star = RootedTree([-1] + [0] * leaves)
        assert freq_graphon(star, W1).value == pytest.approx(expect, abs=1e-14)


def test_freq_graphon_brute_force_two_block(rng):
    # literal reimplementation of the assignment sum as an oracle
    g = StepGraphon(np.array([0.3, 0.7]), np.array([[0.9, 0.4], [0.4, 0.7]]))
    d = g.block_degrees
    b = g.block_b
    for T in enumerate_rooted_trees(4, min_height=1):
        norm, p = T.normalized()
        edges = norm.edge_list()
        ell = norm.size
        total = 0.0
        for assign in itertools.product(range(2), repeat=ell):
            w = math.prod(g.W[assign[i], assign[j]] for (i, j) in edges)
            w *= math.prod(g.mu[c] for c in assign)
            w *= math.exp(-sum(b[assign[j]] for j in range(p)))
            w *= sum(d[assign[j]] for j in range(p, ell))
            w /= math.prod(d[c] for c in assign)
            total += w
        expect = total / T.stab_size()
        assert freq_graphon(T, g).value == pytest.approx(expect, rel=1e-12)


def test_freq_graphon_matches_enumeration(rng):
    patterns = enumerate_rooted_trees(6, min_height=1)
    for trial in range(20):
        k = trial % 3 + 1
        mu = rng.dirichlet(np.ones(k))
        W = rng.uniform(0.05, 1.0, size=(k, k))
        g = StepGraphon(mu, (W + W.T) / 2)
        for T in patterns:
            value, terms = _freq_graphon_enumerated(T, g)
            rep = freq_graphon(T, g)
            assert rep.method == "tree-dp"
            assert rep.value == pytest.approx(value, rel=1e-12)
            assert set(rep.terms) == set(terms)
            for i in terms:
                assert rep.terms[i] == pytest.approx(terms[i], rel=1e-12)


def test_freq_graphon_guards():
    with pytest.raises(DegenerateGraphon):
        freq_graphon(EDGE, StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [0.0, 1.0]])))
    with pytest.raises(ParameterOutOfRange):
        freq_graphon(RootedTree([-1]), W1)
    big = StepGraphon(np.full(4, 0.25), np.full((4, 4), 0.5))
    chain = RootedTree([-1] + list(range(11)))
    # 4^12 block assignments exceed ASSIGNMENT_CAP
    with pytest.raises(PatternTooLarge):
        freq_graphon(chain, big)


def test_probability_completeness_w1_radius1():
    # height-1 patterns on W=1: sum over stars approaches 1
    total = 0.0
    for leaves in range(1, 12):
        star = RootedTree([-1] + [0] * leaves)
        total += freq_graphon(star, W1).value
    assert total <= 1.0 + 1e-12
    assert total >= 0.9999


def test_freq_component_complete_graph_telescopes():
    # on K_n every ordered adjacent pair contributes e^{-1}/(n(n-1))
    for n in (10, 25):
        G = complete_graph(n)
        dec = trivial_decomposition(G)
        rep = freq_graph_component(EDGE, G, dec, 1, np.ones(n, dtype=bool))
        assert rep.value == pytest.approx(math.exp(-1), abs=1e-12)
        assert rep.tuple_count == n * (n - 1)


def test_freq_component_empty_good_set():
    G = complete_graph(5)
    rep = freq_graph_component(EDGE, G, trivial_decomposition(G), 1, [])
    assert rep.value == 0.0


def test_freq_component_part_index_check():
    G = complete_graph(5)
    with pytest.raises(PartIndexOutOfRange):
        freq_graph_component(EDGE, G, trivial_decomposition(G), 2, [0, 1])


@pytest.mark.parametrize("index", [-1, 5])
def test_freq_component_good_index_out_of_range(index):
    G = complete_graph(5)
    with pytest.raises(VertexOutOfRange):
        freq_graph_component(EDGE, G, trivial_decomposition(G), 1, [0, index])


@pytest.mark.parametrize("length", [4, 6])
def test_freq_component_good_mask_length(length):
    G = complete_graph(5)
    with pytest.raises(PartitionMismatch):
        freq_graph_component(EDGE, G, trivial_decomposition(G), 1, np.ones(length, dtype=bool))


def test_freq_component_vs_brute_force(rng):
    G = random_connected_graph(rng, 5, 0.7)
    dec = trivial_decomposition(G)
    rep = freq_graph_component(EDGE, G, dec, 1, np.ones(5, dtype=bool))
    assert rep.value == pytest.approx(brute_force_freq_minus(EDGE, G, [], []), rel=1e-12)


def _component_by(monkeypatch, evaluator, T, G, dec, i, good):
    """freq_graph_component with the evaluator forced through the work limit."""
    limit = math.inf if evaluator == "backtrack" else 0
    monkeypatch.setattr(freq_mod, "_BACKTRACK_WORK_LIMIT", limit)
    rep = freq_graph_component(T, G, dec, i, good)
    assert rep.method == evaluator
    return rep


def test_backtrack_and_mobius_agree(rng, monkeypatch):
    for _ in range(6):
        G = random_connected_graph(rng, 8, 0.6)
        dec = trivial_decomposition(G)
        good = np.ones(8, dtype=bool)
        for T in enumerate_rooted_trees(4, min_height=1):
            a = _component_by(monkeypatch, "backtrack", T, G, dec, 1, good)
            m = _component_by(monkeypatch, "mobius", T, G, dec, 1, good)
            assert a.value == pytest.approx(m.value, rel=1e-9, abs=1e-12)
            assert a.tuple_count == m.tuple_count


def test_mobius_count_in_wrapping_integers_matches_backtrack(rng, monkeypatch):
    # a zero float limit sends every count through the uint64 messages, on
    # tree quotients and on quotients with a cycle alike
    monkeypatch.setattr(freq_mod, "_FLOAT_COUNT_LIMIT", 0)
    for _ in range(3):
        G = random_connected_graph(rng, 8, 0.6)
        dec = trivial_decomposition(G)
        good = np.ones(8, dtype=bool)
        for T in enumerate_rooted_trees(5, min_height=1):
            a = _component_by(monkeypatch, "backtrack", T, G, dec, 1, good)
            m = _component_by(monkeypatch, "mobius", T, G, dec, 1, good)
            assert a.tuple_count == m.tuple_count, T.parent


def test_mobius_count_exact_past_float_precision():
    # 200 * 201 * ... * 207 passes 2^53, and 200!/192! is below 2^64; the
    # float count gave 2221591525865713152
    G = complete_graph(200)
    star = RootedTree([-1] + [0] * 7)
    rep = freq_graph_component(star, G, trivial_decomposition(G), 1, np.ones(200, dtype=bool))
    assert rep.method == "mobius"
    assert rep.tuple_count == math.perm(200, 8) == 2221591525865712000


def test_partition_lattice_refuses_patterns_above_12_vertices():
    # the work rule picks the partition lattice evaluator for a 13-vertex
    # star on K30; Bell(13) partitions are never enumerated
    G = complete_graph(30)
    star = RootedTree([-1] + [0] * 12)
    with pytest.raises(PatternTooLarge, match="13-vertex"):
        freq_graph_component(star, G, trivial_decomposition(G), 1, np.ones(30, dtype=bool))


def test_stab_counts_labeled_embeddings(rng):
    # tuples compatible with T group into unordered copies of size |Stab_T|
    G = random_connected_graph(rng, 6, 0.8)
    for T in enumerate_rooted_trees(4, min_height=1):
        norm, _p = T.normalized()
        edges = norm.edge_list()
        groups = {}
        for tup in itertools.permutations(range(6), norm.size):
            if all(G.multiplicity(tup[i], tup[j]) > 0 for (i, j) in edges):
                key = (tup[0], frozenset(frozenset((tup[i], tup[j])) for (i, j) in edges))
                groups[key] = groups.get(key, 0) + 1
        for key, count in groups.items():
            assert count % T.stab_size() == 0


def test_freq_graph_single_part_scaling():
    G = complete_graph(20)
    dec = trivial_decomposition(G)
    rep = freq_graph(EDGE, G, dec, alpha=0.5, eps=0.1)
    comp = freq_graph_component(EDGE, G, dec, 1, np.ones(20, dtype=bool))
    assert rep.value == pytest.approx(comp.value, rel=1e-12)  # |V_1|/n = 1
    assert rep.method == comp.method == "backtrack"


def test_freq_graph_no_big_parts_zero():
    # a sparse path has no big part at these parameters
    G = MultiGraph.build(6, [(i, i + 1, 1) for i in range(5)])
    dec = trivial_decomposition(G)
    rep = freq_graph(EDGE, G, dec, alpha=0.9, eps=0.9)
    assert rep.value == 0.0 and rep.terms == {}
    assert rep.method == "auto"  # no part was evaluated


def _two_cliques_plus_matching(m):
    edges = []
    for base in (0, m):
        edges += [(base + i, base + j, 1) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + i, 1) for i in range(m)]
    G = MultiGraph.build(2 * m, edges)
    labels = np.concatenate([np.ones(m, dtype=int), np.full(m, 2, dtype=int)])
    return G, ExpanderDecomposition(labels, 0.1, 0.1, 0.1)


def test_freq_graph_two_cliques_plus_matching():
    G, dec = _two_cliques_plus_matching(60)
    rep = freq_graph(EDGE, G, dec, alpha=1e-3, eps=0.2)
    assert set(rep.terms) == {1, 2}
    assert rep.value == pytest.approx(math.exp(-1), abs=0.02)


def test_freq_graph_reports_every_evaluator_used(monkeypatch):
    G, dec = _two_cliques_plus_matching(60)
    real = freq_mod.freq_graph_component

    def per_part_method(T, G, dec, i, good):
        limit = 0 if i == 1 else math.inf  # 0 forces the partition lattice evaluator
        monkeypatch.setattr(freq_mod, "_BACKTRACK_WORK_LIMIT", limit)
        return real(T, G, dec, i, good)

    monkeypatch.setattr(freq_mod, "freq_graph_component", per_part_method)
    rep = freq_graph(EDGE, G, dec, alpha=1e-3, eps=0.2)
    assert set(rep.terms) == {1, 2}
    assert rep.method == "backtrack+mobius"


def test_freq_minus_trivial_equals_component():
    G = complete_graph(12)
    dec = trivial_decomposition(G)
    comp = freq_graph_component(EDGE, G, dec, 1, np.ones(12, dtype=bool))
    minus = freq_minus(EDGE, G, [], [])
    assert minus.value == comp.value  # bitwise: same code path and inputs


def test_freq_minus_all_vertices_blocked():
    G = complete_graph(6)
    assert freq_minus(EDGE, G, list(range(6)), []).value == 0.0


@pytest.mark.parametrize("parent,blocked", [([-1, 0, 0, 1, 2], 26), ([-1, 0, 1, 2, 3, 4], 25)])
def test_freq_minus_fewer_allowed_than_pattern_is_exact_zero(parent, blocked):
    # the work rule picks the lattice evaluator here; its signed sum used to
    # leave a residue such as -2.26e-22 where no tuple of distinct vertices exists
    rep = freq_minus(RootedTree(parent), complete_graph(30), range(blocked))
    assert rep.method == "mobius"
    assert rep.value == 0.0 and rep.tuple_count == 0


def test_freq_minus_vertex_range():
    G = complete_graph(12)
    for bad in (-1, 12):
        with pytest.raises(VertexOutOfRange):
            freq_minus(EDGE, G, [bad], [])
        with pytest.raises(VertexOutOfRange):
            freq_minus(EDGE, G, [], [(0, bad)])


def test_freq_minus_k4_vs_brute_force(rng):
    G = complete_graph(4)
    got = freq_minus(EDGE, G, [2], [])
    assert got.value == pytest.approx(brute_force_freq_minus(EDGE, G, [2], []), rel=1e-12)
    got2 = freq_minus(EDGE, G, [], [(0, 1)])
    assert got2.value == pytest.approx(brute_force_freq_minus(EDGE, G, [], [(0, 1)]), rel=1e-12)


def test_freq_minus_random_patterns_vs_brute_force(rng):
    G = random_connected_graph(rng, 6, 0.7)
    for T in enumerate_rooted_trees(4, min_height=1):
        got = freq_minus(T, G, [1], [(0, 2)] if G.multiplicity(0, 2) else [])
        expect = brute_force_freq_minus(T, G, [1], [(0, 2)] if G.multiplicity(0, 2) else [])
        assert got.value == pytest.approx(expect, rel=1e-10, abs=1e-13)


def test_graph_graphon_consistency_at_scale(monkeypatch):
    # trivial decomposition of K_200 approaches the W=1 functional
    n = 200
    G = complete_graph(n)
    dec = trivial_decomposition(G)
    good = np.ones(n, dtype=bool)
    for T in enumerate_rooted_trees(4, min_height=1):
        discrete = _component_by(monkeypatch, "mobius", T, G, dec, 1, good)
        continuous = freq_graphon(T, W1)
        assert abs(discrete.value - continuous.value) <= 0.01, T.canonical_code()
