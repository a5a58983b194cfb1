"""Property tests: goodness and the (G2) boundaries against loop-by-loop oracles."""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ustlocal.decompose import (
    GOOD_CONSTANTS,
    ExpanderDecomposition,
    _clean_cluster,
    expander_decompose,
    good_vertices,
    verify_decomposition,
)
from ustlocal.errors import UstlocalError
from ustlocal.multigraph import MultiGraph

from decompose_oracle import good_vertices_oracle

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def labelled_multigraphs(draw, max_n=12, max_mult=3):
    """(G, labels): a multigraph with isolated vertices and a nonempty residual V_0 (label 0)."""
    n = draw(st.integers(2, max_n))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, max_mult))
    entries = draw(st.lists(entry.filter(lambda e: e[0] != e[1]), max_size=3 * n))
    isolated = draw(st.integers(1, 3))
    G = MultiGraph.build(n + isolated, entries)
    labels = draw(st.lists(st.integers(0, 3), min_size=G.n, max_size=G.n))
    labels[draw(st.integers(0, G.n - 1))] = 0
    return G, np.array(labels, dtype=np.int64)


@PROPERTY
@given(
    labelled_multigraphs(),
    st.sampled_from([1e-3, 0.05, 0.3, 0.8, 1.0]),
    st.sampled_from([0.01, 0.1, 0.3, 0.6, 0.9]),
)
def test_good_vertices_match_oracle(graph, alpha, eps):
    G, labels = graph
    dec = ExpanderDecomposition(labels, 0.1, 0.1, 0.1)
    rep = good_vertices(G, dec, alpha=alpha, eps=eps)
    conditions, good = good_vertices_oracle(G, labels, alpha, eps, GOOD_CONSTANTS)
    assert (rep.conditions == conditions).all()
    assert (rep.good == good).all()
    assert not rep.conditions[(labels == 0) | (G.degrees == 0)].any()


@PROPERTY
@given(labelled_multigraphs())
def test_g2_boundaries_match_pair_count(graph):
    G, labels = graph
    report = verify_decomposition(G, ExpanderDecomposition(labels, 0.1, 0.1, 0.1))
    assert [i for (i, _b, _c) in report.g2_checks] == list(range(1, int(labels.max()) + 1))
    for (i, boundary, _budget) in report.g2_checks:
        part = np.flatnonzero(labels == i)
        rest = np.flatnonzero(labels != i)
        assert boundary == G.pair_count(part, rest)


@PROPERTY
@given(labelled_multigraphs(), st.sampled_from([0.1, 0.3, 0.6, 0.9]), st.randoms(use_true_random=False))
def test_cleaning_ignores_cluster_order(graph, gamma, random):
    G, labels = graph
    cluster = np.flatnonzero(labels == labels[0])
    shuffled = cluster.copy()
    random.shuffle(shuffled)
    kept, stripped = _clean_cluster(G, cluster, gamma)
    got_kept, got_stripped = _clean_cluster(G, shuffled, gamma)
    assert got_kept.tolist() == kept.tolist() and got_stripped.tolist() == stripped.tolist()
    assert sorted(kept.tolist() + stripped.tolist()) == cluster.tolist()


@st.composite
def simple_graphs(draw, max_n=20):
    """G(n, p) graphs on 1..max_n vertices: sparse ones are often disconnected."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.15, 0.3, 0.45, 0.6, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return MultiGraph.build(n, [(int(u), int(v), 1) for u, v in zip(iu[keep], ju[keep])])


@PROPERTY
@given(simple_graphs(), *[st.floats(0.01, 0.99)] * 3)
def test_decompose_labels_every_vertex_without_warnings(G, gamma, eta, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            dec = expander_decompose(G, gamma, eta, eps)
        except UstlocalError:
            return
    assert len(dec.labels) == G.n
    assert ((dec.labels >= 0) & (dec.labels <= dec.k)).all()
    assert set(range(1, dec.k + 1)) <= set(dec.labels.tolist())
