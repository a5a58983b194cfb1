"""Seeds, sample counts, radii, edge entries, vertices, roots, degrees, bins,
pattern parents and decomposition labels of the wrong type raise typed errors.

Each of these used to be cast (a float seed or vertex ran as its integer
part, an edge count of 1.5 built one copy) or escaped as a raw TypeError,
ValueError or IndexError.
"""
import numpy as np
import pytest

from ustlocal.branching import root_ball_distribution_mc, root_degree_distribution
from ustlocal.decompose import ExpanderDecomposition, trivial_decomposition
from ustlocal.electric import LaplacianSystem, edge_ust_probability, effective_resistance
from ustlocal.errors import (
    InvalidDegree,
    InvalidVertices,
    MalformedEdge,
    ParameterOutOfRange,
    PartitionMismatch,
    VertexOutOfRange,
)
from ustlocal.extremal import (
    closed_form_max,
    degree_density_bound,
    optimize_lemma_max,
    sharpness_graph,
)
from ustlocal.freq import freq_graph_component, freq_minus
from ustlocal.graphon import constant_graphon, degree_profile_compare, sample_w_random_graph
from ustlocal.multigraph import MAX_VERTICES, MultiGraph, complete_graph, cycle_graph, path_graph
from ustlocal.rng import stream
from ustlocal.trees import RootedTree, ball, local_census
from ustlocal.ust import SpanningTree, aldous_broder_sample, wilson_sample


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None, -1])
def test_stream_rejects_non_integer_seeds(seed):
    with pytest.raises(ParameterOutOfRange):
        stream(seed)


def test_stream_takes_numpy_integer_seeds():
    assert stream(np.int64(7)).random() == stream(7).random()
    assert stream(np.uint16(7), 2).random() == stream(7, 2).random()


def test_samplers_reject_float_seeds():
    # every sampler draws through stream, so none casts 1.5 to 1
    with pytest.raises(ParameterOutOfRange):
        wilson_sample(complete_graph(4), 1.5)


@pytest.mark.parametrize("samples", [2.5, True, 0, "10"])
def test_branching_rejects_non_integer_samples(samples):
    with pytest.raises(ParameterOutOfRange):
        root_ball_distribution_mc(constant_graphon(1.0), 1, samples, seed=1)


@pytest.mark.parametrize("r", [1.5, 1.0, True, "2"])
def test_branching_rejects_non_integer_radius(r):
    # 1.5 escaped as a raw TypeError and True ran as depth 1
    with pytest.raises(ParameterOutOfRange):
        root_ball_distribution_mc(constant_graphon(1.0), r, 10, seed=1)


@pytest.mark.parametrize("k_max", [2.5, 3.0, True, "3"])
def test_root_degree_rejects_non_integer_k_max(k_max):
    with pytest.raises(ParameterOutOfRange):
        root_degree_distribution(constant_graphon(1.0), k_max)


def test_branching_takes_numpy_integer_radius_and_k_max():
    W1 = constant_graphon(1.0)
    assert root_ball_distribution_mc(W1, np.int64(2), np.int32(50), seed=1) == \
        root_ball_distribution_mc(W1, 2, 50, seed=1)
    probs, tail = root_degree_distribution(W1, np.uint8(4))
    want_probs, want_tail = root_degree_distribution(W1, 4)
    assert probs.tolist() == want_probs.tolist() and tail == want_tail


@pytest.mark.parametrize("n,entry", [(2, (0, 1, 1.5)), (3, (0.5, 1.7, 1)), (2, (0, 1, True)),
                                     (2, (0, 1, "2")), (2, (0, 1, 2, 3)), (2, (0,))])
def test_build_rejects_malformed_entries(n, entry):
    # build used to truncate: (0, 1, 1.5) gave one copy, (0.5, 1.7, 1) the edge (0, 1)
    with pytest.raises(MalformedEdge):
        MultiGraph.build(n, [(0, 1), entry])


def test_build_takes_numpy_integer_entries():
    G = MultiGraph.build(3, [(np.int64(0), np.int32(2), np.uint8(2))])
    assert list(G.edges()) == [(0, 2, 2)]


CHERRY = RootedTree([-1, 0, 0])


@pytest.mark.parametrize("parent", [[-1, 0.5, 0.5], [-1, 0.0, 0.0], [-1, "0", "0"], [-1, True],
                                    [-1.0, 0, 0], np.array([-1.0, 0.0, 0.0])])
def test_rooted_tree_rejects_non_integer_parents(parent):
    # an int() cast read 0.5 and "0" as 0, so the first was the cherry, and True as 1, a cycle
    with pytest.raises(InvalidVertices, match="is not an integer in"):
        RootedTree(parent)


def test_rooted_tree_takes_numpy_integer_parents():
    assert RootedTree(np.array([-1, 0, 0])).canonical_code() == CHERRY.canonical_code()
    assert RootedTree([np.int8(-1), np.uint8(0), np.int64(0)]).parent == CHERRY.parent


@pytest.mark.parametrize("vertices", [[0.5], [2.9, 1], [True], np.array([0.5]),
                                      np.array([True, False]), ["1"]])
def test_vertex_sets_reject_non_integers(vertices):
    # a float or bool vertex used to run as its integer part
    K4 = complete_graph(4)
    with pytest.raises(VertexOutOfRange):
        freq_minus(CHERRY, K4, vertices)
    with pytest.raises(VertexOutOfRange):
        freq_minus(CHERRY, K4, [], [(0, vertices[0])])
    with pytest.raises(VertexOutOfRange):
        K4.induced_subgraph(vertices)
    if np.asarray(vertices).dtype != bool:  # a bool `good` is a vertex mask
        with pytest.raises(VertexOutOfRange):
            freq_graph_component(CHERRY, K4, trivial_decomposition(K4), 1, list(vertices))


def test_vertex_sets_take_numpy_integers():
    K4 = complete_graph(4)
    for vertices in (np.array([0, 2], dtype=np.int32), np.array([0, 2], dtype=np.uint16),
                     [np.int64(0), 2]):
        _H, index = K4.induced_subgraph(vertices)
        assert index == {0: 0, 2: 1}
    assert freq_minus(CHERRY, K4, np.array([1], dtype=np.int8)).value == freq_minus(CHERRY, K4, [1]).value


@pytest.mark.parametrize("e", [(0.5, 1.9), (0, 1.0), (True, 1), ("0", 1)])
def test_edge_ust_probability_rejects_non_integer_endpoints(e):
    # (0.5, 1.9) used to be truncated to the edge (0, 1), giving 1.0
    with pytest.raises(MalformedEdge):
        edge_ust_probability(path_graph(4), e)


@pytest.mark.parametrize("u,v", [(0.5, 3), (2.0, 3), (0, 2.0), (True, 3), (0, False), ("1", 3)])
def test_resistance_rejects_non_integer_vertices(u, v):
    # used to escape as a raw IndexError or ValueError
    P4 = path_graph(4)
    with pytest.raises(ParameterOutOfRange):
        effective_resistance(P4, u, v)
    with pytest.raises(VertexOutOfRange):
        LaplacianSystem(P4).resistance(u, v)


def test_resistance_takes_numpy_integer_vertices():
    P4 = path_graph(4)
    assert effective_resistance(P4, np.int64(0), np.uint8(3)) == effective_resistance(P4, 0, 3)
    assert LaplacianSystem(P4).resistance(np.int32(0), 3) == LaplacianSystem(P4).resistance(0, 3)
    assert edge_ust_probability(P4, (np.int64(1), np.int16(2))) == edge_ust_probability(P4, (1, 2))


PATH3 = SpanningTree(3, [(0, 1, 0), (1, 2, 0)])


@pytest.mark.parametrize("r", [1.5, 1.0, True, "2", None])
def test_census_and_ball_reject_non_integer_radius(r):
    # ball read 1.5 as "no limit" and returned the whole tree, local_census
    # raised a raw TypeError, and both ran True as radius 1
    with pytest.raises(VertexOutOfRange):
        local_census(PATH3, r)
    with pytest.raises(VertexOutOfRange):
        ball(PATH3, 0, r)


@pytest.mark.parametrize("v", [1.0, 0.5, True, "1", None])
def test_ball_rejects_non_integer_vertex(v):
    with pytest.raises(VertexOutOfRange):
        ball(PATH3, v, 1)


def test_census_and_ball_take_numpy_integers():
    assert local_census(PATH3, np.int64(2)) == local_census(PATH3, 2)
    assert ball(PATH3, np.int32(1), np.uint8(1)).canonical_code() == ball(PATH3, 1, 1).canonical_code()


@pytest.mark.parametrize("n", [2.5, 2.0, True, False, "3", None, -1, MAX_VERTICES + 1])
def test_vertex_counts_reject_non_integers(n):
    # from_arrays(2.5, ...) and build(2.7, ...) ran with n = 2, True with n = 1,
    # complete_graph(3.9) gave K3, and the path, cycle and sampler escaped as a
    # raw TypeError
    with pytest.raises(VertexOutOfRange):
        MultiGraph.from_arrays(n, [], [])
    with pytest.raises(VertexOutOfRange):
        MultiGraph.build(n, [])
    for make in (complete_graph, path_graph, cycle_graph):
        with pytest.raises(VertexOutOfRange):
            make(n)
    with pytest.raises(VertexOutOfRange):
        sample_w_random_graph(constant_graphon(0.5), n, seed=1)


def test_vertex_counts_take_numpy_integers():
    assert MultiGraph.from_arrays(np.int32(3), [0], [2]).n == 3
    assert MultiGraph.build(np.uint8(2), [(0, 1)]).n == 2
    assert list(complete_graph(np.int64(4)).edges()) == list(complete_graph(4).edges())
    assert list(path_graph(np.uint16(3)).edges()) == [(0, 1, 1), (1, 2, 1)]
    assert list(cycle_graph(np.int8(3)).edges()) == list(cycle_graph(3).edges())
    G, labels = sample_w_random_graph(constant_graphon(0.5), np.int64(9), seed=4)
    H, want = sample_w_random_graph(constant_graphon(0.5), 9, seed=4)
    assert G.n == 9 and list(G.edges()) == list(H.edges()) and labels.tolist() == want.tolist()


@pytest.mark.parametrize("root", [1.5, 1.0, True, "1", None])
def test_sampler_roots_reject_non_integers(root):
    # 1.5 and "1" escaped as a raw TypeError, True as a raw ValueError
    C5 = cycle_graph(5)
    for sampler in (wilson_sample, aldous_broder_sample):
        with pytest.raises(VertexOutOfRange):
            sampler(C5, 1, root=root)
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(2, [0, 0], [0, 0], root)


def test_sampler_roots_take_numpy_integers():
    C5 = cycle_graph(5)
    for sampler in (wilson_sample, aldous_broder_sample):
        assert sampler(C5, 1, root=np.int64(3)) == sampler(C5, 1, root=3)
    assert SpanningTree.from_parents(2, [1, 1], [0, 0], np.uint8(1)) == SpanningTree(2, [(0, 1, 0)])


def test_parent_arrays_reject_non_integers():
    # a parent of 1.5 was cast to 1, which made a valid tree
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(3, [0, 0, 1.5], [0, 0, 0], 0)
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(2, [True, True], [0, 0], 1)
    with pytest.raises(MalformedEdge):
        SpanningTree.from_parents(3, [0, 0, 1], [0, 0, 0.5], 0)
    tree = SpanningTree.from_parents(3, np.array([0, 0, 1], dtype=np.uint8), np.zeros(3, dtype=np.int32), 0)
    assert tree == SpanningTree(3, [(0, 1, 0), (1, 2, 0)])


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None, -1])
def test_spanning_tree_rejects_non_integer_counts(n):
    # SpanningTree(2.5, ...) ran with n = 2
    with pytest.raises(VertexOutOfRange):
        SpanningTree(n, [(0, 1, 0)])
    with pytest.raises(VertexOutOfRange):
        SpanningTree.from_parents(n, [0, 0], [0, 0], 0)


@pytest.mark.parametrize("edge", [(0, 1, 1.5), (0, "1", 0), (0.0, 1, 0), (0, 1, True), (0, 1), (0, 1, 0, 0)])
def test_spanning_tree_rejects_malformed_edges(edge):
    # (1, 2, 1.5) and (1, "2", 0) were cast to (1, 2, 1) and (1, 2, 0)
    with pytest.raises(MalformedEdge):
        SpanningTree(3, [(0, 2, 0), edge])


def test_spanning_tree_takes_numpy_integer_edges():
    tree = SpanningTree(np.int64(3), [(np.int32(0), np.uint8(1), np.int64(0)), (1, 2, 0)])
    assert tree.n == 3 and tree.edges == ((0, 1, 0), (1, 2, 0))


@pytest.mark.parametrize("labels", [[1.5, 1, 1, 1, 1], [-1, 1, 1, 1, 1], [True, 1, 1, 1, 1],
                                    ["1", 1, 1, 1, 1], np.array([1.0, 1, 1, 1, 1]),
                                    np.array([-1, 1, 1, 1, 1]), np.ones(5, dtype=bool)])
def test_decomposition_labels_reject_non_integers(labels):
    # 1.5 was cast to 1, and -1 escaped verify_decomposition as a raw ValueError
    with pytest.raises(PartitionMismatch):
        ExpanderDecomposition(labels, 0.1, 0.1, 0.1)


def test_decomposition_labels_take_numpy_integers():
    for labels in ([np.int32(1), 1, 0], np.array([1, 1, 0], dtype=np.uint8)):
        dec = ExpanderDecomposition(labels, 0.1, 0.1, 0.1)
        assert dec.labels.dtype == np.int64 and dec.labels.tolist() == [1, 1, 0]


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
def test_degrees_reject_non_integers(k):
    # degree_density_bound(2.5) escaped as a raw TypeError, and True ran as k = 1
    for call in (degree_density_bound, optimize_lemma_max, closed_form_max):
        with pytest.raises(InvalidDegree):
            call(k)


@pytest.mark.parametrize("k", [4.5, 4.0, "4", None])
def test_sharpness_graph_rejects_non_integer_k(k):
    # k = 4.5 was accepted
    with pytest.raises(InvalidDegree):
        sharpness_graph(20, k, 0.1, 1)


@pytest.mark.parametrize("n", [20.5, 20.0, True, "20", None])
def test_sharpness_graph_rejects_non_integer_n(n):
    # sharpness_graph(20.5, ...) escaped as a raw TypeError
    with pytest.raises(VertexOutOfRange):
        sharpness_graph(n, 4, 0.1, 1)


def test_degrees_take_numpy_integers():
    assert degree_density_bound(np.int64(3)) == degree_density_bound(3)
    assert closed_form_max(np.uint8(5)) == closed_form_max(5)
    G, H = sharpness_graph(np.int32(20), np.int64(4), 0.1, 1), sharpness_graph(20, 4, 0.1, 1)
    assert list(G.edges()) == list(H.edges())


@pytest.mark.parametrize("bins", [0, -1, 2.5, 2.0, True, "2", None])
def test_degree_profile_rejects_bad_bins(bins):
    # bins=0 escaped as a raw IndexError, 2.5 as a raw TypeError
    with pytest.raises(ParameterOutOfRange):
        degree_profile_compare(complete_graph(4), constant_graphon(1.0), bins=bins)


@pytest.mark.parametrize("entry", [(0,), (), (0, 1, 1, 1)])
def test_freq_minus_rejects_malformed_excluded_edges(entry):
    # (0,) escaped as a raw IndexError
    with pytest.raises(MalformedEdge):
        freq_minus(CHERRY, complete_graph(4), [], [entry])
