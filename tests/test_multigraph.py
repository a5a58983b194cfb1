import tracemalloc

import numpy as np
import pytest

from ustlocal import multigraph
from ustlocal.errors import (
    LoopEdge,
    ParameterOutOfRange,
    PartitionMismatch,
    TooLargeForExactCheck,
    VertexOutOfRange,
    ZeroMultiplicity,
)
from ustlocal.graphon import StepGraphon, sample_w_random_graph
from ustlocal.multigraph import (
    MAX_MULTIPLICITY,
    MAX_TOTAL_MULTIPLICITY,
    MAX_VERTICES,
    MultiGraph,
    _parse_edge_list_bytes,
    complete_graph,
    cycle_graph,
    forest_roots,
    read_edge_list,
    write_edge_list,
)

from conftest import random_connected_graph, without_copies
from multigraph_oracle import percent_format_edge_list_text


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
        assert int(G.degrees.sum()) == 2 * G.num_edges


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


def test_expander_c4():
    # two adjacent vertices: 2 cut edges over 2 * 2 pairs
    assert cycle_graph(4).exact_expansion() == pytest.approx(0.5)


def test_expander_k4():
    assert complete_graph(4).exact_expansion() == pytest.approx(1.0)


def test_expander_disconnected():
    G = MultiGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    assert G.exact_expansion() == 0.0


def test_expander_too_large():
    with pytest.raises(TooLargeForExactCheck):
        complete_graph(21).exact_expansion()


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
        slack = int(G.degrees[v] - np.ceil(gamma * m))
        strip = min(slack, m, len(nbrs))
        if strip <= 0:
            continue
        removed = [(v, u) for u in nbrs[:strip]]
        H = without_copies(G, removed)
        assert H.degrees[v] >= gamma * m - 1e-9
        assert H.exact_expansion() >= gamma / 2 - 1e-12


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


def test_vertex_count_past_pair_keys_raises(tmp_path):
    # u * n + v would wrap int64 above MAX_VERTICES and reorder the pairs
    with pytest.raises(VertexOutOfRange):
        MultiGraph.from_arrays(4_000_000_000, [3_000_000_000, 0], [3_000_000_001, 1])
    with pytest.raises(VertexOutOfRange):
        MultiGraph.build(MAX_VERTICES + 1, [(0, 1)])
    (tmp_path / "big.txt").write_text("4000000000 2\n3000000000 3000000001\n0 1\n")
    with pytest.raises(VertexOutOfRange):
        read_edge_list(tmp_path / "big.txt")
    top = MAX_VERTICES - 1
    G = MultiGraph.from_arrays(MAX_VERTICES, [top - 1, 0], [top, 1])
    assert G.u.tolist() == [0, top - 1] and G.v.tolist() == [1, top]
    assert G.multiplicities([1, top, top], [0, top - 1, 0]).tolist() == [1, 1, 0]


@pytest.mark.parametrize("mults", [[2**62, 2**62], [2**62] * 4, [2**62] * 5, [MAX_MULTIPLICITY, 1]])
def test_multiplicity_sum_past_int64_raises(tmp_path, mults):
    # int64 sums of these wrap to -2**63, 0, 2**62 and -2**63
    k = len(mults)
    with pytest.raises(ParameterOutOfRange):
        MultiGraph.from_arrays(3, [0] * k, [1] * k, mults)
    with pytest.raises(ParameterOutOfRange):
        MultiGraph.build(3, [(1, 0, m) if i % 2 else (0, 1, m) for i, m in enumerate(mults)])
    lines = "".join(f"0 1 {m}\n" for m in mults)
    (tmp_path / "big.txt").write_text(f"3 {k}\n{lines}")
    with pytest.raises(ParameterOutOfRange):
        read_edge_list(tmp_path / "big.txt")


def test_multiplicity_sum_at_int64_limit(tmp_path):
    G = MultiGraph.from_arrays(3, [0, 2, 1], [1, 1, 0], [2**62, 5, 2**62 - 1])
    assert G.mult.tolist() == [MAX_MULTIPLICITY, 5]
    write_edge_list(G, tmp_path / "g.txt")
    assert (tmp_path / "g.txt").read_text() == f"3 2\n0 1 {MAX_MULTIPLICITY}\n1 2 5\n"
    H = read_edge_list(tmp_path / "g.txt")
    assert H.mult.tolist() == G.mult.tolist()


def test_degrees_exact_past_float64():
    # a float64 sum rounds 2**53 + 1 down to 2**53
    G = MultiGraph.from_arrays(3, [0, 1], [1, 2], [2**53 + 1, 1])
    assert G.degrees.tolist() == [2**53 + 1, 2**53 + 2, 1]
    assert int(G.degrees.sum()) == 2 * G.num_edges


def test_degrees_at_total_multiplicity_limit():
    G = MultiGraph.from_arrays(3, [0, 1], [1, 2], [2**61, 2**61 - 1])
    assert G.num_edges == MAX_TOTAL_MULTIPLICITY
    assert G.degrees.tolist() == [2**61, MAX_TOTAL_MULTIPLICITY, 2**61 - 1]
    assert int(G.degrees.sum()) == 2 * G.num_edges


def test_total_multiplicity_past_degree_range_raises():
    # int64 sums of these wrap: num_edges read -2**63 and the middle degree too
    G = MultiGraph.from_arrays(3, [0, 1], [1, 2], [2**62, 2**62])
    with pytest.raises(ParameterOutOfRange):
        G.num_edges
    with pytest.raises(ParameterOutOfRange):
        G.degrees


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


def _roots(n, pairs):
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return forest_roots(n, ends[:, 0], ends[:, 1]).tolist()


def test_forest_roots_joins_every_pair():
    # the root of each vertex is the smallest vertex of its component
    assert _roots(6, [(3, 4), (1, 3), (4, 5)]) == [0, 1, 2, 1, 1, 1]
    # (3, 2) repeats the first pair; (1, 2) is still joined after that cycle
    assert _roots(4, [(2, 3), (0, 1), (3, 2), (1, 2)]) == [0, 0, 0, 0]
    assert _roots(3, [(0, 0)]) == [0, 1, 2]  # a loop joins nothing
    assert _roots(0, []) == [] and _roots(2, []) == [0, 1]
    assert forest_roots(3, np.array([2]), np.array([1])).dtype == np.int64


@pytest.mark.parametrize("chunk", [1, 7, multigraph._HOOK_EDGES])
def test_forest_roots_independent_of_chunk(monkeypatch, chunk):
    # chunks of 1 and 7 edges on 300 vertices hook without the per-chunk
    # shortcut, the default with it; 300 random edges leave many components
    rng = np.random.default_rng(31)
    n = 300
    u, v = rng.integers(0, n, 300), rng.integers(0, n, 300)
    want = forest_roots(n, u, v)
    assert 1 < len(np.unique(want)) < n
    monkeypatch.setattr(multigraph, "_HOOK_EDGES", chunk)
    assert forest_roots(n, u, v).tolist() == want.tolist()


def test_parser_takes_long_zero_padded_tokens():
    # no digit count sends a token to the line reader, only a value that leaves int64
    text = "3 2\n0000000000000000000000001 2\n0 0000000000000000000000000000002 3\n"
    fast = _parse_edge_list_bytes(text)
    assert fast is not None and fast[0] == 3
    assert [a.tolist() for a in fast[1:]] == [[1, 0], [2, 2], [1, 3]]
    assert list(MultiGraph.from_edge_list_text(text).edges()) == [(0, 2, 3), (1, 2, 1)]


@pytest.mark.parametrize("text,outcome", [
    ("2 1\n0 1 9223372036854775807\n", [(0, 1, MAX_MULTIPLICITY)]),  # INT64_MAX, where overflow clamps
    ("2 1\n0 9223372036854775807\n", VertexOutOfRange),  # an endpoint outside 0..1
    ("2 1\n0 9999999999999999999\n", VertexOutOfRange),  # 19 digits, above 2**63
    ("9223372036854775808 1\n0 1\n", VertexOutOfRange),
])
def test_parser_sends_int64_max_to_the_line_reader(text, outcome):
    assert _parse_edge_list_bytes(text) is None
    for data in (text, text.encode("ascii")):
        if isinstance(outcome, list):
            assert list(MultiGraph.from_edge_list_text(data).edges()) == outcome
        else:
            with pytest.raises(outcome):
                MultiGraph.from_edge_list_text(data)


@pytest.mark.parametrize("tokens", [256, 258, 259])
def test_parser_refuses_lines_past_the_narrow_width(tokens):
    # line widths are counted in uint8: 258 tokens wrap to a width of 2
    text = "2 1\n" + "0 1 " * (tokens // 2) + "1 " * (tokens % 2) + "\n"
    assert _parse_edge_list_bytes(text) is None
    with pytest.raises(VertexOutOfRange, match="bad edge line"):
        MultiGraph.from_edge_list_text(text)


def _parse_outcome(parse, text):
    try:
        G = parse(text)
    except Exception as exc:  # noqa: BLE001 - every error must match, typed or not
        return type(exc), str(exc)
    return G.n, list(G.edges())


@pytest.mark.parametrize("text", [
    "4 3\n0 1\n1 2 2\n\n2 3\n", "4 3\r\n0 1\r\n1 2 2\r\n2 3", "3 1\n0 1 0\n", "2 1\n0 x\n",
    "3 2\n0 1\n", "", "\n\t \n", "2 1\n0 +1\n",
])
def test_bytes_parse_like_text(text):
    data = text.encode("ascii")
    assert _parse_outcome(MultiGraph.from_edge_list_text, data) == \
        _parse_outcome(MultiGraph.from_edge_list_text, text)
    fast_str, fast_bytes = _parse_edge_list_bytes(text), _parse_edge_list_bytes(data)
    assert (fast_str is None) == (fast_bytes is None)
    if fast_str is not None:
        assert fast_str[0] == fast_bytes[0]
        for a, b in zip(fast_str[1:], fast_bytes[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_files_with_carriage_returns_take_the_byte_reader(monkeypatch, tmp_path, end):
    # read as bytes, the line ends are translated as a text-mode read did
    (tmp_path / "g.txt").write_bytes("4 3\n0 1\n1 2 2\n\n2 3\n".replace("\n", end).encode("ascii"))
    monkeypatch.setattr(multigraph, "_parse_edge_list_lines", lambda text: pytest.fail("line reader"))
    G = read_edge_list(tmp_path / "g.txt")
    assert (G.n, list(G.edges())) == (4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])


def test_non_ascii_bytes_raise_decode_error(tmp_path):
    (tmp_path / "g.txt").write_bytes("2 1\n0\u00a01\n".encode("utf-8"))
    with pytest.raises(UnicodeDecodeError):
        read_edge_list(tmp_path / "g.txt")


@pytest.mark.parametrize("max_mult", [1, 3])
def test_written_bytes_do_not_depend_on_the_chunk(monkeypatch, tmp_path, rng, max_mult):
    G = random_connected_graph(rng, 30, 0.4, max_mult=max_mult)
    want = percent_format_edge_list_text(G).encode("ascii")
    for lines in (1, 7, multigraph._WRITE_LINES):
        monkeypatch.setattr(multigraph, "_WRITE_LINES", lines)
        write_edge_list(G, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_bytes() == want
        assert G.to_edge_list_text().encode("ascii") == want


def test_simple_graphs_share_the_csr_as_step_table():
    G = complete_graph(5)
    indptr, indices, weights = G.csr()
    nb, base, deg = G.step_table()
    assert nb is indices and np.shares_memory(base, indptr)
    assert weights.strides == (0,) and G.mult.strides == (0,)
    H = MultiGraph.build(3, [(0, 1, 2), (1, 2)])
    assert H.step_table()[0].tolist() == [1, 1, 0, 0, 2, 1]


# the ust_local_limit graphon at n = 600: 86 661 edges
MEMORY_GRAPHON = StepGraphon(np.array([0.5, 0.5]), np.array([[0.9, 0.5], [0.5, 0.1]]))


@pytest.fixture(scope="module")
def memory_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "g.txt"
    G, _labels = sample_w_random_graph(MEMORY_GRAPHON, 600, seed=5)
    write_edge_list(G, path)
    return G, path


def _peak_per_edge(call, edges):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / edges


# measured bytes per edge (whole-graph arrays at the parent): sampler 38.6
# (112.5), writer 33.9 (64.0), reader 31.9 (83.9), step table 34.2 (80.1);
# each bound is about 1.4 times the measured value
@pytest.mark.parametrize("layer,bound", [("sample", 55.0), ("write", 48.0), ("read", 45.0), ("step_table", 48.0)])
def test_graph_layer_memory_per_edge(memory_graph, tmp_path, layer, bound):
    G, path = memory_graph
    H = read_edge_list(path)
    call = {
        "sample": lambda: sample_w_random_graph(MEMORY_GRAPHON, 600, seed=5),
        "write": lambda: write_edge_list(G, tmp_path / "g.txt"),
        "read": lambda: read_edge_list(path),
        "step_table": H.step_table,
    }[layer]
    assert _peak_per_edge(call, len(G.u)) <= bound
