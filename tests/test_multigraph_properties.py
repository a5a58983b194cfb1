"""Property tests: the array-backed MultiGraph against the dict oracle."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ustlocal.errors import UstlocalError
from ustlocal.multigraph import (
    MAX_MULTIPLICITY,
    MAX_VERTICES,
    MultiGraph,
    _parse_edge_list_bytes,
    _parse_edge_list_lines,
    read_edge_list,
    write_edge_list,
)
from ustlocal.walk import exact_cheeger

from multigraph_oracle import (
    DictGraph,
    argsort_symmetric_csr,
    percent_format_edge_list_text,
    same_graph,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw, max_n=9, max_mult=3, density=3.0):
    """(n, entries): entries are valid (u, v, m) triples, repeats and both orientations
    allowed, at most density * n of them."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return n, []
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, max_mult))
    entries = draw(st.lists(entry.filter(lambda e: e[0] != e[1]), max_size=int(density * n)))
    return n, entries


def _both(n, entries):
    return MultiGraph.build(n, entries), DictGraph.build(n, entries)


def _subset(draw, n):
    return draw(st.lists(st.integers(0, n - 1), max_size=n))


@PROPERTY
@given(multigraphs())
def test_edge_list_text_round_trip(graph):
    G, D = _both(*graph)
    text = G.to_edge_list_text()
    assert text == D.to_edge_list_text()
    H = MultiGraph.from_edge_list_text(text)
    assert H.n == G.n and list(H.edges()) == list(G.edges())


@PROPERTY
@given(multigraphs())
def test_accessors_match_oracle(graph):
    G, D = _both(*graph)
    assert same_graph(G, D)
    assert G.degrees.tolist() == D.degrees()
    nbrs, mults = G.adjacency_lists()
    ref_nbrs, ref_mults = D.adjacency_lists()
    assert [a.tolist() for a in nbrs] == ref_nbrs
    assert [a.tolist() for a in mults] == ref_mults
    nb, base, deg = G.step_table()
    assert [nb[b:b + d].tolist() for b, d in zip(base.tolist(), deg.tolist())] == [
        [w for w, m in zip(ws, ms) for _ in range(m)] for ws, ms in zip(ref_nbrs, ref_mults)
    ]
    assert G.component_labels().tolist() == D.component_labels()
    assert G.num_edges == sum(D.mult.values())
    for u in range(-1, G.n + 1):
        for v in range(-1, G.n + 1):
            assert G.multiplicity(u, v) == D.multiplicity(u, v)
    grid = np.arange(-1, G.n + 1)
    a, b = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    assert G.multiplicities(a, b).tolist() == [D.multiplicity(x, y) for x, y in zip(a, b)]
    expected = np.zeros((G.n, G.n))
    for (u, v), m in D.mult.items():
        expected[u, v] = expected[v, u] = m
    assert np.array_equal(G.adjacency_matrix(), expected)


# both sides of every power of ten: the digit counts and the 4-digit chunk boundaries
POWER_EDGES = [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
BOUNDARY_IDS = [0, 1, *POWER_EDGES, MAX_VERTICES - 2, MAX_VERTICES - 1]
BOUNDARY_MULTS = [1, 2, *POWER_EDGES, 2**62, MAX_MULTIPLICITY]


@st.composite
def wide_multigraphs(draw):
    """A MultiGraph whose vertex count, ids and multiplicities reach the chunk
    boundaries and int64 limits; one entry per pair, so no sum overflows."""
    n = draw(st.sampled_from([0, 1, 2, 7, 10_000, 10_001, 100_000_001, MAX_VERTICES])
             | st.integers(1, MAX_VERTICES))
    ids = st.sampled_from([x for x in BOUNDARY_IDS if x < n]) | st.integers(0, max(n - 1, 0))
    # st.just(1) mixes plain "u v" lines with "u v m" ones
    mults = st.sampled_from(BOUNDARY_MULTS) | st.integers(1, MAX_MULTIPLICITY) | st.just(1)
    pairs = draw(st.dictionaries(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), mults,
                                 max_size=0 if n < 2 else 12))
    u, v = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    return MultiGraph.from_arrays(n, u, v, np.array(list(pairs.values()), dtype=np.int64))


@PROPERTY
@given(wide_multigraphs())
@example(MultiGraph.from_arrays(1, [], []))
@example(MultiGraph.from_arrays(10_001, [9_999, 0], [10_000, 9], [MAX_MULTIPLICITY, 10_000]))
def test_writer_matches_percent_format_oracle(G):
    assert G.to_edge_list_text() == percent_format_edge_list_text(G)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wide_multigraphs())
def test_write_read_round_trip(tmp_path_factory, G):
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    write_edge_list(G, path)
    assert path.read_bytes() == percent_format_edge_list_text(G).encode("ascii")
    H = read_edge_list(path)
    assert H.n == G.n
    for got, ref in zip((H.u, H.v, H.mult), (G.u, G.v, G.mult)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@PROPERTY
@given(multigraphs(), st.sampled_from([0, 1, 250, 70_000]))
def test_csr_matches_argsort_oracle(graph, isolated):
    # the isolated vertices move n across the uint8, uint16 and uint32 sort keys
    n, entries = graph
    G = MultiGraph.build(n + isolated, entries)
    for got, ref in zip(G.csr(), argsort_symmetric_csr(G.n, G.u, G.v, G.mult)):
        assert got.dtype == ref.dtype == np.int64 and np.array_equal(got, ref)


@PROPERTY
@given(multigraphs(max_n=40, max_mult=2, density=0.6))
def test_component_labels_many_components(graph):
    G, D = _both(*graph)
    assert G.component_labels().tolist() == D.component_labels()


@st.composite
def sparse_shapes(draw):
    """(n, entries) of the shapes that stress `forest_roots`: a path through
    the vertices in random order (deep label chains), a star centred on the
    last vertex (every hook lands on one label), or a sparse graph with many
    components; each with isolated vertices appended."""
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["path", "star", "sparse"]))
    if shape == "path":
        order = draw(st.permutations(range(n)))
        entries = list(zip(order, order[1:]))
    elif shape == "star":
        entries = [(n - 1, x) for x in range(n - 1)]
    else:
        _n, entries = draw(multigraphs(max_n=n, max_mult=1, density=0.5))
    return n + draw(st.integers(0, 3)), entries


@PROPERTY
@given(sparse_shapes())
@example((0, []))
@example((1, []))
@example((3, []))
def test_component_labels_on_paths_stars_and_forests(graph):
    G, D = _both(*graph)
    assert G.component_labels().tolist() == D.component_labels()


@PROPERTY
@given(multigraphs(), st.data())
def test_pair_count_matches_oracle(graph, data):
    G, D = _both(*graph)
    A = _subset(data.draw, G.n)
    B = _subset(data.draw, G.n)
    assert G.pair_count(A, B) == D.pair_count(A, B)


@PROPERTY
@given(multigraphs(), st.integers(0, 2), st.data())
def test_same_part_sums_match_oracle(graph, isolated, data):
    # extra vertices past n are isolated; integer values keep both sums exact
    n, entries = graph
    G, D = _both(n + isolated, entries)
    labels = data.draw(st.lists(st.integers(0, 2), min_size=G.n, max_size=G.n))
    values = data.draw(st.lists(st.integers(-5, 5), min_size=G.n, max_size=G.n))
    assert G.same_part_sums(np.array(labels), np.array(values)).tolist() == D.same_part_sums(labels, values)


@PROPERTY
@given(multigraphs(), st.data())
def test_induced_subgraph_matches_oracle(graph, data):
    G, D = _both(*graph)
    A = _subset(data.draw, G.n)
    H, index = G.induced_subgraph(A)
    ref, ref_index = D.induced_subgraph(A)
    assert same_graph(H, ref) and index == ref_index


@PROPERTY
@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 2)), max_size=6),
)
def test_build_errors_match_oracle(n, entries):
    outcomes = []
    for build in (MultiGraph.build, DictGraph.build):
        try:
            outcomes.append(build(n, entries).edges())
        except UstlocalError as exc:
            outcomes.append(type(exc))
    got, ref = outcomes
    assert (list(got) if not isinstance(got, type) else got) == ref


@PROPERTY
@given(multigraphs(max_n=14))
def test_subset_cut_table_matches_gray_code_oracle(graph):
    G, D = _both(*graph)
    assert G.exact_expansion() == D.exact_expansion()
    assert exact_cheeger(G) == D.exact_cheeger()


SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
PADDING = st.sampled_from(["", "", " ", "\t", "  \t"])
BAD_TOKENS = ["x", "1.5", "+1", "-1", "99999999999999999999", "1" + "0" * 18, "9" * 19, "\x0c", "\u00e9",
              "/", ":"]


@st.composite
def edge_list_texts(draw):
    """A multigraph's edge list in varied layout: runs of spaces and tabs,
    padded lines, blank and whitespace-only lines, zero-padded integers,
    explicit multiplicity 1, unsorted and repeated pairs, final newline or not."""
    n, entries = draw(multigraphs())

    def record(values):
        tokens = ["0" * draw(st.integers(0, 2)) + str(x) for x in values]
        body = "".join(tok + draw(SEPARATORS) for tok in tokens[:-1]) + tokens[-1]
        return draw(PADDING) + body + draw(PADDING)

    lines = [record([n, len(entries)])]
    for u, v, m in entries:
        lines.append(record([u, v, m] if m > 1 or draw(st.booleans()) else [u, v]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(PADDING))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def corrupted_edge_list_texts(draw):
    """An edge-list text with one token dropped, added or replaced by a
    malformed one, a form feed put in, or a wrong header edge count."""
    text = draw(edge_list_texts())
    tokens = list(re.finditer(r"\S+", text))
    kind = draw(st.sampled_from(["drop", "add", "replace", "form feed", "header"]))
    if kind == "header":
        m = tokens[1]
        return text[:m.start()] + str(int(m.group()) + draw(st.sampled_from([-1, 1]))) + text[m.end():]
    if kind == "form feed":
        at = draw(st.integers(0, len(text)))
        return text[:at] + "\x0c" + text[at:]
    tok = draw(st.sampled_from(tokens))
    if kind == "drop":
        return text[:tok.start()] + text[tok.end():]
    if kind == "add":
        return text[:tok.end()] + " " + draw(st.sampled_from(["7", *BAD_TOKENS])) + text[tok.end():]
    return text[:tok.start()] + draw(st.sampled_from(BAD_TOKENS)) + text[tok.end():]


def _parse_outcome(parse, text):
    """(n, edges) of the parsed graph, or the type and message of the error."""
    try:
        G = parse(text)
    except Exception as exc:  # noqa: BLE001 - every error must match, typed or not
        return type(exc), str(exc)
    return G.n, list(G.edges())


def _fast_outcome(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _parse_outcome(MultiGraph.from_edge_list_text, text)


def _lines_outcome(text):
    return _parse_outcome(lambda t: MultiGraph.from_arrays(*_parse_edge_list_lines(t)), text)


@PROPERTY
@given(edge_list_texts())
def test_byte_parser_matches_line_parser(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _parse_edge_list_bytes(text)
    assert fast is not None, "a file of digits, blanks and newlines must take the fast path"
    slow = _parse_edge_list_lines(text)
    assert fast[0] == slow[0] and type(fast[0]) is type(slow[0])
    for got, ref in zip(fast[1:], slow[1:]):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert _fast_outcome(text) == _lines_outcome(text)


@PROPERTY
@given(corrupted_edge_list_texts())
@example("2 1\n0 9999999999999999999\n")  # 19 digits, above 2**63: fromstring would clamp it
def test_byte_parser_errors_match_line_parser(text):
    assert _fast_outcome(text) == _lines_outcome(text)


# the neighbours of each byte class the fast path accepts: digits ("/" and
# ":"), tab and newline, space, the ends of ASCII, and one non-ASCII character
CLASS_NEIGHBOURS = ["/", ":", "\x00", "\x08", "\x0b", "\x0c", "\r", "\x1f", "!", "\x7f", "\x80"]


@pytest.mark.parametrize("byte", CLASS_NEIGHBOURS)
@pytest.mark.parametrize("place", ["in token", "as separator", "after token", "blank line", "header"])
def test_byte_parser_refuses_class_neighbours(byte, place):
    text = {
        "in token": "4 3\n0 1{}2\n1 2 2\n2 3\n",
        "as separator": "4 3\n0 1\n1{}2 2\n2 3\n",
        "after token": "4 3\n0 1\n1 2 2{}\n2 3\n",
        "blank line": "4 3\n0 1\n{}\n1 2 2\n2 3\n",
        "header": "4{}3\n0 1\n1 2 2\n2 3\n",
    }[place].format(byte)
    assert _parse_edge_list_bytes(text) is None
    assert _fast_outcome(text) == _lines_outcome(text)
