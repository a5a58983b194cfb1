"""Property tests: the array-backed MultiGraph against the dict oracle."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ustlocal.errors import UstlocalError
from ustlocal.multigraph import MultiGraph, _parse_edge_list_bytes, _parse_edge_list_lines
from ustlocal.walk import exact_cheeger

from multigraph_oracle import DictGraph, same_graph

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw, max_n=9, max_mult=3):
    """(n, entries): entries are valid (u, v, m) triples, repeats and both orientations allowed."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return n, []
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, max_mult))
    entries = draw(st.lists(entry.filter(lambda e: e[0] != e[1]), max_size=3 * n))
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
@given(multigraphs(), st.data())
def test_contract_matches_oracle(graph, data):
    G, D = _both(*graph)
    pairs = G.edge_pairs()
    picks = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    # reversed orientations and repeats must not matter
    S = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(picks)]
    H, vmap = G.contract(S)
    ref, ref_vmap = D.contract(S)
    assert same_graph(H, ref) and vmap.tolist() == ref_vmap


@PROPERTY
@given(multigraphs(), st.data())
def test_delete_matches_oracle(graph, data):
    G, D = _both(*graph)
    removals = [
        (u, v, data.draw(st.integers(1, m)))
        for (u, v, m) in G.edges()
        if data.draw(st.booleans())
    ]
    assert same_graph(G.delete(removals), D.delete(removals))


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
@given(multigraphs(), st.data())
def test_edit_errors_match_oracle(graph, data):
    G, D = _both(*graph)
    S = data.draw(st.lists(st.tuples(st.integers(0, G.n - 1), st.integers(0, G.n - 1),
                                     st.integers(1, 4)), max_size=4))
    for op in ("contract", "delete"):
        try:
            getattr(D, op)(S)
        except UstlocalError as exc:
            with pytest.raises(type(exc)):
                getattr(G, op)(S)
        else:
            getattr(G, op)(S)


@PROPERTY
@given(multigraphs(max_n=14))
def test_subset_cut_table_matches_gray_code_oracle(graph):
    G, D = _both(*graph)
    assert G.exact_expansion() == D.exact_expansion()
    assert exact_cheeger(G) == D.exact_cheeger()


SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
PADDING = st.sampled_from(["", "", " ", "\t", "  \t"])
BAD_TOKENS = ["x", "1.5", "+1", "-1", "99999999999999999999", "1" + "0" * 18, "9" * 19, "\x0c", "\u00e9"]


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
