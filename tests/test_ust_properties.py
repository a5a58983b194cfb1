"""Property tests: delete-then-contract conditioning and the walk samplers against the oracles."""
from hypothesis import given, settings
from hypothesis import strategies as st

from ustlocal.errors import IncludeHasCycle, UstlocalError
from ustlocal.multigraph import MultiGraph
from ustlocal.ust import aldous_broder_sample, conditional_sample, wilson_sample

import ust_oracle

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw, max_n=7, max_mult=3):
    """Multigraphs on 2..max_n vertices, connected or not."""
    n = draw(st.integers(2, max_n))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, max_mult))
    entries = draw(st.lists(entry.filter(lambda e: e[0] != e[1]), min_size=n, max_size=3 * n))
    return MultiGraph.build(n, entries)


@st.composite
def conditioning(draw, G):
    """Include and exclude lists: mostly edges of G, but also loops, absent
    pairs, a vertex outside 0..n-1, cycles, and exclusions of every copy,
    of more copies than G has, or of none."""
    vertex = st.integers(0, G.n)
    pair = st.tuples(vertex, vertex)
    triple = st.tuples(vertex, vertex, st.integers(0, 3))
    if pairs := G.edge_pairs():
        # three draws in four are edges of G
        edge = st.sampled_from(pairs)
        pair = st.one_of(edge, edge, edge, pair)
        triple = st.one_of(edge, edge, st.sampled_from(list(G.edges())), triple)
    include = draw(st.lists(pair, max_size=G.n // 2 + 1))
    include = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(include)]
    exclude = draw(st.lists(triple, max_size=3))
    return include, exclude


def _outcome(call, *args):
    """The edges of the tree returned, or the class of the error raised."""
    try:
        out = call(*args)
    except UstlocalError as exc:
        return type(exc)
    return out.edges


@PROPERTY
@given(multigraphs(), st.data(), st.integers(0, 2**32))
def test_conditional_sample_matches_oracle(G, data, seed):
    include, exclude = data.draw(conditioning(G))
    expected = _outcome(ust_oracle.conditional_sample, G, include, exclude, seed)
    assert _outcome(conditional_sample, G, include, exclude, seed) == expected


def _cycle_message(sample, G, include):
    """The IncludeHasCycle message of conditioning G on include, or None."""
    try:
        sample(G, include, [], 1)
    except IncludeHasCycle as exc:
        return str(exc)
    except UstlocalError:
        pass
    return None


@PROPERTY
@given(multigraphs(), st.data())
def test_include_cycle_names_the_oracle_pair(G, data):
    # the bisection over prefixes names the pair at which the oracle's
    # sequential union-find first stops
    include = data.draw(st.lists(st.sampled_from(G.edge_pairs()), max_size=2 * G.n))
    expected = _cycle_message(ust_oracle.conditional_sample, G, include)
    assert _cycle_message(conditional_sample, G, include) == expected


@PROPERTY
@given(st.one_of(multigraphs(), multigraphs(max_mult=1)), st.data(), st.integers(0, 2**32))
def test_walk_samplers_match_oracle(G, data, seed):
    # the inlined walks and parent-array trees against the earlier samplers:
    # the same edges and copies, or the same error class
    root = data.draw(st.integers(0, G.n - 1))
    for sampler, oracle in (
        (wilson_sample, ust_oracle.wilson_sample),
        (aldous_broder_sample, ust_oracle.aldous_broder_sample),
    ):
        assert _outcome(sampler, G, seed, root) == _outcome(oracle, G, seed, root)
