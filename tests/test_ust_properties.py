"""Property tests: the walk sampler against the oracle sampler."""
from hypothesis import given, settings
from hypothesis import strategies as st

from ustlocal.errors import UstlocalError
from ustlocal.multigraph import MultiGraph
from ustlocal.ust import wilson_sample

import ust_oracle

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw, max_n=7, max_mult=3):
    """Multigraphs on 2..max_n vertices, connected or not."""
    n = draw(st.integers(2, max_n))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, max_mult))
    entries = draw(st.lists(entry.filter(lambda e: e[0] != e[1]), min_size=n, max_size=3 * n))
    return MultiGraph.build(n, entries)


def _outcome(call, *args):
    """The edges of the tree returned, or the class of the error raised."""
    try:
        out = call(*args)
    except UstlocalError as exc:
        return type(exc)
    return out.edges


@PROPERTY
@given(st.one_of(multigraphs(), multigraphs(max_mult=1)), st.data(), st.integers(0, 2**32))
def test_walk_samplers_match_oracle(G, data, seed):
    # the inlined walk and parent-array tree against the earlier sampler:
    # the same edges and copies, or the same error class
    root = data.draw(st.integers(0, G.n - 1))
    assert _outcome(wilson_sample, G, seed, root) == _outcome(ust_oracle.wilson_sample, G, seed, root)
