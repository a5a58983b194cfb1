"""Property tests: the in-place grounded minor and its Cholesky tree count
against the dense Laplacian and `slogdet` oracle."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ustlocal.electric import _grounded_minor, log_spanning_tree_count
from ustlocal.multigraph import MultiGraph

from electric_oracle import dense_grounded_minor, slogdet_log_spanning_tree_count

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def connected_multigraphs(draw, max_n=12, max_mult=3):
    """A random tree on 2..max_n vertices (each vertex joins an earlier one)
    plus extra edges; every entry has multiplicity 1..max_mult."""
    n = draw(st.integers(2, max_n))
    mult = st.integers(1, max_mult)
    entries = [(draw(st.integers(0, v - 1)), v, draw(mult)) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), mult).filter(lambda e: e[0] != e[1])
    entries += draw(st.lists(pair, max_size=2 * n))
    return MultiGraph.build(n, entries)


@PROPERTY
@given(connected_multigraphs(), st.data())
def test_grounded_minor_equals_dense_minor(G, data):
    ground = data.draw(st.integers(0, G.n - 1))
    got = _grounded_minor(G, ground)
    assert got.dtype == np.float64 and np.array_equal(got, dense_grounded_minor(G, ground))


@PROPERTY
@given(connected_multigraphs())
def test_tree_count_matches_slogdet_oracle(G):
    # Cholesky and LU round differently; 1e-12 relative is about 4500 ulps of
    # float64.  log t = 0 (a tree of single edges) needs the absolute floor.
    got, ref = log_spanning_tree_count(G), slogdet_log_spanning_tree_count(G)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
