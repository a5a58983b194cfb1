import itertools

import numpy as np
import pytest

from ustlocal import graphon
from ustlocal.errors import (
    AsymmetricKernel,
    EntryOutOfRange,
    MeasuresDontSumToOne,
    TooManyBlocks,
    VertexOutOfRange,
)
from ustlocal.graphon import (
    StepGraphon,
    constant_graphon,
    cut_norm_step,
    degree_profile_compare,
    sample_w_random_graph,
    validate,
)
from ustlocal.rng import stream


def random_graphon(rng, k):
    mu = rng.random(k) + 0.1
    mu /= mu.sum()
    W = rng.random((k, k))
    W = (W + W.T) / 2
    return StepGraphon(mu, W)


def test_validate_constant_one():
    rep = validate(constant_graphon(1.0))
    assert rep.nondegenerate
    assert rep.d[0] == pytest.approx(1.0)
    assert rep.b[0] == pytest.approx(1.0)
    assert rep.avg_b == pytest.approx(1.0, abs=1e-12)


def test_validate_two_block_identity():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    rep = validate(g)
    assert np.allclose(rep.d, [0.5, 0.5])
    assert np.allclose(rep.b, [1.0, 1.0])
    assert rep.avg_b == pytest.approx(1.0, abs=1e-12)


def test_validate_zero_row_degenerate():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert not validate(g).nondegenerate


def test_structural_errors():
    with pytest.raises(MeasuresDontSumToOne):
        StepGraphon(np.array([0.5, 0.6]), np.eye(2))
    with pytest.raises(AsymmetricKernel):
        StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(EntryOutOfRange):
        StepGraphon(np.array([1.0]), np.array([[1.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_measures_and_entries(bad):
    # NaN fails every comparison, so only an explicit check rejects it
    with pytest.raises(MeasuresDontSumToOne):
        StepGraphon(np.array([bad, 1.0]), np.eye(2))
    with pytest.raises(EntryOutOfRange):
        StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(EntryOutOfRange):
        StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, bad], [0.5, 1.0]]))


def test_avg_b_identity_random(rng):
    for _ in range(300):
        k = int(rng.integers(1, 5))
        rep = validate(random_graphon(rng, k))
        if rep.nondegenerate:
            assert abs(rep.avg_b - 1.0) <= 1e-12


def test_cut_norm_zero_and_one():
    assert cut_norm_step(np.zeros((1, 1)), np.array([1.0])) == 0.0
    assert cut_norm_step(np.ones((1, 1)), np.array([1.0])) == pytest.approx(1.0)


def test_cut_norm_two_block_example():
    U = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert cut_norm_step(U, np.array([0.5, 0.5])) == pytest.approx(0.25, abs=1e-15)


def test_cut_norm_brute_force_agreement(rng):
    # independent oracle: direct max over all (S, T) pairs
    for _ in range(20):
        k = int(rng.integers(1, 5))
        mu = rng.random(k) + 0.1
        mu /= mu.sum()
        U = rng.uniform(-1, 1, size=(k, k))
        U = (U + U.T) / 2
        M = mu[:, None] * mu[None, :] * U
        best = 0.0
        for smask, tmask in itertools.product(range(1, 1 << k), repeat=2):
            rows = [i for i in range(k) if smask >> i & 1]
            cols = [j for j in range(k) if tmask >> j & 1]
            best = max(best, abs(M[np.ix_(rows, cols)].sum()))
        assert cut_norm_step(U, mu) == pytest.approx(best, abs=1e-12)


def test_cut_norm_axioms(rng):
    for _ in range(10):
        k = int(rng.integers(1, 6))
        mu = rng.random(k) + 0.1
        mu /= mu.sum()
        A = rng.uniform(-0.5, 0.5, size=(k, k))
        A = (A + A.T) / 2
        B = rng.uniform(-0.5, 0.5, size=(k, k))
        B = (B + B.T) / 2
        na, nb = cut_norm_step(A, mu), cut_norm_step(B, mu)
        assert na >= 0.0
        assert cut_norm_step(-A, mu) == pytest.approx(na, abs=1e-14)
        assert cut_norm_step(A + B, mu) <= na + nb + 1e-12


def test_cut_norm_dominates_fractional_points(rng):
    mu = np.array([0.3, 0.3, 0.4])
    U = rng.uniform(-1, 1, size=(3, 3))
    U = (U + U.T) / 2
    norm = cut_norm_step(U, mu)
    M = mu[:, None] * mu[None, :] * U
    xs = rng.random((10000, 3))
    ys = rng.random((10000, 3))
    vals = np.abs(np.einsum("ni,ij,nj->n", xs, M, ys))
    assert vals.max() <= norm + 1e-12


def test_cut_norm_block_limit():
    with pytest.raises(TooManyBlocks):
        cut_norm_step(np.zeros((16, 16)), np.full(16, 1 / 16))


def test_sampling_w1_gives_complete_graph():
    G, labels = sample_w_random_graph(constant_graphon(1.0), 10, seed=4)
    assert G.num_edges == 45
    assert len(labels) == 10


def test_sampling_density(rng):
    n = 400
    G, _ = sample_w_random_graph(constant_graphon(0.5), n, seed=11)
    pairs = n * (n - 1) / 2
    se = np.sqrt(0.25 / pairs)
    assert abs(G.num_edges / pairs - 0.5) <= 4 * se


def test_sampling_block_diagonal_no_cross():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    G, labels = sample_w_random_graph(g, 60, seed=9)
    for (u, v, _m) in G.edges():
        assert labels[u] == labels[v]


def test_sampling_degree_concentration():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.8, 0.2], [0.2, 0.4]]))
    n = 500
    G, labels = sample_w_random_graph(g, n, seed=21)
    d = g.block_degrees
    for v in (0, 100, 499):
        expect = d[labels[v]] * n
        se = np.sqrt(n * 0.25)
        assert abs(G.degrees[v] - expect) <= 4 * se + 2


def test_sampling_deterministic():
    g = constant_graphon(0.5)
    G1, l1 = sample_w_random_graph(g, 50, seed=123)
    G2, l2 = sample_w_random_graph(g, 50, seed=123)
    assert list(G1.edges()) == list(G2.edges())
    assert (l1 == l2).all()


def test_degree_profile_complete_graph():
    G, _ = sample_w_random_graph(constant_graphon(1.0), 40, seed=1)
    rep = degree_profile_compare(G, constant_graphon(1.0), bins=10)
    assert rep.max_discrepancy == pytest.approx(0.0, abs=1e-12)


def test_degree_profile_two_block():
    # block degrees (0.5, 0.3) sit at bin centers for 5 bins; with edge-width
    # 0.1 ~ 4.5 binomial sds, essentially no vertex crosses a bin boundary
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.5]]))
    G, _ = sample_w_random_graph(g, 500, seed=5)
    rep = degree_profile_compare(G, g, bins=5)
    assert rep.max_discrepancy <= 0.05


def test_degree_profile_mismatch_reports_not_raises():
    G, _ = sample_w_random_graph(constant_graphon(0.9), 100, seed=2)
    rep = degree_profile_compare(G, constant_graphon(0.1), bins=10)
    assert rep.max_discrepancy > 0.5


def test_json_roundtrip(rng):
    g = random_graphon(rng, 3)
    h = StepGraphon.from_json(g.to_json())
    assert np.allclose(g.mu, h.mu)
    assert np.allclose(g.W, h.W)
    assert StepGraphon.from_json('{"mu": [1], "W": [[1]]}').W.tolist() == [[1.0]]  # JSON integers are numbers


def test_w_random_graph_negative_size():
    with pytest.raises(VertexOutOfRange):
        sample_w_random_graph(constant_graphon(0.5), -3, seed=1)


def w_random_graph_oracle(g, n, rng):
    """The one-call draw: labels, then one uniform for every pair u < v at once, in row-major order."""
    labels = np.minimum(np.searchsorted(np.cumsum(g.mu), rng.random(n), side="right"), g.k - 1)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < g.W[labels[iu], labels[ju]]
    return iu[keep], ju[keep], labels


W_TWO = StepGraphon(np.array([0.3, 0.7]), np.array([[0.9, 0.5], [0.5, 0.1]]))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 37, 400])
def test_sampler_does_not_depend_on_the_block(monkeypatch, n):
    # blocks of whole rows drawn in order must give the one-call graph and
    # leave the stream at the same place; block 7 takes several short rows
    # at once near the end, and the default splits n = 400 in two
    seed = 31
    rng = stream(seed)
    u, v, labels = w_random_graph_oracle(W_TWO, n, rng)
    want_next = rng.random(4)
    for pairs in (1, 7, graphon._PAIR_BLOCK):
        monkeypatch.setattr(graphon, "_PAIR_BLOCK", pairs)
        drawn = []
        monkeypatch.setattr(graphon, "stream", lambda s: drawn.append(stream(s)) or drawn[-1])
        G, got = sample_w_random_graph(W_TWO, n, seed)
        assert G.n == n and G.u.dtype == G.v.dtype == np.int64
        np.testing.assert_array_equal(G.u, u)
        np.testing.assert_array_equal(G.v, v)
        np.testing.assert_array_equal(G.mult, np.ones(len(u)))
        np.testing.assert_array_equal(got, labels)
        np.testing.assert_array_equal(drawn[0].random(4), want_next)
