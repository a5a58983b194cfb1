import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from ustlocal import branching, trees
from ustlocal.branching import root_ball_distribution_mc, root_degree_distribution
from ustlocal.errors import DegenerateGraphon, ParameterOutOfRange
from ustlocal.graphon import StepGraphon, constant_graphon
from ustlocal.rng import stream
from ustlocal.trees import CodeInterner

from branching_oracle import (
    intern_generation_oracle,
    sample_generations_oracle,
    sample_kappa,
    sample_kappa_particles,
)
from conftest import traced_peak_mb


W1 = constant_graphon(1.0)
W2 = StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.5], [0.5, 1.0]]))
W3 = StepGraphon(np.array([0.25, 0.75]), np.array([[0.9, 0.2], [0.2, 0.6]]))
W_BALL = StepGraphon(
    np.array([0.2, 0.3, 0.5]), np.array([[0.9, 0.5, 0.2], [0.5, 0.6, 0.3], [0.2, 0.3, 0.8]])
)
BLOCK_DIAG = StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 0.6]]))


def test_depth_zero_single_vertex():
    t = sample_kappa(W1, 0, seed=5)
    assert t.size == 1


def test_degenerate_rejected():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateGraphon):
        sample_kappa(g, 1, seed=1)


def test_root_mean_offspring_w1():
    # ancestral root: 1 ancestral child + Poisson(1) others, mean 2
    total = 0
    samples = 20000
    for i in range(samples):
        parts = sample_kappa_particles(W1, 1, seed=i)
        total += sum(1 for p in parts if p.depth == 1)
    mean = total / samples
    se = math.sqrt(2.0 / samples)
    assert abs(mean - 2.0) <= 4 * se


def test_block_diagonal_lineage_stays_in_block():
    for i in range(50):
        parts = sample_kappa_particles(BLOCK_DIAG, 3, seed=i)
        blocks = {p.block for p in parts}
        assert len(blocks) == 1


def test_ancestral_line_survives():
    for i in range(100):
        t = sample_kappa(W3, 3, seed=i)
        assert t.height == 3


def test_other_children_mean_is_b(rng):
    b = W3.block_b
    counts = {0: [], 1: []}
    for i in range(6000):
        parts = sample_kappa_particles(W3, 1, seed=100000 + i)
        root = parts[0]
        oth = sum(1 for p in parts[1:] if p.kind == "oth")
        counts[root.block].append(oth)
    for blk in (0, 1):
        arr = np.array(counts[blk])
        se = arr.std() / math.sqrt(len(arr))
        assert abs(arr.mean() - b[blk]) <= 4 * max(se, 1e-3)


def test_root_degree_distribution_w1():
    probs, tail = root_degree_distribution(W1, 6)
    for k in range(1, 7):
        assert probs[k - 1] == pytest.approx(math.exp(-1) / math.factorial(k - 1), abs=1e-12)
    assert probs.sum() + tail == pytest.approx(1.0, abs=1e-12)


def test_root_degree_matches_mc():
    probs, _tail = root_degree_distribution(W3, 5)
    samples = 30000
    law = root_ball_distribution_mc(W3, 1, samples, seed=9)
    # degree k <=> the radius-1 ball is a star with k leaves
    for k in range(1, 5):
        code = f"({k + 1}:{'(1:)' * k})"
        p, se = law.get(code, (0.0, 0.0))
        sigma = math.sqrt(probs[k - 1] * (1 - probs[k - 1]) / samples)
        assert abs(p - probs[k - 1]) <= 4 * sigma


def test_mc_law_sums_to_one():
    law = root_ball_distribution_mc(W2, 2, 5000, seed=3)
    assert sum(p for (p, _se) in law.values()) == pytest.approx(1.0, abs=1e-12)


def test_mc_single_edge_probability():
    samples = 100000
    law = root_ball_distribution_mc(W1, 1, samples, seed=17)
    p, _se = law["(2:(1:))"]
    expect = math.exp(-1)
    sigma = math.sqrt(expect * (1 - expect) / samples)
    assert abs(p - expect) <= 4 * sigma


def test_mc_pipeline_matches_per_sample_sampler():
    # the vectorized pipeline and the explicit recursive sampler draw from
    # the same law: chi-square over depth-2 ball codes
    samples = 20000
    law_fast = root_ball_distribution_mc(W2, 2, samples, seed=21)
    slow = Counter(sample_kappa(W2, 2, seed=500000 + i).canonical_code() for i in range(samples))
    support = sorted(set(law_fast) | set(slow))
    fast_counts = np.array([round(law_fast.get(c, (0.0, 0.0))[0] * samples) for c in support])
    slow_counts = np.array([slow.get(c, 0) for c in support])
    keep = (fast_counts + slow_counts) >= 10
    merged_fast = np.append(fast_counts[keep], fast_counts[~keep].sum())
    merged_slow = np.append(slow_counts[keep], slow_counts[~keep].sum())
    # both laws are empirical, so compare as a 2 x cells contingency table
    _stat, p, _dof, _exp = scipy.stats.chi2_contingency(np.array([merged_fast, merged_slow]))
    assert p > 1e-3


def test_mc_parameter_checks():
    with pytest.raises(ParameterOutOfRange):
        root_ball_distribution_mc(W1, 0, 100, seed=1)
    with pytest.raises(ParameterOutOfRange):
        root_ball_distribution_mc(W1, 1, 0, seed=1)
    with pytest.raises(ParameterOutOfRange):
        root_degree_distribution(W1, 0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("g,samples,seed", [(W2, 3000, 5), (W_BALL, 2000, 11), (W1, 17, 2)])
def test_mc_matches_parent_by_parent_interning(monkeypatch, g, r, samples, seed):
    law = root_ball_distribution_mc(g, r, samples, seed)
    monkeypatch.setattr(branching, "_intern_generation", intern_generation_oracle)
    want = root_ball_distribution_mc(g, r, samples, seed)
    assert list(law.items()) == list(want.items())  # same ids, so the same key order


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("g,samples,seed", [(W2, 3000, 5), (W_BALL, 2000, 11), (W1, 17, 2)])
def test_generations_match_stable_sort(g, r, samples, seed):
    counts = branching._sample_generations(g, r, samples, stream(seed))
    sizes, parents = sample_generations_oracle(g, r, samples, stream(seed))
    assert len(counts) == len(parents) == r
    for d, (got, want) in enumerate(zip(counts, parents)):
        np.testing.assert_array_equal(got, np.bincount(want, minlength=sizes[d]))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("g,samples,seed", [(W2, 3000, 5), (W_BALL, 2000, 11), (W1, 17, 2)])
def test_mc_matches_oracle_pipeline(g, r, samples, seed):
    # every generation placed, the leaves interned as ids 0 like any other
    # row: this covers the generation the library only counts
    sizes, parents = sample_generations_oracle(g, r, samples, stream(seed))
    interner = CodeInterner()
    codes = np.zeros(sizes[r], dtype=np.int64)
    for d in range(r - 1, -1, -1):
        codes = intern_generation_oracle(interner, np.bincount(parents[d], minlength=sizes[d]), codes)
    cids, cnts = np.unique(codes, return_counts=True)
    want = []
    for cid, cnt in zip(cids.tolist(), cnts.tolist()):
        p = cnt / samples
        want.append((interner.to_code(cid), (p, math.sqrt(p * (1.0 - p) / samples))))
    assert list(root_ball_distribution_mc(g, r, samples, seed).items()) == want


class _Uniforms:
    """The stream of a seed, keeping the size of every uniform draw."""

    def __init__(self, seed):
        self.rng = stream(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)

    def poisson(self, lam):
        return self.rng.poisson(lam)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("g", [W2, W_BALL])
def test_generations_do_not_depend_on_the_chunk(monkeypatch, g, r):
    # the oracle draws the root blocks, and each generation's ancestral
    # uniforms and then its Poisson counts, in one call each; chunked calls
    # in row order must give the same counts and leave the stream at the
    # same place
    samples, seed = 300, 23
    rng = stream(seed)
    sizes, parents = sample_generations_oracle(g, r, samples, rng)
    want = [np.bincount(p, minlength=sizes[d]) for d, p in enumerate(parents)]
    want_next = rng.random(4)
    for rows in (1, 7, branching._CHUNK_ROWS):
        monkeypatch.setattr(branching, "_CHUNK_ROWS", rows)
        rng = _Uniforms(seed)
        got = branching._sample_generations(g, r, samples, rng)
        assert len(got) == r
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        # the roots, then one draw of `samples` uniforms per generation
        assert rng.sizes == [min(rows, samples - lo) for lo in range(0, samples, rows)] * (r + 1)
        np.testing.assert_array_equal(rng.rng.random(4), want_next)


@pytest.mark.parametrize("rows", [1, 3, 7, trees._CHUNK_ROWS])
def test_interning_does_not_depend_on_the_chunk(monkeypatch, rows):
    # a row interned in an earlier chunk keeps its id, so chunked interning
    # gives the ids of interning parent by parent and leaves the interner in
    # the same state; the interner starts with 251 stars, so its ids outgrow
    # uint8 partway through a generation
    gens = branching._sample_generations(W_BALL, 3, 400, stream(17))
    monkeypatch.setattr(trees, "_CHUNK_ROWS", rows)
    fast, slow = CodeInterner(), CodeInterner()
    for L in range(1, 251):
        fast.intern((0,) * L)
        slow.intern((0,) * L)
    got = want = None  # the leaves first, then rows of child ids
    while gens:
        counts = gens.pop()
        got = trees._intern_generation(fast, counts, got)
        want = intern_generation_oracle(slow, counts, want)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.min_scalar_type(len(fast.children) - 1)
        assert (fast.ids, fast.children, fast.sizes) == (slow.ids, slow.children, slow.sizes)
    assert len(fast.children) > 256


def test_mc_does_not_depend_on_the_chunk(monkeypatch):
    want = list(root_ball_distribution_mc(W_BALL, 3, 500, 29).items())
    for rows in (1, 7):
        monkeypatch.setattr(branching, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(trees, "_CHUNK_ROWS", rows)
        assert list(root_ball_distribution_mc(W_BALL, 3, 500, 29).items()) == want


class _ManyOthers:
    """The stream of a seed, with 150 added to every Poisson count."""

    def __init__(self, seed):
        self.rng = stream(seed)

    def random(self, size):
        return self.rng.random(size)

    def poisson(self, lam):
        return self.rng.poisson(lam) + 150


def test_generations_with_counts_past_the_narrow_type(monkeypatch):
    # over 127 children per parent widens the int8 counts, and far more
    # other children than the Poisson mean grows the block buffer
    monkeypatch.setattr(branching, "_CHUNK_ROWS", 2)
    counts = branching._sample_generations(W2, 2, 5, _ManyOthers(4))
    sizes, parents = sample_generations_oracle(W2, 2, 5, _ManyOthers(4))
    for d, (got, want) in enumerate(zip(counts, parents)):
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, np.bincount(want, minlength=sizes[d]))


def test_mc_memory_per_sample():
    # the ball_law workload's graphon at depth 2: about 29 bytes per sample,
    # most of it one chunk's buffers, with chunked draws and interning; 136
    # with (P, k) rate and count matrices and int64 ids
    samples = 200_000
    assert traced_peak_mb(root_ball_distribution_mc, W_BALL, 2, samples, 8) * 1e6 / samples <= 70.0


def test_mc_memory_at_the_ball_law_size():
    # the ball_law workload's 10^6 samples at depth 2 peak near 12 MB traced:
    # a few narrow arrays per particle and one chunk's buffers; 40 MB when
    # the uniforms, the ancestral positions and the interner's offsets and
    # orders were float64 and int64 arrays as long as a generation
    assert traced_peak_mb(root_ball_distribution_mc, W_BALL, 2, 1_000_000, 8) < 16.0

class _TopDraws:
    """Every uniform draw is the largest double below 1, and no other children."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def poisson(self, lam):
        return np.zeros(np.shape(lam), dtype=np.int64)


def test_mc_ancestral_draw_clamped_to_last_block(monkeypatch):
    # block 2's cumulative ancestral row ends two ulps below 1.0, so the
    # largest uniform draw lies above every threshold of it
    g = StepGraphon(np.array([0.2, 0.3, 0.5]),
                    np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.9], [0.1, 0.9, 0.6]]))
    _oth, anc_cum, _mu = branching._offspring_rates(g)
    assert anc_cum[2, -1] < np.nextafter(1.0, 0.0)
    monkeypatch.setattr(branching, "stream", lambda seed: _TopDraws())
    law = root_ball_distribution_mc(g, 3, 4, seed=0)
    assert law == {"(4:(3:(2:(1:))))": (1.0, 0.0)}


def test_root_degree_distribution_deep_tail():
    probs, tail = root_degree_distribution(W1, 200)
    for k in range(1, 21):
        assert probs[k - 1] == pytest.approx(math.exp(-1) / math.factorial(k - 1), abs=1e-12)
    assert np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
    assert probs.sum() + tail == pytest.approx(1.0, abs=1e-12)
