"""The limiting multi-type branching process on step graphons.

On a step graphon all offspring intensities are block-constant, so the
continuum process collapses losslessly to finitely many types.  A block-i
particle spawns an independent Poisson(W_ij mu_j / d_j) count of "other"
children of block j; an ancestral particle additionally spawns one ancestral
child with block law W_ij mu_j / d_i.  The ancestral line never dies, so a
depth-r sample always has height exactly r.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterOutOfRange, is_integer
from .graphon import StepGraphon
from .rng import sample_count, stream
from .trees import CodeInterner, _intern_generation

_CHUNK_ROWS = 1 << 16  # parents per Poisson call; bounds its (rows, k) rates and counts


def _offspring_rates(g: StepGraphon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Other-child intensities, the ancestral child's cumulative block law per
    parent block, and the cumulative root block law."""
    g.require_nondegenerate()
    d = g.block_degrees
    oth_rate = g.W * g.mu[None, :] / d[None, :]  # row i: intensity of block-j others
    anc_probs = g.W * g.mu[None, :] / d[:, None]  # rows sum to 1
    return oth_rate, np.cumsum(anc_probs, axis=1), np.cumsum(g.mu)


def _sample_generations(
    g: StepGraphon, r: int, samples: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """`samples` independent depth-r processes, as child counts.

    Entry d gives each particle of generation d (generation 0 holds the
    roots) its number of children, in the narrowest signed type that holds
    them.  Each parent's children come as one run in the generation below,
    its ancestral child (if any) first, so the counts alone place every
    particle.  Generation r is only counted: its particles are leaves of
    every ball, and its uniforms are drawn in chunks only to advance the
    stream.

    Working memory is O(P) narrow per-particle arrays (uint8 blocks for up
    to 256 blocks, int8 counts while they fit) and the positions of the
    ancestral particles, plus one (chunk x k) block of Poisson rates and
    counts: never a (P, k) matrix.  The parents are walked `_CHUNK_ROWS`
    rows at a time with one `poisson` call each; taken in row order, these
    calls draw the counts that one call over all P rows draws and leave
    the stream where it would.
    """
    oth_rate, anc_cum, mu_cum = _offspring_rates(g)
    k = g.k
    block = np.min_scalar_type(k - 1)
    rows = _CHUNK_ROWS
    cur = np.minimum(
        np.searchsorted(mu_cum, rng.random(samples), side="right"), k - 1
    ).astype(block)
    anc_idx = np.arange(samples)  # ancestral particle position inside its generation
    block_ids = np.tile(np.arange(k, dtype=block), rows)  # the block of each of a chunk's counts
    gen_counts: list[np.ndarray] = []
    for depth in range(1, r + 1):
        last = depth == r
        if last:
            for lo in range(0, samples, rows):
                rng.random(min(rows, samples - lo))
        else:
            u = rng.random(samples)
            # room for the Poisson total of other children plus eight of its
            # standard deviations; a larger total grows the buffer
            mean = float(np.bincount(cur, minlength=k) @ oth_rate.sum(axis=1))
            oth_block = np.empty(int(mean + 8.0 * math.sqrt(mean)) + k, dtype=block)
            off = 0
        per_parent = np.empty(len(cur), dtype=np.int8)
        alo = 0
        for lo in range(0, len(cur), rows):
            hi = min(lo + rows, len(cur))
            counts = rng.poisson(np.take(oth_rate, cur[lo:hi], axis=0))  # (chunk, k)
            tot = counts[:, 0].copy()
            for j in range(1, k):
                tot += counts[:, j]
            ahi = int(np.searchsorted(anc_idx, hi))  # the chunk's ancestral parents
            tot[anc_idx[alo:ahi] - lo] += 1
            top = int(tot.max())
            if top > np.iinfo(per_parent.dtype).max:
                per_parent = per_parent.astype(np.min_scalar_type(-top - 1))  # signed, holds top
            per_parent[lo:hi] = tot
            if not last:
                n = int(counts.sum())
                if off + n > len(oth_block):
                    oth_block = np.concatenate([oth_block[:off], np.empty(off + n, dtype=block)])
                oth_block[off:off + n] = np.repeat(block_ids[:counts.size], counts.reshape(-1))
                off += n
            alo = ahi
        gen_counts.append(per_parent)
        if last:
            break
        # count the thresholds below u, leaving out the last one: rounding
        # can end a cumulative row below 1.0, and a u above it is block k - 1
        anc_block = cur[anc_idx]
        anc_child_block = np.zeros(samples, dtype=block)
        for j in range(k - 1):
            anc_child_block += u > anc_cum[anc_block, j]
        del u, anc_block
        # each parent lists its ancestral child (if any) first, then its
        # others by block; anc_idx rises with the sample id, and so does the
        # position of each ancestral child in the new generation
        starts = np.cumsum(per_parent, dtype=np.int64) - per_parent
        anc_idx = starts[anc_idx]
        del starts
        cur = np.empty(off + samples, dtype=block)
        is_other = np.ones(len(cur), dtype=bool)
        is_other[anc_idx] = False
        cur[anc_idx] = anc_child_block
        cur[is_other] = oth_block[:off]
        del is_other, oth_block, anc_child_block
    return gen_counts


def root_ball_distribution_mc(
    g: StepGraphon, r: int, samples: int, seed: int
) -> dict[str, tuple[float, float]]:
    """Empirical law of the depth-r ball code, vectorized generation by generation.

    Returns code -> (probability, binomial standard error); probabilities sum
    to 1 exactly.
    """
    samples = sample_count(samples)
    if not is_integer(r) or r < 1:
        raise ParameterOutOfRange(f"radius must be an integer >= 1, got {r!r}")
    gen_counts = _sample_generations(g, int(r), samples, stream(seed))
    interner = CodeInterner()
    codes = None  # the last generation's particles are leaves
    while gen_counts:
        codes = _intern_generation(interner, gen_counts.pop(), codes)

    out = {}
    tally = np.bincount(codes)
    for cid in np.flatnonzero(tally).tolist():
        p = int(tally[cid]) / samples
        out[interner.to_code(cid)] = (p, math.sqrt(p * (1.0 - p) / samples))
    return out


def root_degree_distribution(g: StepGraphon, k_max: int) -> tuple[np.ndarray, float]:
    """P(root degree = k) = sum_i mu_i e^{-b_i} b_i^{k-1} / (k-1)! for k = 1..k_max.

    Returns (probabilities, tail mass beyond k_max).
    """
    if not is_integer(k_max) or k_max < 1:
        raise ParameterOutOfRange(f"k_max must be an integer >= 1, got {k_max!r}")
    k_max = int(k_max)
    g.require_nondegenerate()
    b = g.block_b
    probs = np.zeros(k_max)
    term = np.exp(-b)  # e^{-b_i} b_i^{k-1} / (k-1)! as a running product
    for k in range(k_max):
        probs[k] = float(np.dot(g.mu, term))
        term = term * b / (k + 1)
    return probs, float(1.0 - probs.sum())
