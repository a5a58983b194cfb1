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
from .trees import _CHUNK_ROWS, CodeInterner, _intern_generation


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
    every ball.

    Every draw is made `_CHUNK_ROWS` rows at a time, in row order: the root
    blocks, each generation's ancestral uniforms (all of them before that
    generation's Poisson counts) and the Poisson counts, one call per chunk
    of parents.  Taken in order, these calls draw what one call over all
    rows draws and leave the stream where it would.  Working memory is a
    few narrow arrays per particle (uint8 blocks for up to 256 blocks, a
    bool mask of the ancestral particles, int8 counts while they fit) plus
    one chunk's rates, counts and offsets: no wide array as long as a
    generation.
    """
    oth_rate, anc_cum, mu_cum = _offspring_rates(g)
    k = g.k
    block = np.min_scalar_type(k - 1)
    rows = _CHUNK_ROWS
    cur = np.empty(samples, dtype=block)
    for lo in range(0, samples, rows):
        cur[lo:lo + rows] = np.minimum(
            np.searchsorted(mu_cum, rng.random(min(rows, samples - lo)), side="right"), k - 1
        )
    is_anc = np.ones(samples, dtype=bool)  # one ancestral particle per sample, in sample order
    block_ids = np.tile(np.arange(k, dtype=block), rows)  # the block of each of a chunk's counts
    gen_counts: list[np.ndarray] = []
    for depth in range(1, r + 1):
        last = depth == r
        if last:
            for lo in range(0, samples, rows):
                rng.random(min(rows, samples - lo))
        else:
            # the ancestral child's block: count the thresholds below u,
            # leaving out the last one, since rounding can end a cumulative
            # row below 1.0, and a u above it is block k - 1
            anc_block = cur[is_anc]
            anc_child_block = np.zeros(samples, dtype=block)
            for lo in range(0, samples, rows):
                u = rng.random(min(rows, samples - lo))
                cum = anc_cum[anc_block[lo:lo + rows]]
                for j in range(k - 1):
                    anc_child_block[lo:lo + rows] += u > cum[:, j]
            del anc_block
            # room for the ancestral children and the Poisson total of other
            # children plus eight of its standard deviations; a larger total
            # grows the buffers
            per_block = sum(np.bincount(cur[lo:lo + rows], minlength=k) for lo in range(0, len(cur), rows))
            mean = float(per_block @ oth_rate.sum(axis=1))
            room = samples + int(mean + 8.0 * math.sqrt(mean)) + k
            nxt = np.empty(room, dtype=block)
            nxt_anc = np.empty(room, dtype=bool)
            off = alo = 0
        per_parent = np.empty(len(cur), dtype=np.int8)
        for lo in range(0, len(cur), rows):
            hi = min(lo + rows, len(cur))
            counts = rng.poisson(np.take(oth_rate, cur[lo:hi], axis=0))  # (chunk, k)
            anc = is_anc[lo:hi]
            tot = counts[:, 0].copy()
            for j in range(1, k):
                tot += counts[:, j]
            tot += anc
            top = int(tot.max())
            if top > np.iinfo(per_parent.dtype).max:
                per_parent = per_parent.astype(np.min_scalar_type(-top - 1))  # signed, holds top
            per_parent[lo:hi] = tot
            if not last:
                # each parent lists its ancestral child (if any) first, then
                # its others by block
                n = int(tot.sum())
                if off + n > len(nxt):
                    nxt = np.concatenate([nxt[:off], np.empty(off + n, dtype=block)])
                    nxt_anc = np.concatenate([nxt_anc[:off], np.empty(off + n, dtype=bool)])
                seg, seg_anc = nxt[off:off + n], nxt_anc[off:off + n]
                seg_anc[:] = False
                seg_anc[(np.cumsum(tot) - tot)[anc]] = True
                ahi = alo + int(np.count_nonzero(anc))
                seg[seg_anc] = anc_child_block[alo:ahi]
                seg[~seg_anc] = np.repeat(block_ids[:counts.size], counts.reshape(-1))
                off += n
                alo = ahi
            del counts, tot  # before the next chunk's draw
        gen_counts.append(per_parent)
        if last:
            break
        cur, is_anc = nxt[:off], nxt_anc[:off]
        del nxt, nxt_anc, anc_child_block
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
    tally = np.zeros(len(interner.children), dtype=np.int64)
    for lo in range(0, samples, _CHUNK_ROWS):
        tally += np.bincount(codes[lo:lo + _CHUNK_ROWS], minlength=len(tally))
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
