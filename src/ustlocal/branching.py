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

from .errors import ParameterOutOfRange
from .graphon import StepGraphon
from .rng import sample_count, stream
from .trees import CodeInterner


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
) -> tuple[list[int], list[np.ndarray]]:
    """`samples` independent depth-r processes, one array per generation.

    Returns the generation sizes (generation 0 holds the roots) and, for
    generations 1..r, each child's parent position in the generation above,
    sorted.  Only these are kept: blocks and sampling temporaries are freed
    as soon as the next generation is placed, which keeps the peak memory low
    and the same from one call to the next.
    """
    oth_rate, anc_cum, mu_cum = _offspring_rates(g)
    k = g.k
    cur = np.minimum(
        np.searchsorted(mu_cum, rng.random(samples), side="right"), k - 1
    ).astype(np.int64)
    anc_idx = np.arange(samples)  # ancestral particle position inside its generation
    sizes = [samples]
    gen_parents: list[np.ndarray] = []
    block_ids = np.arange(k, dtype=np.min_scalar_type(k - 1))  # tiled once per parent
    for _depth in range(r):
        u = rng.random(samples)
        anc_block = cur[anc_idx]
        # count the thresholds below u, leaving out the last one: rounding
        # can end a cumulative row below 1.0, and a u above it is block k - 1
        anc_child_block = np.zeros(samples, dtype=np.int64)
        for j in range(k - 1):
            anc_child_block += u > anc_cum[anc_block, j]
        del u, anc_block
        counts = rng.poisson(oth_rate[cur])  # (P, k)
        per_parent = counts.sum(axis=1)
        oth_block = np.repeat(np.tile(block_ids, len(cur)), counts.reshape(-1))
        del counts
        # each parent lists its ancestral child (if any) first, then its
        # others by block; anc_idx rises with the sample id, and so does the
        # position of each ancestral child in the new generation
        per_parent[anc_idx] += 1
        starts = np.cumsum(per_parent) - per_parent
        anc_idx = starts[anc_idx]
        del starts
        cur = np.empty(int(per_parent.sum()), dtype=np.int64)
        is_other = np.ones(len(cur), dtype=bool)
        is_other[anc_idx] = False
        cur[anc_idx] = anc_child_block
        cur[is_other] = oth_block
        del is_other, oth_block, anc_child_block
        gen_parents.append(np.repeat(np.arange(len(per_parent)), per_parent))
        sizes.append(len(cur))
    return sizes, gen_parents


def _intern_generation(
    interner: CodeInterner, child_parent: np.ndarray, child_codes: np.ndarray, parent_count: int
) -> np.ndarray:
    """Code ids of `parent_count` parents from their children's ids.

    `child_parent` is sorted.  Parents are bucketed by child count L, so each
    bucket is an exact (m_L, L) matrix of sorted child ids.  `intern` runs
    once per distinct row, in order of the row's first parent, which gives
    the ids that interning parent by parent gives.  Childless parents get 0.
    """
    # sort by (parent, code) as one key; parent_count * (max id + 1) is at
    # most the square of the particle count, far below 2^63; the sort keeps
    # each parent's children in place, so the remainder is the sorted id
    span = int(child_codes.max(initial=0)) + 1
    sorted_codes = child_parent * span
    sorted_codes += child_codes
    sorted_codes.sort()
    sorted_codes %= span
    counts = np.bincount(child_parent, minlength=parent_count)
    starts = np.cumsum(counts) - counts
    row_of = np.zeros(parent_count, dtype=np.int64)  # 1 + index into rows; 0: no children
    rows: list[list[int]] = []  # distinct rows of every bucket, bucket by bucket
    firsts = []
    for L in np.unique(counts[counts > 0]).tolist():
        parents = np.flatnonzero(counts == L)
        mat = sorted_codes[starts[parents][:, None] + np.arange(L)]
        perm = np.lexsort(mat.T[::-1])  # stable, so equal rows keep parent order
        mat = mat[perm]
        parents = parents[perm]
        new = np.ones(len(mat), dtype=bool)
        new[1:] = (mat[1:] != mat[:-1]).any(axis=1)
        row_of[parents] = len(rows) + np.cumsum(new)
        rows.extend(mat[new].tolist())
        firsts.append(parents[new])
    if not rows:
        return row_of
    ids = [0] * (len(rows) + 1)
    intern = interner.intern
    for i in np.argsort(np.concatenate(firsts)).tolist():
        ids[i + 1] = intern(tuple(rows[i]))
    return np.array(ids, dtype=np.int64)[row_of]


def root_ball_distribution_mc(
    g: StepGraphon, r: int, samples: int, seed: int
) -> dict[str, tuple[float, float]]:
    """Empirical law of the depth-r ball code, vectorized generation by generation.

    Returns code -> (probability, binomial standard error); probabilities sum
    to 1 exactly.
    """
    samples = sample_count(samples)
    if r < 1:
        raise ParameterOutOfRange("radius must be >= 1")
    sizes, gen_parents = _sample_generations(g, r, samples, stream(seed))
    interner = CodeInterner()
    codes = np.zeros(sizes[r], dtype=np.int64)  # depth-r particles are leaves
    for depth in range(r - 1, -1, -1):
        codes = _intern_generation(interner, gen_parents.pop(), codes, sizes[depth])

    out = {}
    cids, cnts = np.unique(codes, return_counts=True)
    for cid, cnt in zip(cids.tolist(), cnts.tolist()):
        p = cnt / samples
        out[interner.to_code(cid)] = (p, math.sqrt(p * (1.0 - p) / samples))
    return out


def root_degree_distribution(g: StepGraphon, k_max: int) -> tuple[np.ndarray, float]:
    """P(root degree = k) = sum_i mu_i e^{-b_i} b_i^{k-1} / (k-1)! for k = 1..k_max.

    Returns (probabilities, tail mass beyond k_max).
    """
    if k_max < 1:
        raise ParameterOutOfRange("k_max must be >= 1")
    g.require_nondegenerate()
    b = g.block_b
    probs = np.zeros(k_max)
    term = np.exp(-b)  # e^{-b_i} b_i^{k-1} / (k-1)! as a running product
    for k in range(k_max):
        probs[k] = float(np.dot(g.mu, term))
        term = term * b / (k + 1)
    return probs, float(1.0 - probs.sum())
