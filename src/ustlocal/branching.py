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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange
from .graphon import StepGraphon
from .rng import stream
from .trees import CodeInterner, RootedTree


def _offspring_rates(g: StepGraphon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g.require_nondegenerate()
    d = g.block_degrees
    oth_rate = g.W * g.mu[None, :] / d[None, :]  # row i: intensity of block-j others
    anc_probs = g.W * g.mu[None, :] / d[:, None]  # rows sum to 1
    return oth_rate, anc_probs, np.cumsum(g.mu)


@dataclass
class KappaParticle:
    kind: str  # "anc" or "oth"
    block: int
    parent: int  # index into the particle list, -1 for the root
    depth: int


def sample_kappa_particles(g: StepGraphon, r: int, seed: int) -> list[KappaParticle]:
    """First r generations as an explicit particle list (root first, BFS order)."""
    if r < 0:
        raise ParameterOutOfRange("depth must be >= 0")
    oth_rate, anc_probs, mu_cum = _offspring_rates(g)
    rng = stream(seed)
    root_block = int(np.searchsorted(mu_cum, rng.random(), side="right"))
    root_block = min(root_block, g.k - 1)
    particles = [KappaParticle("anc", root_block, -1, 0)]
    frontier = [0]
    for depth in range(r):
        next_frontier = []
        for idx in frontier:
            p = particles[idx]
            if p.kind == "anc":
                row = anc_probs[p.block]
                u = rng.random()
                child_block = int(np.searchsorted(np.cumsum(row), u, side="right"))
                child_block = min(child_block, g.k - 1)
                particles.append(KappaParticle("anc", child_block, idx, depth + 1))
                next_frontier.append(len(particles) - 1)
            counts = rng.poisson(oth_rate[p.block])
            for j in range(g.k):
                for _ in range(int(counts[j])):
                    particles.append(KappaParticle("oth", j, idx, depth + 1))
                    next_frontier.append(len(particles) - 1)
        frontier = next_frontier
    return particles


def sample_kappa(g: StepGraphon, r: int, seed: int) -> RootedTree:
    """Depth-r prefix of the branching process as a rooted tree (blocks discarded)."""
    particles = sample_kappa_particles(g, r, seed)
    return RootedTree([p.parent for p in particles])


def root_ball_distribution_mc(
    g: StepGraphon, r: int, samples: int, seed: int
) -> dict[str, tuple[float, float]]:
    """Empirical law of the depth-r ball code, vectorized generation by generation.

    Returns code -> (probability, binomial standard error); probabilities sum
    to 1 exactly.
    """
    if samples < 1:
        raise ParameterOutOfRange("samples must be >= 1")
    if r < 1:
        raise ParameterOutOfRange("radius must be >= 1")
    oth_rate, anc_probs, mu_cum = _offspring_rates(g)
    anc_cum = np.cumsum(anc_probs, axis=1)
    rng = stream(seed)
    k = g.k

    blocks = np.minimum(
        np.searchsorted(mu_cum, rng.random(samples), side="right"), k - 1
    ).astype(np.int64)
    anc_pos = np.arange(samples)  # ancestral particle position inside its generation
    gen_blocks = [blocks]
    gen_parents: list[np.ndarray] = [np.full(samples, -1, dtype=np.int64)]
    gen_anc: list[np.ndarray] = [anc_pos]

    for _depth in range(r):
        cur = gen_blocks[-1]
        anc_idx = gen_anc[-1]
        u = rng.random(samples)
        rows = anc_cum[cur[anc_idx]]
        anc_child_block = (u[:, None] > rows).sum(axis=1).astype(np.int64)
        counts = rng.poisson(oth_rate[cur])  # (P, k)
        oth_parent = np.repeat(np.arange(len(cur)), counts.sum(axis=1))
        oth_block = np.repeat(np.tile(np.arange(k), len(cur)), counts.reshape(-1))
        child_parent = np.concatenate([anc_idx, oth_parent])
        child_block = np.concatenate([anc_child_block, oth_block])
        order = np.argsort(child_parent, kind="stable")
        child_parent = child_parent[order]
        child_block = child_block[order]
        # every generation stays sorted by sample id, so the ancestral children
        # (pre-sort indices < samples) appear in sample order after the sort
        anc_positions = np.flatnonzero(order < samples)
        gen_blocks.append(child_block)
        gen_parents.append(child_parent)
        gen_anc.append(anc_positions)

    interner = CodeInterner()
    codes = np.zeros(len(gen_blocks[r]), dtype=np.int64)  # depth-r particles are leaves
    for depth in range(r - 1, -1, -1):
        child_parent = gen_parents[depth + 1]
        child_codes = codes
        parent_count = len(gen_blocks[depth])
        counts = np.bincount(child_parent, minlength=parent_count)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        new_codes = np.empty(parent_count, dtype=np.int64)
        lst = child_codes.tolist()
        intern = interner.intern
        for p in range(parent_count):
            lo, hi = offsets[p], offsets[p + 1]
            new_codes[p] = intern(tuple(sorted(lst[lo:hi])))
        codes = new_codes

    tally = Counter(codes.tolist())
    out = {}
    for cid, cnt in sorted(tally.items()):
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
    for k in range(1, k_max + 1):
        probs[k - 1] = float(
            np.dot(g.mu, np.exp(-b) * b ** (k - 1) / math.factorial(k - 1))
        )
    return probs, float(1.0 - probs.sum())
