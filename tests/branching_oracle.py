"""Reference forms of the branching Monte Carlo.

The direct statements of what `ustlocal.branching._sample_generations` and
`_intern_generation` compute: each generation's children stably sorted by
parent, and each parent's children ids, sorted, interned in parent order.
`sample_kappa` draws one process particle by particle, the per-sample
sampler that the vectorized pipeline is checked against.  Keep them simple
rather than fast.
"""
from dataclasses import dataclass

import numpy as np

from ustlocal.branching import _offspring_rates
from ustlocal.errors import ParameterOutOfRange
from ustlocal.graphon import StepGraphon
from ustlocal.rng import stream
from ustlocal.trees import RootedTree


def sample_generations_oracle(g, r, samples, rng):
    """Generation sizes and sorted parent arrays, from one stable argsort of
    (ancestral children, other children) per generation."""
    oth_rate, anc_cum, mu_cum = _offspring_rates(g)
    k = g.k
    cur = np.minimum(np.searchsorted(mu_cum, rng.random(samples), side="right"), k - 1)
    anc_idx = np.arange(samples)
    sizes, gen_parents = [samples], []
    for _depth in range(r):
        u = rng.random(samples)
        anc_child_block = (u[:, None] > anc_cum[cur[anc_idx], :k - 1]).sum(axis=1)
        counts = rng.poisson(oth_rate[cur])
        oth_parent, oth_block = np.divmod(np.repeat(np.arange(counts.size), counts.reshape(-1)), k)
        child_parent = np.concatenate([anc_idx, oth_parent])
        child_block = np.concatenate([anc_child_block, oth_block])
        order = np.argsort(child_parent, kind="stable")
        anc_idx = np.flatnonzero(order < samples)
        cur = child_block[order]
        gen_parents.append(child_parent[order])
        sizes.append(len(cur))
    return sizes, gen_parents


def intern_generation_oracle(interner, child_parent, child_codes, parent_count):
    """Code ids of `parent_count` parents; `child_parent` is sorted."""
    counts = np.bincount(child_parent, minlength=parent_count)
    offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()
    lst = child_codes.tolist()
    codes = np.empty(parent_count, dtype=np.int64)
    for p in range(parent_count):
        codes[p] = interner.intern(tuple(sorted(lst[offsets[p]:offsets[p + 1]])))
    return codes


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
    oth_rate, anc_cum, mu_cum = _offspring_rates(g)
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
                u = rng.random()
                child_block = int(np.searchsorted(anc_cum[p.block], u, side="right"))
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
