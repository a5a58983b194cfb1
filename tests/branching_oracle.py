"""Reference forms of the branching Monte Carlo's two passes.

The direct statements of what `ustlocal.branching._sample_generations` and
`_intern_generation` compute: each generation's children stably sorted by
parent, and each parent's children ids, sorted, interned in parent order.
Keep them simple rather than fast.
"""
import numpy as np

from ustlocal.branching import _offspring_rates


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
