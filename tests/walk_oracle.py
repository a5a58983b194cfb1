"""Reference hitting Monte Carlo that only the tests use.

The earlier form of `ustlocal.walk.hitting_before_return_mc`: every lockstep
iteration draws each walker's offset with `rng.integers(0, deg[cur])` and
drops the walkers that reached u or v, so u and v are never stepped from.
"""
import math

import numpy as np

from ustlocal.rng import stream
from ustlocal.walk import _check_hitting_args


def hitting_before_return_lockstep(G, w, u, v, samples, seed):
    """P_w[tau_v < tau_u^+] and its binomial standard error, one compaction per step."""
    _check_hitting_args(G, w, u, v)
    rng = stream(seed)
    nb, base, deg = G.step_table()
    cur = np.full(samples, w, dtype=np.int64)
    success = 0
    while cur.size:
        cur = nb[base[cur] + rng.integers(0, deg[cur])]
        hit_v = cur == v
        success += int(hit_v.sum())
        cur = cur[~(hit_v | (cur == u))]
    p = success / samples
    return p, math.sqrt(p * (1.0 - p) / samples)
