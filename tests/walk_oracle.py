"""Reference walk routines that only the tests use.

`hitting_before_return_lockstep` is the earlier form of
`ustlocal.walk.hitting_before_return_mc`: every lockstep iteration draws
each walker's offset with `rng.integers(0, deg[cur])` and drops the walkers
that reached u or v, so u and v are never stepped from.

`fiedler_vector_full` is the earlier form of `ustlocal.walk._fiedler_vector`,
which read the lambda_2 vector off the full `eigh`, and `sweep_cuts_full`
counts the cut of each prefix of its order pair by pair.
"""
import math

import numpy as np

from ustlocal.rng import stream
from ustlocal.walk import _check_hitting_args, _lazy_walk_matrix


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


def fiedler_vector_full(G):
    """The lambda_2 vector of the lazy chain from all n eigenpairs, in walk coordinates."""
    import scipy.linalg

    M, inv_sqrt = _lazy_walk_matrix(G)
    _vals, vecs = scipy.linalg.eigh(M)
    y = vecs[:, -2] * inv_sqrt
    pivot = int(np.argmax(np.abs(y)))
    return -y if y[pivot] < 0 else y


def sweep_cuts_full(G):
    """(order, cuts) of `ustlocal.walk.sweep_cuts`, one pair count per prefix."""
    order = np.argsort(-fiedler_vector_full(G), kind="stable")
    cuts = [G.pair_count(order[: k + 1], order[k + 1:]) for k in range(G.n - 1)]
    return order, np.array(cuts, dtype=np.int64)
