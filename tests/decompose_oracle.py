"""Reference goodness check, one vertex at a time over the adjacency lists.

The direct statement of conditions (a)-(d) that
`ustlocal.decompose.good_vertices` evaluates with whole-array sums.  Keep it
simple rather than fast.
"""
import numpy as np


def good_vertices_oracle(G, labels, alpha, eps, consts):
    """(conditions, good): the (n, 4) booleans of (a)-(d) and their conjunction.

    Rows of residual (label 0) and zero-degree vertices stay all False.
    """
    n = G.n
    deg = G.degrees.astype(np.float64)
    nbrs, mults = G.adjacency_lists()

    deg_in = np.zeros(n)
    for v in range(n):
        a = nbrs[v]
        if len(a):
            deg_in[v] = mults[v][labels[a] == labels[v]].sum()

    conditions = np.zeros((n, 4), dtype=bool)
    good = np.zeros(n, dtype=bool)
    thr_a = consts["c_a"] * eps * n
    thr_b = 1.0 - consts["c_b"] * eps**2
    thr_c = consts["c_c"] * alpha**0.5
    thr_d = consts["c_d"] * alpha**-0.25
    for v in range(n):
        if labels[v] == 0 or deg[v] == 0:
            continue
        a = nbrs[v]
        same = labels[a] == labels[v]
        m_same = mults[v][same].astype(np.float64)
        u_same = a[same]
        cond_a = deg[v] >= thr_a
        cond_b = deg_in[v] >= thr_b * deg[v]
        # neighbors inside the part always have deg_in >= mult(u, v) >= 1
        sum_c = float((m_same * (1.0 / deg_in[u_same] - 1.0 / deg[u_same])).sum()) if len(u_same) else 0.0
        sum_d = float((m_same / deg_in[u_same]).sum()) if len(u_same) else 0.0
        cond_c = sum_c <= thr_c + 1e-12
        cond_d = sum_d <= thr_d + 1e-12
        conditions[v] = (cond_a, cond_b, cond_c, cond_d)
        good[v] = cond_a and cond_b and cond_c and cond_d
    return conditions, good
