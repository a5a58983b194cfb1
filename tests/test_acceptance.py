"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical criteria run at fixed seeds; tolerances are as stated, never
loosened.  Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""
import itertools
import math
import time
from collections import Counter

import numpy as np
import scipy.stats

import ustlocal as ul

from conftest import gnp, random_connected_graph, random_connected_min_degree
from extremal_oracle import n_point_gradient_oracle
from ust_oracle import enumerate_spanning_trees

E1 = math.exp(-1)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. Kirchhoff exactness ------------------------------------------------------


def test_c01_kirchhoff_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        G = random_connected_graph(rng, n, 0.6)
        trees = enumerate_spanning_trees(G)
        t = len(trees)
        for (u, v, _m) in G.edges():
            frac = sum(1 for tr in trees if (u, v, 0) in tr.edges) / t
            worst = max(worst, abs(ul.edge_ust_probability(G, (u, v)) - frac))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-9 and elapsed < 10,
           f"max |kirchhoff - oracle| = {worst:.2e} over 100 graphs in {elapsed:.1f}s")


# -- 2. Wilson uniformity --------------------------------------------------------


def test_c02_wilson_uniformity():
    t0 = time.monotonic()
    pvalues = {}
    for name, G in (("C4", ul.cycle_graph(4)), ("K4", ul.complete_graph(4))):
        support = {t.edges: i for i, t in enumerate(enumerate_spanning_trees(G))}
        counts = np.zeros(len(support))
        for i in range(100_000):
            counts[support[ul.wilson_sample(G, seed=i).edges]] += 1
        _stat, p = scipy.stats.chisquare(counts)
        pvalues[name] = p
    elapsed = time.monotonic() - t0
    ok = all(p > 1e-3 for p in pvalues.values()) and elapsed < 30
    report(2, ok, f"chi-square p = {pvalues} at 1e5 samples in {elapsed:.1f}s")


# -- 3. Foster sum ----------------------------------------------------------------


def test_c03_foster_sum():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 51))
        G = random_connected_graph(rng, n, 0.5)
        total = sum(m * ul.effective_resistance(G, u, v) for (u, v, m) in G.edges())
        worst = max(worst, abs(total - (n - 1)))
    report(3, worst <= 1e-6, f"max |sum R_eff - (n-1)| = {worst:.2e} over 50 graphs")


# -- 4. Complete-graph degree law ---------------------------------------------------


def test_c04_complete_graph_degree_law():
    t0 = time.monotonic()
    n, samples = 300, 50
    G = ul.complete_graph(n)
    sums = Counter()
    for i in range(samples):
        for k, cnt in ul.degree_counts(ul.wilson_sample(G, seed=40_000 + i)).items():
            sums[k] += cnt
    errs = {}
    for k in range(1, 5):
        expect = E1 / math.factorial(k - 1)
        errs[k] = abs(sums[k] / (samples * n) - expect)
    elapsed = time.monotonic() - t0
    ok = all(e <= 0.01 for e in errs.values()) and elapsed < 120
    report(4, ok, f"|mean L_k/n - e^-1/(k-1)!| = " +
           ", ".join(f"k={k}:{e:.4f}" for k, e in errs.items()) + f" in {elapsed:.1f}s")


# -- 5. Local limit at desk scale ----------------------------------------------------


def test_c05_local_limit_radius_one():
    n, samples = 400, 30
    G, _labels = ul.sample_w_random_graph(ul.constant_graphon(1.0), n, seed=55)
    patterns = ul.enumerate_rooted_trees(4, min_height=1, max_height=1)
    freq_values = {T.canonical_code(): ul.freq_graphon(T, ul.constant_graphon(1.0)).value
                   for T in patterns}
    census_sum = Counter()
    for i in range(samples):
        census_sum.update(ul.local_census(ul.wilson_sample(G, seed=5_500 + i), 1))
    errs = {code: abs(census_sum.get(code, 0) / (samples * n) - val)
            for code, val in freq_values.items()}
    worst = max(errs.values())
    report(5, worst <= 0.02,
           f"max |empirical - Freq(T;W)| = {worst:.4f} over {len(errs)} height-1 patterns")


# -- 6. Freq <-> branching identity ---------------------------------------------------


def test_c06_freq_branching_identity():
    t0 = time.monotonic()
    graphons = [
        ul.constant_graphon(1.0),
        ul.StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.5], [0.5, 1.0]])),
        ul.StepGraphon(np.array([0.25, 0.75]), np.array([[0.9, 0.2], [0.2, 0.6]])),
    ]
    samples = 1_000_000
    worst_z = 0.0
    checked = 0
    for gi, g in enumerate(graphons):
        for r in (1, 2):
            law = ul.root_ball_distribution_mc(g, r, samples, seed=600 + gi)
            for T in ul.enumerate_rooted_trees(5, min_height=r, max_height=r):
                fr = ul.freq_graphon(T, g).value
                p = law.get(T.canonical_code(), (0.0, 0.0))[0]
                sigma = math.sqrt(fr * (1 - fr) / samples)
                worst_z = max(worst_z, abs(p - fr) / sigma)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = worst_z <= 4.0 and elapsed < 300
    report(6, ok, f"worst |z| = {worst_z:.2f} over {checked} pattern checks in {elapsed:.1f}s")


# -- 7. Tree counts -----------------------------------------------------------------


def test_c07_tree_counts():
    worst_rel = 0.0
    for n in range(3, 101):
        log_t = ul.log_spanning_tree_count(ul.complete_graph(n))
        expect = (n - 2) * math.log(n)
        worst_rel = max(worst_rel, abs(log_t - expect) / expect)
    hits = 0
    for trial in range(10):
        rng = np.random.default_rng(7_000 + trial)
        G = gnp(rng, 400, 0.5)
        if not G.is_connected():
            continue
        lhs, _rhs = ul.normalized_tree_count_vs_graphon(G, ul.constant_graphon(0.5))
        if 0.45 <= lhs <= 0.55:
            hits += 1
    ok = worst_rel <= 1e-6 and hits >= 9
    report(7, ok, f"Cayley max rel err = {worst_rel:.2e}; G(400,1/2) in-range {hits}/10")


# -- 8. Kostochka upper bound ----------------------------------------------------------


def test_c08_kostochka_bound():
    rng = np.random.default_rng(808)
    holds = 0
    for _ in range(100):
        n = int(rng.integers(4, 16))
        G = random_connected_min_degree(rng, n, 0.6, 2)
        holds += ul.kostochka_upper_check(G)
    report(8, holds == 100, f"t(G) <= prod d_i/(n-1) held on {holds}/100 graphs")


# -- 9. Hitting law in expanders --------------------------------------------------------


def test_c09_hitting_law():
    rng = np.random.default_rng(909)
    G = gnp(rng, 500, 0.5)
    assert G.is_connected()
    deg = G.degrees
    worst = 0.0
    for t in range(20):
        w, u, v = (int(x) for x in rng.choice(500, size=3, replace=False))
        est, _se = ul.hitting_before_return_mc(G, w, u, v, 100_000, seed=9_000 + t)
        worst = max(worst, abs(est - deg[v] / (deg[u] + deg[v])))
    report(9, worst <= 0.02, f"max |MC - deg ratio| = {worst:.4f} over 20 triples")


# -- 10. Resistance in expanders ----------------------------------------------------------


def test_c10_resistance_in_expanders():
    rng = np.random.default_rng(1010)
    G = gnp(rng, 500, 0.5)
    assert G.is_connected()
    deg = G.degrees
    system = ul.LaplacianSystem(G)
    worst = 0.0
    for _ in range(20):
        u, v = (int(x) for x in rng.choice(500, size=2, replace=False))
        r = system.resistance(u, v)
        approx = 1.0 / deg[u] + 1.0 / deg[v]
        worst = max(worst, abs(r - approx) / approx)
    report(10, worst <= 0.05, f"max rel deviation from 1/du + 1/dv = {worst:.3%}")


# -- 11. Decomposition recovery -------------------------------------------------------------


def test_c11_decomposition_recovery():
    m = 200
    edges = []
    for base in (0, m):
        edges += [(base + i, base + j, 1) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + i, 1) for i in range(m)]
    G = ul.MultiGraph.build(2 * m, edges)

    dec = ul.expander_decompose(G, gamma=0.1, eta=0.05, eps=0.05)
    rep = dec.verification
    parts_ok = dec.k == 2
    agree = 0
    if parts_ok:
        for i in (1, 2):
            votes = np.asarray(dec.part(i)) // m
            agree += int(max((votes == 0).sum(), (votes == 1).sum()))
    recovery_ok = parts_ok and agree >= 0.95 * 2 * m
    verify_ok = rep.g1_ok and rep.g2_ok and rep.g3_ok
    certified = all(c.mode == "certified" for c in rep.g3_checks)

    good_runs = 0
    for i in range(100):
        tree = ul.wilson_sample(G, seed=11_000 + i)
        if ul.cross_edge_count(tree, dec) <= 15:
            good_runs += 1
    ok = recovery_ok and verify_ok and certified and good_runs >= 95
    report(11, ok, f"parts={dec.k} agree={agree}/400, G1-G3 ok={verify_ok} "
           f"(G3 certified), |O|<=15 in {good_runs}/100 samples")


# -- 12. Extremal optimizer ---------------------------------------------------------------


def test_c12_extremal_optimizer():
    worst = 0.0
    exceeded = False
    for k in range(2, 9):
        closed = ul.closed_form_max(k)
        got = ul.optimize_lemma_max(k, tol=1e-8)
        worst = max(worst, abs(got - closed) / max(closed, 1.0))
        oracle = n_point_gradient_oracle(k)
        if oracle > closed * (1 + 1e-12) + 1e-15:
            exceeded = True
    ok = worst <= 1e-6 and not exceeded
    report(12, ok, f"max |optimizer - ((k-1)/e)^(k-1)| rel = {worst:.2e}; "
           f"oracle exceeded supremum: {exceeded}")


# -- 13. Sharpness construction ---------------------------------------------------------------


def test_c13_sharpness_graph():
    n, k, alpha, samples = 400, 4, 0.05, 30
    G = ul.sharpness_graph(n, k, alpha, seed=13)
    assert G.is_connected()
    total_deg4 = 0
    for i in range(samples):
        total_deg4 += ul.degree_counts(ul.wilson_sample(G, seed=13_000 + i)).get(4, 0)
    density = total_deg4 / (samples * n)
    target = 4 / (6 * math.e**2)
    report(13, abs(density - target) <= 0.03,
           f"mean L_4/n = {density:.4f} vs 4/(6e^2) = {target:.4f}")


# -- 14. Invariant suite -------------------------------------------------------------------


def test_c14_invariant_suite():
    rng = np.random.default_rng(1414)

    # avg_b = 1 on 10^3 random nondegenerate step graphons
    avg_worst = 0.0
    produced = 0
    while produced < 1000:
        kk = int(rng.integers(1, 6))
        mu = rng.random(kk) + 0.05
        mu /= mu.sum()
        W = rng.random((kk, kk))
        W = (W + W.T) / 2
        g = ul.StepGraphon(mu, W)
        rep = ul.validate(g)
        if not rep.nondegenerate:
            continue
        avg_worst = max(avg_worst, abs(rep.avg_b - 1.0))
        produced += 1
    avg_ok = avg_worst <= 1e-12

    # Cheeger sandwich with exact Phi_*: exhaustive n <= 5, random up to n = 10
    sandwich_ok = True
    checked = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            G = ul.MultiGraph.build(n, [(u, v, 1) for i, (u, v) in enumerate(pairs) if mask >> i & 1])
            if not G.is_connected():
                continue
            prof = ul.spectral_profile(G)
            checked += 1
            if not (prof.cheeger**2 / 2 <= prof.gap + 1e-9 and prof.gap <= 2 * prof.cheeger + 1e-9):
                sandwich_ok = False
    for _ in range(200):
        n = int(rng.integers(6, 11))
        G = random_connected_graph(rng, n, 0.5, max_mult=2)
        prof = ul.spectral_profile(G)
        checked += 1
        if not (prof.cheeger**2 / 2 <= prof.gap + 1e-9 and prof.gap <= 2 * prof.cheeger + 1e-9):
            sandwich_ok = False

    # Rayleigh monotonicity over 10^3 random edge deletions
    rayleigh_ok = True
    deletions = 0
    while deletions < 1000:
        n = int(rng.integers(4, 10))
        G = random_connected_graph(rng, n, 0.6, max_mult=2)
        pairs = G.edge_pairs()
        u, v = pairs[int(rng.integers(len(pairs)))]
        base = ul.effective_resistance(G, u, v)
        drop = pairs[int(rng.integers(len(pairs)))]
        H = G.delete([drop])
        if not H.is_connected():
            continue
        deletions += 1
        if ul.effective_resistance(H, u, v) < base - 1e-12:
            rayleigh_ok = False

    # probability completeness at W = 1, r = 1, patterns up to 12 vertices
    partial = sum(
        ul.freq_graphon(ul.RootedTree([-1] + [0] * leaves), ul.constant_graphon(1.0)).value
        for leaves in range(1, 12)
    )
    complete_ok = 0.9999 <= partial <= 1.0 + 1e-12

    ok = avg_ok and sandwich_ok and rayleigh_ok and complete_ok
    report(14, ok, f"avg_b worst = {avg_worst:.1e}; sandwich on {checked} graphs: {sandwich_ok}; "
           f"rayleigh on 1000 deletions: {rayleigh_ok}; completeness partial = {partial:.6f}")
