import math

import numpy as np
import pytest

from ustlocal.electric import effective_resistance
from ustlocal.errors import (
    GraphDisconnected,
    InvalidVertices,
    ParameterOutOfRange,
    TooLargeForExactCheck,
)
from ustlocal.multigraph import MultiGraph, complete_graph, cycle_graph, path_graph
from ustlocal.walk import (
    EXACT_CHEEGER_LIMIT,
    _fiedler_vector,
    _lazy_walk_matrix,
    exact_cheeger,
    hitting_before_return_exact,
    hitting_before_return_mc,
    spectral_profile,
    sweep_cuts,
)

from conftest import gnp, random_connected_graph, two_cliques_matching
from walk_oracle import fiedler_vector_full, hitting_before_return_lockstep, sweep_cuts_full


def test_triangle_return_probability():
    assert hitting_before_return_exact(complete_graph(3), 0, 0, 1) == pytest.approx(0.75)


def test_single_edge_forced_step():
    G = path_graph(2)
    assert hitting_before_return_exact(G, 0, 0, 1) == pytest.approx(1.0)


def test_path_symmetry():
    assert hitting_before_return_exact(path_graph(3), 1, 0, 2) == pytest.approx(0.5)


def test_hitting_argument_checks():
    G = complete_graph(3)
    with pytest.raises(InvalidVertices):
        hitting_before_return_exact(G, 0, 1, 1)
    with pytest.raises(InvalidVertices):
        hitting_before_return_exact(G, 2, 0, 2)
    with pytest.raises(GraphDisconnected):
        hitting_before_return_exact(MultiGraph.build(4, [(0, 1, 1), (2, 3, 1)]), 0, 0, 1)


def test_escape_probability_identity(rng):
    # P_u[tau_v < tau_u^+] deg(u) R_eff(u, v) = 1
    for _ in range(12):
        n = int(rng.integers(3, 9))
        G = random_connected_graph(rng, n, 0.6, max_mult=2)
        u, v = 0, n - 1
        p = hitting_before_return_exact(G, u, u, v)
        r = effective_resistance(G, u, v)
        assert p * G.degrees[u] * r == pytest.approx(1.0, abs=1e-9)


def _mc_matches_exact(rng, max_mult, seeds):
    for seed in seeds:
        n = int(rng.integers(4, 12))
        G = random_connected_graph(rng, n, 0.6, max_mult=max_mult)
        w, u, v = int(rng.integers(n)), 0, n - 1
        if w == v:
            w = u
        exact = hitting_before_return_exact(G, w, u, v)
        est, se = hitting_before_return_mc(G, w, u, v, 20000, seed=seed)
        assert abs(est - exact) <= 4 * max(se, 1e-4)


def test_mc_matches_exact(rng):
    _mc_matches_exact(rng, 1, range(4))


def test_mc_matches_exact_on_multigraphs(rng):
    _mc_matches_exact(rng, 3, range(100, 104))


def test_hand_checked_multigraph():
    # from 0: straight to 1 w.p. 3/4; else to 2, then to 1 or back to 0 evenly
    G = MultiGraph.build(3, [(0, 1, 3), (0, 2, 1), (1, 2, 1)])
    exact = hitting_before_return_exact(G, 0, 0, 1)
    assert exact == pytest.approx(7 / 8, abs=1e-12)
    est, se = hitting_before_return_mc(G, 0, 0, 1, 20000, seed=5)
    assert abs(est - 7 / 8) <= 4 * max(se, 1e-4)


def test_mc_same_seed_same_estimate():
    G = MultiGraph.build(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1), (0, 2, 1)])
    assert hitting_before_return_mc(G, 1, 0, 3, 5000, seed=8) == hitting_before_return_mc(
        G, 1, 0, 3, 5000, seed=8
    )


def test_mc_rejects_zero_samples():
    with pytest.raises(ParameterOutOfRange):
        hitting_before_return_mc(complete_graph(3), 0, 0, 1, 0, seed=1)


def test_k2_profile():
    prof = spectral_profile(path_graph(2))
    assert prof.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert prof.gap == pytest.approx(1.0, abs=1e-12)


def test_c4_profile():
    prof = spectral_profile(cycle_graph(4))
    assert prof.cheeger == pytest.approx(0.25, abs=1e-12)
    assert prof.cheeger_exact
    assert prof.gap == pytest.approx(0.5, abs=1e-12)
    assert prof.cheeger**2 / 2 <= prof.gap + 1e-12
    assert prof.gap <= 2 * prof.cheeger + 1e-12


def test_cheeger_sandwich_random(rng):
    for _ in range(15):
        n = int(rng.integers(3, 11))
        G = random_connected_graph(rng, n, 0.5, max_mult=2)
        prof = spectral_profile(G)
        assert prof.cheeger_exact
        assert prof.cheeger**2 / 2 <= prof.gap + 1e-9
        assert prof.gap <= 2 * prof.cheeger + 1e-9


def test_lazy_spectrum_range(rng):
    import scipy.linalg

    for _ in range(8):
        G = random_connected_graph(rng, 8, 0.5)
        deg = G.degrees.astype(float)
        A = G.adjacency_matrix()
        inv_sqrt = 1.0 / np.sqrt(deg)
        M = 0.5 * (np.eye(8) + A * inv_sqrt[:, None] * inv_sqrt[None, :])
        vals = scipy.linalg.eigvalsh(M)
        assert vals[0] >= -1e-10
        assert vals[-1] <= 1.0 + 1e-10


def test_sweep_bound_flagged_and_valid():
    # above the exact limit the profile returns an upper bound on Phi_*
    G = complete_graph(EXACT_CHEEGER_LIMIT + 1)
    prof = spectral_profile(G)
    assert not prof.cheeger_exact
    assert prof.cheeger >= exact_cheeger(G) - 1e-12


def test_exact_cheeger_too_large():
    with pytest.raises(TooLargeForExactCheck):
        exact_cheeger(complete_graph(21))


def test_mixing_bound_monotone_in_eps():
    prof = spectral_profile(cycle_graph(6))
    assert prof.mixing_bound(0.05) > prof.mixing_bound(0.25)
    with pytest.raises(ParameterOutOfRange):
        prof.mixing_bound(0.7)


def test_expander_gap_bound(rng):
    # spectral gap respects c * gamma^4 / f^4 with c = 1/128 for a certified gamma
    G = gnp(rng, 200, 0.5)
    assert G.is_connected()
    prof = spectral_profile(G)
    gamma_cert = prof.gap * int(G.degrees.min()) / G.n
    assert prof.gap >= gamma_cert**4 / 128.0


def test_dense_expander_hitting_law(rng):
    G = gnp(rng, 300, 0.5)
    assert G.is_connected()
    deg = G.degrees
    w, u, v = 7, 3, 11
    exact = hitting_before_return_exact(G, w, u, v)
    assert abs(exact - deg[v] / (deg[u] + deg[v])) <= 0.02


@pytest.mark.parametrize("n", [0, 1])
def test_profile_needs_two_vertices(n):
    with pytest.raises(InvalidVertices):
        spectral_profile(MultiGraph.build(n, []))


def test_mc_first_step_leaves_w_equal_u():
    # from 1 the walk reaches 2 at once or returns to 1 through 0, evenly; a
    # walker absorbed at u = 1 before its first step would never succeed
    G = path_graph(3)
    assert hitting_before_return_exact(G, 1, 1, 2) == pytest.approx(0.5)
    est, se = hitting_before_return_mc(G, 1, 1, 2, 20000, seed=12)
    assert abs(est - 0.5) <= 4 * se


def test_mc_matches_lockstep_oracle(rng):
    # the absorbing, batched walk against the per-step compaction it replaced
    for seed in range(200, 206):
        n = int(rng.integers(4, 12))
        G = random_connected_graph(rng, n, 0.6, max_mult=3)
        w, u, v = int(rng.integers(n)), 0, n - 1
        if w == v:
            w = u
        est, se = hitting_before_return_mc(G, w, u, v, 20000, seed=seed)
        ref, ref_se = hitting_before_return_lockstep(G, w, u, v, 20000, seed=seed)
        assert abs(est - ref) <= 4 * max(math.hypot(se, ref_se), 1e-4)


def test_float_draw_stays_below_degree():
    # floor(U d) with U at most 1 - 2^-53 never reaches d, for every degree up
    # to 5e7, so a float draw never steps past its row of the step table
    top = np.nextafter(1.0, 0.0)
    for lo in range(1, 50_000_001, 1_000_000):
        d = np.arange(lo, lo + 1_000_000, dtype=np.float64)
        assert (np.floor(top * d) < d).all()
        assert (np.floor(top * d) == d - 1).all()


@pytest.mark.parametrize("vertex", [0.5, 1.0, True, "1"])
def test_hitting_rejects_non_integer_vertices(vertex):
    G = complete_graph(3)
    with pytest.raises(InvalidVertices):
        hitting_before_return_exact(G, vertex, 0, 2)
    with pytest.raises(InvalidVertices):
        hitting_before_return_mc(G, vertex, 0, 2, 10, seed=1)
    with pytest.raises(InvalidVertices):
        hitting_before_return_mc(G, 0, 1, vertex, 10, seed=1)


def test_hitting_accepts_numpy_integer_vertices():
    G = complete_graph(4)
    w, u, v = np.int64(1), np.int32(0), np.uint8(3)
    assert hitting_before_return_exact(G, w, u, v) == hitting_before_return_exact(G, 1, 0, 3)
    assert hitting_before_return_mc(G, w, u, v, 500, seed=4) == hitting_before_return_mc(G, 1, 0, 3, 500, seed=4)


@pytest.mark.parametrize("samples", [2.5, True, 1.0, "10"])
def test_mc_rejects_non_integer_samples(samples):
    with pytest.raises(ParameterOutOfRange):
        hitting_before_return_mc(complete_graph(3), 0, 0, 1, samples, seed=1)


def test_lazy_walk_matrix_is_half_identity_plus_normalized_adjacency(rng):
    for _ in range(6):
        G = random_connected_graph(rng, int(rng.integers(3, 30)), 0.4, max_mult=3)
        M, inv_sqrt = _lazy_walk_matrix(G)
        N = G.adjacency_matrix() * inv_sqrt[:, None] * inv_sqrt[None, :]
        assert np.array_equal(M, 0.5 * (np.eye(G.n) + N))


def test_sweep_cuts_match_full_eigh_oracle(rng):
    # where lambda_2 is simple and the Fiedler entries are distinct beyond
    # rounding, the order of the two-pair solve is the order of the full one;
    # the sign rule breaks ties of largest magnitude by vertex, so those may tie
    compared = 0
    graphs = [random_connected_graph(rng, int(rng.integers(3, 40)), float(rng.uniform(0.15, 0.9)),
                                     max_mult=int(rng.integers(1, 4))) for _ in range(40)]
    graphs += [gnp(rng, 150, 0.3), two_cliques_matching(40)]
    for G in graphs:
        vals = np.linalg.eigvalsh(_lazy_walk_matrix(G)[0])
        y = fiedler_vector_full(G)
        if min(vals[-1] - vals[-2], vals[-2] - vals[-3]) < 1e-6 or np.diff(np.sort(y)).min() < 1e-9:
            continue
        order, cuts = sweep_cuts(G)
        ref_order, ref_cuts = sweep_cuts_full(G)
        assert order.tolist() == ref_order.tolist()
        assert cuts.tolist() == ref_cuts.tolist()
        compared += 1
    assert compared >= 30


@pytest.mark.parametrize("fiedler", [_fiedler_vector, fiedler_vector_full], ids=["two-pair", "full"])
def test_fiedler_sign_tie_goes_to_the_smallest_vertex(fiedler):
    # the two ends of a path tie in magnitude with opposite signs; reading the
    # largest magnitude alone let rounding order P4 as [0, 1, 2, 3] in one
    # solve and [3, 2, 1, 0] in the other
    y = fiedler(path_graph(4))
    assert np.argsort(-y, kind="stable").tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("G", [complete_graph(30), complete_graph(200), two_cliques_matching(200)],
                         ids=["K30", "K200", "c11"])
def test_fiedler_vector_on_degenerate_spectra(G):
    # lambda_2 repeats n - 1 times on K_n (and m - 1 times on the c11 graph),
    # where the two-pair solve may find no pairs and the full eigh stands in
    M, inv_sqrt = _lazy_walk_matrix(G)
    lam2 = np.linalg.eigvalsh(M)[-2]
    x = _fiedler_vector(G) / inv_sqrt  # back to the symmetrized coordinates
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-10
    assert np.linalg.norm(M @ x - lam2 * x) <= 1e-10
    assert abs(x @ (1.0 / inv_sqrt)) <= 1e-10 * np.linalg.norm(1.0 / inv_sqrt)


@pytest.mark.parametrize("failure", ["no pairs", "error"])
def test_fiedler_vector_falls_back_to_full_eigh(monkeypatch, failure):
    import scipy.linalg

    eigh = scipy.linalg.eigh

    def failing_subset_eigh(a, *args, **kwargs):
        if "subset_by_index" not in kwargs:
            return eigh(a, *args, **kwargs)
        if failure == "error":
            raise np.linalg.LinAlgError("Internal Error")
        return np.empty(0), np.empty((len(a), 0))

    G = random_connected_graph(np.random.default_rng(5), 12, 0.5)
    monkeypatch.setattr(scipy.linalg, "eigh", failing_subset_eigh)
    assert np.array_equal(_fiedler_vector(G), fiedler_vector_full(G))
