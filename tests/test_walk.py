import numpy as np
import pytest

from ustlocal.electric import effective_resistance
from ustlocal.errors import GraphDisconnected, InvalidVertices, ParameterOutOfRange
from ustlocal.multigraph import MultiGraph, complete_graph, cycle_graph, path_graph
from ustlocal.walk import (
    exact_cheeger,
    hitting_before_return_exact,
    hitting_before_return_mc,
    spectral_profile,
)

from conftest import gnp, random_connected_graph


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
        assert p * G.degree(u) * r == pytest.approx(1.0, abs=1e-9)


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
    G = complete_graph(12)
    prof = spectral_profile(G, exact_cheeger_limit=8)
    assert not prof.cheeger_exact
    assert prof.cheeger >= exact_cheeger(G) - 1e-12


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
