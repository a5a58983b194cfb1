import math

import numpy as np
import pytest

from ustlocal import extremal
from ustlocal.errors import InvalidDegree, NumericError
from ustlocal.extremal import (
    closed_form_max,
    degree_density_bound,
    optimize_lemma_max,
    sharpness_graph,
)
from ustlocal.graphon import StepGraphon

from extremal_oracle import n_point_gradient_oracle


def test_bound_values():
    b1 = degree_density_bound(1)
    assert (b1.direction, b1.value) == ("lower", pytest.approx(math.exp(-1)))
    b2 = degree_density_bound(2)
    assert (b2.direction, b2.value) == ("upper", pytest.approx(math.exp(-1)))
    b3 = degree_density_bound(3)
    assert (b3.direction, b3.value) == ("upper", pytest.approx(1 / (2 * math.e)))
    b4 = degree_density_bound(4)
    assert (b4.direction, b4.value) == ("upper", pytest.approx(4 / (6 * math.e**2)))


def test_bound_rejects_zero():
    with pytest.raises(InvalidDegree):
        degree_density_bound(0)
    with pytest.raises(InvalidDegree):
        optimize_lemma_max(1)


def test_float_overflow_is_numeric_error():
    # the first k at which each quantity leaves the float range
    with pytest.raises(NumericError):
        degree_density_bound(146)
    with pytest.raises(NumericError):
        closed_form_max(173)
    with pytest.raises(NumericError):
        optimize_lemma_max(130)


def test_optimizer_matches_closed_form():
    for k in range(2, 9):
        assert optimize_lemma_max(k, tol=1e-8) == pytest.approx(closed_form_max(k), abs=1e-9)


def test_optimizer_refuses_value_off_the_closed_form(monkeypatch):
    # the golden-section value is checked against ((k-1)/e)^(k-1) on every call
    monkeypatch.setattr(extremal, "_golden_max", lambda k, lo, hi: closed_form_max(k) * (1 + 1e-6))
    with pytest.raises(NumericError, match="closed form"):
        optimize_lemma_max(5, tol=1e-8)
    assert optimize_lemma_max(5, tol=1e-6) == closed_form_max(5) * (1 + 1e-6)


def test_oracle_never_exceeds_supremum():
    for k in range(2, 9):
        oracle = n_point_gradient_oracle(k)
        assert oracle <= closed_form_max(k) * (1 + 1e-12) + 1e-15


def test_k6_bound_exceeds_one():
    # the lemma bounds an integral, not a probability
    assert closed_form_max(6) == pytest.approx((5 / math.e) ** 5)
    assert closed_form_max(6) > 1.0


def test_sharpness_construction_shape():
    G = sharpness_graph(400, 4, 0.05, seed=2)
    assert G.n == 400
    clique_deg = G.degrees[:200]
    outside_deg = G.degrees[200:]
    assert (clique_deg >= 199).all()
    assert outside_deg.mean() == pytest.approx(200 * 0.05, rel=0.3)
    # no outside-outside edges
    for (u, v, _m) in G.edges():
        assert u < 200


def test_sharpness_alpha_zero_disconnected():
    G = sharpness_graph(40, 4, 0.0, seed=1)
    assert not G.is_connected()


def test_sharpness_needs_k_at_least_4():
    with pytest.raises(InvalidDegree):
        sharpness_graph(100, 3, 0.1, seed=1)


def test_jensen_direction_random_graphons(rng):
    # sum mu_i e^{-b_i} >= 1/e whenever sum mu_i b_i = 1
    for _ in range(200):
        k = int(rng.integers(1, 5))
        mu = rng.random(k) + 0.05
        mu /= mu.sum()
        W = rng.random((k, k))
        W = (W + W.T) / 2
        g = StepGraphon(mu, W)
        if not g.nondegenerate:
            continue
        b = g.block_b
        assert float(np.dot(mu, np.exp(-b))) >= math.exp(-1) - 1e-12


def test_degree2_envelope_random_graphons(rng):
    # sum mu_i b_i e^{-b_i} <= 1/e pointwise
    for _ in range(200):
        k = int(rng.integers(1, 5))
        mu = rng.random(k) + 0.05
        mu /= mu.sum()
        W = rng.random((k, k))
        W = (W + W.T) / 2
        g = StepGraphon(mu, W)
        if not g.nondegenerate:
            continue
        b = g.block_b
        assert float(np.dot(mu, b * np.exp(-b))) <= math.exp(-1) + 1e-12
