"""Extremal degree-density bounds and the optimization lemma.

The reduced problem behind the degree bounds maximizes lambda e^{-y} y^k over
lambda in [0,1], y >= 0, lambda y <= 1; two-point solutions suffice, the
optimum is ((k-1)/e)^{k-1}.  The primary evaluator is golden-section search
on the reduced one-dimensional envelope; an independent oracle optimizes a
50-atom weighted discretization by projected gradient on atom locations with
exact weight re-solves, and is never trusted alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegree, NumericError
from .multigraph import MultiGraph
from .rng import stream


@dataclass
class DegreeBound:
    k: int
    direction: str  # "lower" or "upper"
    value: float


def degree_density_bound(k: int) -> DegreeBound:
    """Asymptotic bounds on the density of degree-k vertices in the UST."""
    if k < 1:
        raise InvalidDegree(f"degree {k} < 1")
    if k == 1:
        return DegreeBound(1, "lower", math.exp(-1.0))
    if k == 2:
        return DegreeBound(2, "upper", math.exp(-1.0))
    try:
        value = (k - 2) ** (k - 2) / (math.factorial(k - 1) * math.e ** (k - 2))
    except OverflowError as exc:
        raise NumericError(f"degree {k}: the bound overflows a float") from exc
    return DegreeBound(k, "upper", value)


def _envelope(y: float, k: int) -> float:
    """max over feasible lambda of lambda e^{-y} y^k, i.e. min(1, 1/y) e^{-y} y^k."""
    if y <= 0.0:
        return 0.0
    lam = min(1.0, 1.0 / y)
    return lam * math.exp(-y) * y**k


def _golden_max(k: int, lo: float, hi: float, iters: int = 200) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = _envelope(c, k), _envelope(d, k)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _envelope(c, k)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _envelope(d, k)
    y = 0.5 * (a + b)
    return _envelope(y, k)


def _best_weights(y: np.ndarray, f: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact solve of max sum(w f) s.t. w >= 0, sum w <= 1, sum w y <= 1.

    A vertex of the feasible polytope touches at most two atoms: single
    atoms with w = min(1, 1/y), and pairs with both constraints tight.
    """
    n = len(y)
    best = 0.0
    best_w = np.zeros(n)
    for i in range(n):
        if f[i] <= 0.0:
            continue
        wi = 1.0 if y[i] <= 1.0 else 1.0 / y[i]
        val = wi * f[i]
        if val > best:
            best = val
            best_w = np.zeros(n)
            best_w[i] = wi
    for i in range(n):
        for j in range(i + 1, n):
            denom = y[i] - y[j]
            if abs(denom) < 1e-15:
                continue
            wi = (1.0 - y[j]) / denom
            wj = 1.0 - wi
            if wi < 0.0 or wj < 0.0:
                continue
            val = wi * f[i] + wj * f[j]
            if val > best:
                best = val
                best_w = np.zeros(n)
                best_w[i] = wi
                best_w[j] = wj
    return best, best_w


def _envelope_vec(y: np.ndarray, k: int) -> np.ndarray:
    lam = np.minimum(1.0, 1.0 / np.maximum(y, 1e-300))
    return lam * np.exp(-y) * y**k


def _envelope_grad(y: np.ndarray, k: int) -> np.ndarray:
    below = np.exp(-y) * y ** (k - 1) * (k - y)  # weight 1 branch, y <= 1
    above = np.exp(-y) * y ** (k - 2) * (k - 1 - y)  # weight 1/y branch
    return np.where(y <= 1.0, below, above)


def n_point_gradient_oracle(
    k: int, atoms: int = 50, iters: int = 600, seed: int = 0
) -> float:
    """Weighted-atom maximization of sum_i w_i e^{-y_i} y_i^k under the budget.

    Weights are re-solved exactly (the LP optimum touches at most two atoms),
    which reduces each atom to projected gradient ascent with a per-atom
    backtracking step.  Every iterate is feasible, so the reported value never
    exceeds the true supremum ((k-1)/e)^{k-1}.
    """
    rng = stream(seed, k)
    y = np.linspace(0.05, max(2.0 * k, 3.0), atoms) + 0.01 * rng.random(atoms)
    step = np.full(atoms, 0.25)
    for _ in range(iters):
        vals = _envelope_vec(y, k)
        y_new = np.clip(y + step * _envelope_grad(y, k), 0.0, None)
        improved = _envelope_vec(y_new, k) >= vals
        y = np.where(improved, y_new, y)
        step = np.where(improved, np.minimum(step * 1.3, 4.0), step * 0.4)
    value, _w = _best_weights(y, np.exp(-y) * y**k)
    return float(max(value, _envelope_vec(y, k).max()))


def optimize_lemma_max(k: int, tol: float = 1e-9) -> float:
    """Numerical maximum of the reduced two-point problem; agrees with
    ((k-1)/e)^{k-1} within tol, cross-checked by the gradient oracle first,
    relative to the maximum once it exceeds 1 (about 7e8 at k = 14)."""
    if k < 2:
        raise InvalidDegree(f"k = {k} < 2")
    try:
        primary = _golden_max(k, 0.0, max(3.0 * k, 6.0))
    except OverflowError as exc:
        raise NumericError(f"k = {k}: the envelope overflows a float") from exc
    oracle = n_point_gradient_oracle(k)
    if abs(oracle - primary) > 10 * max(tol, 1e-12) * max(1.0, abs(primary)):
        raise NumericError(
            f"oracle {oracle!r} and golden-section {primary!r} disagree beyond 10*tol relative"
        )
    return primary


def closed_form_max(k: int) -> float:
    if k < 2:
        raise InvalidDegree(f"k = {k} < 2")
    try:
        return ((k - 1) / math.e) ** (k - 1)
    except OverflowError as exc:
        raise NumericError(f"k = {k}: the maximum overflows a float") from exc


def sharpness_graph(n: int, k: int, alpha: float, seed: int) -> MultiGraph:
    """Clique on ~n/(k-2) vertices plus outside vertices, cross edges iid alpha.

    The UST of this graph pushes the density of degree-k vertices toward the
    extremal upper bound as alpha -> 0.  With alpha = 0 the graph is
    disconnected and the UST is undefined.
    """
    if k < 4:
        raise InvalidDegree(f"construction needs k >= 4, got {k}")
    m = round(n / (k - 2))
    rng = stream(seed)
    edges = [(i, j, 1) for i in range(m) for j in range(i + 1, m)]
    if alpha > 0.0:
        for u in range(m):
            hits = np.flatnonzero(rng.random(n - m) < alpha)
            edges.extend((u, m + int(h), 1) for h in hits)
    return MultiGraph.build(n, edges)
