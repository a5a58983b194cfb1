"""Reference gradient-ascent optimizer of the lemma that only the tests use.

The independent check of `ustlocal.extremal.optimize_lemma_max`: it
optimizes a 50-atom weighted discretization of the reduced problem by
projected gradient on the atom locations, with exact weight re-solves.
Every iterate is feasible, so its value never exceeds the supremum
((k-1)/e)^{k-1}.
"""
import numpy as np

from ustlocal.rng import stream


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


def _power_exp(y: np.ndarray, k: int) -> np.ndarray:
    """e^{-y} y^k as exp(k log y - y), finite wherever the product is; y**k
    alone overflows once k log y > 709.  y = 0 is clamped to 1e-300."""
    return np.exp(k * np.log(np.maximum(y, 1e-300)) - y)


def _envelope_vec(y: np.ndarray, k: int) -> np.ndarray:
    lam = np.minimum(1.0, 1.0 / np.maximum(y, 1e-300))
    return lam * _power_exp(y, k)


def _envelope_grad(y: np.ndarray, k: int) -> np.ndarray:
    below = _power_exp(y, k - 1) * (k - y)  # weight 1 branch, y <= 1
    above = _power_exp(y, k - 2) * (k - 1 - y)  # weight 1/y branch
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
    value, _w = _best_weights(y, _power_exp(y, k))
    return float(max(value, _envelope_vec(y, k).max()))
