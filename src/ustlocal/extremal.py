"""Extremal degree-density bounds and the optimization lemma.

The reduced problem behind the degree bounds maximizes lambda e^{-y} y^k over
lambda in [0,1], y >= 0, lambda y <= 1; two-point solutions suffice, the
optimum is ((k-1)/e)^{k-1}.  The one evaluator is golden-section search on
the reduced one-dimensional envelope, and every value it returns is checked
against that closed form, so the numeric result is never trusted alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegree, NumericError, ParameterOutOfRange, is_integer
from .multigraph import MultiGraph, vertex_count
from .rng import stream

_GOLDEN_ITERS = 200  # golden-section steps; the bracket shrinks by 0.618 each


@dataclass
class DegreeBound:
    k: int
    direction: str  # "lower" or "upper"
    value: float


def _check_degree(k, least: int) -> None:
    """Refuse a degree that is not an integer >= least (2.5, True, "4") with InvalidDegree."""
    if not is_integer(k) or k < least:
        raise InvalidDegree(f"degree {k!r} is not an integer >= {least}")


def degree_density_bound(k: int) -> DegreeBound:
    """Asymptotic bounds on the density of degree-k vertices in the UST."""
    _check_degree(k, 1)
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


def _golden_max(k: int, lo: float, hi: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = _envelope(c, k), _envelope(d, k)
    for _ in range(_GOLDEN_ITERS):
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


def optimize_lemma_max(k: int, tol: float = 1e-9) -> float:
    """Golden-section maximum of the reduced two-point problem.

    The value is checked against ((k-1)/e)^{k-1} before it is returned: a gap
    above 10*tol, relative to the maximum once it exceeds 1 (about 7e8 at
    k = 14), raises NumericError.  From k = 130 the envelope's y^k leaves the
    float range, which raises NumericError too.
    """
    _check_degree(k, 2)
    try:
        value = _golden_max(k, 0.0, max(3.0 * k, 6.0))
    except OverflowError as exc:
        raise NumericError(f"k = {k}: the envelope overflows a float") from exc
    closed = closed_form_max(k)
    if abs(value - closed) > 10 * max(tol, 1e-12) * max(1.0, abs(value)):
        raise NumericError(
            f"golden-section {value!r} and closed form {closed!r} disagree beyond 10*tol relative"
        )
    return value


def closed_form_max(k: int) -> float:
    _check_degree(k, 2)
    try:
        return ((k - 1) / math.e) ** (k - 1)
    except OverflowError as exc:
        raise NumericError(f"k = {k}: the maximum overflows a float") from exc


def sharpness_graph(n: int, k: int, alpha: float, seed: int) -> MultiGraph:
    """Clique on ~n/(k-2) vertices plus outside vertices, cross edges iid alpha.

    The UST of this graph pushes the density of degree-k vertices toward the
    extremal upper bound as alpha -> 0.  With alpha = 0 the graph is
    disconnected and the UST is undefined.  An alpha that is not a real
    number in [0, 1] (-0.5, nan, 1.5, "0.5", True) raises ParameterOutOfRange.
    """
    n = vertex_count(n)
    _check_degree(k, 4)
    if not (is_integer(alpha) or isinstance(alpha, (float, np.floating))) or not 0.0 <= alpha <= 1.0:
        raise ParameterOutOfRange(f"alpha {alpha!r} is not a real number in [0, 1]")
    m = round(n / (k - 2))
    rng = stream(seed)
    edges = [(i, j, 1) for i in range(m) for j in range(i + 1, m)]
    if alpha > 0.0:
        for u in range(m):
            hits = np.flatnonzero(rng.random(n - m) < alpha)
            edges.extend((u, m + int(h), 1) for h in hits)
    return MultiGraph.build(n, edges)
