"""Deterministic random streams.

Every stochastic routine takes an explicit integer seed and derives a
counter-based Philox stream keyed by (seed, path).  Distinct paths give
statistically independent streams, so replicates can run in any order (or
concurrently) and still reproduce bit-identical results.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterOutOfRange, is_integer


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by an integer seed >= 0 and an index path.

    A seed that is not an integer (a float, a bool, a string) raises
    ParameterOutOfRange rather than being cast.
    """
    key = tuple(int(p) for p in path)
    if not is_integer(seed) or seed < 0 or any(p < 0 for p in key):
        raise ParameterOutOfRange(f"seed {seed!r} and stream path {key} must be integers >= 0")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_count(samples: int) -> int:
    """The number of Monte Carlo samples as an int; anything but an integer >= 1 raises."""
    if not is_integer(samples) or samples < 1:
        raise ParameterOutOfRange(f"samples must be an integer >= 1, got {samples!r}")
    return int(samples)


class UniformBuffer:
    """Buffered scalar uniforms for tight Python loops (walk steps).

    Starts small so short walks pay little; doubles on refill up to a cap.
    """

    __slots__ = ("_gen", "_buf", "_pos", "_size", "_cap")

    def __init__(self, gen: np.random.Generator, size: int = 256, cap: int = 16384):
        self._gen = gen
        self._size = size
        self._cap = cap
        self._buf = gen.random(size)
        self._pos = 0

    def __call__(self) -> float:
        pos = self._pos
        if pos == self._size:
            self._size = min(2 * self._size, self._cap)
            self._buf = self._gen.random(self._size)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]
