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


def uniform_blocks(gen: np.random.Generator):
    """Blocks of uniforms for tight Python loops (walk steps), as memoryviews.

    The first block holds 256 uniforms and each next one twice as many, up
    to 16384, so short walks pay little.  A loop indexes the block it holds
    (a memoryview hands out Python floats) and takes the next block only
    when it needs one more uniform, so the stream advances block by block
    on a fixed schedule.
    """
    size = 256
    while True:
        yield memoryview(gen.random(size))
        size = min(2 * size, 16384)
