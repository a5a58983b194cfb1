"""Reference partition-lattice evaluator that only the tests use.

The earlier form of the discrete Freq sum's Mobius evaluator: it walks all
Bell(ell) set partitions of the pattern, keeps those with no pattern edge
inside a block, and runs one `np.einsum` over the whole presence matrix per
kept partition and per top-height position.
"""
import itertools
import math

import numpy as np

from ustlocal.errors import PatternTooLarge

_MOBIUS_AXES = "abcdefghijkl"


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def mobius_value(
    presence: np.ndarray,
    weights: list[np.ndarray],
    numer: np.ndarray | None,
    p: int,
    edges: list[tuple[int, int]],
) -> float:
    """Sum over distinct tuples of prod_j weights[j][v_j] * prod_edges presence
    * (numerator over positions >= p, or 1 when numer is None).

    Inclusion-exclusion over set partitions: blocks merging pattern-adjacent
    vertices vanish (the presence diagonal is zero) and are skipped.
    """
    ell = len(weights)
    if ell > len(_MOBIUS_AXES):
        raise PatternTooLarge(
            f"{ell}-vertex pattern: the partition-lattice evaluator takes at most {len(_MOBIUS_AXES)}"
        )
    adjacent = {frozenset(e) for e in edges}
    total = 0.0
    qs = [None] if numer is None else list(range(p, ell))
    for part in _set_partitions(tuple(range(ell))):
        ok = True
        for block in part:
            for x, y in itertools.combinations(block, 2):
                if frozenset((x, y)) in adjacent:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        coeff = 1.0
        for block in part:
            coeff *= (-1.0) ** (len(block) - 1) * math.factorial(len(block) - 1)
        block_of = {}
        for bi, block in enumerate(part):
            for x in block:
                block_of[x] = bi
        merged_edges = {
            tuple(sorted((block_of[i], block_of[j]))) for (i, j) in edges
        }  # presence is 0/1, so parallel merged edges collapse
        base = []
        for block in part:
            w = weights[block[0]].copy()
            for x in block[1:]:
                w = w * weights[x]
            base.append(w)
        for q in qs:
            ops = []
            expr = []
            for (x, y) in sorted(merged_edges):
                ops.append(presence)
                expr.append(_MOBIUS_AXES[x] + _MOBIUS_AXES[y])
            for bi, w in enumerate(base):
                if q is not None and block_of[q] == bi:
                    ops.append(w * numer)
                else:
                    ops.append(w)
                expr.append(_MOBIUS_AXES[bi])
            total += coeff * float(np.einsum(",".join(expr) + "->", *ops, optimize=True))
    return total
