"""Frequency functionals for rooted tree patterns.

The graphon functional Freq(T; W) sums, over all block assignments of the
pattern vertices, the product of kernel entries along pattern edges times
exp(-sum b) over vertices below the top height and a degree ratio whose
numerator ranges over the top-height vertices.  That weight factorizes over
the pattern's edges except for the numerator, which is linear, so one
bottom-up pass over the tree evaluates it exactly in O(ell k^2) for ell
pattern vertices and k blocks (the sum-product method on trees, carrying a
second message for the numerator).  Patterns with k**ell above
``ASSIGNMENT_CAP`` are refused: the cap is the documented pattern-size
contract.

Discrete analogues sum the same weight over ordered tuples of distinct
vertices whose pattern edges are graph edges.  They have two exact
evaluators: literal backtracking over injective embeddings (the definition),
and an inclusion-exclusion over the partition lattice that reduces
distinctness to a handful of small tensor contractions and scales to dense
desk-size graphs.  The graph and pattern size choose between them: the
backtracker runs when allowed * max(maxdeg, 1)**(ell - 1), a bound on its
partial embeddings, is at most ``_BACKTRACK_WORK_LIMIT``.  The partition
lattice evaluator names one tensor axis per pattern vertex from
``_MOBIUS_AXES`` and refuses larger patterns with PatternTooLarge.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .decompose import ExpanderDecomposition, big_parts, good_vertices
from .errors import ParameterOutOfRange, PartIndexOutOfRange, PartitionMismatch, PatternTooLarge
from .graphon import StepGraphon
from .multigraph import MultiGraph
from .trees import RootedTree

ASSIGNMENT_CAP = 2_000_000
_BACKTRACK_WORK_LIMIT = 2_000_000
_MOBIUS_AXES = "abcdefghijkl"


@dataclass
class FreqReport:
    value: float
    terms: dict
    tuple_count: int | None
    stab: int
    method: str


def _pattern(T: RootedTree) -> tuple[int, int, list[tuple[int, int]], int]:
    """Normalize the pattern: heights nondecreasing, top-height block last."""
    if T.size < 2:
        raise ParameterOutOfRange("patterns need at least 2 vertices")
    if T.height < 1:
        raise ParameterOutOfRange("patterns need height >= 1")
    norm, p = T.normalized()
    return norm.size, p, norm.edge_list(), T.stab_size()


# -- graphon side ------------------------------------------------------------------


def freq_graphon(T: RootedTree, g: StepGraphon, assignment_cap: int = ASSIGNMENT_CAP) -> FreqReport:
    """Exact Freq(T; W) by one bottom-up pass over the normalized pattern.

    The assignment weight is a product over pattern edges times the linear
    top-height degree sum, so each vertex v carries two length-k vectors:
    F_v(i), the weight of v's subtree with v in block i, and S_v(i), the same
    weight times the sum of d over the subtree's top-height vertices.  Folding
    child c into its parent with M = W F_c and N = W S_c gives S <- S M + F N
    and F <- F M.  The cost is O(ell k^2) for ell pattern vertices and k blocks.

    ``assignment_cap`` is the documented pattern-size contract: patterns with
    k**ell > assignment_cap raise PatternTooLarge before any work.
    """
    g.require_nondegenerate()
    ell, p, edges, stab = _pattern(T)
    k = g.k
    if k**ell > assignment_cap:
        raise PatternTooLarge(f"{k}^{ell} assignments exceed cap {assignment_cap}")
    d = g.block_degrees
    base = g.mu / d
    below = base * np.exp(-g.block_b)
    F = [below if v < p else base for v in range(ell)]
    S = [np.zeros(k) if v < p else base * d for v in range(ell)]
    # parents precede children, so in reverse order every child's subtree is complete
    for (a, c) in reversed(edges):
        M = g.W @ F[c]
        N = g.W @ S[c]
        S[a] = S[a] * M + F[a] * N
        F[a] = F[a] * M
    terms = {i: float(S[0][i]) / stab for i in range(k)}
    value = float(sum(terms.values()))
    return FreqReport(value=value, terms=terms, tuple_count=None, stab=stab, method="tree-dp")


# -- discrete side: shared machinery -----------------------------------------------


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def _mobius_value(
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


def _backtrack_value(
    presence_lists: list[np.ndarray],
    weights: list[np.ndarray],
    deg: np.ndarray,
    allowed: np.ndarray,
    p: int,
    parent: list[int],
) -> tuple[float, int]:
    """Literal sum over ordered injective embeddings (the defining formula)."""
    ell = len(weights)
    n = len(allowed)
    used = np.zeros(n, dtype=bool)
    total = 0.0
    count = 0
    images = [0] * ell

    def extend(j: int, prod: float, numer_sum: float):
        nonlocal total, count
        if j == ell:
            total += prod * numer_sum
            count += 1
            return
        cands = (
            np.flatnonzero(allowed)
            if parent[j] == -1
            else presence_lists[images[parent[j]]]
        )
        for v in cands:
            v = int(v)
            if used[v] or not allowed[v]:
                continue
            w = weights[j][v]
            if w == 0.0:
                continue
            used[v] = True
            images[j] = v
            extend(j + 1, prod * w, numer_sum + (deg[v] if j >= p else 0.0))
            used[v] = False

    extend(0, 1.0, 0.0)
    return total, count


def _discrete_sum(
    G: MultiGraph,
    allowed: np.ndarray,
    presence: np.ndarray,
    expb: np.ndarray,
    p: int,
    ell: int,
    edges: list[tuple[int, int]],
) -> tuple[float, int, str]:
    """Shared evaluator for the discrete frequency sums.

    Per-position vertex weight: exp(-b(v))/deg(v) below position p, 1/deg(v)
    from p on; the numerator adds sum of deg over positions >= p.
    """
    deg = G.degrees.astype(np.float64)
    safe_deg = np.where(deg > 0, deg, 1.0)
    mask = allowed.astype(np.float64)
    w_pre = mask * expb / safe_deg
    w_post = mask / safe_deg
    weights = [w_pre if j < p else w_post for j in range(ell)]

    work = float(allowed.sum())
    max_deg = float(deg.max(initial=0.0))
    for _ in range(ell - 1):
        work *= max(max_deg, 1.0)
        if work > _BACKTRACK_WORK_LIMIT:
            break

    if work <= _BACKTRACK_WORK_LIMIT:
        # normalized patterns list parents before children, so parent[j] < j
        parent_arr = [-1] * ell
        for (a, c) in edges:
            parent_arr[c] = a
        nbr_lists = [np.flatnonzero(presence[v] > 0) for v in range(G.n)]
        order = np.argsort(deg, kind="stable")
        rank = np.empty(G.n, dtype=np.int64)
        rank[order] = np.arange(G.n)
        nbr_lists = [a[np.argsort(rank[a], kind="stable")] for a in nbr_lists]
        total, count = _backtrack_value(nbr_lists, weights, deg, allowed, p, parent_arr)
        return total, count, "backtrack"

    total = _mobius_value(presence, weights, deg, p, edges)
    ones = [mask.copy() for _ in range(ell)]
    count = _mobius_value(presence, ones, None, p, edges)
    return total, int(round(count)), "mobius"


def _b_vector(G: MultiGraph, labels: np.ndarray) -> np.ndarray:
    """b(v) = sum over edges vu with u in v's own part of 1/deg(u)."""
    deg = G.degrees.astype(np.float64)
    return G.same_part_sums(labels, 1.0 / np.where(deg > 0, deg, 1.0))


# -- discrete operations ---------------------------------------------------------------


def freq_graph_component(
    T: RootedTree,
    G: MultiGraph,
    dec: ExpanderDecomposition,
    i: int,
    good: Iterable[int] | np.ndarray,
) -> FreqReport:
    """Sum over i-pure tuples compatible with the pattern, weighted per part size."""
    if not (1 <= i <= dec.k):
        raise PartIndexOutOfRange(f"part {i} outside 1..{dec.k}")
    ell, p, edges, stab = _pattern(T)
    labels = dec.labels
    good_arr = np.asarray(list(good) if not isinstance(good, np.ndarray) else good)
    if good_arr.dtype == bool:
        if good_arr.shape != (G.n,):
            raise PartitionMismatch(f"good mask of shape {good_arr.shape} for {G.n} vertices")
        good_mask = good_arr
    else:
        good_mask = G._check_vertex_set(good_arr)
    allowed = good_mask & (labels == i)
    part_size = int((labels == i).sum())
    if part_size == 0 or not allowed.any():
        return FreqReport(0.0, {i: 0.0}, 0, stab, "auto")
    presence = (G.adjacency_matrix() > 0).astype(np.float64)
    expb = np.exp(-_b_vector(G, labels))
    total, count, used = _discrete_sum(G, allowed, presence, expb, p, ell, edges)
    value = total / (stab * part_size)
    return FreqReport(value=value, terms={i: value}, tuple_count=count, stab=stab, method=used)


def freq_graph(
    T: RootedTree,
    G: MultiGraph,
    dec: ExpanderDecomposition,
    alpha: float,
    eps: float,
) -> FreqReport:
    """Sum over (alpha, eps)-big parts of (|V_i|/n) Freq(T; G, i)."""
    report = good_vertices(G, dec, alpha, eps)
    big = big_parts(G, dec, report)
    _ell, _p, _edges, stab = _pattern(T)
    terms = {}
    count = 0
    used = set()
    for i in sorted(big):
        part_frac = len(dec.part(i)) / G.n
        comp = freq_graph_component(T, G, dec, i, report.good)
        terms[i] = part_frac * comp.value
        count += comp.tuple_count or 0
        used.add(comp.method)
    value = float(sum(terms.values()))
    # report the evaluators the parts used; "auto" when no part is big
    used_method = "+".join(sorted(used)) if used else "auto"
    return FreqReport(value=value, terms=terms, tuple_count=count, stab=stab, method=used_method)


def freq_minus(
    T: RootedTree,
    G: MultiGraph,
    V0: Iterable[int],
    E0: Iterable = (),
) -> FreqReport:
    """Tuples avoid V0 and use no pattern edge from E0; whole-graph degrees and b.

    Vertices in V0 and the endpoints of E0 must lie in 0..n-1.
    """
    ell, p, edges, stab = _pattern(T)
    allowed = ~G._check_vertex_set(V0)
    E0 = [(int(entry[0]), int(entry[1])) for entry in E0]
    G._check_vertex_set(itertools.chain.from_iterable(E0))
    deg = G.degrees
    if (deg[allowed] == 0).any():
        raise ParameterOutOfRange("vertices outside V0 must have positive degree")
    presence = (G.adjacency_matrix() > 0).astype(np.float64)
    for (u, v) in E0:
        presence[u, v] = 0.0
        presence[v, u] = 0.0
    expb = np.exp(-_b_vector(G, np.zeros(G.n, dtype=np.int64)))
    total, count, used = _discrete_sum(G, allowed, presence, expb, p, ell, edges)
    value = total / (stab * G.n)
    return FreqReport(value=value, terms={}, tuple_count=count, stab=stab, method=used)
