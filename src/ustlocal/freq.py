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
and Mobius inversion over the partition lattice, inj(T, G) = sum over pi of
mu(0, pi) hom(T/pi, G), which scales to dense desk-size graphs.  The graph
and pattern size choose between them: the backtracker runs when
allowed * max(maxdeg, 1)**(ell - 1), a bound on its partial embeddings, is
at most ``_BACKTRACK_WORK_LIMIT``.  The lattice evaluator works on the
allowed vertices only and visits the Bell(ell - 1) partitions of the
pattern into independent sets; a quotient that is a tree costs one
leaf-to-root pass of matrix-vector products, and einsum is kept for
quotients with a cycle.  Patterns with more than ``_PARTITION_CAP``
partitions (above 11 vertices) are refused with PatternTooLarge before any
is generated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .decompose import ExpanderDecomposition, big_parts, good_vertices
from .errors import (
    MalformedEdge,
    ParameterOutOfRange,
    PartIndexOutOfRange,
    PartitionMismatch,
    PatternTooLarge,
)
from .graphon import StepGraphon
from .multigraph import MultiGraph
from .trees import RootedTree

ASSIGNMENT_CAP = 2_000_000
_BACKTRACK_WORK_LIMIT = 2_000_000
# Bell(10): the lattice evaluator takes patterns of up to 11 vertices
_PARTITION_CAP = 115_975
_AXES = "abcdefghijklmnopqrstuvwxyz"
_FLOAT_COUNT_LIMIT = 2**53  # float integers are exact below it


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


def _bell(k: int) -> int:
    """The Bell number B_k, read off the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _independent_partitions(parent: list[int]):
    """Partitions of the pattern's vertices into blocks that hold no pattern edge.

    Yields (block of each vertex, number of blocks), blocks numbered in order
    of their smallest vertex; the list is reused between yields.  With
    parent[j] < j a vertex only has to avoid its parent's block, so a tree on
    ell vertices has exactly Bell(ell - 1) such partitions.
    """
    ell = len(parent)
    block_of = [0] * ell

    def extend(j: int, blocks: int):
        if j == ell:
            yield block_of, blocks
            return
        taken = block_of[parent[j]]
        for b in range(blocks):
            if b != taken:
                block_of[j] = b
                yield from extend(j + 1, blocks)
        block_of[j] = blocks
        yield from extend(j + 1, blocks + 1)

    yield from extend(1, 1)


def _mobius_sums(
    presence: np.ndarray,
    w_pre: np.ndarray,
    w_post: np.ndarray,
    deg: np.ndarray,
    p: int,
    parent: list[int],
) -> tuple[float, int]:
    """The weighted sum and the count of distinct tuples, by Mobius inversion.

    inj(T, G) = sum over partitions pi of mu(0, pi) hom(T/pi, G), with
    mu(0, pi) = prod over blocks of (-1)^(|B| - 1) (|B| - 1)!.  Only
    partitions with no pattern edge inside a block count (the presence
    diagonal is zero), and presence is 0/1, so parallel quotient edges
    collapse.  A block's vertex weight is the product of its members'
    weights, and its share of the numerator is deg times the number of its
    members at positions >= p.

    A quotient that is a tree takes one leaf-to-root pass that carries F
    (weight) and S (weight times numerator) as `freq_graphon` does, plus the
    count, so every position q is covered at once; the parent of block B is
    the block of the parent of B's smallest vertex.  A quotient with a cycle
    takes one einsum per block holding a top-height member, plus one for the
    count.  Every argument covers only the allowed vertices.

    The count is exact while x!/(x-ell)!, which bounds it, is below 2^64,
    for x allowed vertices.  The sum of all |mu| hom terms is at most the
    rising factorial x(x+1)...(x+ell-1); below 2^53 every float in the count
    is an exact integer, so the count rides in the (F, S, count) messages.
    Above it the count messages are carried in wrapping uint64 and the terms
    summed as Python ints, exact modulo 2^64.  Past 2^64 the count is the
    rounded float sum, which can be off.
    """
    ell = len(parent)
    partitions = _bell(ell - 1)
    if partitions > _PARTITION_CAP:
        raise PatternTooLarge(
            f"{ell}-vertex pattern: {partitions} partitions exceed the partition-lattice cap {_PARTITION_CAP}"
        )
    x = len(deg)
    ones = np.ones(x)
    wrap = math.prod(range(x, x + ell)) >= _FLOAT_COUNT_LIMIT and math.perm(x, ell) < 2**64
    if wrap:
        presence_u = presence.astype(np.uint64)
        ones_u = np.ones(x, dtype=np.uint64)
    seeds: dict[tuple[int, int], np.ndarray] = {}

    def seed(below: int, top: int) -> np.ndarray:
        """Rows F, S and count of a block with `below` and `top` members."""
        if (below, top) not in seeds:
            w = w_pre**below * w_post**top
            seeds[below, top] = np.stack((w, w * deg * top, ones))
        return seeds[below, top]

    total = count = 0.0
    count_mod = 0  # the count modulo 2^64, when `wrap`
    for block_of, blocks in _independent_partitions(parent):
        below, top, first = [0] * blocks, [0] * blocks, [-1] * blocks
        for j, b in enumerate(block_of):
            if first[b] < 0:
                first[b] = j
            if j < p:
                below[b] += 1
            else:
                top[b] += 1
        coeff = (-1) ** (ell - blocks)
        for b in range(blocks):
            coeff *= math.factorial(below[b] + top[b] - 1)
        merged = sorted({tuple(sorted((block_of[parent[j]], block_of[j]))) for j in range(1, ell)})
        if len(merged) == blocks - 1:
            msg = [seed(below[b], top[b]).copy() for b in range(blocks)]
            if wrap:
                hom = [ones_u.copy() for _ in range(blocks)]
            for c in range(blocks - 1, 0, -1):
                up = block_of[parent[first[c]]]
                F, S, C = msg[up]
                PF, PS, PC = msg[c] @ presence  # presence is symmetric
                S *= PF
                S += F * PS
                F *= PF
                C *= PC
                if wrap:
                    hom[up] *= hom[c] @ presence_u
            total += coeff * float(msg[0][1].sum())
            if wrap:
                count_mod += coeff * int(hom[0].sum())
            else:
                count += coeff * float(msg[0][2].sum())
            continue
        expr = ",".join([_AXES[a] + _AXES[c] for a, c in merged] + list(_AXES[:blocks])) + "->"
        rows = [seed(below[b], top[b]) for b in range(blocks)]
        ops = [presence] * len(merged)
        path = np.einsum_path(expr, *ops, *(r[0] for r in rows), optimize="greedy")[0]
        for b in range(blocks):
            if top[b]:
                vecs = [r[1] if a == b else r[0] for a, r in enumerate(rows)]
                total += coeff * float(np.einsum(expr, *ops, *vecs, optimize=path))
        if wrap:
            count_mod += coeff * int(np.einsum(expr, *[presence_u] * len(merged), *[ones_u] * blocks, optimize=path))
        else:
            count += coeff * float(np.einsum(expr, *ops, *(r[2] for r in rows), optimize=path))
    return total, count_mod % 2**64 if wrap else int(round(count))


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

    # normalized patterns list parents before children, so parent[j] < j
    parent = [-1] * ell
    for (a, c) in edges:
        parent[c] = a

    work = float(allowed.sum())
    max_deg = float(deg.max(initial=0.0))
    for _ in range(ell - 1):
        work *= max(max_deg, 1.0)
        if work > _BACKTRACK_WORK_LIMIT:
            break

    if work <= _BACKTRACK_WORK_LIMIT:
        nbr_lists = [np.flatnonzero(presence[v] > 0) for v in range(G.n)]
        order = np.argsort(deg, kind="stable")
        rank = np.empty(G.n, dtype=np.int64)
        rank[order] = np.arange(G.n)
        nbr_lists = [a[np.argsort(rank[a], kind="stable")] for a in nbr_lists]
        weights = [w_pre if j < p else w_post for j in range(ell)]
        total, count = _backtrack_value(nbr_lists, weights, deg, allowed, p, parent)
        return total, count, "backtrack"

    # weights vanish off the allowed vertices, so the contractions skip them
    idx = np.flatnonzero(allowed)
    if len(idx) < ell:
        # no tuple of distinct vertices fits; the lattice sum would return
        # its cancellation residue instead of 0
        return 0.0, 0, "mobius"
    total, count = _mobius_sums(presence[np.ix_(idx, idx)], w_pre[idx], w_post[idx], deg[idx], p, parent)
    return total, count, "mobius"


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

    Vertices in V0 and the endpoints of E0 must be integers in 0..n-1; an
    E0 entry that is not a (u, v) or (u, v, count) entry raises MalformedEdge.
    """
    ell, p, edges, stab = _pattern(T)
    allowed = ~G._check_vertex_set(V0)
    pairs = []
    for entry in E0:
        if len(entry) not in (2, 3):
            raise MalformedEdge(f"edge entry {tuple(entry)!r} is not (u, v) or (u, v, count)")
        pairs.append((entry[0], entry[1]))
    G._check_vertex_set(itertools.chain.from_iterable(pairs))
    deg = G.degrees
    if (deg[allowed] == 0).any():
        raise ParameterOutOfRange("vertices outside V0 must have positive degree")
    presence = (G.adjacency_matrix() > 0).astype(np.float64)
    for (u, v) in pairs:
        presence[u, v] = 0.0
        presence[v, u] = 0.0
    expb = np.exp(-_b_vector(G, np.zeros(G.n, dtype=np.int64)))
    total, count, used = _discrete_sum(G, allowed, presence, expb, p, ell, edges)
    value = total / (stab * G.n)
    return FreqReport(value=value, terms={}, tuple_count=count, stab=stab, method=used)
