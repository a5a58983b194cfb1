"""Loopless multigraphs with ordered-pair edge counting.

Edges are stored as three int64 arrays `u`, `v`, `mult` with u < v, one entry
per vertex pair, in lexicographic (u, v) order, so every downstream sampler
is reproducible.  A compressed sparse row (CSR) form of the symmetric
adjacency (`indptr`, `indices`, `weights`) is built on first use; each row
lists its neighbours in increasing order.  e(A, B) counts ordered pairs with
multiplicity: an edge with both endpoints in A and B contributes twice.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EdgeNotInGraph,
    LoopEdge,
    PartitionMismatch,
    TooLargeForExactCheck,
    VertexOutOfRange,
    ZeroMultiplicity,
)

EXACT_EXPANDER_LIMIT = 20


def _normalize_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _edge_multiset(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate (u, v) pairs or (u, v, mult) triples into normalized pairs with summed counts.

    Returns the arrays a, b (a <= b) and count, pairs in order of first appearance.
    """
    out: dict[tuple[int, int], int] = {}
    for entry in entries:
        if len(entry) == 2:
            u, v = entry
            m = 1
        else:
            u, v, m = entry
        key = _normalize_pair(int(u), int(v))
        out[key] = out.get(key, 0) + int(m)
    pairs = np.array(list(out), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], np.array(list(out.values()), dtype=np.int64)


def forest_roots(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Join the pairs in order while they form a forest on 0..n-1 (union-find).

    Returns each vertex's root, the smallest vertex of its tree, and the
    number of pairs joined: the index of the first pair whose endpoints are
    already connected, or the number of pairs when none is.  Meant for
    small edge sets such as a tree's n - 1 edges; `components` serves whole
    graphs.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for (u, v) in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            break
        parent[max(ru, rv)] = min(ru, rv)
        joined += 1
    return [find(x) for x in range(n)], joined


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """(indptr, indices, weights) of the symmetric adjacency of the edges (u, v, w).

    Row r takes its entries from the edges (a, r) first, then from (r, b); a
    stable sort by row keeps their order, so for pairs in lexicographic
    order with a < r < b every row lists its neighbours in increasing order.
    """
    rows = np.concatenate([v, u])
    order = np.argsort(rows, kind="stable")
    indices = np.concatenate([u, v])[order]
    weights = np.concatenate([w, w])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices, weights


def _csr_components(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Component labels of a symmetric CSR adjacency, numbered by smallest vertex."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    _count, raw = connected_components(adj, directed=False)
    _uniq, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse.ravel()]


def components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected-component labels of the graph on 0..n-1 with edges (u[i], v[i]).

    Labels are numbered in order of each component's smallest vertex.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if len(u) == 0:
        return np.arange(n, dtype=np.int64)
    indptr, indices, _weights = _symmetric_csr(n, u, v, np.ones_like(u))
    return _csr_components(n, indptr, indices)


class MultiGraph:
    """Immutable loopless multigraph on vertices 0..n-1.

    The constructor takes the canonical arrays as they are (u < v, unique
    pairs in lexicographic order, mult >= 1); `build` and `from_arrays` check
    and canonicalize arbitrary input.
    """

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, mult: np.ndarray):
        self.n = int(n)
        self.u, self.v, self.mult = u, v, mult
        for arr in (u, v, mult):
            arr.flags.writeable = False
        self._keys: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._adj: tuple[list[np.ndarray], list[np.ndarray]] | None = None
        self._steps: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._components: np.ndarray | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_arrays(cls, n: int, u, v, mult=None) -> "MultiGraph":
        """Build from endpoint arrays; parallel entries accumulate.

        Entries are checked in order and the first bad one raises: a loop
        (LoopEdge), then an endpoint outside 0..n-1 (VertexOutOfRange), then
        a multiplicity below 1 (ZeroMultiplicity).
        """
        n = int(n)
        if n < 0:
            raise VertexOutOfRange(f"negative vertex count {n}")
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        m = np.ones(len(u), dtype=np.int64) if mult is None else np.array(mult, dtype=np.int64).ravel()
        loop = u == v
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        zero = m < 1
        bad = np.flatnonzero(loop | outside | zero)
        if len(bad):
            i = int(bad[0])
            a, b, c = int(u[i]), int(v[i]), int(m[i])
            if loop[i]:
                raise LoopEdge(f"loop at vertex {a}")
            if outside[i]:
                raise VertexOutOfRange(f"edge ({a},{b}) outside 0..{n - 1}")
            raise ZeroMultiplicity(f"multiplicity {c} for edge ({a},{b})")
        a, b = np.minimum(u, v), np.maximum(u, v)
        key = a * n + b
        if len(key) > 1 and not bool((key[1:] > key[:-1]).all()):
            order = np.argsort(key, kind="stable")
            key, m = key[order], m[order]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, m = key[starts], np.add.reduceat(m, starts)
            a, b = key // n, key % n
        return cls(n, a, b, m)

    @classmethod
    def build(cls, n: int, edge_list: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build from (u, v) or (u, v, multiplicity) entries; parallel entries accumulate."""
        rows = [entry if len(entry) == 3 else (*entry, 1) for entry in edge_list]
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
        return cls.from_arrays(n, table[:, 0], table[:, 1], table[:, 2])

    # -- basic accessors --------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, multiplicity) with u < v in sorted order."""
        return zip(self.u.tolist(), self.v.tolist(), self.mult.tolist())

    def edge_pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.u.tolist(), self.v.tolist()))

    def _pair_keys(self) -> np.ndarray:
        """u * n + v for every pair: sorted, so a pair is found by bisection."""
        if self._keys is None:
            self._keys = self.u * self.n + self.v
        return self._keys

    def multiplicities(self, a, b) -> np.ndarray:
        """Multiplicity of each pair (a[i], b[i]); 0 for non-edges, loops and outside vertices."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = self._pair_keys()
        key = lo * self.n + hi
        idx = np.searchsorted(keys, key)
        found = (lo >= 0) & (hi < self.n) & (lo != hi) & (idx < len(keys))
        found[found] = keys[idx[found]] == key[found]
        out = np.zeros(len(key), dtype=np.int64)
        out[found] = self.mult[idx[found]]
        return out

    def multiplicity(self, u: int, v: int) -> int:
        return int(self.multiplicities([u], [v])[0])

    @property
    def num_edges(self) -> int:
        """Total edge multiplicity."""
        return int(self.mult.sum())

    @property
    def max_multiplicity(self) -> int:
        """Maximal number of parallel edges between any pair (1 for empty graphs)."""
        return int(self.mult.max(initial=1))

    @property
    def is_simple(self) -> bool:
        return self.max_multiplicity <= 1

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            deg = np.bincount(self.u, weights=self.mult, minlength=self.n)
            deg += np.bincount(self.v, weights=self.mult, minlength=self.n)
            self._degrees = deg.astype(np.int64)
            self._degrees.flags.writeable = False
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def _vertices(self, A: Iterable[int]) -> np.ndarray:
        """The vertices of A as an int64 array; one outside 0..n-1 raises VertexOutOfRange."""
        idx = np.asarray(A if isinstance(A, np.ndarray) else list(A), dtype=np.int64).ravel()
        bad = np.flatnonzero((idx < 0) | (idx >= self.n))
        if len(bad):
            raise VertexOutOfRange(f"vertex {int(idx[bad[0]])} outside 0..{self.n - 1}")
        return idx

    def _check_vertex_set(self, A: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self._vertices(A)] = True
        return mask

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=dtype)
        A[self.u, self.v] = self.mult
        A[self.v, self.u] = self.mult
        return A

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, weights) of the symmetric adjacency, rows sorted by neighbour."""
        if self._csr is None:
            self._csr = _symmetric_csr(self.n, self.u, self.v, self.mult)
            for arr in self._csr:
                arr.flags.writeable = False
        return self._csr

    def step_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nb, base, deg) for random-walk steps in proportion to multiplicity.

        `nb` repeats each CSR neighbour once per parallel copy, so row x is
        nb[base[x] : base[x] + deg[x]] and a uniform index into it picks y
        with probability mult(x, y) / deg(x).
        """
        if self._steps is None:
            _indptr, indices, weights = self.csr()
            deg = self.degrees
            nb, base = np.repeat(indices, weights), np.cumsum(deg) - deg
            for arr in (nb, base):
                arr.flags.writeable = False
            self._steps = (nb, base, deg)
        return self._steps

    def adjacency_lists(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-vertex neighbor arrays and matching multiplicities, sorted (views into the CSR)."""
        if self._adj is None:
            indptr, indices, weights = self.csr()
            bounds = indptr.tolist()
            self._adj = (
                [indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
                [weights[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
            )
        return self._adj

    # -- pair counting ------------------------------------------------------------

    def pair_count(self, A: Iterable[int], B: Iterable[int]) -> int:
        """e(A, B): ordered pairs forming an edge, counted with multiplicity."""
        in_a = self._check_vertex_set(A)
        in_b = self._check_vertex_set(B)
        forward = in_a[self.u] & in_b[self.v]
        backward = in_a[self.v] & in_b[self.u]
        return int(self.mult[forward].sum() + self.mult[backward].sum())

    def same_part_sums(self, labels, values) -> np.ndarray:
        """For every v, the sum of mult(u, v) * values[u] over the neighbours u
        with labels[u] == labels[v]: one bincount per side of the same-label pairs."""
        labels = np.asarray(labels)
        values = np.asarray(values, dtype=np.float64)
        if len(labels) != self.n or len(values) != self.n:
            raise PartitionMismatch(f"{len(labels)} labels and {len(values)} values for {self.n} vertices")
        same = labels[self.u] == labels[self.v]
        u, v, m = self.u[same], self.v[same], self.mult[same]
        out = np.bincount(u, weights=m * values[v], minlength=self.n)
        return out + np.bincount(v, weights=m * values[u], minlength=self.n)

    # -- editing --------------------------------------------------------------

    def contract(self, S: Iterable[Sequence[int]]) -> tuple["MultiGraph", np.ndarray]:
        """Contract the edges of S; loops are dropped, parallels accumulate.

        Returns the contracted graph and the old -> new vertex map.
        """
        a, b, _counts = _edge_multiset(S)
        missing = np.flatnonzero(self.multiplicities(a, b) == 0)
        if len(missing):
            i = int(missing[0])
            raise EdgeNotInGraph(f"edge {(int(a[i]), int(b[i]))} not in graph")
        vmap = components(self.n, a, b)
        cu, cv = vmap[self.u], vmap[self.v]
        keep = cu != cv
        n_new = int(vmap.max(initial=-1)) + 1
        return MultiGraph.from_arrays(n_new, cu[keep], cv[keep], self.mult[keep]), vmap

    def delete(self, S: Iterable[Sequence[int]]) -> "MultiGraph":
        """Remove edge copies listed in S; (u, v) removes one copy, (u, v, m) removes m."""
        a, b, counts = _edge_multiset(S)
        have = self.multiplicities(a, b)
        short = np.flatnonzero((have < counts) | (counts < 1))
        if len(short):
            i = int(short[0])
            pair = (int(a[i]), int(b[i]))
            if counts[i] < 1:
                raise ZeroMultiplicity(f"cannot remove {int(counts[i])} copies of {pair}")
            raise EdgeNotInGraph(f"cannot remove {int(counts[i])} copies of {pair}, have {int(have[i])}")
        mult = self.mult.copy()
        mult[np.searchsorted(self._pair_keys(), a * self.n + b)] -= counts
        keep = mult > 0
        return MultiGraph(self.n, self.u[keep], self.v[keep], mult[keep])

    def induced_subgraph(self, A: Iterable[int]) -> tuple["MultiGraph", dict[int, int]]:
        """Subgraph on A with vertices relabeled 0..|A|-1 (sorted order)."""
        verts = np.unique(self._vertices(A))
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[verts] = np.arange(len(verts))
        # pos is increasing on A, so kept pairs stay ordered with u < v
        su, sv = pos[self.u], pos[self.v]
        keep = (su >= 0) & (sv >= 0)
        index = dict(zip(verts.tolist(), range(len(verts))))
        return MultiGraph(len(verts), su[keep], sv[keep], self.mult[keep]), index

    # -- connectivity -----------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        if self._components is None:
            indptr, indices, _weights = self.csr()
            self._components = _csr_components(self.n, indptr, indices)
        return self._components

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return int(self.component_labels().max()) == 0

    # -- exact expansion -----------------------------------------------------------

    def is_gamma_expander(self, gamma: float) -> bool:
        """Exact check of e(U, V\\U) >= gamma |U| (n - |U|) for every U."""
        return self.exact_expansion() >= gamma - 1e-12

    def exact_expansion(self) -> float:
        """min over proper nonempty U of e(U, V\\U) / (|U| |V\\U|), from `subset_cuts`.

        Refuses above EXACT_EXPANDER_LIMIT vertices.
        """
        size, _vol, cut = subset_cuts(self)
        nonempty = size > 0
        size, cut = size[nonempty], cut[nonempty]
        return float((cut / (size * (self.n - size))).min(initial=np.inf))

    # -- textual edge-list format -----------------------------------------------

    def to_edge_list_text(self) -> str:
        """Header "n pairs", then one "u v" line per pair, "u v m" when m > 1."""
        simple = self.mult == 1
        line_format = "".join(map(("%d %d %d\n", "%d %d\n").__getitem__, simple.tolist()))
        fields = np.stack([self.u, self.v, self.mult], axis=1)
        present = np.ones(fields.shape, dtype=bool)
        present[:, 2] = ~simple
        body = line_format % tuple(fields[present].tolist())
        return f"{self.n} {len(self.u)}\n" + body

    @classmethod
    def from_edge_list_text(cls, text: str) -> "MultiGraph":
        """Parse the edge-list format.

        Grammar: ASCII text of whitespace-separated decimal integers, one
        record per line, blank lines ignored.  The first record is the header
        "n m"; then come exactly m edge records "u v" or "u v mult" (mult
        defaults to 1; repeated and reversed pairs accumulate).

        Errors, in the order they are checked: an empty file, a header that is
        not two tokens, an edge-line count that differs from m, an edge line
        that is not two or three tokens, a token that is not an integer (all
        VertexOutOfRange); then, per edge in file order, a loop (LoopEdge), an
        endpoint outside 0..n-1 (VertexOutOfRange) or a multiplicity below 1
        (ZeroMultiplicity), as in `from_arrays`.

        Files of plain digits, spaces, tabs and newlines are read by a few
        numpy passes over the bytes; any other text, and any file the fast
        path finds malformed, goes to the line-by-line reader, which is the
        only place parse errors are raised.
        """
        parsed = _parse_edge_list_bytes(text)
        if parsed is None:
            parsed = _parse_edge_list_lines(text)
        return cls.from_arrays(*parsed)

    # -- misc ----------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={len(self.u)}, total_mult={self.num_edges})"

    def check_handshake(self) -> None:
        assert int(self.degrees.sum()) == 2 * self.num_edges


def _bit_rows(k: int) -> np.ndarray:
    """The 2^k subsets of k items as 0/1 float rows; row i holds the bits of i."""
    return (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(np.float64)


def subset_cuts(G: MultiGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(size, vol, cut) of every S of {0..n-2}, indexed by the bitmask of S.

    Vertex n-1 stays outside S, so each split {S, V\\S} appears once.  The
    free vertices split into halves L and R with 0/1 subset matrices X_L and
    X_R (meet in the middle): e(S, S) counts ordered pairs inside S, which
    come from inside S_L, inside S_R, or across, the last for all pairs of
    halves at once as the product X_R A_RL X_L^T.  Then cut = vol - e(S, S).
    Every entry is an integer, so the float64 sums are exact.  Each array
    holds 2^(n-1) values; refuses above EXACT_EXPANDER_LIMIT vertices.
    """
    n = G.n
    if n > EXACT_EXPANDER_LIMIT:
        raise TooLargeForExactCheck(
            f"{n} vertices > limit {EXACT_EXPANDER_LIMIT}; use the spectral bound instead"
        )
    free = max(n - 1, 0)
    h = free // 2
    A = G.adjacency_matrix()[:free, :free]
    deg = G.degrees[:free].astype(np.float64)
    XL, XR = _bit_rows(h), _bit_rows(free - h)
    A_LL, A_RR, A_RL = A[:h, :h], A[h:, h:], A[h:, :h]
    # rows index S_R and columns S_L, so the C-order ravel is the bitmask order
    size = XR.sum(axis=1)[:, None] + XL.sum(axis=1)[None, :]
    vol = (XR @ deg[h:])[:, None] + (XL @ deg[:h])[None, :]
    inside = ((XR @ A_RR) * XR).sum(axis=1)[:, None] + ((XL @ A_LL) * XL).sum(axis=1)[None, :]
    inside += 2.0 * ((XR @ A_RL) @ XL.T)
    return size.ravel(), vol.ravel(), (vol - inside).ravel()


def _parse_integers(tokens: list[str], where: str) -> np.ndarray:
    """The tokens as int64 values; a token that is not an integer raises VertexOutOfRange."""
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        for tok in tokens:
            try:
                np.int64(int(tok))
            except (ValueError, OverflowError):
                raise VertexOutOfRange(f"{where} token {tok!r} is not an integer") from None
        raise


def _parse_edge_list_lines(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v, mult) of an edge-list file, one line and token at a time.

    Accepts anything `str.split` and `int` accept (signs, `\\r`, form feeds)
    and raises the errors `MultiGraph.from_edge_list_text` documents.
    """
    lines = text.splitlines()
    widths = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    rows = np.flatnonzero(widths)
    if not len(rows):
        raise VertexOutOfRange("empty edge-list file")
    widths = widths[rows]
    if widths[0] != 2:
        raise VertexOutOfRange(f"bad header {lines[rows[0]].strip()!r}, expected 'n m'")
    bad = np.flatnonzero((widths[1:] < 2) | (widths[1:] > 3))
    bad_line = lines[rows[int(bad[0]) + 1]].strip() if len(bad) else None
    del lines  # the token list below is the larger one; do not hold both
    tokens = text.split()
    n, m = _parse_integers(tokens[:2], "header").tolist()
    if len(rows) - 1 != m:
        raise VertexOutOfRange(f"header promises {m} edge lines, found {len(rows) - 1}")
    if bad_line is not None:
        raise VertexOutOfRange(f"bad edge line {bad_line!r}")
    values = _parse_integers(tokens[2:], "edge line")
    del tokens
    return (n, *_gather_edges(values, widths[1:]))


# byte classes of the fast path: digits, and the separators it understands
_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[ord("0"):ord("9") + 1] = True
_PLAIN = _DIGIT.copy()
_PLAIN[[ord(" "), ord("\t"), ord("\n")]] = True
# 18 digits stay below 2**63; longer tokens go to the checked reader
_MAX_DIGITS = 18


def _parse_edge_list_bytes(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """(n, u, v, mult) of a well-formed file of digits, spaces, tabs and
    newlines, by vectorized passes over its bytes; None for anything else.

    Token starts are digits not preceded by a digit, and a line's width is
    the number of token starts between its newlines.  The values come from one
    `np.fromstring` call, whose count must match the token count.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    if not _PLAIN[b].all():
        return None
    digit = _DIGIT[b]
    starts = np.flatnonzero(digit & ~np.r_[False, digit[:-1]])
    stops = np.flatnonzero(digit & ~np.r_[digit[1:], False]) + 1
    del digit
    if len(starts) and int((stops - starts).max()) > _MAX_DIGITS:
        return None
    # tokens before each newline, so the token count of every line
    before = np.searchsorted(starts, np.flatnonzero(b == ord("\n")))
    widths = np.diff(before, prepend=0, append=len(starts))
    del b, starts, stops, before
    widths = widths[widths > 0]
    if not len(widths) or widths[0] != 2:
        return None
    if not bool(((widths[1:] == 2) | (widths[1:] == 3)).all()):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    del raw
    # fromstring stops without an error at data it cannot read
    if len(values) != int(widths.sum()):
        return None
    n, m = values[:2].tolist()
    if m != len(widths) - 1:
        return None
    return (n, *_gather_edges(values[2:], widths[1:]))


def _gather_edges(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, v, mult from the concatenated edge-line values and each line's width (2 or 3)."""
    starts = np.cumsum(widths) - widths
    u, v = values[starts], values[starts + 1]
    mult = np.where(widths == 3, values[np.minimum(starts + 2, len(values) - 1)], 1)
    return u, v, mult


def read_edge_list(path) -> MultiGraph:
    with open(path, "r", encoding="ascii") as fh:
        return MultiGraph.from_edge_list_text(fh.read())


def write_edge_list(G: MultiGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(G.to_edge_list_text())


def complete_graph(n: int) -> MultiGraph:
    iu, ju = np.triu_indices(max(int(n), 0), k=1)
    return MultiGraph.from_arrays(n, iu, ju)


def cycle_graph(n: int) -> MultiGraph:
    return MultiGraph.build(n, [(i, (i + 1) % n, 1) for i in range(n)])


def path_graph(n: int) -> MultiGraph:
    return MultiGraph.build(n, [(i, i + 1, 1) for i in range(n - 1)])
