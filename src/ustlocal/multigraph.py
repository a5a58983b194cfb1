"""Loopless multigraphs with ordered-pair edge counting.

Edges are stored as three int64 arrays `u`, `v`, `mult` with u < v, one entry
per vertex pair, in lexicographic (u, v) order, so every downstream sampler
is reproducible.  A compressed sparse row (CSR) form of the symmetric
adjacency (`indptr`, `indices`, `weights`) is built on first use; each row
lists its neighbours in increasing order.  Multiplicities that are all 1
(given as none, or read from a file of two-token lines) and the CSR weights
of a simple graph are read-only broadcasts of 1 that hold no memory.
e(A, B) counts ordered pairs with multiplicity: an edge with both endpoints
in A and B contributes twice.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    LoopEdge,
    MalformedEdge,
    ParameterOutOfRange,
    PartitionMismatch,
    TooLargeForExactCheck,
    VertexOutOfRange,
    ZeroMultiplicity,
    is_integer,
)

EXACT_EXPANDER_LIMIT = 20
# the largest n with n * n < 2**63, so every pair key u * n + v fits an int64
MAX_VERTICES = 3_037_000_499
MAX_MULTIPLICITY = 2**63 - 1
# the largest total multiplicity whose degree sum 2 * num_edges fits an int64
MAX_TOTAL_MULTIPLICITY = 2**62 - 1


def vertex_count(n) -> int:
    """n as an int, for a vertex count.

    Anything but an integer in 0..MAX_VERTICES (2.5, True, "3") raises
    VertexOutOfRange; numpy integers are taken.
    """
    if not is_integer(n) or not 0 <= n <= MAX_VERTICES:
        raise VertexOutOfRange(f"vertex count {n!r} is not an integer in 0..{MAX_VERTICES}")
    return int(n)


def _normalize_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _edge_entry(entry) -> tuple[int, int, int]:
    """(u, v, count) of a (u, v) or (u, v, count) entry, count 1 when absent.

    An entry of another length, or with an endpoint or count that is not an
    integer (1.5, True, "1"), raises MalformedEdge.
    """
    if len(entry) not in (2, 3) or not all(is_integer(x) for x in entry):
        raise MalformedEdge(f"edge entry {tuple(entry)!r} is not (u, v) or (u, v, count) in integers")
    u, v, m = (*entry, 1)[:3]
    return int(u), int(v), int(m)


_HOOK_EDGES = 2**16  # edges hooked per chunk of `forest_roots`


def forest_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each vertex's root, the smallest vertex of its connected component,
    in the graph on 0..n-1 with the edges (u[i], v[i]), as int64.

    The one connectivity routine, for whole graphs and edge sets alike:
    array union-find in the manner of Shiloach and Vishkin (J. Algorithms 3,
    1982).  `lab[x]` is a vertex of x's component no larger than x.  A pass
    takes the edges in chunks of _HOOK_EDGES: each edge whose ends carry
    different labels hooks the larger label onto the smaller
    (`np.minimum.at`), then one `lab = lab[lab]` shortcuts the chunk's
    hooks, so later chunks read shallower labels.  That gather costs n, so
    it is skipped when n exceeds the chunk (a sparse graph), where it would
    cost more than the chunk itself.  At the end of a pass pointer jumping
    runs to a fixpoint, so every label is a root.  A pass that finds no
    edge with two labels leaves the roots final; each earlier pass lowers
    at least one label, so the passes end.  Memory beyond `lab` is a few
    chunk-sized arrays.
    """
    lab = np.arange(n, dtype=np.int64)
    step = _HOOK_EDGES
    hooked = True
    while hooked:
        hooked = False
        for s in range(0, len(u), step):
            a, b = lab[u[s:s + step]], lab[v[s:s + step]]
            differ = a != b
            if differ.any():
                a, b = a[differ], b[differ]
                np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
                if n <= step:
                    lab = lab[lab]
                hooked = True
        if hooked:
            up = lab[lab]
            while (up != lab).any():
                lab, up = up, up[up]
    return lab


def _unit(m: int) -> np.ndarray:
    """m int64 ones as a read-only broadcast, which holds no memory."""
    return np.broadcast_to(np.int64(1), m)


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray | None):
    """(indptr, indices, weights) of the symmetric adjacency of the edges (u, v, w).

    Row r lists the edges (a, r) first, then (r, b); for pairs in
    lexicographic order with a < r < b every row lists its neighbours in
    increasing order.  A boolean mask over the 2m slots marks each row's
    (r, b) part; that half is already in row order (u is sorted), so it is
    copied in as it stands, and only the v half is stable-sorted, keyed in
    the narrowest unsigned type that holds n - 1 (numpy sorts it by radix up
    to n = 65 536).  `w` None means every weight is 1: `weights` is then
    `_unit(2m)`.
    """
    m = len(u)
    ups, downs = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ups + downs, out=indptr[1:])
    down = np.repeat(np.tile(np.array([False, True]), n), np.stack([ups, downs], axis=1).ravel())
    indices = np.empty(2 * m, dtype=np.int64)
    indices[down] = v
    if w is None:
        weights = _unit(2 * m)
    else:
        weights = np.empty(2 * m, dtype=w.dtype)
        weights[down] = w
    np.logical_not(down, out=down)
    order = np.argsort(v.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    indices[down] = u[order]
    if w is not None:
        weights[down] = w[order]
    return indptr, indices, weights


def _check_sums(m: np.ndarray, starts: np.ndarray, key: np.ndarray, n: int) -> None:
    """Raise ParameterOutOfRange if a run m[starts[i]:starts[i + 1]] sums past MAX_MULTIPLICITY.

    The terms are positive, so a float64 sum below 2**62 proves its run
    fits; only the runs at or above it are summed exactly in Python.
    """
    near = np.flatnonzero(np.add.reduceat(m.astype(np.float64), starts) >= 2.0**62)
    stops = np.r_[starts[1:], len(m)]
    for i in near.tolist():
        total = sum(m[starts[i]:stops[i]].tolist())
        if total > MAX_MULTIPLICITY:
            k = int(key[starts[i]])
            raise ParameterOutOfRange(
                f"multiplicity {total} of edge ({k // n},{k % n}) exceeds {MAX_MULTIPLICITY}"
            )


def _total_multiplicity(m: np.ndarray) -> int:
    """The exact sum of m; ParameterOutOfRange above MAX_TOTAL_MULTIPLICITY.

    The terms are positive, so a float64 sum below 2**61 proves the total in
    range and the int64 sum exact; only larger totals are summed in Python.
    """
    if float(m.sum(dtype=np.float64)) < 2.0**61:
        return int(m.sum())
    total = sum(m.tolist())
    if total > MAX_TOTAL_MULTIPLICITY:
        raise ParameterOutOfRange(
            f"total multiplicity {total} exceeds {MAX_TOTAL_MULTIPLICITY}: degree sums leave int64"
        )
    return total


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
        self._max_mult: int | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_arrays(cls, n: int, u, v, mult=None) -> "MultiGraph":
        """Build from endpoint arrays; parallel entries accumulate.

        Entries are checked in order and the first bad one raises: a loop
        (LoopEdge), then an endpoint outside 0..n-1 (VertexOutOfRange), then
        a multiplicity below 1 (ZeroMultiplicity).  A vertex count that is
        not an integer in 0..MAX_VERTICES raises VertexOutOfRange, and a pair
        whose summed multiplicity exceeds MAX_MULTIPLICITY raises
        ParameterOutOfRange.  int64 arrays that are already canonical (u < v,
        pairs in increasing order) are kept as they are, not copied, and made
        read-only; with no `mult` the multiplicities are `_unit(m)`.
        """
        n = vertex_count(n)
        u = np.asarray(u, dtype=np.int64).reshape(-1)
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        m = _unit(len(u)) if mult is None else np.asarray(mult, dtype=np.int64).reshape(-1)
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
        del loop, outside, zero
        if not bool((u < v).all()):
            u, v = np.minimum(u, v), np.maximum(u, v)
        key = u * n + v
        if len(key) > 1 and not bool((key[1:] > key[:-1]).all()):
            order = np.argsort(key, kind="stable")
            key, m = key[order], m[order]
            del order
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            _check_sums(m, starts, key, n)
            key, m = key[starts], np.add.reduceat(m, starts)
            u, v = key // n, key % n
        return cls(n, u, v, m)

    @classmethod
    def build(cls, n: int, edge_list: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build from (u, v) or (u, v, multiplicity) entries; parallel entries accumulate.

        A malformed entry raises MalformedEdge (see `_edge_entry`); the rest
        is checked as in `from_arrays`.
        """
        n = vertex_count(n)
        rows = [_edge_entry(entry) for entry in edge_list]
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
        """Total edge multiplicity; ParameterOutOfRange above MAX_TOTAL_MULTIPLICITY."""
        return _total_multiplicity(self.mult)

    @property
    def max_multiplicity(self) -> int:
        """Maximal number of parallel edges between any pair (1 for empty graphs)."""
        if self._max_mult is None:
            self._max_mult = int(self.mult.max(initial=1))
        return self._max_mult

    @property
    def is_simple(self) -> bool:
        return self.max_multiplicity <= 1

    @property
    def degrees(self) -> np.ndarray:
        """Exact int64 degrees; ParameterOutOfRange above MAX_TOTAL_MULTIPLICITY."""
        if self._degrees is None:
            _total_multiplicity(self.mult)  # so no degree can wrap
            deg = np.zeros(self.n, dtype=np.int64)
            np.add.at(deg, self.u, self.mult)
            np.add.at(deg, self.v, self.mult)
            deg.flags.writeable = False
            self._degrees = deg
        return self._degrees

    def _vertices(self, A: Iterable[int]) -> np.ndarray:
        """The vertices of A as an int64 array.

        An entry that is not an integer (0.5, True, "1") or lies outside
        0..n-1 raises VertexOutOfRange.  An integer array is taken as is.
        """
        if isinstance(A, np.ndarray) and A.dtype.kind in "iu":
            idx = A.astype(np.int64, copy=False).ravel()
        else:
            items = A.ravel().tolist() if isinstance(A, np.ndarray) else list(A)
            for x in items:
                if not is_integer(x):
                    raise VertexOutOfRange(f"vertex {x!r} is not an integer")
            idx = np.array(items, dtype=np.int64)
        bad = np.flatnonzero((idx < 0) | (idx >= self.n))
        if len(bad):
            raise VertexOutOfRange(f"vertex {int(idx[bad[0]])} outside 0..{self.n - 1}")
        return idx

    def _check_vertex_set(self, A: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self._vertices(A)] = True
        return mask

    def adjacency_matrix(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        A[self.u, self.v] = self.mult
        A[self.v, self.u] = self.mult
        return A

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, weights) of the symmetric adjacency, rows sorted by neighbour.

        On a simple graph `weights` is a read-only broadcast of 1.
        """
        if self._csr is None:
            self._csr = _symmetric_csr(self.n, self.u, self.v, None if self.is_simple else self.mult)
            for arr in self._csr:
                arr.flags.writeable = False
        return self._csr

    def step_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nb, base, deg) for random-walk steps in proportion to multiplicity.

        `nb` repeats each CSR neighbour once per parallel copy, so row x is
        nb[base[x] : base[x] + deg[x]] and a uniform index into it picks y
        with probability mult(x, y) / deg(x).  On a simple graph `nb` is the
        CSR `indices` and `base` its `indptr[:-1]`, shared, not copied.
        """
        if self._steps is None:
            indptr, indices, weights = self.csr()
            deg = self.degrees
            if self.is_simple:
                nb, base = indices, indptr[:-1]
            else:
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
        """Each vertex's connected component, numbered by smallest vertex.

        The ranks of the `forest_roots` of the stored pairs: each root is
        its component's smallest vertex, so sorted roots number the
        components in that order.
        """
        if self._components is None:
            _roots, self._components = np.unique(forest_roots(self.n, self.u, self.v), return_inverse=True)
        return self._components

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return int(self.component_labels().max()) == 0

    # -- exact expansion -----------------------------------------------------------

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
        return b"".join(_edge_list_chunks(self)).decode("ascii")

    @classmethod
    def from_edge_list_text(cls, text: str | bytes) -> "MultiGraph":
        """Parse the edge-list format, from a str or from its bytes.

        Grammar: ASCII text of whitespace-separated decimal integers, one
        record per line, blank lines ignored.  The first record is the header
        "n m"; then come exactly m edge records "u v" or "u v mult" (mult
        defaults to 1; repeated and reversed pairs accumulate).

        Errors, in the order they are checked: an empty file, a header that is
        not two tokens, an edge-line count that differs from m, an edge line
        that is not two or three tokens, a token that is not an integer (all
        VertexOutOfRange); then, per edge in file order, a loop (LoopEdge), an
        endpoint outside 0..n-1 (VertexOutOfRange) or a multiplicity below 1
        (ZeroMultiplicity), as in `from_arrays`.  Bytes that are not ASCII
        raise UnicodeDecodeError.

        Files of plain digits, spaces, tabs and newlines are read by a few
        numpy passes over the bytes; any other text, and any file the fast
        path finds malformed, goes to the line-by-line reader, which is the
        only place parse errors are raised.
        """
        return cls.from_arrays(*_parse_edge_list(text))

    # -- misc ----------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={len(self.u)}, total_mult={sum(self.mult.tolist())})"


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


def _parse_edge_list(data: str | bytes) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v, mult) of an edge-list file: the byte reader, else the line reader."""
    parsed = _parse_edge_list_bytes(data)
    if parsed is None:
        parsed = _parse_edge_list_lines(data if isinstance(data, str) else data.decode("ascii"))
    return parsed


_INT64_MAX = np.iinfo(np.int64).max


def _parse_edge_list_bytes(data: str | bytes) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """(n, u, v, mult) of a well-formed file of digits, spaces, tabs and
    newlines, by vectorized passes over its bytes; None for anything else.

    Bytes are classed by comparison: a digit is one with b - "0" < 10 in
    uint8, where the bytes below "0" wrap past 10, and the file is plain when
    its digits, spaces, tabs and newlines add up to its length.  A token
    starts at a digit after a non-digit, and a line's width is the number of
    token starts between its newlines, summed by one `np.add.reduceat`.  The
    values come from one `np.fromstring` call, whose count must match the
    token count; a value that leaves int64 comes back clamped to INT64_MAX,
    so a file holding that value goes to the checked reader, as does every
    token of 19 or more digits that does not fit.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    if not data:
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    digit = (b - np.uint8(ord("0"))) < 10
    newline = b == ord("\n")
    plain = (np.count_nonzero(digit) + np.count_nonzero(newline)
             + np.count_nonzero(b == ord(" ")) + np.count_nonzero(b == ord("\t")))
    if plain != len(b):
        return None
    start = np.empty(len(b), dtype=bool)
    start[0] = digit[0]
    np.greater(digit[1:], digit[:-1], out=start[1:])
    tokens = np.count_nonzero(start)
    # digit's buffer now marks the line heads, the first byte and each byte
    # after a newline; a line runs through its newline, so none is empty
    head = digit
    head[0] = True
    head[1:] = newline[:-1]
    del b, digit, newline
    # counted in uint8, so a line of 256 or more tokens wraps and the widths
    # no longer add up to the token count
    widths = np.add.reduceat(start.view(np.uint8), np.flatnonzero(head), dtype=np.uint8)
    del start, head
    widths = widths[widths > 0]
    if not len(widths) or widths[0] != 2 or int(widths.sum(dtype=np.int64)) != tokens:
        return None
    if not bool(((widths[1:] == 2) | (widths[1:] == 3)).all()):
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    # fromstring stops without an error at data it cannot read
    if len(values) != tokens or int(values.max()) == _INT64_MAX:
        return None
    n, m = values[:2].tolist()
    if m != len(widths) - 1:
        return None
    return (n, *_gather_edges(values[2:], widths[1:]))


def _gather_edges(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, v, mult from the concatenated edge-line values and each line's width (2 or 3)."""
    if bool((widths == 2).all()):
        u, v = values.reshape(-1, 2).T
        return u, v, _unit(len(u))
    starts = np.cumsum(widths, dtype=np.int64) - widths
    u, v = values[starts], values[starts + 1]
    mult = np.where(widths == 3, values[np.minimum(starts + 2, len(values) - 1)], 1)
    return u, v, mult


# a token is written as 4-digit chunks; the ASCII text "0000".."9999" of
# every chunk is one uint32 word, so a chunk is written by one gather
_CHUNK = 10_000
_DIGIT_TEXT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_CHUNK_TEXT = np.stack(np.meshgrid(*[_DIGIT_TEXT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
# a token >= _POWERS[i] has at least i + 2 digits
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)
# separator words: the byte and its print mask, padded to four bytes
_SPACE, _NEWLINE, _FIRST = (np.array([c, 0, 0, 0], dtype=np.uint8).view(np.uint32)[0]
                            for c in (ord(" "), ord("\n"), 1))


# edge lines assembled per chunk of the written file
_WRITE_LINES = 1 << 16


def _edge_list_chunks(G: MultiGraph) -> Iterator[bytes | np.ndarray]:
    """The edge-list file of G as ASCII pieces: the header, then the lines
    of _WRITE_LINES pairs at a time, each assembled by numpy passes.

    Each line is a row of uint32 words: every token takes as many 4-digit
    chunks as the column's largest value needs, right-aligned, then one
    separator word.  A digit-count mask keeps a token's printed digits and
    each separator's first byte; one boolean compress of the rows, read as
    bytes, is a piece.  Lines with multiplicity 1 end after v.
    """
    yield f"{G.n} {len(G.u)}\n".encode("ascii")
    columns = [G.u, G.v] if G.is_simple else [G.u, G.v, G.mult]
    words = [(len(str(int(col.max(initial=0)))) + 3) // 4 for col in columns]
    # row d of a column's table prints the last d of its 4k digit bytes
    masks = [(np.arange(4 * k) >= 4 * k - np.arange(4 * k + 1)[:, None]).view(np.uint32) for k in words]
    for lo in range(0, len(G.u), _WRITE_LINES):
        part = [col[lo:lo + _WRITE_LINES] for col in columns]
        rows = np.zeros((len(part[0]), sum(words) + len(columns)), dtype=np.uint32)
        keep = np.zeros(rows.shape, dtype=np.uint32)
        at = 0
        for col, k, mask in zip(part, words, masks):
            head = col
            for j in range(k - 1, 0, -1):
                head, low = np.divmod(head, _CHUNK)
                rows[:, at + j] = _CHUNK_TEXT[low]
            rows[:, at] = _CHUNK_TEXT[head]
            keep[:, at:at + k] = mask[np.searchsorted(_POWERS, col, side="right") + 1]
            rows[:, at + k], keep[:, at + k] = _SPACE, _FIRST
            at += k + 1
        rows[:, -1] = _NEWLINE
        if len(columns) == 3:
            simple = part[2] == 1
            v_end = words[0] + words[1] + 1
            rows[simple, v_end] = _NEWLINE
            keep[simple, v_end + 1:] = 0
        yield rows.view(np.uint8)[keep.view(bool)]


def read_edge_list(path) -> MultiGraph:
    """The graph of an edge-list file (see `MultiGraph.from_edge_list_text`).

    The file is read as bytes, with "\\r\\n" and "\\r" turned into "\\n" as a
    text-mode read would, so files with either line end take the byte
    reader.  The bytes are dropped before the graph is built.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    parsed = _parse_edge_list(data)
    del data
    return MultiGraph.from_arrays(*parsed)


def write_edge_list(G: MultiGraph, path) -> None:
    with open(path, "wb") as fh:
        for piece in _edge_list_chunks(G):
            fh.write(piece)


def complete_graph(n: int) -> MultiGraph:
    iu, ju = np.triu_indices(vertex_count(n), k=1)
    return MultiGraph.from_arrays(n, iu, ju)


def cycle_graph(n: int) -> MultiGraph:
    n = vertex_count(n)
    return MultiGraph.build(n, [(i, (i + 1) % n, 1) for i in range(n)])


def path_graph(n: int) -> MultiGraph:
    n = vertex_count(n)
    return MultiGraph.build(n, [(i, i + 1, 1) for i in range(n - 1)])
