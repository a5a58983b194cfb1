"""Reference multigraph kept as a plain (u, v) -> multiplicity dict.

A direct, loop-by-loop statement of what `ustlocal.multigraph.MultiGraph`
computes, used as the oracle of the property tests.  Keep it simple rather
than fast.  The two functions at the end are the earlier, plainer array
forms of the edge-list writer and the CSR build.
"""
import numpy as np

from ustlocal.errors import LoopEdge, VertexOutOfRange, ZeroMultiplicity


def _pair(u, v):
    return (u, v) if u < v else (v, u)


class DictGraph:
    def __init__(self, n, mult):
        self.n = n
        self.mult = dict(sorted(mult.items()))

    @classmethod
    def build(cls, n, entries):
        if n < 0:
            raise VertexOutOfRange(n)
        mult = {}
        for entry in entries:
            u, v, m = entry if len(entry) == 3 else (*entry, 1)
            if u == v:
                raise LoopEdge(u)
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange((u, v))
            if m < 1:
                raise ZeroMultiplicity(m)
            mult[_pair(u, v)] = mult.get(_pair(u, v), 0) + m
        return cls(n, mult)

    def edges(self):
        return [(u, v, m) for (u, v), m in self.mult.items()]

    def multiplicity(self, u, v):
        return self.mult.get(_pair(u, v), 0)

    def degrees(self):
        deg = [0] * self.n
        for (u, v), m in self.mult.items():
            deg[u] += m
            deg[v] += m
        return deg

    def adjacency_lists(self):
        nbrs = [[] for _ in range(self.n)]
        mults = [[] for _ in range(self.n)]
        for (u, v), m in self.mult.items():
            nbrs[u].append(v)
            mults[u].append(m)
            nbrs[v].append(u)
            mults[v].append(m)
        return nbrs, mults

    def pair_count(self, A, B):
        A, B = set(A), set(B)
        if any(not (0 <= x < self.n) for x in A | B):
            raise VertexOutOfRange("vertex")
        total = 0
        for (u, v), m in self.mult.items():
            total += m * ((u in A and v in B) + (v in A and u in B))
        return total

    def same_part_sums(self, labels, values):
        """For every v, sum of mult(u, v) * values[u] over neighbours u in v's part."""
        out = [0] * self.n
        for (u, v), m in self.mult.items():
            if labels[u] == labels[v]:
                out[u] += m * values[v]
                out[v] += m * values[u]
        return out

    def _roots(self, pairs):
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in pairs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        labels, seen = [], {}
        for v in range(self.n):
            labels.append(seen.setdefault(find(v), len(seen)))
        return labels

    def component_labels(self):
        return self._roots(self.mult)

    def induced_subgraph(self, A):
        verts = sorted(set(A))
        if any(not (0 <= a < self.n) for a in verts):
            raise VertexOutOfRange("vertex")
        index = {v: i for i, v in enumerate(verts)}
        mult = {(index[u], index[v]): m for (u, v), m in self.mult.items()
                if u in index and v in index}
        return DictGraph(len(verts), mult), index

    def _gray_code_cuts(self):
        """(size, vol, cut) of every nonempty S of 0..n-1, in Gray-code order.

        Consecutive sets differ in one vertex v, so each step updates the
        cut by deg(v) - 2 e({v}, S) in O(deg).
        """
        nbrs, mults = self.adjacency_lists()
        deg = self.degrees()
        in_s = [False] * self.n
        size = vol = cut = 0
        for i in range(1, 1 << self.n):
            v = (i & -i).bit_length() - 1
            into_s = sum(m for w, m in zip(nbrs[v], mults[v]) if in_s[w])
            sign = -1 if in_s[v] else 1
            in_s[v] = not in_s[v]
            size += sign
            vol += sign * deg[v]
            cut += sign * (deg[v] - 2 * into_s)
            yield size, vol, cut

    def exact_expansion(self):
        """min over proper nonempty U of e(U, V\\U) / (|U| |V\\U|)."""
        return min((cut / (size * (self.n - size)) for size, _vol, cut in self._gray_code_cuts()
                    if size < self.n), default=float("inf"))

    def exact_cheeger(self):
        """min over S with 0 < vol(S) <= vol(V) / 2 of e(S, V\\S) / (2 vol(S))."""
        total = sum(self.degrees())
        return min((cut / (2.0 * vol) for _size, vol, cut in self._gray_code_cuts()
                    if 0 < vol and 2 * vol <= total), default=float("inf"))

    def to_edge_list_text(self):
        lines = [f"{self.n} {len(self.mult)}"]
        lines += [f"{u} {v} {m}" if m != 1 else f"{u} {v}" for (u, v), m in self.mult.items()]
        return "\n".join(lines) + "\n"


def same_graph(G, D) -> bool:
    """Whether the array graph G and the oracle D hold the same multigraph."""
    return G.n == D.n and list(G.edges()) == D.edges() and all(
        np.array_equal(a, b) for a, b in zip(G.adjacency_lists()[0], D.adjacency_lists()[0])
    )


def percent_format_edge_list_text(G):
    """The edge-list text of G, one "%d" per token through one format string."""
    simple = G.mult == 1
    line_format = "".join(map(("%d %d %d\n", "%d %d\n").__getitem__, simple.tolist()))
    fields = np.stack([G.u, G.v, G.mult], axis=1)
    present = np.ones(fields.shape, dtype=bool)
    present[:, 2] = ~simple
    body = line_format % tuple(fields[present].tolist())
    return f"{G.n} {len(G.u)}\n" + body


def argsort_symmetric_csr(n, u, v, w):
    """(indptr, indices, weights) of the symmetric adjacency, by a stable int64 argsort of the rows."""
    rows = np.concatenate([v, u])
    order = np.argsort(rows, kind="stable")
    indices = np.concatenate([u, v])[order]
    weights = np.concatenate([w, w])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices, weights
