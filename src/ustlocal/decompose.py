"""Expander decomposition of dense graphs and good/big classification.

The construction is best effort: phase 1 splits along sparse spectral sweep
cuts, phase 2 runs a cleaning loop that moves expansion-violating sets X
(small side, e(X, P\\X) < gamma |X||P\\X|) into the residual V_0.  The
verification report, not the construction, carries the correctness contract.

The O(.)/Omega(.) constants of the goodness and bigness definitions are the
module constants GOOD_CONSTANTS and BIG_CONSTANTS: all 1, except the
big-part edge-density constant c_f = 0.4, chosen so that a complete graph
qualifies as big.

Goodness, bigness, the (G2) boundaries and the cleaning peel all sum over
the neighbours of a vertex in its own part (as does the discrete b vector
of `freq`); `MultiGraph.same_part_sums` is the one routine that computes
such a sum.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigParse,
    NotSimple,
    ParameterOutOfRange,
    PartIndexOutOfRange,
    PartitionMismatch,
    is_integer,
    malformed_json,
)
from .multigraph import EXACT_EXPANDER_LIMIT, MultiGraph
from .walk import _lazy_lambda2, sweep_cuts

GOOD_CONSTANTS = {"c_a": 1.0, "c_b": 1.0, "c_c": 1.0, "c_d": 1.0}
BIG_CONSTANTS = {"c_e": 1.0, "c_f": 0.4}


@dataclass
class PartCheck:
    part: int
    ok: bool
    mode: str  # "exact" or "certified"
    value: float  # exact min expansion ratio, or a certified lower bound
    detail: str = ""


@dataclass
class VerificationReport:
    g1_ok: bool
    g1_size: int
    g1_budget: float
    g2_ok: bool
    g2_checks: list[tuple[int, int, float]]  # (part, e(V_i, V\V_i), eta |V_i| n)
    g3_ok: bool
    g3_checks: list[PartCheck]

    @property
    def ok(self) -> bool:
        return self.g1_ok and self.g2_ok and self.g3_ok

    def to_dict(self) -> dict:
        return {
            "G1": {"ok": self.g1_ok, "residual": self.g1_size, "budget": self.g1_budget},
            "G2": {
                "ok": self.g2_ok,
                "parts": [
                    {"part": p, "boundary": b, "budget": c} for (p, b, c) in self.g2_checks
                ],
            },
            "G3": {
                "ok": self.g3_ok,
                "parts": [
                    {
                        "part": c.part,
                        "ok": c.ok,
                        "mode": c.mode,
                        "value": c.value,
                        "detail": c.detail,
                    }
                    for c in self.g3_checks
                ],
            },
            "ok": self.ok,
        }


@dataclass
class ExpanderDecomposition:
    """Vertex labels in 0..k with 0 the residual V_0, plus target parameters."""

    labels: np.ndarray
    gamma: float
    eta: float
    eps: float
    verification: VerificationReport | None = None

    def __post_init__(self):
        # a cast would read 1.5 or True as 1, and a negative label has no part
        raw = self.labels
        if not (isinstance(raw, np.ndarray) and raw.dtype.kind in "iu"):
            raw = raw.ravel().tolist() if isinstance(raw, np.ndarray) else list(raw)
            if not all(is_integer(x) and 0 <= x < 2**63 for x in raw):
                raise PartitionMismatch("decomposition labels must be integer part indices >= 0")
        self.labels = np.asarray(raw).astype(np.int64)
        if (self.labels < 0).any():
            raise PartitionMismatch("decomposition labels must be integer part indices >= 0")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return int(self.labels.max(initial=0))

    def part(self, i: int) -> np.ndarray:
        if not (1 <= i <= self.k):
            raise PartIndexOutOfRange(f"part {i} outside 1..{self.k}")
        return np.flatnonzero(self.labels == i)

    def parts(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.labels == i) for i in range(1, self.k + 1)]

    def residual(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 0)

    def to_json(self) -> str:
        payload = {
            "labels": self.labels.tolist(),
            "gamma": self.gamma,
            "eta": self.eta,
            "eps": self.eps,
            "verified": self.verification.to_dict() if self.verification else None,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExpanderDecomposition":
        with malformed_json("decomposition"):
            data = json.loads(text)
            raw = data["labels"]
            params = {key: data[key] for key in ("gamma", "eta", "eps")}
            # JSON numbers only: a cast to float would read "0.5" as 0.5 and true as 1
            if not all(type(x) in (int, float) for x in params.values()):
                raise ConfigParse("decomposition 'gamma', 'eta' and 'eps' must be JSON numbers")
            params = {key: float(x) for key, x in params.items()}
        # JSON integers only: a cast to int64 would read 1.5, "1" or true as 1
        if not isinstance(raw, list) or not all(type(x) is int and 0 <= x < 2**63 for x in raw):
            raise ConfigParse("decomposition 'labels' must be a list of integer part indices >= 0")
        labels = np.array(raw, dtype=np.int64)
        return cls(labels=labels, **params)


def trivial_decomposition(G: MultiGraph, gamma: float = 0.0, eta: float = 1.0, eps: float = 1.0) -> ExpanderDecomposition:
    """Single part covering all vertices, empty residual."""
    return ExpanderDecomposition(np.ones(G.n, dtype=np.int64), gamma, eta, eps)


# -- construction ---------------------------------------------------------------


def _best_split(G: MultiGraph, cluster: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Cheapest sweep cut of G[cluster] in dense-expansion units e/( |S||P\\S| ).

    The cluster is sorted first, since `induced_subgraph` numbers the
    vertices of G[cluster] in sorted order and the side is read back through
    that numbering.  A disconnected G[cluster] splits for free: the result
    is ratio 0.0 and the component of its smallest vertex, with no sweep
    (a vertex without neighbours in the cluster has no lazy walk row, and
    lambda_2 = 1 repeats).
    """
    cluster = np.sort(cluster)
    sub, _ = G.induced_subgraph(cluster)
    if sub.n < 2:
        return float("inf"), None
    if not sub.is_connected():
        return 0.0, cluster[sub.component_labels() == 0]
    order, cuts = sweep_cuts(sub)
    sizes = np.arange(1, sub.n)
    ratios = cuts / (sizes * (sub.n - sizes))
    best_k = int(np.argmin(ratios)) + 1
    return float(ratios[best_k - 1]), cluster[order[:best_k]]


def _first_violating_prefix(sub: MultiGraph, gamma: float) -> np.ndarray | None:
    """First sweep set X with |X| <= (3/5)|P| and e(X, P\\X) < gamma |X||P\\X|.

    Candidates are the prefixes of the Fiedler order by size, then those of
    the reversed order; a reversed prefix is the complement of a forward one
    and has the same cut.
    """
    n = sub.n
    order, cuts = sweep_cuts(sub)
    sizes = np.arange(1, n)
    cand_cuts = np.concatenate([cuts, cuts[::-1]])
    cand_sizes = np.concatenate([sizes, sizes])
    violating = (cand_sizes <= 0.6 * n) & (cand_cuts < gamma * cand_sizes * (n - cand_sizes))
    if not violating.any():
        return None
    i = int(np.argmax(violating))
    k = int(cand_sizes[i])
    return order[:k] if i < n - 1 else order[::-1][:k]


def _clean_cluster(
    G: MultiGraph, cluster: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cleaning loop: strip X with |X| <= (3/5)|P| and e(X, P\\X) < gamma |X||P\\X|.

    Every stripped X also satisfies the weaker admissibility bound
    e(X, P\\X) < gamma |X| n, but triggering on the expansion-violating form
    keeps exact gamma-expanders (a complete graph at gamma = 1) intact.
    Cheap single-vertex strips run to exhaustion before each spectral sweep
    search.  Returns (kept, stripped).  The cluster is sorted first: the
    sweep numbers the vertices of `induced_subgraph(alive)` in sorted order,
    and ties in the peel then fall to the smallest vertex, so the result
    does not depend on the cluster's order.
    """
    alive = np.sort(np.asarray(cluster, dtype=np.int64))
    ones = np.ones(G.n)
    stripped: list[int] = []
    while True:
        # peel vertices whose internal degree alone witnesses a violation
        while len(alive) > 2:
            in_alive = np.zeros(G.n, dtype=np.int64)
            in_alive[alive] = 1
            internal = G.same_part_sums(in_alive, ones)[alive]
            worst = int(np.argmin(internal))
            if internal[worst] >= gamma * (len(alive) - 1):
                break
            stripped.append(int(alive[worst]))
            alive = np.delete(alive, worst)
        if len(alive) <= 2:
            break
        sub, _ = G.induced_subgraph(alive)
        found = _first_violating_prefix(sub, gamma)
        if found is None:
            break
        taken = alive[found]
        stripped.extend(taken.tolist())
        alive = np.setdiff1d(alive, taken)
    return alive, np.array(sorted(stripped), dtype=np.int64)


def expander_decompose(
    G: MultiGraph, gamma: float, eta: float, eps: float
) -> ExpanderDecomposition:
    """Best-effort (gamma, eta, eps)-expander decomposition with verification.

    Phase 1 recursively splits along sweep cuts cheaper than eta/2 in
    dense-expansion units; phase 2 cleans each cluster; clusters reduced to
    fewer than 3 vertices are returned to the residual.
    """
    for name, value in (("gamma", gamma), ("eta", eta), ("eps", eps)):
        if not (0.0 < value < 1.0):
            raise ParameterOutOfRange(f"{name} = {value} outside (0, 1)")
    if not G.is_simple:
        raise NotSimple("decomposition construction is stated for simple graphs")
    comp = G.component_labels()
    worklist = [np.flatnonzero(comp == c) for c in range(int(comp.max()) + 1)]
    threshold = eta / 2.0
    clusters: list[np.ndarray] = []
    while worklist:
        cluster = worklist.pop()
        if len(cluster) <= 2:
            clusters.append(cluster)
            continue
        ratio, side = _best_split(G, cluster)
        if side is not None and ratio < threshold:
            other = np.setdiff1d(cluster, side)
            worklist.append(side)
            worklist.append(other)
        else:
            clusters.append(cluster)

    labels = np.zeros(G.n, dtype=np.int64)
    next_label = 1
    for cluster in sorted(clusters, key=lambda c: (int(c[0]) if len(c) else -1)):
        kept, _stripped = _clean_cluster(G, cluster, gamma)
        if len(kept) < 3:
            continue  # degenerate remnant stays in the residual
        labels[kept] = next_label
        next_label += 1
    dec = ExpanderDecomposition(labels, gamma, eta, eps)
    dec.verification = verify_decomposition(G, dec)
    return dec


# -- verification -----------------------------------------------------------------


def spectral_expansion_certificate(sub: MultiGraph) -> float:
    """Certified lower bound on the dense expansion coefficient of a part.

    From the Cheeger inequality, any cut satisfies
    e(U, P\\U) >= (1 - lambda_2) delta_min |U||P\\U| / |P|.
    """
    if sub.n < 2:
        return float("inf")
    if not sub.is_connected():
        return 0.0
    gap = 1.0 - _lazy_lambda2(sub)
    return gap * int(sub.degrees.min()) / sub.n


def verify_decomposition(G: MultiGraph, dec: ExpanderDecomposition) -> VerificationReport:
    """(G1), (G2) checked exactly; (G3) exact up to EXACT_EXPANDER_LIMIT vertices, else certified."""
    if len(dec.labels) != G.n:
        raise PartitionMismatch(f"{len(dec.labels)} labels for {G.n} vertices")
    n = G.n
    residual = int((dec.labels == 0).sum())
    g1_budget = dec.eps * n
    g1_ok = residual <= g1_budget + 1e-9

    deg_in = G.same_part_sums(dec.labels, np.ones(n))
    boundaries = np.bincount(dec.labels, weights=G.degrees - deg_in, minlength=dec.k + 1)
    sizes = np.bincount(dec.labels, minlength=dec.k + 1)
    g2_checks = [(i, int(boundaries[i]), dec.eta * int(sizes[i]) * n) for i in range(1, dec.k + 1)]
    g2_ok = all(boundary <= budget + 1e-9 for (_i, boundary, budget) in g2_checks)

    g3_checks = []
    g3_ok = True
    for i in range(1, dec.k + 1):
        part = np.flatnonzero(dec.labels == i)
        sub, _ = G.induced_subgraph(part)
        if sub.n <= EXACT_EXPANDER_LIMIT:
            value = sub.exact_expansion()
            ok = value >= dec.gamma - 1e-12
            check = PartCheck(i, ok, "exact", value)
        else:
            value = spectral_expansion_certificate(sub)
            ok = value >= dec.gamma - 1e-12
            check = PartCheck(
                i, ok, "certified", value,
                detail="spectral lower bound; failure means not-certified, not refuted",
            )
        if not check.ok:
            g3_ok = False
        g3_checks.append(check)

    return VerificationReport(
        g1_ok=g1_ok,
        g1_size=residual,
        g1_budget=g1_budget,
        g2_ok=g2_ok,
        g2_checks=g2_checks,
        g3_ok=g3_ok,
        g3_checks=g3_checks,
    )


# -- goodness and big parts ----------------------------------------------------------


@dataclass
class GoodnessReport:
    alpha: float
    eps: float
    conditions: np.ndarray  # (n, 4) booleans for (a)-(d); residual rows all False
    good: np.ndarray  # boolean mask
    big: set[int] | None = None

    def good_set(self) -> np.ndarray:
        return np.flatnonzero(self.good)


def good_vertices(G: MultiGraph, dec: ExpanderDecomposition, alpha: float, eps: float) -> GoodnessReport:
    """Flag (alpha, eps)-good vertices: conditions (a)-(d) against own part."""
    if not (0.0 < alpha) or not (0.0 < eps):
        raise ParameterOutOfRange("alpha and eps must be positive")

    deg = G.degrees.astype(np.float64)
    labels = dec.labels
    deg_in = G.same_part_sums(labels, np.ones(G.n))
    # a same-part neighbour u has deg_in[u] >= mult(u, v) >= 1, so the
    # placeholder 1.0 only stands in for vertices that no sum reads
    inv_in = 1.0 / np.where(deg_in > 0, deg_in, 1.0)
    inv_deg = 1.0 / np.where(deg > 0, deg, 1.0)
    sum_c = G.same_part_sums(labels, inv_in - inv_deg)
    sum_d = G.same_part_sums(labels, inv_in)
    conditions = np.stack(
        [
            deg >= GOOD_CONSTANTS["c_a"] * eps * G.n,
            deg_in >= (1.0 - GOOD_CONSTANTS["c_b"] * eps**2) * deg,
            sum_c <= GOOD_CONSTANTS["c_c"] * alpha**0.5 + 1e-12,
            sum_d <= GOOD_CONSTANTS["c_d"] * alpha**-0.25 + 1e-12,
        ],
        axis=1,
    )
    conditions &= ((labels != 0) & (deg > 0))[:, None]
    good = conditions.all(axis=1)
    return GoodnessReport(alpha=alpha, eps=eps, conditions=conditions, good=good)


def big_parts(G: MultiGraph, dec: ExpanderDecomposition, report: GoodnessReport) -> set[int]:
    """Parts with a dominant good fraction and a dense interior."""
    deg_in = G.same_part_sums(dec.labels, np.ones(G.n))
    alpha = report.alpha
    big: set[int] = set()
    for i in range(1, dec.k + 1):
        part = dec.part(i)
        if len(part) == 0:
            continue
        good_frac = float(report.good[part].mean())
        internal_edges = int(deg_in[part].sum()) // 2
        frac_ok = good_frac >= 1.0 - BIG_CONSTANTS["c_e"] * alpha ** (1.0 / 8.0)
        dens_ok = internal_edges >= BIG_CONSTANTS["c_f"] * alpha ** (1.0 / 9.0) * len(part) * G.n
        if frac_ok and dens_ok:
            big.add(i)
    report.big = big
    return big

