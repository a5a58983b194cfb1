"""Expander decomposition of dense graphs and good/big classification.

The construction is best effort: phase 1 splits along sparse spectral sweep
cuts, phase 2 runs a cleaning loop that moves expansion-violating sets X
(small side, e(X, P\\X) < gamma |X||P\\X|) into the residual V_0.  The
verification report, not the construction, carries the correctness contract.

All O(.)/Omega(.) constants from the goodness and bigness definitions are
explicit inputs defaulting to 1, except the big-part edge-density constant
c_f which defaults to 0.4 so that a complete graph qualifies as big.
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
    malformed_json,
)
from .multigraph import MultiGraph
from .walk import sweep_cuts

GOOD_CONSTANT_DEFAULTS = {"c_a": 1.0, "c_b": 1.0, "c_c": 1.0, "c_d": 1.0}
BIG_CONSTANT_DEFAULTS = {"c_e": 1.0, "c_f": 0.4}


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
        self.labels = np.asarray(self.labels, dtype=np.int64)

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
            labels = np.array(data["labels"], dtype=np.int64)
            params = {key: float(data[key]) for key in ("gamma", "eta", "eps")}
        if labels.ndim != 1 or (labels < 0).any():
            raise ConfigParse("decomposition 'labels' must be a list of part indices >= 0")
        return cls(labels=labels, **params)


def trivial_decomposition(G: MultiGraph, gamma: float = 0.0, eta: float = 1.0, eps: float = 1.0) -> ExpanderDecomposition:
    """Single part covering all vertices, empty residual."""
    return ExpanderDecomposition(np.ones(G.n, dtype=np.int64), gamma, eta, eps)


# -- construction ---------------------------------------------------------------


def _best_split(G: MultiGraph, cluster: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Cheapest sweep cut of G[cluster] in dense-expansion units e/( |S||P\\S| )."""
    sub, _ = G.induced_subgraph(cluster)
    if sub.n < 2:
        return float("inf"), None
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
    search.  Returns (kept, stripped).
    """
    n = G.n
    alive = list(cluster)
    stripped: list[int] = []
    while True:
        # peel vertices whose internal degree alone witnesses a violation
        changed = True
        while changed and len(alive) > 2:
            changed = False
            mask = np.zeros(n, dtype=bool)
            mask[alive] = True
            internal = np.array([G.degree_into(v, mask) for v in alive])
            worst = int(np.argmin(internal))
            if internal[worst] < gamma * (len(alive) - 1):
                stripped.append(alive.pop(worst))
                changed = True
        if len(alive) <= 2:
            break
        sub, _ = G.induced_subgraph(alive)
        found = _first_violating_prefix(sub, gamma)
        if found is None:
            break
        alive_arr = np.array(alive)
        taken = alive_arr[found]
        stripped.extend(int(x) for x in taken)
        alive = [int(x) for x in np.setdiff1d(alive_arr, taken)]
    return np.array(sorted(alive), dtype=np.int64), np.array(sorted(stripped), dtype=np.int64)


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
    from .walk import _lazy_lambda2

    if sub.n < 2:
        return float("inf")
    if not sub.is_connected():
        return 0.0
    gap = 1.0 - _lazy_lambda2(sub)
    return gap * int(sub.degrees.min()) / sub.n


def verify_decomposition(G: MultiGraph, dec: ExpanderDecomposition) -> VerificationReport:
    """(G1), (G2) checked exactly; (G3) exact up to 20 vertices, else certified."""
    if len(dec.labels) != G.n:
        raise PartitionMismatch(f"{len(dec.labels)} labels for {G.n} vertices")
    n = G.n
    residual = int((dec.labels == 0).sum())
    g1_budget = dec.eps * n
    g1_ok = residual <= g1_budget + 1e-9

    g2_checks = []
    g2_ok = True
    for i in range(1, dec.k + 1):
        part = np.flatnonzero(dec.labels == i)
        mask = np.zeros(n, dtype=bool)
        mask[part] = True
        internal = sum(G.degree_into(int(v), mask) for v in part)
        boundary = int(G.degrees[part].sum()) - internal
        budget = dec.eta * len(part) * n
        if boundary > budget + 1e-9:
            g2_ok = False
        g2_checks.append((i, boundary, budget))

    g3_checks = []
    g3_ok = True
    for i in range(1, dec.k + 1):
        part = np.flatnonzero(dec.labels == i)
        sub, _ = G.induced_subgraph(part)
        if sub.n <= 20:
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
    constants: dict
    conditions: np.ndarray  # (n, 4) booleans for (a)-(d); residual rows all False
    good: np.ndarray  # boolean mask
    big: set[int] | None = None

    def good_set(self) -> np.ndarray:
        return np.flatnonzero(self.good)


def good_vertices(
    G: MultiGraph,
    dec: ExpanderDecomposition,
    alpha: float,
    eps: float,
    constants: dict | None = None,
) -> GoodnessReport:
    """Flag (alpha, eps)-good vertices: conditions (a)-(d) against own part."""
    if not (0.0 < alpha) or not (0.0 < eps):
        raise ParameterOutOfRange("alpha and eps must be positive")
    consts = dict(GOOD_CONSTANT_DEFAULTS)
    if constants:
        consts.update(constants)
    if any(v <= 0 for v in consts.values()):
        raise ParameterOutOfRange("goodness constants must be positive")
    if len(dec.labels) != G.n:
        raise PartitionMismatch(f"{len(dec.labels)} labels for {G.n} vertices")

    n = G.n
    deg = G.degrees.astype(np.float64)
    labels = dec.labels
    nbrs, mults = G.adjacency_lists()

    deg_in = np.zeros(n)
    for v in range(n):
        a = nbrs[v]
        if len(a):
            deg_in[v] = mults[v][labels[a] == labels[v]].sum()

    conditions = np.zeros((n, 4), dtype=bool)
    good = np.zeros(n, dtype=bool)
    thr_a = consts["c_a"] * eps * n
    thr_b = 1.0 - consts["c_b"] * eps**2
    thr_c = consts["c_c"] * alpha**0.5
    thr_d = consts["c_d"] * alpha**-0.25
    for v in range(n):
        if labels[v] == 0 or deg[v] == 0:
            continue
        a = nbrs[v]
        same = labels[a] == labels[v]
        m_same = mults[v][same].astype(np.float64)
        u_same = a[same]
        cond_a = deg[v] >= thr_a
        cond_b = deg_in[v] >= thr_b * deg[v]
        # neighbors inside the part always have deg_in >= mult(u, v) >= 1
        sum_c = float((m_same * (1.0 / deg_in[u_same] - 1.0 / deg[u_same])).sum()) if len(u_same) else 0.0
        sum_d = float((m_same / deg_in[u_same]).sum()) if len(u_same) else 0.0
        cond_c = sum_c <= thr_c + 1e-12
        cond_d = sum_d <= thr_d + 1e-12
        conditions[v] = (cond_a, cond_b, cond_c, cond_d)
        good[v] = cond_a and cond_b and cond_c and cond_d
    return GoodnessReport(alpha=alpha, eps=eps, constants=consts, conditions=conditions, good=good)


def big_parts(
    G: MultiGraph,
    dec: ExpanderDecomposition,
    report: GoodnessReport,
    constants: dict | None = None,
) -> set[int]:
    """Parts with a dominant good fraction and a dense interior."""
    consts = dict(BIG_CONSTANT_DEFAULTS)
    if constants:
        consts.update(constants)
    n = G.n
    alpha = report.alpha
    big: set[int] = set()
    for i in range(1, dec.k + 1):
        part = dec.part(i)
        if len(part) == 0:
            continue
        good_frac = float(report.good[part].mean())
        mask = np.zeros(n, dtype=bool)
        mask[part] = True
        internal_edges = sum(G.degree_into(int(v), mask) for v in part) // 2
        frac_ok = good_frac >= 1.0 - consts["c_e"] * alpha ** (1.0 / 8.0)
        dens_ok = internal_edges >= consts["c_f"] * alpha ** (1.0 / 9.0) * len(part) * n
        if frac_ok and dens_ok:
            big.add(i)
    report.big = big
    return big
