"""Per-layer tracing of ustlocal from outside the package.

`Tracer.install()` wraps the public functions and methods listed in `LAYERS`
and rebinds each wrapper in every `ustlocal` module namespace that holds the
original (so `from .x import f` call sites are traced too).  No program file
is edited.  While `enabled` is false a wrapper costs one attribute test and
calls straight through.

Every traced call records a span (name, start, end, parent span).  Spans are
kept in memory; `summary()` turns them into self time per layer (the span
minus the part of it that its child spans cover) and work counts.  A span
opened in a worker thread with no open span of its own takes the main
thread's innermost open span as its parent, which is where the pool was
started.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict


def _calls(_args, _kwargs, _result) -> int:
    return 1


def _arg(name: str, position: int):
    def count(args, kwargs, _result) -> int:
        return int(args[position] if len(args) > position else kwargs[name])

    return count


def _edges(_args, _kwargs, graph) -> int:
    return int(graph.num_edges)


# (module, attribute, time metric?, {count suffix: counter(args, kwargs, result)})
LAYERS = [
    ("graphon", "sample_w_random_graph", True, {}),
    ("multigraph", "write_edge_list", True, {}),
    ("multigraph", "read_edge_list", True, {"edges": _edges}),
    ("multigraph", "MultiGraph.adjacency_lists", True, {}),
    ("multigraph", "MultiGraph.adjacency_matrix", True, {"calls": _calls}),
    ("multigraph", "MultiGraph.component_labels", True, {}),
    ("multigraph", "MultiGraph.induced_subgraph", True, {"calls": _calls}),
    ("multigraph", "MultiGraph.pair_count", True, {"calls": _calls}),
    ("ust", "wilson_sample", True, {"calls": _calls}),
    ("trees", "local_census", True, {}),
    ("trees", "ball", True, {"calls": _calls}),
    ("trees", "enumerate_rooted_trees", True, {}),
    ("branching", "root_ball_distribution_mc", True, {"samples": _arg("samples", 2)}),
    ("freq", "freq_graphon", True, {"calls": _calls}),
    ("freq", "freq_graph", True, {}),
    # counted only: its time belongs to freq_graph, the layer a user calls
    ("freq", "freq_graph_component", False, {"calls": _calls}),
    ("decompose", "expander_decompose", True, {}),
    ("decompose", "verify_decomposition", True, {}),
    ("decompose", "good_vertices", True, {}),
    ("walk", "spectral_profile", True, {}),
    ("walk", "hitting_before_return_mc", True, {"walks": _arg("samples", 4)}),
    ("walk", "hitting_before_return_exact", True, {}),
    ("electric", "log_spanning_tree_count", True, {}),
    ("electric", "effective_resistance", True, {}),
]

# subcommands the workloads run; each call is a span named cli.<subcommand>
CLI_COMMANDS = ["gen", "ust", "count-trees", "branching", "decompose", "freq", "walk", "resistance"]


def _layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def cli_span_name(command: str) -> str:
    return "cli." + command.replace("-", "_")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(cli_span_name(c) + "_s", "s") for c in CLI_COMMANDS]
    for module, attr, timed, counts in LAYERS:
        name = _layer_name(module, attr)
        if timed:
            out.append((name + "_s", "s"))
        out.extend((f"{name}.{suffix}", "count") for suffix in counts)
    return out


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: list[tuple[str, int]] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack

    # -- recording -----------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name) if self.enabled else None
        try:
            yield
        finally:
            if rec is not None:
                self._close(rec)

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, timed: bool, counts: dict):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name) if timed else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if rec is not None:
                    tracer._close(rec)
            for suffix, counter in counts.items():
                tracer.counts.append((f"{name}.{suffix}", counter(args, kwargs, result)))
            return result

        return traced

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        import ustlocal  # noqa: F401  (here, not at the top: run.py imports this module without numpy)

        modules = [m for key, m in sys.modules.items() if key == "ustlocal" or key.startswith("ustlocal.")]
        for module_name, attr, timed, counts in LAYERS:
            module = sys.modules["ustlocal." + module_name]
            name = _layer_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), timed, counts))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, timed, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    # -- summary ---------------------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round: self seconds and work counts."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[id(parent)].append((start, end))
        totals = {name: 0.0 for name, _unit in metric_names()}
        for rec in self.spans:
            name, start, end, _parent = rec
            totals[name + "_s"] += (end - start) - _covered(start, end, children.get(id(rec), []))
        for name, n in self.counts:
            totals[name] += n
        return {name: value / rounds for name, value in totals.items()}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
