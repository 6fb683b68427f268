"""Span tracing of qgdecay's layers, from outside the package.

Each stage-level function is wrapped on every module attribute a caller looks
it up through (``cli.decay_report``, ``verify.compute_rho_a``,
``eigenfunctions.compute_rho_a``, ``metrics.dijkstra``, ...), so a span
opens exactly where one layer calls into another.  Per-point evaluators run
millions of times per invocation; ``edge_eval`` is counted without a span and
the others are left unwrapped, so their time is the caller's self time.

Spans are kept in memory as (name, start, end, parent, invocation) and
written out at the end of the run.  Untraced invocations run with every
wrapper removed.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

import qgdecay
from qgdecay import cli, eigenfunctions, graph, metrics, transfer, verify

LAYERS = (cli, graph, metrics, transfer, eigenfunctions, verify)

# the stage-level functions the four workloads reach
SPANNED = {
    graph: ("generate_family", "dijkstra"),
    metrics: ("compute_rho_a", "ave_branching_prefactor", "ave_action_integral"),
    transfer: ("vertex_edge_transfer", "eig2", "match_shared_eigenvector"),
    eigenfunctions: ("construct", "canonical_path", "averaged_wave_function"),
    verify: ("decay_report", "constraint_margin", "monotonicity_check",
             "continuity_and_kirchhoff", "fit_decay_rate", "identity_check",
             "vertex_samples"),
}
COUNTED = {eigenfunctions: ("edge_eval",)}

# decay_report samples 18 points per edge for the sup and 16 Gauss nodes
# for the L2 increment
DECAY_REPORT_POINTS_PER_EDGE = 18 + 16

SELF_S = (
    "graph.generate_family", "graph.dijkstra", "metrics.compute_rho_a",
    "eigenfunctions.construct", "eigenfunctions.averaged_wave_function",
    "verify.decay_report", "verify.constraint_margin",
    "verify.monotonicity_check", "verify.continuity_and_kirchhoff",
    "verify.fit_decay_rate", "verify.identity_check",
)
CALLS = ("graph.dijkstra", "metrics.compute_rho_a", "transfer.eig2",
         "eigenfunctions.edge_eval", "eigenfunctions.averaged_wave_function")

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "transfer.self_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_S},
    **{f"{name}.calls": "count" for name in CALLS},
    "graph.edges": "count",
    "graph.dijkstra.distinct_ratio": "ratio",
    "verify.decay_report.points": "count",
    "trace.overhead_s": "s",
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Records spans and counts for the invocations run between
    ``install()`` and ``uninstall()``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._invocation = -1
        self._dijkstra_runs: set[tuple[int, int]] = set()
        self._graphs: list[object] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for home, names in SPANNED.items():
            for name in names:
                self._patch(home, name, self._spanned)
        for home, names in COUNTED.items():
            for name in names:
                self._patch(home, name, self._counted)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _patch(self, home, name: str, make) -> None:
        original = getattr(home, name, None)
        if original is None:  # gone from the program: its metrics read 0
            return
        wrapper = make(f"{_layer(home)}.{name}", original)
        for module in (*LAYERS, qgdecay):
            if getattr(module, name, None) is original:
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    # -- recording ------------------------------------------------------

    def _spanned(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                # its own span, so the bookkeeping is no layer's self time
                self.span("trace.observe", observe, result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self._invocation][f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self.counts[self._invocation][f"{name}.calls"] += 1
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._invocation))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._invocation)

    def begin_invocation(self, invocation: int) -> None:
        self._invocation = invocation
        self._dijkstra_runs.clear()
        self._graphs.clear()

    def _observe_graph_generate_family(self, g, *args, **kwargs):
        self.counts[self._invocation]["graph.edges"] += len(g.edges)

    def _observe_graph_dijkstra(self, dist, g, weight, *args, **kwargs):
        # graphs stay referenced for the invocation so no id is reused
        self._graphs.append(g)
        self._dijkstra_runs.add((id(g), hash(tuple(weight.items()))))
        self.counts[self._invocation]["graph.dijkstra.distinct"] = len(
            self._dijkstra_runs
        )

    def _observe_verify_decay_report(self, report, f, spec, *args, **kwargs):
        # the action multiplier samples every edge; path and averaged sample
        # one edge or arc-distance segment per generation, i.e. per row
        units = len(f.solutions) if spec.kind == "action" else len(report.rows)
        self.counts[self._invocation]["verify.decay_report.points"] += (
            units * DECAY_REPORT_POINTS_PER_EDGE
        )

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Per invocation, the self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for (name, start, end, _, invocation), child in zip(self.spans, child_time):
            out[invocation][name] += (end - start) - child
        return out

    def per_layer(self, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics, each the median over the traced invocations.
        Counts repeat exactly from one invocation to the next."""
        rows = []
        for invocation, selfs in self.self_times().items():
            counts = self.counts[invocation]
            dijkstra_runs = counts["graph.dijkstra.calls"]
            rows.append({
                "cli.self_s": selfs["cli.main"],
                "transfer.self_s": sum(
                    (t for name, t in selfs.items() if name.startswith("transfer.")), 0.0
                ),
                **{f"{name}.self_s": float(selfs[name]) for name in SELF_S},
                **{f"{name}.calls": counts[f"{name}.calls"] for name in CALLS},
                "graph.edges": counts["graph.edges"],
                "graph.dijkstra.distinct_ratio": (
                    counts["graph.dijkstra.distinct"] / dijkstra_runs
                    if dijkstra_runs else 1.0
                ),
                "verify.decay_report.points": counts["verify.decay_report.points"],
            })
        out = {
            name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                row[name] for row in rows
            )
            for name, value in rows[0].items()
        }
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, invocation in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "invocation": invocation,
                }) + "\n")
