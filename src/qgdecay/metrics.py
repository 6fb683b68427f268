"""Weighted shortest-path metrics on rooted metric graphs.

The classical action metric (WKB/Liouville-Green action integrals
minimized over paths) lives here, with the input of the path multiplier
that ``verify.Multiplier`` builds: the root-to-boundary path with its
derivative fractions.  Cut-point insertion turns a graph with cycles into
one that admits a global away-from-root edge orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Edge, MetricGraph, Vertex, edge_action_weight

CUT_POINT_REL_TOL = 1e-12


@dataclass
class AgmonMetricTable:
    """Per-vertex action-metric and arc-length distances from the root.

    Immutable after computation; ``energy`` records the (possibly shifted)
    eigenparameter the action weights were evaluated at.
    """

    graph: MetricGraph
    energy: float
    rho: dict[int, float]
    arc: dict[int, float]

    def to_csv_rows(self) -> list[tuple[int, float, float]]:
        return [
            (v.id, self.arc[v.id], self.rho[v.id])
            for v in sorted(self.graph.vertices, key=lambda v: v.id)
        ]


def compute_rho_a(graph: MetricGraph, energy: float | None = None) -> AgmonMetricTable:
    """Single-source action-weighted shortest paths from the root.

    Arc-length distances are tabulated alongside; both are the graph's
    memo (``MetricGraph.distances``).  A non-finite energy raises
    ValueError.
    """
    e_eff = graph.energy if energy is None else float(energy)
    if not math.isfinite(e_eff):
        # Dijkstra never settles a vertex across a NaN weight
        raise ValueError(f"energy must be finite, got {e_eff}")
    return AgmonMetricTable(graph, e_eff, graph.distances(e_eff), graph.distances())


def insert_cut_points(graph: MetricGraph) -> MetricGraph:
    """Split every edge containing an interior point that is equidistant
    (arc length) from the root via both endpoints.

    Splitting happens only when the equidistant point sits strictly inside
    the edge (relative tolerance absorbs float noise); endpoint ties need no
    split.  Returns the input graph unchanged when there are no cut points.
    """
    arc = graph.distances()
    new_edges: list[Edge] = []
    new_vertices: list[Vertex] = list(graph.vertices)
    next_vid = max(v.id for v in graph.vertices) + 1
    next_eid = max(e.id for e in graph.edges) + 1
    changed = False
    core: set[int] = set(graph.core_edges)
    for e in graph.edges:
        du, dv = arc[e.tail], arc[e.head]
        cut = 0.5 * (dv - du + e.length)
        tol = CUT_POINT_REL_TOL * e.length
        if not (tol < cut < e.length - tol):
            new_edges.append(e)
            continue
        changed = True
        mid = Vertex(next_vid, generation=e.generation, boundary=False)
        next_vid += 1
        new_vertices.append(mid)
        new_edges.append(
            Edge(e.id, e.tail, mid.id, cut, e.potential, e.generation)
        )
        second = Edge(
            next_eid, e.head, mid.id, e.length - cut, e.potential, e.generation
        )
        next_eid += 1
        new_edges.append(second)
        if e.id in core:
            core.add(second.id)
    if not changed:
        return graph
    g = MetricGraph(
        new_vertices,
        new_edges,
        root=graph.root,
        energy=graph.energy,
        core_edges=core,
        family_info=graph.family_info,
    )
    g.validate()
    return g


@dataclass(frozen=True)
class PathSpec:
    """A root-to-terminal chain of edges with the derivative fraction carried
    onward at each interior vertex."""

    graph: MetricGraph
    edges: tuple[int, ...]
    fractions: tuple[float, ...]

    def __post_init__(self):
        if len(self.fractions) != max(len(self.edges) - 1, 0):
            raise ValueError(
                "need exactly one fraction per interior vertex "
                f"({len(self.edges) - 1}), got {len(self.fractions)}"
            )
        for p in self.fractions:
            if not (0.0 < p <= 1.0):
                raise ValueError(f"derivative fraction {p} outside (0, 1]")
        prev = None
        for eid in self.edges:
            e = self.graph.edge_by_id.get(eid)
            if e is None:
                raise ValueError(f"unknown edge {eid} in path")
            if prev is not None and not (
                {prev.tail, prev.head} & {e.tail, e.head}
            ):
                raise ValueError(
                    f"edges {prev.id} and {e.id} do not share a vertex"
                )
            prev = e

