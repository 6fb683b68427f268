"""Weighted shortest-path metrics on rooted metric graphs.

Three exponential-weight constructions live here: the classical action
metric (WKB/Liouville-Green action integrals minimized over paths), the
path metric that adds half-log vertex terms for the derivative fractions,
and the averaged multiplier for braided graphs.  Cut-point insertion turns
a graph with cycles into one that admits a global away-from-root edge
orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Edge, GraphPoint, MetricGraph, Vertex, dijkstra

CUT_POINT_REL_TOL = 1e-12


def edge_action_weight(edge: Edge, energy: float) -> float:
    """Action of one constant-potential edge: sqrt((V - E)_+) * L."""
    return math.sqrt(max(edge.potential - energy, 0.0)) * edge.length


@dataclass
class AgmonMetricTable:
    """Per-vertex action-metric and arc-length distances from the root,
    plus the per-edge action weights used to compute them.

    Immutable after computation; ``energy`` records the (possibly shifted)
    eigenparameter the action weights were evaluated at.
    """

    graph: MetricGraph
    energy: float
    rho: dict[int, float]
    arc: dict[int, float]
    edge_weight: dict[int, float]

    def to_csv_rows(self) -> list[tuple[int, float, float]]:
        return [
            (v.id, self.arc[v.id], self.rho[v.id])
            for v in sorted(self.graph.vertices, key=lambda v: v.id)
        ]


def compute_rho_a(graph: MetricGraph, energy: float | None = None) -> AgmonMetricTable:
    """Single-source action-weighted shortest paths from the root.

    Arc-length distances are tabulated alongside so the same table supports
    the distance orientation and cut-point detection.
    """
    e_eff = graph.energy if energy is None else float(energy)
    weight = {e.id: edge_action_weight(e, e_eff) for e in graph.edges}
    rho = dijkstra(graph, weight)
    return AgmonMetricTable(graph, e_eff, rho, graph.arc_distances(), weight)


def _interp(
    table_vals: dict[int, float],
    edge: Edge,
    per_length: float,
    offset: float,
) -> float:
    from_tail = table_vals[edge.tail] + per_length * offset
    from_head = table_vals[edge.head] + per_length * (edge.length - offset)
    return min(from_tail, from_head)


def _point_edge(table: AgmonMetricTable, point: GraphPoint) -> Edge:
    edge = table.graph.edge_by_id.get(point.edge)
    if edge is None:
        raise KeyError(f"point references unknown edge {point.edge}")
    if not (0.0 <= point.offset <= edge.length):
        raise ValueError(f"offset {point.offset} outside edge {point.edge}")
    return edge


def eval_rho_a(table: AgmonMetricTable, point: GraphPoint) -> float:
    """Action distance of an interior point: the better of the two endpoint
    approaches.  Correct on cycle edges without pre-splitting."""
    edge = _point_edge(table, point)
    per_length = math.sqrt(max(edge.potential - table.energy, 0.0))
    return _interp(table.rho, edge, per_length, point.offset)


def eval_arc(table: AgmonMetricTable, point: GraphPoint) -> float:
    """Arc-length distance of an interior point from the root."""
    return _interp(table.arc, _point_edge(table, point), 1.0, point.offset)


def insert_cut_points(
    graph: MetricGraph, table: AgmonMetricTable | None = None
) -> MetricGraph:
    """Split every edge containing an interior point that is equidistant
    (arc length) from the root via both endpoints.

    Splitting happens only when the equidistant point sits strictly inside
    the edge (relative tolerance absorbs float noise); endpoint ties need no
    split.  Returns the input graph unchanged when there are no cut points.
    """
    if table is None:
        table = compute_rho_a(graph)
    arc = table.arc
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


def distance_orientation(graph: MetricGraph) -> dict[int, int]:
    """Orientation of each edge away from the root: +1 keeps tail->head,
    -1 flips it.  Raises if any edge has equidistant endpoints (insert cut
    points first)."""
    arc = graph.arc_distances()
    orientation: dict[int, int] = {}
    for e in graph.edges:
        du, dv = arc[e.tail], arc[e.head]
        if du == dv:
            raise ValueError(
                f"edge {e.id} has equidistant endpoints; no distance "
                "orientation without cut-point insertion"
            )
        orientation[e.id] = 1 if dv > du else -1
    return orientation


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


def rho_path(path: PathSpec, energy: float) -> float:
    """Action along the path plus half the log of the reciprocal derivative
    fractions at its vertices."""
    total = 0.0
    for eid in path.edges:
        total += edge_action_weight(path.graph.edge_by_id[eid], energy)
    for p in path.fractions:
        if p <= 0.0:
            raise ValueError("path not admissible: nonpositive fraction")
        total += 0.5 * math.log(1.0 / p)
    return total


def ave_branching_prefactor(
    y: float,
    positions: tuple[float, ...] | list[float],
    arriving: tuple[int, ...] | list[int],
    ongoing: tuple[int, ...] | list[int],
) -> float:
    """prod over generations passed before y of sqrt(b_j / a_j)."""
    prefactor = 1.0
    for j, v_j in enumerate(positions):
        if v_j < y:
            if ongoing[j] <= 0 or arriving[j] <= 0:
                raise ValueError(
                    f"generation {j + 1} passed at y={y} has no branching data"
                )
            prefactor *= math.sqrt(ongoing[j] / arriving[j])
    return prefactor


def ave_action_integral(
    y: float,
    positions: tuple[float, ...] | list[float],
    envelope_potentials: tuple[float, ...] | list[float],
    energy: float,
) -> float:
    """int_0^y sqrt(V_m(t) - E) dt for a per-generation constant envelope."""
    segments = [0.0] + list(positions)
    integral = 0.0
    for j in range(len(segments)):
        lo = segments[j]
        hi = segments[j + 1] if j + 1 < len(segments) else math.inf
        if lo >= y:
            break
        span = min(hi, y) - lo
        gap = envelope_potentials[j] - energy
        if gap <= 0.0:
            raise ValueError(
                f"envelope potential minus energy is {gap} <= 0 on segment {j}"
            )
        integral += math.sqrt(gap) * span
    return integral


def f_ave(
    y: float,
    positions: tuple[float, ...] | list[float],
    arriving: tuple[int, ...] | list[int],
    ongoing: tuple[int, ...] | list[int],
    envelope_potentials: tuple[float, ...] | list[float],
    energy: float,
) -> float:
    """Averaged-mode multiplier at arc distance y:

        prod_{j: v_j < y} sqrt(b_j / a_j) * exp(int_0^y sqrt(V_m(t) - E) dt)

    ``positions`` are the generation positions v_1 < v_2 < ... (root at 0
    excluded); ``envelope_potentials`` give the lower-envelope potential on
    the segments [0, v_1), [v_1, v_2), ...  (one more entry than positions is
    allowed for the final open segment)."""
    if y < 0:
        raise ValueError("y must be >= 0")
    return ave_branching_prefactor(y, positions, arriving, ongoing) * math.exp(
        ave_action_integral(y, positions, envelope_potentials, energy)
    )
