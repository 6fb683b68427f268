"""The per-point reference of the action and arc metrics and of psi.

The pipeline evaluates the metrics and psi edge by edge
(``verify.Multiplier.on_edge``, ``eigenfunctions.edge_eval``).  The
functions here give the same numbers at one ``GraphPoint`` at a time, from
the definitions, so that tests can check the edge kernels against them.
"""

import math
from dataclasses import dataclass

from qgdecay.eigenfunctions import Eigenfunction, edge_eval
from qgdecay.graph import Edge
from qgdecay.metrics import AgmonMetricTable


@dataclass(frozen=True)
class GraphPoint:
    """A point on the graph: an edge id plus arc-length offset from its tail."""

    edge: int
    offset: float


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


def value(f: Eigenfunction, point: GraphPoint) -> float:
    """psi at ``point``."""
    return edge_eval(f.solutions[point.edge], point.offset)
