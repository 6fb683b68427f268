"""The built-graph oracle for eigenfunctions held on a generation table.

``construct`` keeps a synchronized family's eigenfunction on its
``GenerationTable``: one solution per generation, on the generation's first
edge.  ``expanded`` gives the same eigenfunction on the built graph, where
every edge carries its generation's solution, so that tests can compare
what the stages compute on the table with what they compute edge by edge.
``vertex_fit_slopes`` is the vertex fit done the same way: one row per
vertex of the built graph.
"""

from dataclasses import replace

import numpy as np

from qgdecay.eigenfunctions import Eigenfunction
from qgdecay.graph import GenerationTable
from qgdecay.metrics import compute_rho_a
from qgdecay.verify import VALUE_FLOOR


def expanded(f: Eigenfunction) -> Eigenfunction:
    """``f`` on its built graph; ``f`` itself when its graph is built."""
    table = f.graph
    if not isinstance(table, GenerationTable):
        return f
    solutions = {
        eid: replace(sol, edge=eid)
        for first, sol in f.solutions.items()
        for eid in range(first, first + table.edge_count(first))
    }
    return Eigenfunction(table.expand(), solutions, f.family, f.meta)


def vertex_fit_slopes(f: Eigenfunction) -> tuple[float | None, float | None]:
    """``np.polyfit`` slopes of log |psi| against arc distance and against
    rho, one row per interior vertex of the built graph with |psi| above
    ``VALUE_FLOOR``, in vertex-id order; None where fewer than two rows
    remain or all lie at one distance."""
    g = expanded(f)
    vids = sorted(g.graph.interior_vertex_ids())
    values = np.array([g.vertex_value(vid) for vid in vids])
    keep = np.abs(values) > VALUE_FLOOR
    ys = np.log(np.abs(values[keep]))
    slopes = []
    for dist in (g.graph.distances(), compute_rho_a(g.graph).rho):
        xs = np.array([dist[vid] for vid in vids])[keep]
        degenerate = len(xs) < 2 or np.ptp(xs) == 0.0
        slopes.append(None if degenerate else float(np.polyfit(xs, ys, 1)[0]))
    return slopes[0], slopes[1]
