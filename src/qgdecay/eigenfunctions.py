"""Explicit exterior eigenfunctions on the generated graph families.

Each edge carries psi = A cosh(kx) + B sinh(kx) with k*k = V - E and local
coordinate x increasing away from the root (k = 0 degenerates to the linear
basis A + B x).  Coefficients are propagated outward with transfer matrices,
which enforces continuity and the Kirchhoff condition at every interior
vertex by construction; nothing is imposed at the root or at truncation
leaves, where the infinite-graph solution is simply cut off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, FamilyInfo, GraphPoint, MetricGraph, Vertex
from .graph import family_name, generate_family, keyword_params
from .metrics import AgmonMetricTable, PathSpec, compute_rho_a, eval_arc
from .transfer import (
    TransferMatrix,
    eig2,
    ladder_antisym_transfer,
    match_shared_eigenvector,
    millipede_transfer,
    vertex_edge_step,
)

DERIV_FLOOR = 1e-300


@dataclass(frozen=True)
class EdgeSolution:
    """Coefficients of one edge's solution in the (cosh, sinh) basis.

    For k == 0 the basis degenerates to (1, x): A is the constant term and B
    the slope.
    """

    edge: int
    k: float
    length: float
    A: float
    B: float


def edge_eval(sol: EdgeSolution, x: float) -> float:
    if not (0.0 <= x <= sol.length):
        raise ValueError(f"x={x} outside edge {sol.edge} of length {sol.length}")
    if sol.k == 0.0:
        return sol.A + sol.B * x
    return sol.A * math.cosh(sol.k * x) + sol.B * math.sinh(sol.k * x)


def edge_deriv(sol: EdgeSolution, x: float) -> float:
    if not (0.0 <= x <= sol.length):
        raise ValueError(f"x={x} outside edge {sol.edge} of length {sol.length}")
    if sol.k == 0.0:
        return sol.B
    return sol.k * (
        sol.A * math.sinh(sol.k * x) + sol.B * math.cosh(sol.k * x)
    )


def propagate(
    initial: tuple[float, float], steps: Sequence[TransferMatrix]
) -> list[tuple[float, float]]:
    """Running matrix-vector products: the coefficient sequence along a path
    of consecutive edges."""
    out = [initial]
    for t in steps:
        out.append(t.apply(out[-1]))
    return out


def ode_residual(sol: EdgeSolution, h: float, n_samples: int = 16) -> float:
    """Max relative defect of the centered second difference against k^2 psi
    over interior sample points.  Scales as O(h^2)."""
    if not (0.0 < 2 * h < sol.length):
        raise ValueError("need 0 < 2h < edge length")
    worst = 0.0
    scale = 0.0
    for i in range(n_samples):
        x = h + (sol.length - 2 * h) * i / max(n_samples - 1, 1)
        psi = edge_eval(sol, x)
        scale = max(scale, abs(psi))
        # clamp the stencil against one-ulp overshoot at the edge ends
        lo = max(x - h, 0.0)
        hi = min(x + h, sol.length)
        second = (
            edge_eval(sol, lo) - 2.0 * psi + edge_eval(sol, hi)
        ) / (h * h)
        worst = max(worst, abs(second - sol.k * sol.k * psi))
    return worst / (max(sol.k * sol.k, 1.0) * scale + DERIV_FLOOR)


class Eigenfunction:
    """One EdgeSolution per edge of a graph, plus construction metadata."""

    def __init__(
        self,
        graph: MetricGraph,
        solutions: dict[int, EdgeSolution],
        family: str,
        mode: str | None = None,
        meta: dict | None = None,
    ):
        self.graph = graph
        self.solutions = dict(solutions)
        self.family = family
        self.mode = mode
        self.meta = dict(meta or {})
        self.fractions = _collect_fractions(self)
        self._table: AgmonMetricTable | None = None

    def table(self) -> AgmonMetricTable:
        if self._table is None:
            self._table = compute_rho_a(self.graph)
        return self._table

    def value(self, point: GraphPoint) -> float:
        return edge_eval(self.solutions[point.edge], point.offset)

    def edge_end_value(self, eid: int, vid: int) -> float:
        e = self.graph.edge_by_id[eid]
        sol = self.solutions[eid]
        if vid == e.tail:
            return edge_eval(sol, 0.0)
        if vid == e.head:
            return edge_eval(sol, e.length)
        raise ValueError(f"vertex {vid} is not an endpoint of edge {eid}")

    def outgoing_derivative(self, vid: int, eid: int) -> float:
        """Derivative limit at the vertex in the direction leaving it."""
        e = self.graph.edge_by_id[eid]
        sol = self.solutions[eid]
        out = 0.0
        if vid == e.tail:
            out += edge_deriv(sol, 0.0)
        if vid == e.head:
            out -= edge_deriv(sol, e.length)
        if vid not in (e.tail, e.head):
            raise ValueError(f"vertex {vid} is not an endpoint of edge {eid}")
        return out

    def vertex_value(self, vid: int) -> float:
        eid = self.graph.incidence[vid][0]
        return self.edge_end_value(eid, vid)

    def sample_rows(self, samples_per_edge: int = 9) -> list[tuple]:
        """Rows (edge_id, generation, x_local, arc_distance, psi, dpsi)."""
        table = self.table()
        rows = []
        for e in sorted(self.graph.edges, key=lambda e: e.id):
            sol = self.solutions[e.id]
            for i in range(samples_per_edge):
                x = e.length * i / max(samples_per_edge - 1, 1)
                rows.append(
                    (
                        e.id,
                        e.generation,
                        x,
                        eval_arc(table, GraphPoint(e.id, x)),
                        edge_eval(sol, x),
                        edge_deriv(sol, x),
                    )
                )
        return rows


def continuity_residual(f: Eigenfunction, vid: int) -> float:
    """Relative spread of the incident edge values at a vertex."""
    values = [
        f.edge_end_value(eid, vid) for eid in f.graph.incidence[vid]
    ]
    scale = max(abs(v) for v in values)
    return (max(values) - min(values)) / (scale + DERIV_FLOOR)


def kirchhoff_residual(f: Eigenfunction, vid: int) -> float:
    """|sum of outgoing derivatives| over the sum of their magnitudes.

    Not applicable at the root or truncation-boundary vertices, where the
    exterior construction imposes no condition.
    """
    v = f.graph.vertex_by_id[vid]
    if v.boundary or vid == f.graph.root or f.graph.degree(vid) < 2:
        raise ValueError(
            f"vertex {vid}: Kirchhoff condition not applicable at the "
            "truncation boundary"
        )
    total = 0.0
    magnitude = 0.0
    for eid in f.graph.incidence[vid]:
        d = f.outgoing_derivative(vid, eid)
        total += d
        magnitude += abs(d)
    return abs(total) / (magnitude + DERIV_FLOOR)


def _collect_fractions(f: Eigenfunction) -> dict[int, dict[int, float]]:
    """Derivative fraction carried onto each child edge at interior vertices,
    relative to one incoming edge (picked arbitrarily among symmetric ones)."""
    fractions: dict[int, dict[int, float]] = {}
    for vid in f.graph.interior_vertex_ids():
        incoming = [
            eid
            for eid in f.graph.incidence[vid]
            if f.graph.edge_by_id[eid].head == vid
        ]
        outgoing = [
            eid
            for eid in f.graph.incidence[vid]
            if f.graph.edge_by_id[eid].tail == vid
        ]
        if not incoming or not outgoing:
            continue
        sol_in = f.solutions[incoming[0]]
        d_in = edge_deriv(sol_in, sol_in.length)
        if abs(d_in) < DERIV_FLOOR:
            continue
        per_child = {}
        for eid in outgoing:
            p = edge_deriv(f.solutions[eid], 0.0) / d_in
            if abs(p - 1.0) < 1e-12:
                p = 1.0
            per_child[eid] = p
        fractions[vid] = per_child
    return fractions


def canonical_path(f: Eigenfunction) -> PathSpec:
    """Root-to-boundary path following the lowest-id outgoing edge, with the
    derivative fractions collected at each interior vertex."""
    edges: list[int] = []
    fracs: list[float] = []
    vid = f.graph.root
    while True:
        outgoing = sorted(
            eid
            for eid in f.graph.incidence[vid]
            if f.graph.edge_by_id[eid].tail == vid
        )
        if not outgoing:
            break
        eid = outgoing[0]
        if edges:
            fracs.append(f.fractions[vid][eid])
        edges.append(eid)
        vid = f.graph.edge_by_id[eid].head
        if f.graph.vertex_by_id[vid].boundary:
            break
    return PathSpec(f.graph, tuple(edges), tuple(fracs))


# ---------------------------------------------------------------------------
# Family constructions
# ---------------------------------------------------------------------------


def _normalized_small_vec(t: TransferMatrix) -> tuple[float, float]:
    a, b = eig2(t).vec_small
    if a == 0.0:
        raise ValueError("contracting direction has no cosh component")
    return (1.0, b / a)


def _propagate_decaying(steps: Sequence[TransferMatrix]) -> list[tuple[float, float]]:
    """Coefficient sequence of the contracting solution: seeded with the
    small-eigenvalue eigenvector of the cumulative step product.

    When all steps are equal the eigen relation is applied as exact scalar
    powers of lambda_small; matrix products would exponentially amplify the
    float-level contamination of the growing eigendirection.
    """
    if not steps:
        return [(1.0, -1.0)]
    constant = all(t == steps[0] for t in steps)
    if constant:
        seed = _normalized_small_vec(steps[0])
        lam = eig2(steps[0]).lam_small
        return [
            (seed[0] * lam**g, seed[1] * lam**g) for g in range(len(steps) + 1)
        ]
    product = steps[0]
    for t in steps[1:]:
        product = t.matmul(product)
    return propagate(_normalized_small_vec(product), steps)


def _solution_for_edge(e: Edge, energy: float, coeff: tuple[float, float]) -> EdgeSolution:
    k = math.sqrt(max(e.potential - energy, 0.0))
    return EdgeSolution(e.id, k, e.length, coeff[0], coeff[1])


def _construct_generation_family(name: str, params: dict, depth: int) -> Eigenfunction:
    """Trees and braided graphs: one coefficient pair per edge generation."""
    graph = generate_family(name, params, depth)
    info = graph.family_info
    k = math.sqrt(
        max(graph.edges[0].potential - graph.energy, 0.0)
    )
    n_gens = len(info.positions) - 1
    # per-generation lengths from the stored edges: exact floats, so equal
    # generations give bitwise-equal step matrices
    gen_length: dict[int, float] = {}
    for e in graph.edges:
        gen_length.setdefault(e.generation, e.length)
    steps = []
    for g in range(n_gens - 1):
        # p > 1 where a braided generation narrows
        p = info.arriving[g] / info.ongoing[g]
        steps.append(vertex_edge_step(k * gen_length[g], p))
    coeffs = _propagate_decaying(steps)
    solutions = {
        e.id: _solution_for_edge(e, graph.energy, coeffs[e.generation])
        for e in graph.edges
    }
    return Eigenfunction(graph, solutions, family=name)


def _construct_two_lengths(name: str, params: dict, depth: int) -> Eigenfunction:
    graph = generate_family(name, params, depth)
    info = graph.family_info
    l1, l2 = info.params["L1"], info.params["L2"]
    k, energy = info.params["k"], graph.energy
    matched = match_shared_eigenvector(k * l1, k * l2)
    p_for_length = {l1: matched.p1, l2: 1.0 - matched.p1}
    # edges come parents first, the root edge first of all
    coeffs = {graph.edges[0].id: (1.0, matched.w)}
    for e in graph.edges:
        if e.id not in coeffs:
            continue
        a, b = coeffs[e.id]
        c, s = math.cosh(k * e.length), math.sinh(k * e.length)
        val = a * c + b * s
        d_over_k = a * s + b * c
        for child_eid in graph.incidence[e.head]:
            child = graph.edge_by_id[child_eid]
            if child.tail != e.head:
                continue
            coeffs[child.id] = (val, p_for_length[child.length] * d_over_k)
    solutions = {
        e.id: _solution_for_edge(e, energy, coeffs[e.id]) for e in graph.edges
    }
    return Eigenfunction(
        graph,
        solutions,
        family=name,
        meta={"p1": matched.p1, "w": matched.w, "lam": matched.lam, "mu": matched.mu},
    )


def _construct_millipede(name: str, params: dict, depth: int) -> Eigenfunction:
    graph = generate_family(name, params, depth)
    info = graph.family_info
    delta = info.params["delta"]
    n_legs = info.params["legs"]
    step = millipede_transfer(delta)
    coeffs = _propagate_decaying([step] * n_legs)
    solutions: dict[int, EdgeSolution] = {}
    for e in graph.edges:
        if e.potential == graph.energy + 1.0:  # body edge, k = 1
            solutions[e.id] = _solution_for_edge(e, graph.energy, coeffs[e.generation])
    for e in graph.edges:
        if e.id in solutions:
            continue
        # leg hanging at body vertex e.tail: c e^{-delta x} = c(cosh - sinh)
        val = coeffs[e.generation][0]
        solutions[e.id] = EdgeSolution(e.id, delta, e.length, val, -val)
    return Eigenfunction(
        graph,
        solutions,
        family=name,
        meta={"lambda_small": eig2(step).lam_small},
    )


def _construct_ladder(
    name: str, params: dict, depth: int, *, mode: str = "symmetric"
) -> Eigenfunction:
    """The ladder's mode picks the eigenfunction, not the graph."""
    if mode == "antisymmetric":
        return _construct_ladder_antisymmetric(params, depth)
    if mode != "symmetric":
        raise ValueError(f"unknown ladder mode {mode!r}")
    # constant rung solutions require V = E on the rungs; those edges form
    # the designated core where V - E > 0 is waived
    energy = float(params.get("energy", -1.0))
    g = generate_family(
        name, dict(params, rung_potential=energy), depth
    )
    solutions: dict[int, EdgeSolution] = {}
    for e in g.edges:
        if e.length == 1.0 and e.potential == energy + 1.0:  # rail edge
            scale = math.exp(-float(e.generation))
            solutions[e.id] = EdgeSolution(e.id, 1.0, e.length, scale, -scale)
        else:  # rung: constant at the shared rail value
            solutions[e.id] = EdgeSolution(
                e.id, 0.0, e.length, math.exp(-float(e.generation)), 0.0
            )
    return Eigenfunction(g, solutions, family="ladder", mode="symmetric")


def _construct_ladder_antisymmetric(params: dict, depth: int) -> Eigenfunction:
    """Half of the ladder (one rail plus rung halves up to the reflection
    axis); the other half is the odd mirror image."""
    w = float(params["w"])
    n = int(params.get("rungs", depth))
    energy = float(params.get("energy", -1.0))
    if w <= 0 or n < 1:
        raise ValueError("need rung length w > 0 and rungs >= 1")
    potential = energy + 1.0  # k = 1 on rails and rungs
    step = ladder_antisym_transfer(w)
    coeffs = _propagate_decaying([step] * n)
    vertices = [Vertex(0, generation=0, boundary=True)]
    edges: list[Edge] = []
    rail_ids = []
    for j in range(1, n + 1):
        vertices.append(Vertex(j, generation=j, boundary=(j == n)))
        rail_ids.append(len(edges))
        edges.append(Edge(len(edges), j - 1, j, 1.0, potential, generation=j - 1))
    midpoint_ids = []
    for j in range(1, n + 1):
        vid = n + j
        vertices.append(Vertex(vid, generation=j, boundary=True))
        edges.append(Edge(len(edges), j, vid, w / 2.0, potential, generation=j))
        midpoint_ids.append(vid)
    info = FamilyInfo(params={"w": w, "rungs": n, "energy": energy})
    g = MetricGraph(vertices, edges, root=0, energy=energy, family_info=info)
    g.validate()
    solutions: dict[int, EdgeSolution] = {}
    sh, ch = math.sinh(w / 2.0), math.cosh(w / 2.0)
    for e in g.edges:
        if e.id in rail_ids:
            solutions[e.id] = EdgeSolution(e.id, 1.0, 1.0, *coeffs[e.generation])
        else:
            # rung half from the rail to the odd-symmetry zero at the midpoint:
            # g sinh(x - w/2) with g set by the rail value at x = 0
            val = coeffs[e.generation][0]
            gscale = -val / sh
            solutions[e.id] = EdgeSolution(
                e.id, 1.0, w / 2.0, -gscale * sh, gscale * ch
            )
    return Eigenfunction(
        g,
        solutions,
        family="ladder",
        mode="antisymmetric",
        meta={
            "rung_midpoints": midpoint_ids,
            "lambda_small": eig2(step).lam_small,
            "mirror": "odd",
        },
    )


# canonical family name -> constructor; a constructor's own keyword-only
# arguments (the ladder's mode) are construct-level params, and the rest go
# to the family's graph builder
CONSTRUCTORS = {
    "regular_tree": _construct_generation_family,
    "ns_regular_tree": _construct_generation_family,
    "two_lengths_tree": _construct_two_lengths,
    "millipede": _construct_millipede,
    "ladder": _construct_ladder,
    "braided": _construct_generation_family,
}


def construct(family: str, params: dict, depth: int) -> Eigenfunction:
    """Build the decaying exterior eigenfunction of a named family, truncated
    to ``depth`` generations and normalized to value 1 at the root."""
    name = family_name(family)
    if name not in CONSTRUCTORS:
        raise ValueError(f"unknown family {family!r}")
    build = CONSTRUCTORS[name]
    params = dict(params)
    own = {key: params.pop(key) for key in keyword_params(build) if key in params}
    return build(name, params, depth, **own)


# ---------------------------------------------------------------------------
# Averaged wave function
# ---------------------------------------------------------------------------


def averaged_wave_function(f: Eigenfunction, y: float) -> float:
    """Weighted average of psi over all points at arc distance y from the
    root; the weights multiply a_j/b_j per generation passed (and 1/root_edges
    at the root) so they always sum to 1."""
    info = f.graph.family_info
    if info is None or info.positions is None:
        raise ValueError(
            "averaged wave function requires a regular-topology family"
        )
    positions = info.positions
    if y < 0.0 or y > positions[-1]:
        raise ValueError(
            f"y={y} outside the truncated range [0, {positions[-1]}]"
        )
    # left-limit convention: y at a vertex position evaluates the arriving
    # generation at its far endpoint
    gen = 0
    for g in range(len(positions) - 1):
        if positions[g] <= y:
            gen = g
    x = y - positions[gen]
    weight = 1.0 / info.root_edges
    for j in range(gen):
        weight *= info.arriving[j] / info.ongoing[j]
    total = 0.0
    for e in f.graph.edges:
        if e.generation == gen:
            total += edge_eval(f.solutions[e.id], min(x, e.length))
    return weight * total
