"""Explicit exterior eigenfunctions on the generated graph families.

Each edge carries psi = A cosh(kx) + B sinh(kx) with k*k = V - E and local
coordinate x increasing away from the root (k = 0 degenerates to the linear
basis A + B x).  Coefficients are propagated outward with transfer matrices,
which enforces continuity and the Kirchhoff condition at every interior
vertex by construction; nothing is imposed at the root or at truncation
leaves, where the infinite-graph solution is simply cut off.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .graph import GenerationTable, MetricGraph, _arrays, _numpy
from .graph import FamilyParameterError, build_family, comb, family_arguments
from .graph import family_name, generate_family, keyword_params, ladder_info
from .metrics import PathSpec
from .transfer import (
    EigenPair2,
    TransferMatrix,
    eig2,
    ladder_antisym_transfer,
    match_shared_eigenvector,
    millipede_transfer,
    vertex_edge_step,
)

if TYPE_CHECKING:
    import numpy as np

DERIV_FLOOR = 1e-300
VALUE_FLOOR = 1e-300  # the vertex fits read |psi| above this


@dataclass(frozen=True, slots=True)
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


def repeated_sum(start: float, x: float, n: int) -> float:
    """``start + x + ... + x`` with ``n`` additions, left to right: bit for
    bit a loop of ``+=``, in bursts of 15.  Its one caller is the Kirchhoff
    totals of ``Eigenfunction.vertex_residuals``, where n is one vertex's
    branching number; every other class sum adds count * value.  Inside a
    binade all additions but the first (a tie goes by parity) add the same
    d, so when a burst ends on two equal ones there, the sum jumps to
    s + m * d, exact on the binade's grid: O(binades) bursts."""
    if n == 1:
        return start + x
    s = start
    while n > 2:
        k = min(n, 15)
        for _ in range(k - 2):
            s += x
        t = s + x
        u = t + x
        n -= k
        if (u == t or u != u) and struct.pack("<d", u) == struct.pack("<d", t):
            return u  # a fixed point, bit for bit
        (ms, es), (mu, eu), d = math.frexp(s), math.frexp(u), u - t
        # frexp's mantissas share a sign only if s, u != 0
        if d == t - s and es == eu and ms * mu > 0.0 and math.isfinite(u):
            half = math.ldexp(0.5, eu)  # |u| in [half, 2 * half)
            gap = half - abs(u) + half if (u > 0.0) == (d > 0.0) else abs(u) - half
            # m more additions stay at least |d| inside the binade
            m = min(n, max(0, int(gap / abs(d)) - 1))
            u += m * d
            n -= m
        s = u
    for _ in range(n):
        s += x
    return s


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
    """One EdgeSolution per edge of a graph, plus construction metadata.
    The solutions are read-only, so what is derived from them stays valid.

    On a built graph they are held as arrays ``coeffs`` = (k, L, A, B) by
    edge position, and ``solutions`` makes each EdgeSolution on lookup.
    The graph may also be a synchronized family's GenerationTable, with one
    solution per generation on its first edge: an eigenfunction on the
    generation quotient, each edge standing for its class, whose members
    ``graph.expand()`` builds; ``coeffs`` is then None."""

    def __init__(
        self,
        graph: MetricGraph,
        solutions: Mapping[int, EdgeSolution],
        family: str,
        meta: dict | None = None,
    ):
        self._setup(graph, family, meta)
        if isinstance(graph, GenerationTable):
            self._solutions = MappingProxyType(dict(solutions))
        else:
            _arrays().hold_solutions(self, solutions)

    @classmethod
    def from_arrays(cls, graph: MetricGraph, k, a, b, family: str,
                    meta: dict | None = None) -> Eigenfunction:
        """On a built graph, from k, A and B by edge position (or one number
        for every edge)."""
        f = cls.__new__(cls)
        f._setup(graph, family, meta)
        _arrays().hold_coefficients(f, k, a, b)
        return f

    def _setup(self, graph, family, meta) -> None:
        self._graph = graph
        self.coeffs: tuple[np.ndarray, ...] | None = None
        self._logs: tuple | None = None  # log_sums's memos
        self._sums: tuple[Mapping[int, float], list] | None = None
        self.family = family
        self.meta = dict(meta or {})

    @property
    def graph(self) -> MetricGraph:
        return self._graph

    @property
    def solutions(self) -> Mapping[int, EdgeSolution]:
        return self._solutions

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

    def interior_values(self) -> tuple[list[int], Sequence[float], Sequence[float]]:
        """The graph's interior vertex ids, psi at each, and each one's
        ``vertex_count`` as a float (a wide generation holds more vertices
        than an int64): arrays on a built graph, lists on a table, so that
        a table loads no numpy."""
        if self.coeffs is not None:  # built graph
            return _arrays().interior_values(self)
        vids = self.graph.interior_vertex_ids()
        return (vids, [*map(self.vertex_value, vids)],
                [float(self.graph.vertex_count(vid)) for vid in vids])

    def log_sums(self, dist: Mapping[int, float]) -> list[tuple[float, float, float]]:
        """(distance, vertex count, count times log |psi|) per distance in
        ``dist`` of the interior vertices with |psi| > VALUE_FLOOR, summed
        exactly (math.fsum) with ``math.log`` on either path, so that a
        built graph gives its quotient's points; a built graph's logs are
        taken once, and the sums kept for the last ``dist`` (both fits read
        arc distance at V - E = 1)."""
        if self._sums is None or self._sums[0] is not dist:
            if self.coeffs is not None:  # built graph
                self._logs = self._logs or _arrays().interior_logs(self)
                sums = _arrays().log_sums(dist, *self._logs)
            else:  # a table's classes, one by one
                groups: dict[float, list[tuple[float, float]]] = {}
                for vid, psi, w in zip(*self.interior_values()):
                    if abs(psi) > VALUE_FLOOR:
                        groups.setdefault(dist[vid], []).append((w, w * math.log(abs(psi))))
                sums = [(x, *map(math.fsum, zip(*pairs))) for x, pairs in groups.items()]
            self._sums = (dist, sums)
        return self._sums[1]

    def vertex_residuals(self, vid: int) -> tuple[float, float]:
        """Continuity and Kirchhoff residuals at ``vid``: the relative spread
        of the incident edge values, and |sum of outgoing derivatives| over
        the sum of their magnitudes, each edge class counted at its
        multiplicity at the vertex."""
        values = []
        total = magnitude = 0.0
        for eid in self.graph.incidence[vid]:
            values.append(self.edge_end_value(eid, vid))
            d = self.outgoing_derivative(vid, eid)
            n = self.graph.incident_count(vid, eid)
            total = repeated_sum(total, d, n)
            magnitude = repeated_sum(magnitude, abs(d), n)
        scale = max(abs(v) for v in values)
        return (
            (max(values) - min(values)) / (scale + DERIV_FLOOR),
            abs(total) / (magnitude + DERIV_FLOOR),
        )

    def sample_rows(self, samples_per_edge: int = 9) -> list[tuple]:
        """Rows (edge_id, generation, x_local, arc_distance, psi, dpsi); the
        rows of a class repeat for each of its edges (ids e.id, e.id + 1, ...)."""
        arc = self.graph.distances()
        rows = []
        for e in sorted(self.graph.edges, key=lambda e: e.id):
            sol = self.solutions[e.id]
            samples = []
            for i in range(samples_per_edge):
                x = e.length * i / max(samples_per_edge - 1, 1)
                samples.append((
                    x,
                    min(arc[e.tail] + x, arc[e.head] + (e.length - x)),
                    edge_eval(sol, x),
                    edge_deriv(sol, x),
                ))
            for eid in range(e.id, e.id + self.graph.edge_count(e.id)):
                rows += [(eid, e.generation, *sample) for sample in samples]
        return rows


def continuity_residual(f: Eigenfunction, vid: int) -> float:
    """Relative spread of the incident edge values at a vertex."""
    return f.vertex_residuals(vid)[0]


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
    return f.vertex_residuals(vid)[1]


def canonical_path(f: Eigenfunction) -> PathSpec:
    """Root-to-boundary path following the lowest-id outgoing edge.  At each
    vertex it passes, the fraction is the derivative leaving on the path
    over the derivative arriving on the vertex's first incoming edge."""
    graph = f.graph
    edges: list[int] = []
    fracs: list[float] = []
    vid = graph.root
    while True:
        incident = [graph.edge_by_id[eid] for eid in graph.incidence[vid]]
        outgoing = sorted(e.id for e in incident if e.tail == vid)
        if not outgoing:
            break
        eid = outgoing[0]
        if edges:
            sol_in = f.solutions[next(e.id for e in incident if e.head == vid)]
            d_in = edge_deriv(sol_in, sol_in.length)
            if abs(d_in) < DERIV_FLOOR:
                n = len(str(vid))  # as many as a wide tree has generations
                raise ValueError(
                    f"vertex {vid if n <= 12 else f'with a {n}-digit id'} in "
                    f"generation {graph.vertex_by_id[vid].generation}: incoming "
                    f"derivative {d_in} leaves the path's derivative fraction "
                    "undefined"
                )
            p = edge_deriv(f.solutions[eid], 0.0) / d_in
            fracs.append(1.0 if abs(p - 1.0) < 1e-12 else p)
        edges.append(eid)
        vid = graph.edge_by_id[eid].head
        if graph.vertex_by_id[vid].boundary:
            break
    return PathSpec(graph, tuple(edges), tuple(fracs))


# ---------------------------------------------------------------------------
# Family constructions
# ---------------------------------------------------------------------------


def _propagate_decaying(
    steps: Sequence[TransferMatrix],
) -> tuple[list[tuple[float, float]], EigenPair2 | None]:
    """Coefficient sequence of the contracting solution, seeded with the
    small-eigenvalue eigenvector of the cumulative step product, and that
    product's eigenpair (None without steps).

    When all steps are equal the eigen relation is applied as exact scalar
    powers of lambda_small; matrix products would exponentially amplify the
    float-level contamination of the growing eigendirection.
    """
    if not steps:
        return [(1.0, -1.0)], None
    constant = all(t == steps[0] for t in steps)
    product = steps[0]
    if not constant:
        for t in steps[1:]:
            product = t.matmul(product)
    pair = eig2(product)
    a, b = pair.vec_small
    if a == 0.0:
        raise ValueError("contracting direction has no cosh component")
    if constant:
        lam = pair.lam_small
        return [(lam**g, b / a * lam**g) for g in range(len(steps) + 1)], pair
    return propagate((1.0, b / a), steps), pair


def _construct_generation_family(name: str, params: dict, depth: int) -> Eigenfunction:
    """Trees and braided graphs: one coefficient pair per edge generation,
    on the generation table; no graph is built.  ``meta["eigenpair"]`` is
    the steps' product's (the step's, when every step is equal)."""
    table = build_family(name, params, depth)
    info = table.family_info
    k = info.params["k"]
    steps = []
    for e in table.edges[:-1]:
        # p > 1 where a braided generation narrows
        p = info.arriving[e.generation] / info.ongoing[e.generation]
        steps.append(vertex_edge_step(k * e.length, p))
    coeffs, pair = _propagate_decaying(steps)
    solutions = {
        e.id: EdgeSolution(e.id, k, e.length, *coeffs[e.generation])
        for e in table.edges
    }
    return Eigenfunction(table, solutions, family=name, meta={"eigenpair": pair})


def _construct_two_lengths(name: str, params: dict, depth: int) -> Eigenfunction:
    graph = generate_family(name, params, depth)
    info = graph.family_info
    l1, l2 = info.params["L1"], info.params["L2"]
    k = info.params["k"]
    matched = match_shared_eigenvector(k * l1, k * l2)
    np = _numpy()
    c, s = _arrays().cosh_sinh(k * graph.arrays.length)
    a, b = np.empty_like(c), np.empty_like(c)
    a[0], b[0] = 1.0, matched.w
    # generation g is edges lo .. hi - 1; edge e's children are 2e + 1 (of
    # length L1, fraction p1) and 2e + 2 (L2)
    for g in range(depth):
        lo, hi = (1 << g) - 1, (2 << g) - 1
        val = a[lo:hi] * c[lo:hi] + b[lo:hi] * s[lo:hi]
        d_over_k = a[lo:hi] * s[lo:hi] + b[lo:hi] * c[lo:hi]
        a[hi:2 * hi + 1] = np.repeat(val, 2)
        b[hi:2 * hi + 1:2] = matched.p1 * d_over_k
        b[hi + 1:2 * hi + 1:2] = (1.0 - matched.p1) * d_over_k
    return Eigenfunction.from_arrays(
        graph, k, a, b, family=name,
        meta={"p1": matched.p1, "w": matched.w, "lam": matched.lam, "mu": matched.mu},
    )


def _construct_comb(
    graph: MetricGraph, spine: int, teeth: int, step: TransferMatrix,
    tooth: Callable[[float], tuple[float, float, float]],
    family: str, meta: dict | None = None,
) -> Eigenfunction:
    """On a ``comb`` with k = 1 on its spine, spine edge g carries the
    decaying coefficients after g ``step``s, and the tooth at spine vertex j
    takes (k, A, B) = ``tooth(psi)`` from the value psi there.  ``meta``
    gains the step, its eigenpair and lambda_small."""
    coeffs, pair = _propagate_decaying([step] * teeth)
    return Eigenfunction.from_arrays(
        graph,
        *zip(*[(1.0, *coeffs[g]) for g in range(spine)],
             *[tooth(coeffs[j][0]) for j in range(1, teeth + 1)]),
        family=family,
        meta=dict(meta or {}, step=step, eigenpair=pair, lambda_small=pair.lam_small),
    )


def _construct_millipede(name: str, params: dict, depth: int) -> Eigenfunction:
    graph = generate_family(name, params, depth)
    delta, n_legs = (graph.family_info.params[key] for key in ("delta", "legs"))
    # a leg starting at value c decays as c e^{-delta x} = c(cosh - sinh)
    return _construct_comb(graph, n_legs + 1, n_legs, millipede_transfer(delta),
                           lambda val: (delta, val, -val), family=name)


def _construct_ladder(
    name: str, params: dict, depth: int, *, mode: str = "symmetric"
) -> Eigenfunction:
    """The ladder's mode picks the eigenfunction, not the graph."""
    if "rung_potential" in params:
        raise FamilyParameterError("the ladder's mode sets its rung_potential")
    if mode == "antisymmetric":
        return _construct_ladder_antisymmetric(params, depth)
    if mode != "symmetric":
        raise ValueError(f"unknown ladder mode {mode!r}")
    # constant rung solutions require V = E on the rungs; those edges form
    # the designated core where V - E > 0 is waived
    energy = family_arguments(name, params, depth)["energy"]
    g = generate_family(
        name, dict(params, rung_potential=energy), depth
    )
    n = g.family_info.params["rungs"]
    np = _numpy()
    scale = np.array([math.exp(-float(j)) for j in range(n + 1)])[g.arrays.generation]
    rail = g.arrays.edge_ids < 2 * n
    # rails decay as e^{-x}; a rung is constant at the shared rail value
    return Eigenfunction.from_arrays(
        g, rail * 1.0, scale, np.where(rail, -scale, 0.0),
        family="ladder",
    )


def _construct_ladder_antisymmetric(params: dict, depth: int) -> Eigenfunction:
    """Half of the ladder: one rail, with the rung halves up to the
    reflection axis as teeth; the other half is the odd mirror image."""
    args = family_arguments("ladder", params, depth)
    info = ladder_info(depth, args["w"], args["rungs"], args["energy"])
    w, n, energy = info.params.values()
    potential = energy + 1.0  # k = 1 on rails and rungs
    g = comb(n, n, 1.0, potential, w / 2.0, potential, energy, info)
    g.validate()
    sh, ch = math.sinh(w / 2.0), math.cosh(w / 2.0)

    def rung_half(val: float) -> tuple[float, float, float]:
        # from the rail to the odd-symmetry zero at the midpoint:
        # g sinh(x - w/2) with g set by the rail value at x = 0
        gscale = -val / sh
        return 1.0, -gscale * sh, gscale * ch

    return _construct_comb(
        g, n, n, ladder_antisym_transfer(w), rung_half,
        family="ladder",
        meta={"rung_midpoints": list(range(n + 1, 2 * n + 1)), "mirror": "odd"},
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
    try:
        return build(name, params, depth, **own)
    except OverflowError as exc:
        raise ValueError(
            f"constructing the {name} eigenfunction to depth {depth} "
            f"overflows a float ({exc})"
        ) from None


# ---------------------------------------------------------------------------
# Averaged wave function
# ---------------------------------------------------------------------------


def averaged_wave(f: Eigenfunction) -> Callable[[float], float]:
    """y -> ``averaged_wave_function(f, y)``, from tables built once: per
    generation its weight, the running product of a_j/b_j from
    1/root_edges, and its edge classes (count, solution, length) in edge
    order."""
    info = f.graph.family_info
    if info is None or info.positions is None:
        raise ValueError(
            "averaged wave function requires a regular-topology family"
        )
    positions, weights, classes = info.positions, [1.0 / info.root_edges], {}
    for j in range(len(positions) - 2):
        weights.append(weights[-1] * (info.arriving[j] / info.ongoing[j]))
    for e in f.graph.edges:
        classes.setdefault(e.generation, []).append(
            (f.graph.edge_count(e.id), f.solutions[e.id], e.length))

    def psi_ave(y: float) -> float:
        if not 0.0 <= y <= positions[-1]:
            raise ValueError(
                f"y={y} outside the truncated range [0, {positions[-1]}]"
            )
        # y at an interior vertex position v_g evaluates generation g at
        # x = 0; only the last position reads the arriving generation at
        # its far end
        gen = max(min(bisect.bisect_right(positions, y), len(positions) - 1) - 1, 0)
        x = y - positions[gen]
        total = 0.0  # each class of the generation adds count * value
        for count, sol, length in classes.get(gen, ()):
            total += count * edge_eval(sol, min(x, length))
        return weights[gen] * total

    return psi_ave


def averaged_wave_function(f: Eigenfunction, y: float) -> float:
    """Weighted average of psi over all points at arc distance y from the
    root; the weights multiply a_j/b_j per generation passed (and 1/root_edges
    at the root) so they always sum to 1."""
    return averaged_wave(f)(y)
