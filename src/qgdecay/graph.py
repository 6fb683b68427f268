"""Rooted metric graphs with per-edge constant potentials.

A graph is a set of vertices joined by edges of positive length.  Each edge
carries one constant potential value; the graph carries one energy value E.
Generators for the standard infinite families (trees, millipede, ladder,
braided graphs) produce finite truncations whose frontier vertices are
flagged ``boundary`` so that vertex-condition checks skip them.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class GraphValidationError(ValueError):
    """A graph spec violated a structural invariant (message names the id)."""


@dataclass(frozen=True)
class Vertex:
    id: int
    generation: int | None = None
    boundary: bool = False


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    length: float
    potential: float
    generation: int | None = None


@dataclass(frozen=True)
class GraphPoint:
    """A point on the graph: an edge id plus arc-length offset from its tail."""

    edge: int
    offset: float


@dataclass(frozen=True)
class FamilyInfo:
    """Generation bookkeeping for generated families.

    ``positions``/``arriving``/``ongoing`` are set only for families with
    synchronized generations (regular, generation-regular and braided trees);
    they drive the averaged-wave-function machinery.  ``positions[j]`` is the
    arc distance of generation-j vertices, with ``positions[0] == 0`` the root.
    """

    params: dict = field(default_factory=dict)
    positions: tuple[float, ...] | None = None
    arriving: tuple[int, ...] | None = None
    ongoing: tuple[int, ...] | None = None
    root_edges: int = 1


class MetricGraph:
    """Immutable-after-construction rooted metric graph.

    ``core_edges`` designates a compact core on which the classically
    forbidden condition V - E > 0 is not required; everywhere else it is.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[Edge],
        root: int,
        energy: float,
        core_edges: Iterable[int] = (),
        family_info: FamilyInfo | None = None,
    ):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.root = root
        self.energy = float(energy)
        self.core_edges = frozenset(core_edges)
        self.family_info = family_info
        self.vertex_by_id = {v.id: v for v in self.vertices}
        self.edge_by_id = {e.id: e for e in self.edges}
        incidence: dict[int, list[int]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.tail in incidence:
                incidence[e.tail].append(e.id)
            if e.head in incidence and e.head != e.tail:
                incidence[e.head].append(e.id)
        self.incidence = {vid: tuple(eids) for vid, eids in incidence.items()}
        self._arc: dict[int, float] | None = None

    def degree(self, vid: int) -> int:
        deg = 0
        for eid in self.incidence[vid]:
            e = self.edge_by_id[eid]
            deg += 2 if e.tail == e.head else 1
        return deg

    @property
    def ell_min(self) -> float:
        return min(e.length for e in self.edges)

    def interior_vertex_ids(self) -> list[int]:
        """Vertices where vertex conditions are checkable: not the root, not
        boundary-flagged, degree at least 2."""
        out = []
        for v in self.vertices:
            if v.id == self.root or v.boundary:
                continue
            if self.degree(v.id) >= 2:
                out.append(v.id)
        return out

    def validate(self) -> None:
        seen_v: set[int] = set()
        for v in self.vertices:
            if v.id in seen_v:
                raise GraphValidationError(f"duplicate vertex id {v.id}")
            seen_v.add(v.id)
        seen_e: set[int] = set()
        for e in self.edges:
            if e.id in seen_e:
                raise GraphValidationError(f"duplicate edge id {e.id}")
            seen_e.add(e.id)
            for end in (e.tail, e.head):
                if end not in self.vertex_by_id:
                    raise GraphValidationError(
                        f"edge {e.id}: dangling endpoint {end}"
                    )
            if not (e.length > 0.0) or not math.isfinite(e.length):
                raise GraphValidationError(f"edge {e.id}: non-positive length")
        if self.root not in self.vertex_by_id:
            raise GraphValidationError(f"root {self.root} is not a vertex")
        reached = self._reachable_from_root()
        unreached = sorted(seen_v - reached)
        if unreached:
            raise GraphValidationError(
                f"vertices disconnected from root: {unreached}"
            )
        for e in self.edges:
            if e.id in self.core_edges:
                continue
            if not (e.potential - self.energy > 0.0):
                raise GraphValidationError(
                    f"edge {e.id}: V - E = {e.potential - self.energy} <= 0 "
                    "outside the designated core"
                )

    def _reachable_from_root(self) -> set[int]:
        seen = {self.root}
        stack = [self.root]
        while stack:
            vid = stack.pop()
            for eid in self.incidence[vid]:
                e = self.edge_by_id[eid]
                for nxt in (e.tail, e.head):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    def arc_distances(self) -> dict[int, float]:
        """Single-source shortest arc-length distance from the root, computed
        once per graph; callers share the dict and must not modify it."""
        if self._arc is None:
            self._arc = dijkstra(self, {e.id: e.length for e in self.edges})
        return self._arc

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v.id} for v in self.vertices],
            "edges": [
                {
                    "id": e.id,
                    "tail": e.tail,
                    "head": e.head,
                    "length": e.length,
                    "potential": e.potential,
                }
                for e in self.edges
            ],
            "root": self.root,
            "energy": self.energy,
        }


def dijkstra(graph: MetricGraph, weight: Mapping[int, float]) -> dict[int, float]:
    """Label-setting sweep from the root; weights must be nonnegative."""
    dist = {graph.root: 0.0}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, graph.root)]
    while heap:
        d, vid = heapq.heappop(heap)
        if vid in done:
            continue
        done.add(vid)
        for eid in graph.incidence[vid]:
            e = graph.edge_by_id[eid]
            w = weight[eid]
            other = e.head if e.tail == vid else e.tail
            nd = d + w
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

_VERTEX_KEYS = {"id"}
_EDGE_KEYS = {"id", "tail", "head", "length", "potential"}
_GRAPH_KEYS = {"vertices", "edges", "root", "energy"}
_FAMILY_KEYS = {"family", "params", "depth"}


def build_graph(spec: Mapping) -> MetricGraph:
    """Build and validate a graph from a parsed spec document.

    Accepts either an explicit graph (vertices/edges/root/energy) or a family
    request (family/params/depth).  Unknown keys are rejected.
    """
    if "family" in spec:
        _check_keys("spec", spec, _FAMILY_KEYS, _FAMILY_KEYS - {"params"})
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise GraphValidationError("spec params must be a JSON object")
        return generate_family(spec["family"], params, int(spec["depth"]))
    _check_keys("spec", spec, _GRAPH_KEYS, _GRAPH_KEYS)
    for key in ("vertices", "edges"):
        if not isinstance(spec[key], list):
            raise GraphValidationError(f"spec {key} must be a list of objects")
    vertices = []
    for rec in spec["vertices"]:
        _check_keys("vertex", rec, _VERTEX_KEYS, _VERTEX_KEYS)
        vertices.append(Vertex(id=int(rec["id"])))
    edges = []
    for rec in spec["edges"]:
        _check_keys("edge", rec, _EDGE_KEYS, _EDGE_KEYS)
        edges.append(
            Edge(
                id=int(rec["id"]),
                tail=int(rec["tail"]),
                head=int(rec["head"]),
                length=float(rec["length"]),
                potential=float(rec["potential"]),
            )
        )
    g = MetricGraph(vertices, edges, int(spec["root"]), float(spec["energy"]))
    g.validate()
    return g


def _check_keys(kind: str, rec, allowed: set, required: set) -> None:
    if not isinstance(rec, dict):
        raise GraphValidationError(f"{kind} must be a JSON object")
    unknown = set(rec) - allowed
    if unknown:
        raise GraphValidationError(f"unknown {kind} keys: {sorted(unknown)}")
    missing = required - set(rec)
    if missing:
        raise GraphValidationError(f"missing {kind} keys: {sorted(missing)}")


def load_graph_spec(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise GraphValidationError("spec document must be a JSON object")
    return build_graph(doc)


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------


class FamilyParameterError(ValueError):
    pass


def family_name(family: str) -> str:
    """Canonical family name: ``Regular-Tree`` becomes ``regular_tree``."""
    return family.replace("-", "_").lower()


_signature = functools.cache(inspect.signature)


def keyword_params(fn) -> dict[str, inspect.Parameter]:
    """The keyword-only parameters of a family builder or constructor: the
    params it accepts, required when they have no default."""
    params = _signature(fn).parameters.values()
    return {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}


def generate_family(family: str, params: dict, depth: int) -> MetricGraph:
    """Generate a named family truncated to ``depth`` generations.  The
    params must be keyword arguments of the family's builder."""
    if depth < 1:
        raise FamilyParameterError("depth must be >= 1")
    name = family_name(family)
    if name not in FAMILIES:
        raise FamilyParameterError(f"unknown family {family!r}")
    try:  # unknown and missing params, against the builder's signature
        _signature(FAMILIES[name]).bind(depth, **params)
    except TypeError as exc:
        raise FamilyParameterError(f"{name} params: {exc}") from None
    g = FAMILIES[name](depth, **params)
    g.validate()
    return g


def _k_and_energy(k: float, energy: float) -> tuple[float, float, float]:
    """Resolve (k, potential, energy) from family params.

    Families default to energy -1 and potential energy + k**2, so the fixed
    eigenparameter sits below the potential with V - E = k**2 > 0.
    """
    k, energy = float(k), float(energy)
    if k <= 0:
        raise FamilyParameterError("k must be > 0")
    return k, energy + k * k, energy


def _regular_tree(
    depth: int, *, b: int, length: float = 1.0, k: float = 1.0, energy: float = -1.0
) -> MetricGraph:
    b, length = int(b), float(length)
    k, potential, energy = _k_and_energy(k, energy)
    if b < 1:
        raise FamilyParameterError("branching number b must be >= 1")
    if length <= 0:
        raise FamilyParameterError("length must be > 0")
    return _generation_tree(
        {"b": b, "length": length, "k": k, "energy": energy},
        [[length]] + [[length] * b] * depth,
        potential,
        energy,
    )


def _ns_regular_tree(
    depth: int, *, b_seq: Sequence[int], length_seq: Sequence[float],
    k: float = 1.0, energy: float = -1.0,
) -> MetricGraph:
    b_seq = [int(b) for b in b_seq]
    length_seq = [float(x) for x in length_seq]
    k, potential, energy = _k_and_energy(k, energy)
    if len(b_seq) < depth or len(length_seq) < depth + 1:
        raise FamilyParameterError(
            "need b_seq of length >= depth and length_seq of length >= depth+1"
        )
    if any(b < 1 for b in b_seq) or any(x <= 0 for x in length_seq):
        raise FamilyParameterError("branching numbers >= 1 and lengths > 0 required")
    return _generation_tree(
        {"b_seq": b_seq, "length_seq": length_seq, "k": k, "energy": energy},
        [[length_seq[0]]]
        + [[length_seq[g]] * b_seq[g - 1] for g in range(1, depth + 1)],
        potential,
        energy,
    )


def _generation_tree(
    params: dict,
    children: Sequence[Sequence[float]],
    potential: float,
    energy: float,
    synchronized: bool = True,
) -> MetricGraph:
    """Rooted tree grown breadth first: the root (generation 0) and then
    every generation-g vertex spawn one edge per entry of ``children[g]``,
    of that length.  The last generation's vertices form the boundary.

    In a synchronized tree all edges of a generation share one length, so
    the family info carries the generation positions and branching.
    """
    depth = len(children) - 1
    info = FamilyInfo(params=params)
    if synchronized:
        info = FamilyInfo(
            params=params,
            positions=(0.0, *itertools.accumulate(c[0] for c in children)),
            arriving=tuple([1] * (depth + 1)),
            ongoing=tuple(len(c) for c in children[1:]) + (0,),
        )
    vertices = [Vertex(0, generation=0, boundary=True)]
    edges: list[Edge] = []
    frontier = [0]
    for gen, lengths in enumerate(children):
        new_frontier = []
        for parent in frontier:
            for length in lengths:
                vid = len(vertices)
                vertices.append(Vertex(vid, generation=gen + 1, boundary=gen == depth))
                edges.append(
                    Edge(
                        id=len(edges),
                        tail=parent,
                        head=vid,
                        length=length,
                        potential=potential,
                        generation=gen,
                    )
                )
                new_frontier.append(vid)
        frontier = new_frontier
    return MetricGraph(vertices, edges, root=0, energy=energy, family_info=info)


def _two_lengths_tree(
    depth: int, *, L1: float, L2: float, k: float = 1.0, energy: float = -1.0
) -> MetricGraph:
    l1, l2 = float(L1), float(L2)
    k, potential, energy = _k_and_energy(k, energy)
    if l1 <= 0 or l2 <= 0:
        raise FamilyParameterError("lengths must be > 0")
    # the root edge has length L1; every later vertex spawns one of each
    return _generation_tree(
        {"L1": l1, "L2": l2, "k": k, "energy": energy},
        [[l1]] + [[l1, l2]] * depth,
        potential,
        energy,
        synchronized=False,
    )


def _millipede(
    depth: int, *, delta: float, legs: int | None = None,
    leg_length: float = 4.0, energy: float = -1.0,
) -> MetricGraph:
    delta = float(delta)
    n_legs = depth if legs is None else int(legs)
    leg_length, energy = float(leg_length), float(energy)
    if delta <= 0:
        raise FamilyParameterError("delta must be > 0")
    if n_legs < 1 or leg_length <= 0:
        raise FamilyParameterError("legs >= 1 and leg_length > 0 required")
    body_potential = energy + 1.0  # V - E = 1 on the body
    leg_potential = energy + delta * delta  # V - E = delta**2 on the legs
    vertices = [Vertex(0, generation=0, boundary=True)]
    edges: list[Edge] = []
    # body vertices at positions 2, 4, ..., 2*(n_legs+1); legs hang at the
    # interior ones (spacing 2 between leg vertices)
    for j in range(1, n_legs + 2):
        vertices.append(
            Vertex(j, generation=j, boundary=(j == n_legs + 1))
        )
        edges.append(
            Edge(
                id=len(edges),
                tail=j - 1,
                head=j,
                length=2.0,
                potential=body_potential,
                generation=j - 1,
            )
        )
    next_vid = n_legs + 2
    for j in range(1, n_legs + 1):
        vertices.append(Vertex(next_vid, generation=j, boundary=True))
        edges.append(
            Edge(
                id=len(edges),
                tail=j,
                head=next_vid,
                length=leg_length,
                potential=leg_potential,
                generation=j,
            )
        )
        next_vid += 1
    info = FamilyInfo(
        params={
            "delta": delta,
            "legs": n_legs,
            "leg_length": leg_length,
            "energy": energy,
        },
    )
    return MetricGraph(vertices, edges, root=0, energy=energy, family_info=info)


def _ladder(
    depth: int, *, w: float, rungs: int | None = None, energy: float = -1.0,
    rung_potential: float | None = None,
) -> MetricGraph:
    w = float(w)
    n_rungs = depth if rungs is None else int(rungs)
    energy = float(energy)
    if w <= 0:
        raise FamilyParameterError("rung length w must be > 0")
    if n_rungs < 1:
        raise FamilyParameterError("rungs >= 1 required")
    rail_potential = energy + 1.0  # V - E = 1 on the rails
    rung_v = rail_potential if rung_potential is None else float(rung_potential)
    core: list[int] = []
    # Two half-line rails joined at the root (position 0); rungs of length w
    # join the rails at integer positions 1..n_rungs.  Rails extend one unit
    # past the last rung's position is not needed: they end at position
    # n_rungs, whose rung vertices form the truncation frontier.
    vertices = [Vertex(0, generation=0, boundary=True)]
    bottom: dict[int, int] = {0: 0}
    top: dict[int, int] = {0: 0}
    next_vid = 1
    for j in range(1, n_rungs + 1):
        last = j == n_rungs
        bottom[j] = next_vid
        vertices.append(Vertex(next_vid, generation=j, boundary=last))
        next_vid += 1
        top[j] = next_vid
        vertices.append(Vertex(next_vid, generation=j, boundary=last))
        next_vid += 1
    edges: list[Edge] = []
    for j in range(n_rungs):
        for rail in (bottom, top):
            edges.append(
                Edge(
                    id=len(edges),
                    tail=rail[j],
                    head=rail[j + 1],
                    length=1.0,
                    potential=rail_potential,
                    generation=j,
                )
            )
    for j in range(1, n_rungs + 1):
        eid = len(edges)
        edges.append(
            Edge(
                id=eid,
                tail=bottom[j],
                head=top[j],
                length=w,
                potential=rung_v,
                generation=j,
            )
        )
        if not (rung_v - energy > 0.0):
            core.append(eid)
    info = FamilyInfo(
        params={"w": w, "rungs": n_rungs, "energy": energy},
    )
    return MetricGraph(
        vertices, edges, root=0, energy=energy, core_edges=core, family_info=info
    )


def _braided(
    depth: int, *, b_seq: Sequence[int], a_seq: Sequence[int],
    v_seq: Sequence[float], k: float = 1.0, energy: float = -1.0,
    root_edges: int | None = None,
) -> MetricGraph:
    b_seq = [int(b) for b in b_seq]
    a_seq = [int(a) for a in a_seq]
    v_seq = [float(v) for v in v_seq]
    k, potential, energy = _k_and_energy(k, energy)
    root_edges = int((a_seq[0] if a_seq else 1) if root_edges is None else root_edges)
    if len(v_seq) < depth or len(b_seq) < depth - 1 or len(a_seq) < depth:
        raise FamilyParameterError(
            "need v_seq/a_seq of length >= depth and b_seq of length >= depth-1"
        )
    if any(b < 2 for b in b_seq[: depth - 1]):
        raise FamilyParameterError("braided ongoing branching b_j must be >= 2")
    if any(a < 1 for a in a_seq[:depth]):
        raise FamilyParameterError("braided arriving branching a_j must be >= 1")
    if any(v2 <= v1 for v1, v2 in zip([0.0] + v_seq, v_seq)):
        raise FamilyParameterError("v_seq must be strictly increasing from 0")
    if root_edges < 1 or root_edges % a_seq[0] != 0:
        raise FamilyParameterError("root_edges must be a positive multiple of a_1")

    vertices = [Vertex(0, generation=0, boundary=True)]
    edges: list[Edge] = []
    next_vid = 1
    positions = [0.0] + v_seq[:depth]
    # stubs: outgoing edge endpoints of the previous generation, in order
    stubs = [0] * root_edges
    for gen in range(depth):
        a = a_seq[gen]
        if len(stubs) % a != 0:
            raise FamilyParameterError(
                f"generation {gen + 1}: {len(stubs)} arriving edges not "
                f"divisible by a_{gen + 1} = {a}"
            )
        n_vertices = len(stubs) // a
        last = gen == depth - 1
        gen_vids = []
        for _ in range(n_vertices):
            vertices.append(Vertex(next_vid, generation=gen + 1, boundary=last))
            gen_vids.append(next_vid)
            next_vid += 1
        length = positions[gen + 1] - positions[gen]
        for i, parent in enumerate(stubs):
            edges.append(
                Edge(
                    id=len(edges),
                    tail=parent,
                    head=gen_vids[i // a],
                    length=length,
                    potential=potential,
                    generation=gen,
                )
            )
        if not last:
            b = b_seq[gen]
            stubs = [vid for vid in gen_vids for _ in range(b)]
    info = FamilyInfo(
        params={
            "b_seq": b_seq,
            "a_seq": a_seq,
            "v_seq": v_seq,
            "k": k,
            "energy": energy,
            "root_edges": root_edges,
        },
        positions=tuple(positions),
        arriving=tuple(a_seq[:depth]),
        ongoing=tuple(b_seq[: depth - 1]) + (0,),
        root_edges=root_edges,
    )
    return MetricGraph(vertices, edges, root=0, energy=energy, family_info=info)


# canonical family name -> graph builder; a family's params are its
# builder's keyword-only arguments, required when they have no default
FAMILIES = {
    "regular_tree": _regular_tree,
    "ns_regular_tree": _ns_regular_tree,
    "two_lengths_tree": _two_lengths_tree,
    "millipede": _millipede,
    "ladder": _ladder,
    "braided": _braided,
}


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def truncate(graph: MetricGraph, radius: float) -> MetricGraph:
    """Clip the graph to all points within arc-length ``radius`` of the root.

    Edges cut mid-span gain a fresh degree-1 terminal vertex flagged as
    boundary.  Idempotent, and monotone in ``radius`` as an edge set with
    clipped lengths.
    """
    if radius < graph.ell_min:
        raise GraphValidationError("radius must be >= the minimum edge length")
    dist = graph.arc_distances()
    tol = 1e-12 * max(radius, 1.0)
    kept_edges: list[Edge] = []
    new_vertices: list[Vertex] = []
    next_vid = max(v.id for v in graph.vertices) + 1
    next_eid = max(e.id for e in graph.edges) + 1
    changed = False
    lost_edge: set[int] = set()
    for e in graph.edges:
        du, dv = dist[e.tail], dist[e.head]
        if du + dv + e.length <= 2 * radius + tol:
            kept_edges.append(e)
            continue
        changed = True
        lost_edge.update((e.tail, e.head))
        span_u = radius - du
        span_v = radius - dv
        if span_u > tol:
            new_vertices.append(
                Vertex(next_vid, generation=e.generation, boundary=True)
            )
            kept_edges.append(
                Edge(
                    id=e.id,
                    tail=e.tail,
                    head=next_vid,
                    length=span_u,
                    potential=e.potential,
                    generation=e.generation,
                )
            )
            next_vid += 1
        if span_v > tol:
            new_vertices.append(
                Vertex(next_vid, generation=e.generation, boundary=True)
            )
            kept_edges.append(
                Edge(
                    id=next_eid,
                    tail=e.head,
                    head=next_vid,
                    length=span_v,
                    potential=e.potential,
                    generation=e.generation,
                )
            )
            next_vid += 1
            next_eid += 1
    if not changed:
        return graph
    kept_vids = {v.id for v in graph.vertices if dist[v.id] <= radius + tol}
    vertices = [
        Vertex(v.id, v.generation, boundary=v.boundary or v.id in lost_edge)
        for v in graph.vertices
        if v.id in kept_vids
    ] + new_vertices
    core = {e.id for e in kept_edges} & graph.core_edges
    g = MetricGraph(
        vertices,
        kept_edges,
        root=graph.root,
        energy=graph.energy,
        core_edges=core,
        family_info=None,
    )
    g.validate()
    return g
