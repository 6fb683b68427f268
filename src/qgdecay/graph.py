"""Rooted metric graphs with per-edge constant potentials.

A graph is a set of vertices joined by edges of positive length.  Each edge
carries one constant potential value; the graph carries one energy value E.
Generators for the standard infinite families (trees, millipede, ladder,
braided graphs) produce finite truncations whose frontier vertices are
flagged ``boundary`` so that vertex-condition checks skip them.

A built graph is arrays (``arrays.GraphArrays``): per edge tail and head
(vertex positions), length, potential and generation, per vertex generation
and boundary, and a CSR incidence in edge order.  The family builders fill
them from id formulas, ids being positions.  ``vertices``, ``edges``,
``vertex_by_id``, ``edge_by_id`` and ``incidence`` are views: ``len()``
makes no object, a lookup one, and a full read makes and keeps them all.
A graph made from Vertex and Edge objects keeps them as its views.  The
whole-graph stages run on the arrays, in ``qgdecay.arrays``; a
``GenerationTable`` is a few objects and keeps its own loops.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np


class NumpyMissingError(ImportError):
    """numpy cannot be imported, and a built graph needs it."""


def _numpy():
    """numpy, imported on first use: only built graphs (here and in
    qgdecay.arrays) need it, so a generation table never loads it, nor its
    0.1 s of start-up and 13 MB of peak RSS."""
    try:
        import numpy
    except ImportError as exc:
        raise NumpyMissingError(f"a built graph needs numpy: {exc}") from exc
    return numpy


def _arrays():
    """qgdecay.arrays, the array layer of built graphs, imported on first
    use: a verify on a generation table loads none of its code."""
    from . import arrays

    return arrays


class GraphValidationError(ValueError):
    """A graph spec violated a structural invariant (message names the id)."""


@dataclass(frozen=True, slots=True)
class Vertex:
    id: int
    generation: int | None = None
    boundary: bool = False


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    tail: int
    head: int
    length: float
    potential: float
    generation: int | None = None


def edge_action_weight(edge: Edge, energy: float) -> float:
    """Action of one constant-potential edge: sqrt((V - E)_+) * L."""
    return math.sqrt(max(edge.potential - energy, 0.0)) * edge.length


@dataclass(frozen=True)
class FamilyInfo:
    """Generation bookkeeping for generated families.

    ``positions``/``arriving``/``ongoing`` are set only for families with
    synchronized generations (regular, generation-regular and braided trees);
    they drive the GenerationTable and the averaged wave function.
    ``positions[j]`` is the arc distance of generation-j vertices, with
    ``positions[0] == 0`` the root.
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
        """From Vertex and Edge objects, which it keeps as its views."""
        self._setup(root, energy, core_edges, family_info)
        _arrays().hold_objects(self, tuple(vertices), tuple(edges))

    @classmethod
    def from_arrays(
        cls, tail, head, length, potential, generation, vertex_generation,
        boundary, root: int, energy: float, core_edges: Iterable[int] = (),
        family_info: FamilyInfo | None = None,
    ) -> MetricGraph:
        """A graph whose vertex and edge ids are their positions, from its
        columns (see ``arrays.GraphArrays``); a length or potential may be
        one number."""
        g = cls.__new__(cls)
        g._setup(root, energy, core_edges, family_info)
        _arrays().hold_columns(g, tail, head, length, potential, generation,
                               vertex_generation, boundary)
        return g

    def _setup(self, root, energy, core_edges, family_info) -> None:
        self.root = root
        self.energy = float(energy)
        self.core_edges = frozenset(core_edges)
        self.family_info = family_info
        self._distances: dict = {}  # by energy, None for lengths

    # A graph is its own quotient: each edge and vertex is its own class
    # (see GenerationTable).

    def edge_count(self, eid: int) -> int:
        return 1

    def vertex_count(self, vid: int) -> int:
        return 1

    def incident_count(self, vid: int, eid: int) -> int:
        return 1

    def degree(self, vid: int) -> int:
        deg = 0
        for eid in self.incidence[vid]:
            e = self.edge_by_id[eid]
            deg += 2 if e.tail == e.head else 1
        return deg

    def interior_vertex_ids(self) -> list[int]:
        """Vertices where vertex conditions are checkable: not the root, not
        boundary-flagged, degree at least 2."""
        return _arrays().interior_vertex_ids(self)

    def non_core_potentials(self) -> list[float]:
        """The potentials of the non-core edges in edge order, each bit
        pattern once: all that a min() over those edges reads."""
        return _arrays().non_core_potentials(self)

    def validate(self) -> None:
        _arrays().validate(self)

    def _check_edge(self, e: Edge) -> None:
        for end in (e.tail, e.head):
            if end not in self.vertex_by_id:
                raise GraphValidationError(
                    f"edge {e.id}: dangling endpoint {end}"
                )
        if not (e.length > 0.0) or not math.isfinite(e.length):
            raise GraphValidationError(f"edge {e.id}: non-positive length")
        if not math.isfinite(e.potential):
            raise GraphValidationError(
                f"edge {e.id}: non-finite potential {e.potential}"
            )

    def _check_gap(self, e: Edge) -> None:
        if e.id not in self.core_edges and not (e.potential - self.energy > 0.0):
            raise GraphValidationError(
                f"edge {e.id}: V - E = {e.potential - self.energy} <= 0 "
                "outside the designated core"
            )

    def distances(self, energy: float | None = None) -> Mapping[int, float]:
        """Shortest distance from the root of each vertex reached, each edge
        weighted by its length, or by its action (``edge_action_weight``)
        at ``energy`` if one is given: one read-only memo, shared by every
        caller (on a built graph an ``arrays.Distances``).  Where every
        action weight is its edge's length (V - E = 1), it is the length
        table itself."""
        key = None if energy is None else float(energy)
        if key not in self._distances:
            weights, lengths = self._weights(key), self._weights(None)
            same = key is not None and (weights == lengths if isinstance(weights, list)
                                        else _numpy().array_equal(weights, lengths))
            self._distances[key] = self.distances() if same else self._pass(weights)
        return self._distances[key]

    def _weights(self, energy: float | None) -> Sequence[float]:
        """Each edge's length in edge order, or its action at ``energy``."""
        a, np = self.arrays, _numpy()
        if energy is None:
            return a.length
        return np.sqrt(np.maximum(a.potential - energy, 0.0)) * a.length

    def _pass(self, weights: np.ndarray) -> Mapping[int, float]:
        """The tree pass or the heap (``arrays.distances``)."""
        return _arrays().distances(self, weights)

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
    """Label-setting heap sweep from the root; weights must be nonnegative.
    It looks each weight up at most once."""
    dist = {graph.root: 0.0}
    heap: list[tuple[float, int]] = [(0.0, graph.root)]
    while heap:
        d, vid = heapq.heappop(heap)
        if d > dist[vid]:  # stale: a strictly shorter push came later
            continue
        for eid in graph.incidence[vid]:
            e = graph.edge_by_id[eid]
            other = e.head if e.tail == vid else e.tail
            if dist.get(other, math.inf) <= d:
                continue  # settled: d + w >= d for w >= 0, and NaN reaches nothing
            nd = d + weight[eid]
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


@dataclass(frozen=True, slots=True)
class Generation:
    """One generation of edges of a GenerationTable, all of one ``length``,
    and the vertices they arrive at: ``arriving`` edges end at each new
    vertex, and ``ongoing`` edges leave it for the next generation (0 at the
    frontier)."""

    length: float
    edges: int
    vertices: int
    arriving: int
    ongoing: int
    first_edge: int
    first_vertex: int


class GenerationTable(MetricGraph):
    """The generation quotient of a synchronized family, whose edges of a
    generation share one length, potential and root distance: one row per
    generation, branching as in ``family_info``.  ``expand()`` builds the
    family's graph, with edge and vertex ids running by generation.

    As a MetricGraph the table is the first edge and vertex of each
    generation, each standing for its class (``edge_count``,
    ``vertex_count``, ``incident_count``), held as objects: its stages loop
    over its few classes and read no arrays.
    """

    def __init__(
        self,
        lengths: Sequence[float],
        potential: float,
        energy: float,
        family_info: FamilyInfo,
    ):
        info = family_info
        rows, edges, first_edge, first_vertex = [], info.root_edges, 0, 1
        for gen, (length, a, b) in enumerate(zip(lengths, info.arriving, info.ongoing)):
            if edges % a != 0:
                raise FamilyParameterError(
                    f"generation {gen + 1}: {edges} arriving edges not "
                    f"divisible by a_{gen + 1} = {a}"
                )
            if edges > sys.float_info.max:  # exact: no int-to-float conversion
                raise FamilyParameterError(
                    f"generation {gen} has more edges than a float can count "
                    f"(over {sys.float_info.max:.3e}); use a smaller --depth"
                )
            rows.append(Generation(length, edges, edges // a, a, b,
                                   first_edge, first_vertex))
            first_edge += edges
            first_vertex += edges // a
            edges = edges // a * b
        self.rows = tuple(rows)
        self.potential = potential
        vertices = [Vertex(0, generation=0, boundary=True)] + [
            Vertex(r.first_vertex, generation=g + 1, boundary=r.ongoing == 0)
            for g, r in enumerate(rows)
        ]
        self.vertices = tuple(vertices)
        self.edges = tuple([Edge(r.first_edge, tail.id, r.first_vertex, r.length,
                                 potential, generation=g)
                            for g, (r, tail) in enumerate(zip(rows, vertices))])
        self._setup(0, energy, (), info)
        self.vertex_by_id = {v.id: v for v in self.vertices}
        self.edge_by_id = {e.id: e for e in self.edges}
        incidence: dict[int, list[int]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            incidence[e.tail].append(e.id)
            incidence[e.head].append(e.id)
        self.incidence = {vid: tuple(eids) for vid, eids in incidence.items()}

    def _shape(self, vid: int) -> tuple[int, int, int]:
        """Vertices of ``vid``'s generation, edges arriving at and leaving each."""
        gen = self.vertex_by_id[vid].generation
        if gen == 0:
            return 1, 0, self.family_info.root_edges
        r = self.rows[gen - 1]
        return r.vertices, r.arriving, r.ongoing

    def edge_count(self, eid: int) -> int:
        """Edges of the generation of ``eid``: ids eid, eid + 1, ..."""
        return self.rows[self.edge_by_id[eid].generation].edges

    def vertex_count(self, vid: int) -> int:
        return self._shape(vid)[0]

    def incident_count(self, vid: int, eid: int) -> int:
        """Edges of the generation of ``eid`` at each vertex of ``vid``'s."""
        _, arriving, ongoing = self._shape(vid)
        return arriving if self.edge_by_id[eid].head == vid else ongoing

    def degree(self, vid: int) -> int:
        return sum(self._shape(vid)[1:])

    def interior_vertex_ids(self) -> list[int]:
        return [v.id for v in self.vertices if v.id != self.root
                and not v.boundary and self.degree(v.id) >= 2]

    def non_core_potentials(self) -> list[float]:
        return [e.potential for e in self.edges if e.id not in self.core_edges]

    def validate(self) -> None:
        """Only a table's lengths and potential can be at fault: its ids
        and ends follow from its rows."""
        for e in self.edges:
            self._check_edge(e)
        for e in self.edges:
            self._check_gap(e)

    def _weights(self, energy: float | None) -> list[float]:
        return [e.length if energy is None else edge_action_weight(e, energy)
                for e in self.edges]

    def _pass(self, weights: Sequence[float]) -> dict[int, float]:
        """Per generation ``prev + weight``: the float addition that
        ``MetricGraph._pass`` makes on the expansion, by the tree pass and
        by the heap alike."""
        dist = {self.root: 0.0}
        d = 0.0
        for e, w in zip(self.edges, weights):
            d += w
            if not d < math.inf:  # the heap's rule: inf and NaN reach nothing
                break
            dist[e.head] = d
        return dist

    def expand(self) -> MetricGraph:
        """The family's graph: edge i of a generation leaves vertex i // ongoing
        of the generation before and arrives at vertex i // arriving."""
        np = _numpy()
        tails, heads = [], []
        tail, per_tail = 0, self.family_info.root_edges
        for row in self.rows:
            i = np.arange(row.edges)
            tails.append(tail + i // per_tail)
            heads.append(row.first_vertex + i // row.arriving)
            tail, per_tail = row.first_vertex, row.ongoing
        edges = [r.edges for r in self.rows]
        vertices = [1] + [r.vertices for r in self.rows]
        return MetricGraph.from_arrays(
            np.concatenate(tails), np.concatenate(heads),
            np.repeat([r.length for r in self.rows], edges), self.potential,
            np.repeat(np.arange(len(edges)), edges),
            np.repeat(np.arange(len(vertices)), vertices),
            np.repeat([True] + [r.ongoing == 0 for r in self.rows], vertices),
            root=0, energy=self.energy, family_info=self.family_info,
        )


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
    request (family/params/depth).  Unknown keys and values of the wrong
    type raise GraphValidationError.
    """
    try:
        return _graph_from_spec(spec)
    except (GraphValidationError, FamilyParameterError):
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # int() or float() of a list, an object, null, a word or infinity
        raise GraphValidationError(f"spec: {exc}") from None


def _graph_from_spec(spec: Mapping) -> MetricGraph:
    if "family" in spec:
        _check_keys("spec", spec, _FAMILY_KEYS, _FAMILY_KEYS - {"params"})
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise GraphValidationError("spec params must be a JSON object")
        if not isinstance(spec["family"], str):
            raise GraphValidationError("spec family must be a string")
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
    built = build_family(family, params, depth)
    return built.expand() if isinstance(built, GenerationTable) else built


def build_family(family: str, params: dict, depth: int) -> MetricGraph:
    """What the family's builder makes, validated: the generation table of
    the synchronized trees and braided graphs, the graph of the others."""
    name = family_name(family)
    if name not in FAMILIES:
        raise FamilyParameterError(f"unknown family {family!r}")
    family_arguments(name, params, depth)
    built = FAMILIES[name](depth, **params)
    built.validate()
    return built


def family_arguments(name: str, params: dict, depth: int) -> dict:
    """``params`` bound to the keyword arguments of the builder of family
    ``name``, with the builder's defaults filled in.  Unknown and missing
    params, and a depth below 1, raise FamilyParameterError."""
    if depth < 1:
        raise FamilyParameterError("depth must be >= 1")
    try:
        bound = _signature(FAMILIES[name]).bind(depth, **params)
    except TypeError as exc:
        raise FamilyParameterError(f"{name} params: {exc}") from None
    bound.apply_defaults()
    return bound.arguments


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
) -> GenerationTable:
    b, length = int(b), float(length)
    k, potential, energy = _k_and_energy(k, energy)
    if b < 1:
        raise FamilyParameterError("branching number b must be >= 1")
    if length <= 0:
        raise FamilyParameterError("length must be > 0")
    return _generation_tree(
        {"b": b, "length": length, "k": k, "energy": energy},
        [length] * (depth + 1), [b] * depth, potential, energy,
    )


def _ns_regular_tree(
    depth: int, *, b_seq: Sequence[int], length_seq: Sequence[float],
    k: float = 1.0, energy: float = -1.0,
) -> GenerationTable:
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
        length_seq[: depth + 1], b_seq[:depth], potential, energy,
    )


def _generation_tree(
    params: dict,
    lengths: Sequence[float],
    branching: Sequence[int],
    potential: float,
    energy: float,
) -> GenerationTable:
    """Rooted tree grown breadth first: a root edge of length ``lengths[0]``,
    then ``branching[g - 1]`` edges of length ``lengths[g]`` from each
    generation-g vertex.  The last generation's vertices form the boundary."""
    info = FamilyInfo(
        params=params,
        positions=(0.0, *itertools.accumulate(lengths)),
        arriving=(1,) * len(lengths),
        ongoing=(*branching, 0),
    )
    return GenerationTable(lengths, potential, energy, info)


def _two_lengths_tree(
    depth: int, *, L1: float, L2: float, k: float = 1.0, energy: float = -1.0
) -> MetricGraph:
    l1, l2 = float(L1), float(L2)
    k, potential, energy = _k_and_energy(k, energy)
    if l1 <= 0 or l2 <= 0:
        raise FamilyParameterError("lengths must be > 0")
    # breadth first: edge e joins vertex (e + 1) // 2 to e + 1, whose
    # generation is its bit length; the root edge 0 and odd ids have length
    # L1, even ones L2, and the last generation is the boundary
    np = _numpy()
    v = np.arange(2 << depth)
    e = v[:-1]
    generation = np.frexp(v)[1].astype(np.int64)  # the bit length
    return MetricGraph.from_arrays(
        (e + 1) // 2, e + 1, np.where((e % 2 == 0) & (e > 0), l2, l1),
        potential, generation[1:] - 1, generation, (v == 0) | (v >> depth > 0),
        root=0, energy=energy,
        family_info=FamilyInfo(params={"L1": l1, "L2": l2, "k": k, "energy": energy}),
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
    # body edges of length 2 join positions 0, 2, ..., 2*(n_legs+1); legs
    # hang at the interior ones (spacing 2 between leg vertices)
    info = FamilyInfo(
        params={
            "delta": delta,
            "legs": n_legs,
            "leg_length": leg_length,
            "energy": energy,
        },
    )
    return comb(
        n_legs + 1, n_legs, 2.0, energy + 1.0,  # V - E = 1 on the body
        leg_length, energy + delta * delta,  # V - E = delta**2 on the legs
        energy, info,
    )


def comb(
    spine: int, teeth: int, spine_length: float, spine_potential: float,
    tooth_length: float, tooth_potential: float, energy: float,
    family_info: FamilyInfo,
) -> MetricGraph:
    """A spine path of ``spine`` edges from the root, with a pendant tooth
    at each of its first ``teeth`` vertices after the root.  Spine vertex j
    (id and generation j) is reached by spine edge j - 1 (generation j - 1);
    its tooth, edge spine + j - 1 of generation j, ends at vertex spine + j.
    The root, the last spine vertex and the tooth tips are boundary."""
    np = _numpy()
    j, v = np.arange(1, teeth + 1), np.arange(spine + 1)
    return MetricGraph.from_arrays(
        np.concatenate([v[:-1], j]), np.concatenate([v[1:], spine + j]),
        np.repeat([spine_length, tooth_length], [spine, teeth]),
        np.repeat([spine_potential, tooth_potential], [spine, teeth]),
        np.concatenate([v[:-1], j]), np.concatenate([v, j]),
        np.concatenate([(v == 0) | (v == spine), np.ones(teeth, dtype=bool)]),
        root=0, energy=energy, family_info=family_info,
    )


def _ladder(
    depth: int, *, w: float, rungs: int | None = None, energy: float = -1.0,
    rung_potential: float | None = None,
) -> MetricGraph:
    info = ladder_info(depth, w, rungs, energy)
    w, n, energy = info.params.values()
    rail_potential = energy + 1.0  # V - E = 1 on the rails
    rung_v = rail_potential if rung_potential is None else float(rung_potential)
    # Two rails from the root (position 0) to the frontier at position n;
    # position j >= 1 has vertices 2j - 1 (bottom) and 2j (top), so rail
    # edge e joins max(e - 1, 0) to e + 1, and rung j is edge 2n + j - 1.
    np = _numpy()
    v, j = np.arange(2 * n + 1), np.arange(1, n + 1)
    rails = v[:-1]
    return MetricGraph.from_arrays(
        np.concatenate([np.maximum(rails - 1, 0), 2 * j - 1]),
        np.concatenate([rails + 1, 2 * j]),
        np.repeat([1.0, w], [2 * n, n]), np.repeat([rail_potential, rung_v], [2 * n, n]),
        np.concatenate([rails // 2, j]), (v + 1) // 2, (v == 0) | (v >= 2 * n - 1),
        root=0, energy=energy,
        # rungs at or below the energy form the designated core
        core_edges=() if rung_v - energy > 0.0 else range(2 * n, 3 * n),
        family_info=info,
    )


def ladder_info(depth: int, w: float, rungs: int | None, energy: float) -> FamilyInfo:
    """The ladder's params w, rungs (``depth`` by default) and energy,
    checked; the odd mode's half ladder shares them."""
    w = float(w)
    rungs = depth if rungs is None else int(rungs)
    energy = float(energy)
    if w <= 0:
        raise FamilyParameterError("rung length w must be > 0")
    if rungs < 1:
        raise FamilyParameterError("rungs >= 1 required")
    return FamilyInfo(params={"w": w, "rungs": rungs, "energy": energy})


def _braided(
    depth: int, *, b_seq: Sequence[int], a_seq: Sequence[int],
    v_seq: Sequence[float], k: float = 1.0, energy: float = -1.0,
    root_edges: int | None = None,
) -> GenerationTable:
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

    positions = [0.0] + v_seq[:depth]
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
    return GenerationTable(
        [v2 - v1 for v1, v2 in zip(positions, positions[1:])],
        potential, energy, info,
    )


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
