import heapq
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from qgdecay.eigenfunctions import CONSTRUCTORS
from qgdecay.graph import (
    FAMILIES,
    Edge,
    FamilyInfo,
    FamilyParameterError,
    GraphValidationError,
    MetricGraph,
    Vertex,
    build_graph,
    comb,
    dijkstra,
    generate_family,
    keyword_params,
)
from qgdecay.metrics import edge_action_weight

# one small graph per family
FAMILY_CASES = [
    ("regular_tree", {"b": 3}),
    ("ns_regular_tree", {"b_seq": [2, 3, 2], "length_seq": [1.0, 0.5, 1.5, 1.0]}),
    ("two_lengths_tree", {"L1": 1.0, "L2": 2.0}),
    ("millipede", {"delta": 0.2}),
    ("ladder", {"w": 1.5}),
    ("braided", {"b_seq": [4, 4], "a_seq": [2, 2, 2], "v_seq": [1.0, 2.5, 3.0]}),
]


def single_edge_spec():
    return {
        "vertices": [{"id": 0}, {"id": 1}],
        "edges": [
            {"id": 0, "tail": 0, "head": 1, "length": 1.0, "potential": 2.0}
        ],
        "root": 0,
        "energy": 1.0,
    }


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(single_edge_spec())
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        assert g.energy == 1.0

    def test_zero_length_rejected(self):
        spec = single_edge_spec()
        spec["edges"][0]["length"] = 0.0
        with pytest.raises(GraphValidationError, match="non-positive length"):
            build_graph(spec)

    def test_dangling_endpoint_reports_id(self):
        spec = single_edge_spec()
        spec["edges"][0]["head"] = 7
        with pytest.raises(GraphValidationError, match="7"):
            build_graph(spec)

    def test_duplicate_vertex_id(self):
        spec = single_edge_spec()
        spec["vertices"].append({"id": 0})
        with pytest.raises(GraphValidationError, match="duplicate vertex id 0"):
            build_graph(spec)

    def test_duplicate_edge_id(self):
        spec = single_edge_spec()
        spec["vertices"].append({"id": 2})
        spec["edges"].append(
            {"id": 0, "tail": 1, "head": 2, "length": 1.0, "potential": 2.0}
        )
        with pytest.raises(GraphValidationError, match="duplicate edge id 0"):
            build_graph(spec)

    def test_disconnected_component(self):
        spec = single_edge_spec()
        spec["vertices"] += [{"id": 2}, {"id": 3}]
        spec["edges"].append(
            {"id": 1, "tail": 2, "head": 3, "length": 1.0, "potential": 2.0}
        )
        with pytest.raises(GraphValidationError, match="disconnected"):
            build_graph(spec)

    def test_unknown_keys_rejected(self):
        spec = single_edge_spec()
        spec["color"] = "red"
        with pytest.raises(GraphValidationError, match="unknown spec keys"):
            build_graph(spec)
        spec = single_edge_spec()
        spec["edges"][0]["weight"] = 3
        with pytest.raises(GraphValidationError, match="unknown edge keys"):
            build_graph(spec)

    def test_forbidden_region_requires_positive_gap(self):
        spec = single_edge_spec()
        spec["edges"][0]["potential"] = 1.0  # V == E
        with pytest.raises(GraphValidationError, match="V - E"):
            build_graph(spec)

    def test_family_spec_document(self):
        g = build_graph(
            {"family": "regular_tree", "params": {"b": 2}, "depth": 3}
        )
        assert len(g.edges) == 15

    def test_ladder_rung_vertices_have_degree_3(self):
        # structural count: interior rung endpoints meet rail-in, rail-out
        # and the rung itself
        g = build_graph({"family": "ladder", "params": {"w": 1.0}, "depth": 5})
        interior = [
            v.id
            for v in g.vertices
            if v.generation not in (0, 5) and v.id != g.root
        ]
        assert interior
        for vid in interior:
            assert g.degree(vid) == 3


# JSON leaves kept small: build_graph expands families, so integers, and
# floats and words that int() accepts, stay in -2..4
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from([-1.5, 0.0, 0.5, 2.0, math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "x", "2", "-1", "0.5", "nan", "regular-tree"]),
)
EDGE_KEYS = ["id", "tail", "head", "length", "potential"]
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(EDGE_KEYS), inner, max_size=4),
    max_leaves=12,
)
# mostly values a family accepts, so that some documents build
PARAM_VALUES = st.one_of(
    st.integers(1, 4), st.floats(0.25, 3.0),
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.lists(st.floats(0.25, 3.0), min_size=1, max_size=5).map(sorted),
    JSON_VALUES,
)


@st.composite
def spec_documents(draw):
    """Family requests and explicit graphs, with a value of any JSON type,
    a key left out or a key added now and then."""

    def now_and_then():  # about one draw in eight
        return draw(st.sampled_from(range(8))) == 7

    def mostly(value, other):
        return draw(other) if now_and_then() else value

    if draw(st.booleans()):
        family = draw(st.sampled_from([*FAMILIES, "regular-tree", "nope"]))
        names = keyword_params(FAMILIES.get(family, FAMILIES["ladder"]))
        params = {key: draw(PARAM_VALUES) for key in names if not now_and_then()}
        doc = {
            "family": mostly(family, JSON_LEAVES),
            "params": mostly(params, JSON_LEAVES),
            "depth": mostly(draw(st.integers(1, 4)), st.integers(-2, 0) | JSON_LEAVES),
        }
    else:
        ints = st.integers(0, 3)
        n = draw(st.integers(1, 4))
        doc = {
            "vertices": [{"id": mostly(v, JSON_VALUES)} for v in range(n)],
            "edges": [{
                "id": mostly(eid, JSON_VALUES),
                "tail": mostly(draw(ints), JSON_VALUES),
                "head": mostly(draw(ints), JSON_VALUES),
                "length": mostly(draw(st.floats(0.5, 2.0)), JSON_VALUES),
                "potential": mostly(draw(st.floats(0.5, 2.0)), JSON_VALUES),
            } for eid in range(draw(st.integers(0, 4)))],
            "root": mostly(draw(ints), JSON_LEAVES),
            "energy": mostly(draw(st.floats(-2.0, 0.0)), JSON_LEAVES),
        }
    if now_and_then():
        del doc[draw(st.sampled_from(sorted(doc)))]
    if now_and_then():
        doc["extra"] = 1
    return doc


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(spec_documents())
    def test_builds_or_raises_a_spec_error(self, doc):
        try:
            graph = build_graph(doc)
        except (GraphValidationError, FamilyParameterError):
            return
        assert isinstance(graph, MetricGraph)

    @pytest.mark.parametrize("doc,needle", [
        ({"family": "regular-tree", "params": {"b": [1]}, "depth": 2}, "int()"),
        ({"family": "regular-tree", "params": {"b": 2}, "depth": None}, "int()"),
        ({"family": "regular-tree", "params": {"b": 2, "k": {}}, "depth": 2},
         "float()"),
        ({"family": "ns-regular-tree", "params": {"b_seq": 2, "length_seq": [1]},
          "depth": 1}, "not iterable"),
        ({"family": "regular-tree", "params": {"b": "two"}, "depth": 2}, "'two'"),
        ({"family": "regular-tree", "params": {"b": math.inf}, "depth": 2},
         "infinity"),
        ({"family": 5, "params": {}, "depth": 2}, "family must be a string"),
        ({**single_edge_spec(), "energy": [1.0]}, "float()"),
        ({**single_edge_spec(), "root": None}, "int()"),
    ])
    def test_wrong_json_types_are_spec_errors(self, doc, needle):
        with pytest.raises(GraphValidationError) as exc:
            build_graph(doc)
        assert needle in str(exc.value)


class TestGenerators:
    def test_regular_tree_edge_count(self):
        g = generate_family("regular_tree", {"b": 2, "length": 1.0}, depth=3)
        assert len(g.edges) == 1 + 2 + 4 + 8
        for gen in range(4):
            assert sum(1 for e in g.edges if e.generation == gen) == 2**gen

    def test_regular_tree_b1_is_path(self):
        g = generate_family("regular_tree", {"b": 1}, depth=6)
        assert len(g.edges) == 7
        degrees = sorted(g.degree(v.id) for v in g.vertices)
        assert degrees == [1, 1] + [2] * 6

    def test_braided_matches_regular_tree_edges(self):
        depth = 5
        tree = generate_family("regular_tree", {"b": 2, "length": 1.0}, depth - 1)
        braided = generate_family(
            "braided",
            {
                "b_seq": [2] * depth,
                "a_seq": [1] * depth,
                "v_seq": [float(j) for j in range(1, depth + 1)],
            },
            depth,
        )
        key = lambda e: (e.length, e.potential)
        assert sorted(map(key, tree.edges)) == sorted(map(key, braided.edges))

    def test_ladder_counts(self):
        n = 7
        g = generate_family("ladder", {"w": 0.5}, depth=n)
        rails = [e for e in g.edges if e.length == 1.0]
        rungs = [e for e in g.edges if e.length == 0.5]
        assert len(rungs) == n
        assert len(rails) == 2 * n

    def test_millipede_structure(self):
        g = generate_family("millipede", {"delta": 0.1, "legs": 6}, depth=6)
        body = [e for e in g.edges if e.length == 2.0]
        legs = [e for e in g.edges if e.length != 2.0]
        assert len(body) == 7 and len(legs) == 6
        for e in legs:
            assert math.isclose(e.potential - g.energy, 0.01)
            assert g.degree(e.head) == 1

    def test_comb_layout(self):
        # spine 0 -> 1 -> 2 -> 3, teeth at spine vertices 1 and 2
        g = comb(3, 2, 2.0, 1.0, 0.5, 0.25, 0.0, FamilyInfo())
        assert [(e.id, e.tail, e.head, e.length, e.potential, e.generation)
                for e in g.edges] == [
            (0, 0, 1, 2.0, 1.0, 0), (1, 1, 2, 2.0, 1.0, 1),
            (2, 2, 3, 2.0, 1.0, 2), (3, 1, 4, 0.5, 0.25, 1),
            (4, 2, 5, 0.5, 0.25, 2),
        ]
        assert [(v.id, v.generation, v.boundary) for v in g.vertices] == [
            (0, 0, True), (1, 1, False), (2, 2, False), (3, 3, True),
            (4, 1, True), (5, 2, True),
        ]
        g.validate()

    # depths 1-6, and one whose ids pass 256, the largest int CPython
    # caches: a head shares its vertex's id object only if the builder
    # indexes one list of ids (2.2 MB of peak RSS on 32,767 edges)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 9])
    def test_two_lengths_tree_id_formulas(self, depth):
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, depth)
        assert [v.id for v in g.vertices] == list(range(2 ** (depth + 1)))
        for v in g.vertices:
            assert v.generation == v.id.bit_length()
            assert v.boundary == (v.id == 0 or v.id >= 2 ** depth)
        assert [e.id for e in g.edges] == list(range(len(g.vertices) - 1))
        for e in g.edges:
            assert (e.tail, e.head) == ((e.id + 1) // 2, e.id + 1)
            assert e.length == (2.0 if e.id and e.id % 2 == 0 else 1.0)
            assert e.generation == (e.id + 1).bit_length() - 1
            assert e.head is g.vertices[e.head].id
            assert e.tail is g.vertices[e.tail].id

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 200])
    def test_ladder_id_formulas(self, depth):
        n = depth
        g = generate_family("ladder", {"w": 0.5}, depth)
        assert [v.id for v in g.vertices] == list(range(2 * n + 1))
        for v in g.vertices:
            assert v.generation == (v.id + 1) // 2
            assert v.boundary == (v.id == 0 or v.id >= 2 * n - 1)
        assert [e.id for e in g.edges] == list(range(3 * n))
        for e in g.edges[: 2 * n]:  # rails: bottom even ids, top odd ids
            assert (e.tail, e.head) == (max(e.id - 1, 0), e.id + 1)
            assert (e.length, e.generation) == (1.0, e.id // 2)
        for j, e in enumerate(g.edges[2 * n:], start=1):  # rung j
            assert (e.tail, e.head) == (2 * j - 1, 2 * j)
            assert (e.length, e.generation) == (0.5, j)
        for e in g.edges:
            assert e.head is g.vertices[e.head].id
            assert e.tail is g.vertices[e.tail].id

    def test_braided_theta_chain(self):
        g = generate_family(
            "braided",
            {"b_seq": [2, 2], "a_seq": [2, 2], "v_seq": [1.0, 2.0]},
            depth=2,
        )
        # two parallel edges between consecutive generation vertices
        assert len(g.edges) == 4
        assert len(g.vertices) == 3

    def test_invalid_parameters(self):
        with pytest.raises(FamilyParameterError):
            generate_family("regular_tree", {"b": 0}, depth=3)
        with pytest.raises(FamilyParameterError):
            generate_family("regular_tree", {"b": 2, "length": -1.0}, depth=3)
        with pytest.raises(FamilyParameterError):
            generate_family("ladder", {"w": 0.0}, depth=3)
        with pytest.raises(FamilyParameterError):
            generate_family("millipede", {"delta": 0.0}, depth=3)
        with pytest.raises(FamilyParameterError):
            generate_family(
                "braided",
                {"b_seq": [1, 2], "a_seq": [1, 1], "v_seq": [1.0, 2.0]},
                depth=2,
            )
        with pytest.raises(FamilyParameterError):
            generate_family("no_such_family", {}, depth=3)
        with pytest.raises(FamilyParameterError):
            generate_family("regular_tree", {"b": 2}, depth=0)

    def test_generated_families_validate(self):
        # every family in the table is covered here and has a constructor
        assert (sorted(name for name, _ in FAMILY_CASES) == sorted(FAMILIES)
                == sorted(CONSTRUCTORS))
        for name, params in FAMILY_CASES:
            g = generate_family(name, params, depth=2)
            g.validate()  # must not raise


def heap_dijkstra(graph, weight):
    """The label-setting heap loop, as the oracle for every graph."""
    dist = {graph.root: 0.0}
    heap = [(0.0, graph.root)]
    while heap:
        d, vid = heapq.heappop(heap)
        if d > dist[vid]:
            continue
        for eid in graph.incidence[vid]:
            e = graph.edge_by_id[eid]
            w = weight[eid]
            other = e.head if e.tail == vid else e.tail
            nd = d + w
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


def bits(dist):
    return {vid: struct.pack("<d", d) for vid, d in dist.items()}


WEIGHTS = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan]),
    st.floats(min_value=5e-324, allow_infinity=False),
)


@st.composite
def weighted_graphs(draw):
    """A random forest, plus extra edges that may close cycles, double an
    edge or loop at a vertex; edges in random order and orientation, each
    weighted by its length."""
    n = draw(st.integers(1, 10))
    ends = [
        (draw(st.integers(0, v - 1)), v)
        for v in range(1, n)
        if draw(st.integers(0, 4))  # about one vertex in five starts a tree
    ]
    ends += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3
    ))
    ends = [end[::-1] if draw(st.booleans()) else end
            for end in draw(st.permutations(ends))]
    edges = [Edge(eid, tail, head, draw(WEIGHTS), 0.0)
             for eid, (tail, head) in enumerate(ends)]
    graph = MetricGraph([Vertex(v) for v in range(n)], edges,
                        root=draw(st.integers(0, n - 1)), energy=0.0)
    return graph, {e.id: e.length for e in edges}


class TestDijkstra:
    """``graph.distances`` takes the breadth-first pass where the root's
    component is a tree and the heap elsewhere; both give the oracle's
    floats."""

    @settings(max_examples=400, deadline=None)
    @given(weighted_graphs())
    def test_matches_the_heap_bit_for_bit(self, case):
        graph, weight = case
        expected = bits(heap_dijkstra(graph, weight))
        assert bits(dijkstra(graph, weight)) == expected
        assert bits(graph.distances()) == expected

    @pytest.mark.parametrize("name,params", FAMILY_CASES,
                             ids=[name for name, _ in FAMILY_CASES])
    def test_families_match_the_heap_bit_for_bit(self, name, params):
        g = generate_family(name, params, depth=3)
        # lengths, then actions; E + 2.0 zeroes every action weight
        for energy in (None, g.energy, g.energy + 0.5, g.energy + 2.0):
            weight = {e.id: e.length if energy is None
                      else edge_action_weight(e, energy) for e in g.edges}
            expected = bits(heap_dijkstra(g, weight))
            assert bits(dijkstra(g, weight)) == expected
            assert bits(g.distances(energy)) == expected
