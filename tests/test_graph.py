import math

import pytest
from hypothesis import given, settings, strategies as st

from qgdecay.eigenfunctions import CONSTRUCTORS
from qgdecay.graph import (
    FAMILIES,
    FamilyParameterError,
    GraphValidationError,
    MetricGraph,
    Edge,
    Vertex,
    build_graph,
    generate_family,
    truncate,
)


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
        cases = [
            ("regular_tree", {"b": 3}),
            ("ns_regular_tree", {"b_seq": [2, 3, 2], "length_seq": [1.0, 0.5, 1.5, 1.0]}),
            ("two_lengths_tree", {"L1": 1.0, "L2": 2.0}),
            ("millipede", {"delta": 0.2}),
            ("ladder", {"w": 1.5}),
            ("braided", {"b_seq": [4, 4], "a_seq": [2, 2], "v_seq": [1.0, 2.5]}),
        ]
        # every family in the table is covered here and has a constructor
        assert sorted(name for name, _ in cases) == sorted(FAMILIES) == sorted(CONSTRUCTORS)
        for name, params in cases:
            g = generate_family(name, params, depth=2)
            g.validate()  # must not raise


class TestTruncate:
    def test_radius_beyond_extent_is_identity(self):
        g = build_graph(single_edge_spec())
        assert truncate(g, 2.0) is g

    def test_tree_half_edges(self):
        g = generate_family("regular_tree", {"b": 2, "length": 1.0}, depth=5)
        t = truncate(g, 2.5)
        whole = [e for e in t.edges if e.length == 1.0]
        halves = [e for e in t.edges if e.length == 0.5]
        assert len(whole) == 1 + 2  # vertex generations 0-2 intact
        assert len(halves) == 4  # the edges toward generation 3, clipped
        assert all(
            t.vertex_by_id[e.head].boundary for e in halves
        )
        t.validate()

    def test_idempotent(self):
        g = generate_family("regular_tree", {"b": 2, "length": 1.0}, depth=5)
        once = truncate(g, 2.5)
        assert truncate(once, 2.5) is once

    @settings(max_examples=30, deadline=None)
    @given(
        r1=st.floats(min_value=1.0, max_value=6.0),
        r2=st.floats(min_value=1.0, max_value=6.0),
    )
    def test_monotone_in_radius(self, r1, r2):
        if r1 > r2:
            r1, r2 = r2, r1
        g = generate_family("regular_tree", {"b": 2, "length": 1.0}, depth=5)
        small = truncate(g, r1)
        large = truncate(g, r2)
        large_lengths = {e.id: e.length for e in large.edges}
        for e in small.edges:
            if e.id in large_lengths:
                assert e.length <= large_lengths[e.id] + 1e-12
            else:
                # fresh stub ids only appear for the second clip of an edge
                assert e.length <= 1.0

    def test_loop_edge_clipping(self):
        # stub to vertex 1, then a length-4 loop there: clipping at radius
        # 1.5 keeps two loop stubs of length 1 each
        g = MetricGraph(
            [Vertex(0), Vertex(1)],
            [Edge(0, 0, 1, 0.5, 1.0), Edge(1, 1, 1, 4.0, 1.0)],
            root=0,
            energy=0.0,
        )
        t = truncate(g, 1.5)
        assert sorted(e.length for e in t.edges) == [0.5, 1.0, 1.0]
        t.validate()

    def test_radius_below_minimum_edge_length(self):
        g = build_graph(single_edge_spec())
        with pytest.raises(GraphValidationError):
            truncate(g, 0.5)
