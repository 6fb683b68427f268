import contextlib
import io
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from qgdecay.cli import main
from qgdecay.eigenfunctions import construct
from qgdecay.graph import (
    Edge,
    GenerationTable,
    MetricGraph,
    Vertex,
    build_family,
    dijkstra,
    generate_family,
)
from qgdecay.metrics import (
    PathSpec,
    compute_rho_a,
    edge_action_weight,
    insert_cut_points,
)
from qgdecay.verify import Multiplier, MultiplierSpec, averaged_multiplier

from points import GraphPoint, eval_rho_a


def chain_graph(n, length=1.0, potential=1.0, energy=0.0):
    vertices = [Vertex(i) for i in range(n + 1)]
    edges = [Edge(i, i, i + 1, length, potential) for i in range(n)]
    return MetricGraph(vertices, edges, root=0, energy=energy)


class TestEdgeActionWeight:
    def test_unit_gap(self):
        assert edge_action_weight(Edge(0, 0, 1, 3.0, 2.0), 1.0) == 3.0

    def test_zero_gap(self):
        assert edge_action_weight(Edge(0, 0, 1, 5.0, 1.0), 1.0) == 0.0
        assert edge_action_weight(Edge(0, 0, 1, 5.0, 0.0), 1.0) == 0.0

    def test_k_two(self):
        assert edge_action_weight(Edge(0, 0, 1, 0.5, 5.0), 1.0) == 1.0


class TestComputeRhoA:
    def test_path_graph(self):
        g = chain_graph(5)
        table = compute_rho_a(g)
        for i in range(6):
            assert table.rho[i] == float(i)
            assert table.arc[i] == float(i)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, energy):
        # Dijkstra would never settle a vertex across a NaN weight
        with pytest.raises(ValueError, match="energy must be finite"):
            compute_rho_a(chain_graph(3), energy=energy)

    def test_cycle_takes_min(self):
        g = MetricGraph(
            [Vertex(0), Vertex(1)],
            [Edge(0, 0, 1, 2.0, 1.0), Edge(1, 0, 1, 3.0, 1.0)],
            root=0,
            energy=0.0,
        )
        table = compute_rho_a(g)
        assert table.rho[1] == 2.0

    def test_regular_tree_generations(self):
        k = 0.7
        g = generate_family("regular_tree", {"b": 3, "length": 1.5, "k": k}, 4)
        table = compute_rho_a(g)
        for v in g.vertices:
            assert math.isclose(
                table.rho[v.id], v.generation * k * 1.5, rel_tol=1e-12, abs_tol=1e-12
            )

    def test_root_is_zero_and_triangle_inequality(self):
        g = generate_family("ladder", {"w": 0.75}, 6)
        table = compute_rho_a(g)
        assert table.rho[g.root] == 0.0
        for e in g.edges:
            assert (
                abs(table.rho[e.head] - table.rho[e.tail])
                <= edge_action_weight(e, table.energy) + 1e-12
            )

    def test_monotone_in_energy(self):
        g = generate_family("regular_tree", {"b": 2, "k": 1.0}, 4)
        energies = [-2.0, -1.5, -1.0, -0.5]
        tables = [compute_rho_a(g, energy=e) for e in energies]
        for lo, hi in zip(tables, tables[1:]):
            for v in g.vertices:
                assert lo.rho[v.id] >= hi.rho[v.id] - 1e-12

    def test_energies_share_one_arc_table(self):
        g = generate_family("ladder", {"w": 0.75}, 6)
        low, high = compute_rho_a(g), compute_rho_a(g, energy=g.energy + 0.5)
        assert low.rho != high.rho
        assert low.arc is high.arc
        assert low.arc == dijkstra(g, {e.id: e.length for e in g.edges})

    def test_own_energy_table_is_shared(self):
        g = generate_family("regular_tree", {"b": 2, "k": 1.0}, 4)
        table = compute_rho_a(g)
        assert compute_rho_a(g).rho is table.rho
        assert compute_rho_a(g, energy=g.energy).rho is table.rho
        shifted = compute_rho_a(g, energy=g.energy + 0.5)
        assert shifted.rho is not table.rho
        assert compute_rho_a(g, energy=g.energy + 0.5).rho is shifted.rho
        assert shifted.arc is table.arc

    def test_csv_rows_sorted(self):
        g = chain_graph(3)
        rows = compute_rho_a(g).to_csv_rows()
        assert [r[0] for r in rows] == [0, 1, 2, 3]


def bits(dist):
    return {vid: struct.pack("<d", d) for vid, d in dist.items()}


class TestDistanceMemo:
    """``MetricGraph.distances`` is the graph's one memo of root distances."""

    def test_unit_action_is_the_length_table(self):
        # k = 1: every action weight sqrt(V - E) * L is its length L
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 4)
        assert g.distances(g.energy) is g.distances()
        table = compute_rho_a(g)
        assert table.rho is table.arc is g.distances()
        quotient = build_family("regular_tree", {"b": 2}, 4)
        assert isinstance(quotient, GenerationTable)
        assert quotient.distances(quotient.energy) is quotient.distances()

    def test_a_verify_runs_one_distance_pass(self, monkeypatch):
        calls = []
        distance_pass = MetricGraph._pass

        def counting(graph, weights):
            calls.append(graph)
            return distance_pass(graph, weights)

        monkeypatch.setattr(MetricGraph, "_pass", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            main(["verify", "--family", "two-lengths-tree", "--L1", "1",
                  "--L2", "2", "--depth", "4", "--multiplier", "path"])
        assert len(calls) == 1

    @pytest.mark.parametrize("name,params,delta", [
        ("two_lengths_tree", {"L1": 1.0, "L2": 2.0, "k": 2.0}, 0.0),
        ("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 0.5),  # --shift-delta
        ("ladder", {"w": 0.75, "mode": "symmetric"}, 0.0),  # zero-action rungs
    ], ids=["k=2", "shift-delta", "symmetric-ladder"])
    def test_other_weights_take_their_own_pass(self, name, params, delta):
        g = construct(name, params, 4).graph
        energy = MultiplierSpec(delta=delta).effective_energy(g.energy)
        rho, arc = g.distances(energy), g.distances()
        assert rho is not arc
        assert g.distances(energy) is rho
        # a plain Mapping of weights takes the heap
        assert bits(rho) == bits(dijkstra(
            g, {e.id: edge_action_weight(e, energy) for e in g.edges}))
        assert bits(arc) == bits(dijkstra(g, {e.id: e.length for e in g.edges}))


class TestEvalRhoA:
    def test_midpoint_of_steep_edge(self):
        g = MetricGraph(
            [Vertex(0), Vertex(1)],
            [Edge(0, 0, 1, 1.0, 4.0)],
            root=0,
            energy=0.0,
        )
        table = compute_rho_a(g)
        assert eval_rho_a(table, GraphPoint(0, 0.5)) == 1.0

    def test_vertex_matches_table(self):
        g = chain_graph(4)
        table = compute_rho_a(g)
        assert eval_rho_a(table, GraphPoint(2, 1.0)) == table.rho[3]
        assert eval_rho_a(table, GraphPoint(2, 0.0)) == table.rho[2]

    def test_symmetric_ring_interior(self):
        g = MetricGraph(
            [Vertex(0)],
            [Edge(0, 0, 0, 4.0, 1.0)],
            root=0,
            energy=0.0,
        )
        table = compute_rho_a(g)
        assert eval_rho_a(table, GraphPoint(0, 2.0)) == 2.0
        assert eval_rho_a(table, GraphPoint(0, 1.5)) == eval_rho_a(
            table, GraphPoint(0, 2.5)
        )

    def test_off_graph_point(self):
        g = chain_graph(2)
        table = compute_rho_a(g)
        with pytest.raises(KeyError):
            eval_rho_a(table, GraphPoint(9, 0.0))
        with pytest.raises(ValueError):
            eval_rho_a(table, GraphPoint(0, 2.0))


class TestInsertCutPoints:
    def test_tree_unchanged(self):
        g = generate_family("regular_tree", {"b": 2}, 4)
        assert insert_cut_points(g) is g

    def test_loop_gains_one_vertex(self):
        g = MetricGraph(
            [Vertex(0)],
            [Edge(0, 0, 0, 4.0, 1.0)],
            root=0,
            energy=0.0,
        )
        cut = insert_cut_points(g)
        assert len(cut.vertices) == 2
        assert len(cut.edges) == 2
        table = compute_rho_a(cut)
        new_vid = next(v.id for v in cut.vertices if v.id != 0)
        assert table.arc[new_vid] == 2.0

    def test_equidistant_vertex_needs_no_split(self):
        g = MetricGraph(
            [Vertex(0), Vertex(1)],
            [Edge(0, 0, 1, 2.0, 1.0), Edge(1, 0, 1, 2.0, 1.0)],
            root=0,
            energy=0.0,
        )
        assert insert_cut_points(g) is g

    def test_ladder_cut_points_at_rung_midpoints(self):
        n = 4
        w = 1.0
        g = generate_family("ladder", {"w": w}, n)
        arc = g.distances()
        # rung endpoints are equidistant: no edge orientation away from root
        assert any(arc[e.head] == arc[e.tail] for e in g.edges)
        cut = insert_cut_points(g)
        new_vertices = [v for v in cut.vertices if v.id not in g.vertex_by_id]
        assert len(new_vertices) == n
        table = compute_rho_a(cut)
        mids = sorted(table.arc[v.id] for v in new_vertices)
        assert mids == [j + w / 2 for j in range(1, n + 1)]
        arc = cut.distances()
        for e in cut.edges:  # now every edge leads away from the root
            assert arc[e.head] != arc[e.tail]

    def test_idempotent_on_ladder(self):
        g = generate_family("ladder", {"w": 1.0}, 3)
        cut = insert_cut_points(g)
        assert insert_cut_points(cut) is cut

    @settings(max_examples=60, deadline=None)
    @given(
        lengths_a=st.lists(
            st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=4
        ),
        lengths_b=st.lists(
            st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=4
        ),
    )
    def test_asymmetric_cycles_orient_after_cutting(self, lengths_a, lengths_b):
        # two chains from the root to a shared far vertex: the cycle has one
        # equidistant point, possibly interior to an edge, possibly a vertex
        vertices = [Vertex(0), Vertex(1)]
        edges = []
        next_vid = 2

        def add_chain(lengths):
            nonlocal next_vid
            prev = 0
            for i, length in enumerate(lengths):
                last = i == len(lengths) - 1
                head = 1 if last else next_vid
                if not last:
                    vertices.append(Vertex(next_vid))
                    next_vid += 1
                edges.append(Edge(len(edges), prev, head, length, 1.0))
                prev = head

        add_chain(lengths_a)
        add_chain(lengths_b)
        g = MetricGraph(vertices, edges, root=0, energy=0.0)
        g.validate()
        cut = insert_cut_points(g)
        arc = cut.distances()
        for e in cut.edges:  # every edge leads away from the root
            assert arc[e.head] != arc[e.tail]
        # total length is preserved by splitting
        assert math.isclose(
            sum(e.length for e in cut.edges),
            sum(lengths_a) + sum(lengths_b),
            rel_tol=1e-12,
        )


def path_prefactor(path):
    return Multiplier(path.graph, MultiplierSpec(kind="path"), path).prefactor


class TestPathPrefactor:
    # the path multiplier's factor prod sqrt(1 / p) over the vertices passed
    def test_unit_fractions_reduce_to_action(self):
        g = chain_graph(4)
        path = PathSpec(g, (0, 1, 2, 3), (1.0, 1.0, 1.0))
        assert path_prefactor(path) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}

    def test_single_vertex_term_on_zero_action_path(self):
        g = MetricGraph(
            [Vertex(0), Vertex(1), Vertex(2)],
            [Edge(0, 0, 1, 1.0, 0.0), Edge(1, 1, 2, 1.0, 0.0)],
            root=0,
            energy=0.0,
            core_edges=[0, 1],
        )
        path = PathSpec(g, (0, 1), (1.0 / 3.0,))
        pre = path_prefactor(path)
        assert pre[0] == 1.0
        assert math.isclose(math.log(pre[1]), 0.5 * math.log(3.0))

    def test_regular_tree_closed_form(self):
        from qgdecay.eigenfunctions import canonical_path, construct

        b, k, L, depth = 3, 1.0, 1.0, 6
        f = construct("regular_tree", {"b": b, "length": L, "k": k}, depth)
        path = canonical_path(f)
        pre = path_prefactor(path)
        for n, eid in enumerate(path.edges):  # n vertices passed
            assert math.isclose(pre[eid], b ** (n / 2.0), rel_tol=1e-12)

    def test_path_validation(self):
        g = chain_graph(4)
        with pytest.raises(ValueError, match="share a vertex"):
            PathSpec(g, (0, 3), (1.0,))
        with pytest.raises(ValueError, match="fraction"):
            PathSpec(g, (0, 1), (0.0,))
        with pytest.raises(ValueError, match="fraction"):
            PathSpec(g, (0, 1), (1.5,))
        with pytest.raises(ValueError, match="one fraction"):
            PathSpec(g, (0, 1), ())

    @settings(max_examples=50, deadline=None)
    @given(
        fracs=st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3
        )
    )
    def test_prefactor_at_least_one_for_any_fractions(self, fracs):
        g = chain_graph(4)
        path = PathSpec(g, (0, 1, 2, 3), tuple(fracs))
        assert all(p >= 1.0 for p in path_prefactor(path).values())


def f_ave(graph, y):
    """The averaged multiplier of verify.decay_report with epsilon and
    extra rate 0."""
    return averaged_multiplier(graph, MultiplierSpec(kind="averaged"))(y)


class TestFAve:
    def test_before_first_vertex(self):
        k = 1.3
        g = build_family("regular_tree", {"b": 2, "k": k}, 8)
        assert math.isclose(f_ave(g, 0.7), math.exp(k * 0.7), rel_tol=1e-12)

    def test_regular_tree_closed_form(self):
        b, k = 2, 1.0
        g = build_family("regular_tree", {"b": b, "k": k}, 8)
        positions = g.family_info.positions[1:]
        for y in (0.5, 1.0, 2.5, 6.0, 7.5):
            passed = sum(1 for v in positions if v < y)
            expected = b ** (passed / 2.0) * math.exp(k * y)
            assert math.isclose(f_ave(g, y), expected, rel_tol=1e-12)

    def test_balanced_braiding_is_pure_exponential(self):
        g = build_family("braided", {"b_seq": [3] * 3, "a_seq": [3] * 3,
                                     "v_seq": [1.0, 2.0, 3.0], "k": 2.0}, 3)
        assert math.isclose(f_ave(g, 2.5), math.exp(2.0 * 2.5), rel_tol=1e-12)
