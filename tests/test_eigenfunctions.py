import math

import pytest

import qgdecay.eigenfunctions
from qgdecay.graph import (
    Edge,
    FamilyParameterError,
    GraphValidationError,
    MetricGraph,
    Vertex,
    build_graph,
    generate_family,
)
from qgdecay.eigenfunctions import (
    EdgeSolution,
    Eigenfunction,
    averaged_wave_function,
    canonical_path,
    construct,
    continuity_residual,
    edge_deriv,
    edge_eval,
    kirchhoff_residual,
    ode_residual,
    propagate,
)
from qgdecay.transfer import (
    eig2,
    ladder_antisym_transfer,
    millipede_transfer,
    vertex_edge_transfer,
)
from qgdecay.verify import continuity_and_kirchhoff

from expansion import expanded
from points import GraphPoint, value

FAMILIES = [
    ("regular_tree", {"b": 2, "length": 1.0, "k": 1.0}, 8),
    ("regular_tree", {"b": 3, "length": 1.5, "k": 0.5}, 5),
    ("ns_regular_tree", {"b_seq": [2, 3] * 3, "length_seq": [1.0, 0.7] * 4}, 5),
    ("two_lengths_tree", {"L1": 1.0, "L2": 2.0, "k": 1.0}, 6),
    ("millipede", {"delta": 0.1}, 8),
    ("ladder", {"w": 1.0, "mode": "symmetric"}, 8),
    ("ladder", {"w": 1.0, "mode": "antisymmetric"}, 8),
    ("braided", {"b_seq": [4] * 6, "a_seq": [2] * 6,
                 "v_seq": [float(j) for j in range(1, 7)]}, 6),
]


class TestEdgeSolution:
    def test_eval_and_deriv_at_zero(self):
        sol = EdgeSolution(0, 1.0, 2.0, 1.0, 0.0)
        assert edge_eval(sol, 0.0) == 1.0
        assert edge_deriv(sol, 0.0) == 0.0

    def test_pure_decaying_exponential(self):
        k = 1.7
        sol = EdgeSolution(0, k, 3.0, 1.0, -1.0)
        for x in (0.0, 0.5, 1.5, 3.0):
            assert math.isclose(edge_eval(sol, x), math.exp(-k * x), rel_tol=1e-12)
            assert math.isclose(
                edge_deriv(sol, x), -k * math.exp(-k * x), rel_tol=1e-12
            )

    def test_linear_basis_at_k_zero(self):
        sol = EdgeSolution(0, 0.0, 2.0, 3.0, -0.5)
        assert edge_eval(sol, 1.0) == 2.5
        assert edge_deriv(sol, 1.5) == -0.5

    def test_out_of_range(self):
        sol = EdgeSolution(0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            edge_eval(sol, 1.5)
        with pytest.raises(ValueError):
            edge_deriv(sol, -0.1)

    def test_end_value_feeds_next_edge(self):
        t = vertex_edge_transfer(1.0, 1.0)
        a1, b1 = t.apply((1.0, -0.3))
        sol = EdgeSolution(0, 1.0, 1.0, 1.0, -0.3)
        assert math.isclose(edge_eval(sol, 1.0), a1, rel_tol=1e-14)


class TestPropagate:
    def test_empty_steps(self):
        assert propagate((1.0, 2.0), []) == [(1.0, 2.0)]

    def test_eigenvector_step(self):
        t = vertex_edge_transfer(1.0, 0.5)
        pair = eig2(t)
        vec = pair.vec_small
        out = propagate(vec, [t])
        assert math.isclose(out[1][0], pair.lam_small * vec[0], rel_tol=1e-12)
        assert math.isclose(out[1][1], pair.lam_small * vec[1], rel_tol=1e-12)

    def test_repeated_steps_power(self):
        t = vertex_edge_transfer(0.5, 0.25)
        pair = eig2(t)
        out = propagate(pair.vec_small, [t] * 6)
        expect = pair.lam_small**6
        assert math.isclose(out[6][0], expect * pair.vec_small[0], rel_tol=1e-9)


class TestConstructions:
    @pytest.mark.parametrize("family,params,depth", FAMILIES)
    def test_interior_conditions(self, family, params, depth):
        f = construct(family, dict(params), depth)
        interior = f.graph.interior_vertex_ids()
        assert interior
        assert max(continuity_residual(f, v) for v in interior) <= 1e-10
        assert max(kirchhoff_residual(f, v) for v in interior) <= 1e-9

    def test_root_normalization(self):
        for family, params, depth in FAMILIES:
            f = construct(family, dict(params), depth)
            root_edges = [
                e.id for e in f.graph.edges if e.tail == f.graph.root
            ]
            assert all(
                value(f, GraphPoint(eid, 0.0)) == 1.0 for eid in root_edges
            )

    def test_regular_tree_eigenvalue_decay(self):
        b, kl, depth = 2, 1.0, 8
        f = construct("regular_tree", {"b": b, "length": 1.0, "k": kl}, depth)
        lam = eig2(vertex_edge_transfer(kl, 1.0 / b)).lam_small
        for v in f.graph.vertices:
            if v.generation and not v.boundary:
                assert math.isclose(
                    f.vertex_value(v.id), lam**v.generation, rel_tol=1e-12
                )

    def test_kirchhoff_not_applicable_at_boundary(self):
        f = construct("regular_tree", {"b": 2}, 3)
        leaf = next(v.id for v in f.graph.vertices if v.boundary and v.generation)
        with pytest.raises(ValueError, match="boundary"):
            kirchhoff_residual(f, leaf)
        with pytest.raises(ValueError, match="boundary"):
            kirchhoff_residual(f, f.graph.root)

    def test_degree_two_smooth_continuation(self):
        # two chained edges with coefficients related by the edge-translation
        # map behave like one smooth solution: residual at machine level
        k = 0.8
        g = MetricGraph(
            [Vertex(0), Vertex(1), Vertex(2, boundary=True)],
            [Edge(0, 0, 1, 1.0, k * k), Edge(1, 1, 2, 1.0, k * k)],
            root=0,
            energy=0.0,
        )
        a0, b0 = 1.0, -0.9
        c, s = math.cosh(k), math.sinh(k)
        sols = {
            0: EdgeSolution(0, k, 1.0, a0, b0),
            1: EdgeSolution(1, k, 1.0, a0 * c + b0 * s, a0 * s + b0 * c),
        }
        f = Eigenfunction(g, sols, family="custom")
        assert kirchhoff_residual(f, 1) <= 1e-12

    def test_solutions_are_read_only(self):
        f = construct("regular_tree", {"b": 2}, 2)
        with pytest.raises(TypeError):
            f.solutions[0] = f.solutions[1]
        with pytest.raises(AttributeError):
            f.solutions = {}

    def test_perturbation_is_detected(self):
        f = expanded(construct("regular_tree", {"b": 2}, 4))
        vid = next(
            v.id for v in f.graph.vertices if v.generation == 1 and not v.boundary
        )
        child = next(
            e.id for e in f.graph.edges if e.tail == vid
        )
        sol = f.solutions[child]
        sols = dict(f.solutions)
        sols[child] = EdgeSolution(
            sol.edge, sol.k, sol.length, sol.A, sol.B + 1e-3
        )
        f = Eigenfunction(f.graph, sols, family=f.family)
        assert kirchhoff_residual(f, vid) >= 1e-4

    def test_two_lengths_matching_metadata(self):
        f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0, "k": 1.0}, 6)
        assert 0.0 < f.meta["p1"] < 1.0
        assert f.meta["lam"] < 1.0 and f.meta["mu"] < 1.0

    # at delta = 1 the legs have the body's potential
    @pytest.mark.parametrize("delta", [0.1, 1.0])
    def test_millipede_leg_solutions(self, delta):
        f = construct("millipede", {"delta": delta}, 6)
        # the legs are the comb's teeth: edges 7.. after the 7 body edges
        legs = [e for e in f.graph.edges if e.id >= 7]
        assert len(legs) == 6
        for e in legs:
            assert math.isclose(e.potential - f.graph.energy, delta * delta)
            sol = f.solutions[e.id]
            assert sol.k == delta
            assert sol.B == -sol.A  # proportional to exp(-delta x)
            # leg value matches the body value at the shared vertex
            assert math.isclose(
                sol.A, f.vertex_value(e.tail), rel_tol=1e-12
            )

    def test_ladder_symmetric_rungs(self):
        f = construct("ladder", {"w": 1.0, "mode": "symmetric"}, 6)
        rungs = [e for e in f.graph.edges if e.id in f.graph.core_edges]
        assert len(rungs) == 6
        for e in rungs:
            sol = f.solutions[e.id]
            assert sol.k == 0.0 and sol.B == 0.0  # constant
            assert math.isclose(
                edge_eval(sol, 0.0), edge_eval(sol, e.length), rel_tol=1e-15
            )
            # endpoint values match the rail decay e^{-j}
            assert math.isclose(sol.A, math.exp(-e.generation), rel_tol=1e-14)

    def test_ladder_antisymmetric_structure(self):
        w = 1.0
        f = construct("ladder", {"w": w, "mode": "antisymmetric"}, 6)
        assert not hasattr(f, "mode")
        assert f.meta["mirror"] == "odd"
        assert f.meta["rung_midpoints"] == list(range(7, 13))
        for vid in f.meta["rung_midpoints"]:
            assert abs(f.vertex_value(vid)) <= 1e-14
        # rung halves carry the odd profile: slope ratio -coth(w/2) at the rail
        half_rungs = [e for e in f.graph.edges if e.length == w / 2]
        assert len(half_rungs) == 6
        for e in half_rungs:
            sol = f.solutions[e.id]
            assert math.isclose(
                sol.B / sol.A, -1.0 / math.tanh(w / 2), rel_tol=1e-12
            )

    def test_ladder_antisym_decay_matches_eigenvalue(self):
        f = construct("ladder", {"w": 1.0, "mode": "antisymmetric"}, 8)
        lam = eig2(ladder_antisym_transfer(1.0)).lam_small
        rails = sorted(
            (e.generation, e.id) for e in f.graph.edges if e.length == 1.0
        )
        values = [value(f, GraphPoint(eid, 0.0)) for _, eid in rails]
        for j in range(len(values) - 1):
            assert math.isclose(values[j + 1] / values[j], lam, rel_tol=1e-12)

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric"])
    @pytest.mark.parametrize(
        "params,message",
        [
            ({"w": 1.0, "bogus": 3}, "unexpected keyword argument 'bogus'"),
            ({}, "missing a required argument: 'w'"),
            ({"w": 0.0}, "rung length w must be > 0"),
            ({"w": -1.0}, "rung length w must be > 0"),
            ({"w": 1.0, "rungs": 0}, "rungs >= 1 required"),
        ],
    )
    def test_ladder_params_checked_alike_in_both_modes(
        self, mode, params, message
    ):
        with pytest.raises(FamilyParameterError, match=message):
            construct("ladder", dict(params, mode=mode), 4)

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("params,message", [
        ({"w": math.inf}, "non-positive length"),
        ({"w": 1.0, "energy": 1e17}, "V - E = 0.0 <= 0"),
    ])
    def test_ladder_graph_validated_in_both_modes(self, mode, params, message):
        with pytest.raises(GraphValidationError, match=message):
            construct("ladder", dict(params, mode=mode), 4)

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric"])
    def test_ladder_rung_potential_rejected_in_both_modes(self, mode):
        # the symmetric mode puts V = E on the rungs, the odd mode V = E + 1
        params = {"w": 0.5, "rung_potential": 5.0}
        with pytest.raises(FamilyParameterError, match="rung_potential"):
            construct("ladder", dict(params, mode=mode), 3)
        # the graph builder, and so a spec document, still takes it
        g = build_graph({"family": "ladder", "params": params, "depth": 3})
        assert [e.potential for e in g.edges if e.length == 0.5] == [5.0] * 3

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric"])
    def test_ladder_depth_checked_in_both_modes(self, mode):
        with pytest.raises(FamilyParameterError, match="depth must be >= 1"):
            construct("ladder", {"w": 1.0, "rungs": 3, "mode": mode}, 0)

    def test_ladder_antisymmetric_builds_only_the_half_ladder(self, monkeypatch):
        # the odd mode checks the ladder's params without building its
        # 3n edges, and builds the 2n-edge half ladder once
        built = []
        from_arrays = MetricGraph.from_arrays

        def counting(*args, **kwargs):
            graph = from_arrays(*args, **kwargs)
            built.append(len(graph.edges))
            return graph

        monkeypatch.setattr(MetricGraph, "from_arrays", counting)
        construct("ladder", {"w": 1.0, "mode": "antisymmetric"}, 5)
        assert built == [10]

    @pytest.mark.parametrize("family,params,step", [
        ("millipede", {"delta": 0.2}, millipede_transfer(0.2)),
        ("ladder", {"w": 0.5, "mode": "antisymmetric"}, ladder_antisym_transfer(0.5)),
    ])
    def test_comb_solves_its_step_once(self, eig2_calls, family, params, step):
        f = construct(family, params, 6)
        assert eig2_calls == [step]
        assert f.meta["step"] == step
        assert f.meta["eigenpair"] == eig2(step)
        assert f.meta["lambda_small"] == f.meta["eigenpair"].lam_small

    @pytest.mark.parametrize("family,params,ks", [
        ("regular_tree", {"b": 2, "k": 0.1}, {0.1}),
        ("ns_regular_tree",
         {"b_seq": [2, 3] * 3, "length_seq": [1.0, 0.7] * 4, "k": 0.2}, {0.2}),
        ("braided", {"b_seq": [4] * 6, "a_seq": [2] * 6,
                     "v_seq": [float(j) for j in range(1, 7)], "k": 0.3}, {0.3}),
        ("two_lengths_tree", {"L1": 1.0, "L2": 2.0, "k": 0.3}, {0.3}),
        ("millipede", {"delta": 0.2, "energy": 0.3}, {1.0, 0.2}),
        ("ladder", {"w": 0.5, "mode": "antisymmetric", "energy": 0.3}, {1.0}),
    ])
    def test_solutions_carry_the_family_k(self, family, params, ks):
        # k is the family's param, not sqrt(V - E) of V = E + k * k
        f = construct(family, params, 6)
        assert {sol.k for sol in f.solutions.values()} == ks

    def test_two_lengths_values_match_exactly(self):
        # each child edge starts at its parent's end value, with the k the
        # recurrence used
        f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0, "k": 0.3}, 6)
        assert continuity_and_kirchhoff(f)["max_continuity"] == 0.0

    def test_millipede_body_decay(self):
        f = construct("millipede", {"delta": 0.2}, 8)
        lam = eig2(millipede_transfer(0.2)).lam_small
        body = sorted(
            (e.generation, e.id) for e in f.graph.edges if e.length == 2.0
        )
        values = [value(f, GraphPoint(eid, 0.0)) for _, eid in body]
        for j in range(len(values) - 1):
            assert math.isclose(values[j + 1] / values[j], lam, rel_tol=1e-12)


class TestPositivityAndDecrease:
    @pytest.mark.parametrize(
        "family,params,depth",
        [
            ("regular_tree", {"b": 2, "length": 1.0, "k": 1.0}, 8),
            ("regular_tree", {"b": 5, "length": 0.5, "k": 2.0}, 5),
            ("ns_regular_tree", {"b_seq": [2, 3] * 3, "length_seq": [1.0, 0.7] * 4}, 5),
            ("braided", {"b_seq": [2] * 8, "a_seq": [1] * 8,
                         "v_seq": [float(j) for j in range(1, 9)]}, 8),
            ("millipede", {"delta": 0.1}, 8),
        ],
    )
    def test_positive_and_decreasing_everywhere(self, family, params, depth):
        f = construct(family, dict(params), depth)
        for e in f.graph.edges:
            sol = f.solutions[e.id]
            values = [
                edge_eval(sol, e.length * i / 8) for i in range(9)
            ]
            assert all(v > 0.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_two_lengths_pure_first_path(self):
        # along the canonical (all-L1) path the shared eigenvector keeps the
        # profile positive and strictly decreasing
        f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0, "k": 1.0}, 8)
        path = canonical_path(f)
        values = []
        for eid in path.edges:
            e = f.graph.edge_by_id[eid]
            sol = f.solutions[eid]
            values.extend(edge_eval(sol, e.length * i / 8) for i in range(9))
        assert all(v > 0.0 for v in values)
        deltas = [a - b for a, b in zip(values, values[1:])]
        # consecutive duplicates at the shared vertices are allowed
        assert all(d >= 0.0 for d in deltas)

    def test_second_direction_diverges(self):
        # seeding with the complementary eigenvector produces growth at rate
        # lam_large > 1/sqrt(b): the one-dimensionality of the decaying
        # solution set, restated at transfer-matrix level
        b, kl, n = 2, 1.0, 12
        t = vertex_edge_transfer(kl, 1.0 / b)
        pair = eig2(t)
        coeffs = propagate(pair.vec_large, [t] * n)
        norms = [math.hypot(*c) for c in coeffs]
        rate = (norms[-1] / norms[0]) ** (1.0 / n)
        assert math.isclose(rate, pair.lam_large, rel_tol=1e-6)
        assert pair.lam_large > 1.0 / math.sqrt(b)
        assert b * pair.lam_large**2 > 1.0  # multiplied L2 series diverges


class TestOdeResidual:
    def test_quadratic_convergence(self):
        sol = EdgeSolution(0, 1.3, 2.0, 0.7, -0.4)
        r1 = ode_residual(sol, 1e-2)
        r2 = ode_residual(sol, 5e-3)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_constant_solution_is_exact(self):
        sol = EdgeSolution(0, 0.0, 1.0, 2.0, 0.0)
        assert ode_residual(sol, 1e-2) == 0.0

    def test_step_validation(self):
        sol = EdgeSolution(0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ode_residual(sol, 0.6)


class TestAveragedWaveFunction:
    def _constant_one(self, family, params, depth):
        g = generate_family(family, params, depth)
        sols = {
            e.id: EdgeSolution(e.id, 0.0, e.length, 1.0, 0.0) for e in g.edges
        }
        return Eigenfunction(g, sols, family=family)

    def test_constant_function_averages_to_one(self):
        f = self._constant_one(
            "regular_tree", {"b": 3, "length": 1.0}, 5
        )
        for y in (0.0, 0.4, 1.0, 2.7, 5.9):
            assert math.isclose(averaged_wave_function(f, y), 1.0, rel_tol=1e-12)

    def test_constant_function_with_parallel_root_edges(self):
        # theta-chain: weights must also absorb the two root edges
        f = self._constant_one(
            "braided",
            {"b_seq": [2] * 4, "a_seq": [2] * 4,
             "v_seq": [1.0, 2.0, 3.0, 4.0]},
            4,
        )
        for y in (0.0, 0.5, 1.5, 3.99):
            assert math.isclose(averaged_wave_function(f, y), 1.0, rel_tol=1e-12)

    def test_tree_average_equals_common_value(self):
        f = construct("regular_tree", {"b": 2, "length": 1.0, "k": 1.0}, 7)
        lam = eig2(vertex_edge_transfer(1.0, 0.5)).lam_small
        for gen in (1, 3, 5):
            y = gen + 0.25
            sol = next(
                f.solutions[e.id] for e in f.graph.edges if e.generation == gen
            )
            assert math.isclose(
                averaged_wave_function(f, y), edge_eval(sol, 0.25), rel_tol=1e-12
            )
        assert math.isclose(
            averaged_wave_function(f, 3.0), lam**3, rel_tol=1e-12
        )

    def test_continuity_across_generations(self):
        f = construct(
            "braided",
            {"b_seq": [2] * 8, "a_seq": [1] * 8,
             "v_seq": [float(j) for j in range(1, 9)]},
            8,
        )
        for vj in (1.0, 3.0, 5.0):
            left = averaged_wave_function(f, vj)
            right = averaged_wave_function(f, vj + 1e-12)
            assert abs(left - right) <= 1e-10 * abs(left)

    def test_derivative_jump_factor(self):
        f = construct(
            "braided",
            {"b_seq": [4] * 6, "a_seq": [2] * 6,
             "v_seq": [float(j) for j in range(1, 7)]},
            6,
        )
        h = 1e-5
        for vj in (2.0, 4.0):
            right = (
                -3 * averaged_wave_function(f, vj)
                + 4 * averaged_wave_function(f, vj + h)
                - averaged_wave_function(f, vj + 2 * h)
            ) / (2 * h)
            left = (
                3 * averaged_wave_function(f, vj)
                - 4 * averaged_wave_function(f, vj - h)
                + averaged_wave_function(f, vj - 2 * h)
            ) / (2 * h)
            assert abs(right / left - 0.5) <= 1e-6

    def test_magnitude_decreasing_in_y(self):
        f = construct(
            "braided",
            {"b_seq": [4] * 6, "a_seq": [2] * 6,
             "v_seq": [float(j) for j in range(1, 7)]},
            6,
        )
        ys = [0.05 * i for i in range(1, 120)]
        values = [abs(averaged_wave_function(f, y)) for y in ys]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sum_over_own_generation_matches_full_scan(self):
        f = construct(
            "braided",
            {"b_seq": [4] * 6, "a_seq": [2] * 6,
             "v_seq": [float(j) for j in range(1, 7)]},
            6,
        )
        info = f.graph.family_info
        full = expanded(f)
        for y in (0.0, 0.3, 1.0, 2.5, 4.0, 5.75, 6.0):
            gen = max(
                g for g in range(len(info.positions) - 1)
                if info.positions[g] <= y
            )
            x = y - info.positions[gen]
            weight = 1.0 / info.root_edges
            for j in range(gen):
                weight *= info.arriving[j] / info.ongoing[j]
            total = 0.0
            for e in full.graph.edges:
                if e.generation == gen:
                    total += edge_eval(full.solutions[e.id], min(x, e.length))
            # the table adds a class of n edges as n * value
            assert math.isclose(averaged_wave_function(f, y), weight * total,
                                rel_tol=1e-12)

    def test_evaluates_once_per_distinct_solution(self, monkeypatch):
        f = construct(
            "braided",
            {"b_seq": [4] * 6, "a_seq": [2] * 6,
             "v_seq": [float(j) for j in range(1, 7)]},
            6,
        )
        full = expanded(f).graph
        calls = []

        def counting(sol, x):
            calls.append(sol.edge)
            return edge_eval(sol, x)

        monkeypatch.setattr(qgdecay.eigenfunctions, "edge_eval", counting)
        for gen in range(1, 6):
            # every edge of a braided generation carries the same solution
            eids = [e.id for e in full.edges if e.generation == gen]
            assert len(eids) > 1
            calls.clear()
            averaged_wave_function(f, gen + 0.5)
            assert calls == [eids[0]]

    def test_beyond_truncation(self):
        f = construct("regular_tree", {"b": 2}, 3)
        with pytest.raises(ValueError, match="outside"):
            averaged_wave_function(f, 10.0)

    def test_requires_regular_topology(self):
        f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 3)
        with pytest.raises(ValueError, match="regular-topology"):
            averaged_wave_function(f, 0.5)


def fraction_at(f, vid, eid):
    """The derivative fraction carried onto ``eid`` at ``vid``, relative to
    the first incoming edge of ``vid``, snapped to 1 within 1e-12."""
    incoming = next(
        i for i in f.graph.incidence[vid] if f.graph.edge_by_id[i].head == vid
    )
    sol_in = f.solutions[incoming]
    p = edge_deriv(f.solutions[eid], 0.0) / edge_deriv(sol_in, sol_in.length)
    return 1.0 if abs(p - 1.0) < 1e-12 else p


class TestCanonicalPath:
    def test_tree_fractions(self):
        b = 3
        f = construct("regular_tree", {"b": b}, 5)
        path = canonical_path(f)
        assert len(path.edges) == 6
        for p in path.fractions:
            assert math.isclose(p, 1.0 / b, rel_tol=1e-12)
        # every fraction is the per-vertex definition at the vertex the path
        # passes, and matches the family's branching law
        two = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 6)
        cases = [
            (f, [1.0 / b] * 5),
            (
                construct("braided", {"b_seq": [3, 4, 2], "a_seq": [1, 3, 2, 4],
                                      "v_seq": [1.0, 1.5, 3.0, 4.0]}, 4),
                [1 / 3, 3 / 4, 2 / 2],
            ),
            (two, [two.meta["p1"]] * 6),
            (
                construct("ns_regular_tree", {"b_seq": [2, 3] * 3,
                                              "length_seq": [1.0, 0.7] * 4}, 5),
                [1 / 2, 1 / 3, 1 / 2, 1 / 3, 1 / 2],
            ),
        ]
        for g, law in cases:
            path = canonical_path(g)
            assert len(path.fractions) == len(path.edges) - 1 == len(law)
            for eid, p, expected in zip(path.edges[1:], path.fractions, law):
                vid = g.graph.edge_by_id[eid].tail
                assert p == fraction_at(expanded(g), vid, eid)
                assert math.isclose(p, expected, rel_tol=1e-12)

    def test_vanishing_incoming_derivative_names_vertex(self):
        g = MetricGraph(
            [Vertex(0), Vertex(1), Vertex(2, boundary=True)],
            [Edge(0, 0, 1, 1.0, 1.0), Edge(1, 1, 2, 1.0, 1.0)],
            root=0,
            energy=0.0,
        )
        f = Eigenfunction(
            g,
            {
                0: EdgeSolution(0, 0.0, 1.0, 1.0, 0.0),  # flat: psi' = 0
                1: EdgeSolution(1, 1.0, 1.0, 1.0, -1.0),
            },
            family="custom",
        )
        with pytest.raises(ValueError, match="vertex 1"):
            canonical_path(f)

    def test_ladder_antisym_follows_rail(self):
        f = construct("ladder", {"w": 1.0, "mode": "antisymmetric"}, 5)
        path = canonical_path(f)
        lengths = [f.graph.edge_by_id[eid].length for eid in path.edges]
        assert lengths == [1.0] * 5
