import json
import math

import pytest

from qgdecay.graph import Edge, GraphPoint, MetricGraph, Vertex
from qgdecay.eigenfunctions import (
    EdgeSolution,
    Eigenfunction,
    canonical_path,
    construct,
)
from qgdecay.metrics import compute_rho_a, eval_arc, eval_rho_a
from qgdecay.transfer import eig2, vertex_edge_transfer
from qgdecay.verify import (
    Multiplier,
    MultiplierSpec,
    closed_form_edge_l2,
    constraint_margin,
    continuity_and_kirchhoff,
    decay_report,
    fit_decay_rate,
    identity_check,
    monotonicity_check,
)


def tree(depth=8, b=2, k=1.0, length=1.0):
    return construct("regular_tree", {"b": b, "length": length, "k": k}, depth)


class TestMultiplier:
    # both have cycles; the braided path carries fractions 1/2, the
    # ladder's rail path fractions 1
    @pytest.mark.parametrize(
        "family,params",
        [
            ("braided", {"b_seq": [4, 4, 4, 4], "a_seq": [2, 2, 2, 2],
                         "v_seq": [1.0, 2.0, 3.0, 4.0]}),
            ("ladder", {"w": 0.75}),
        ],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            MultiplierSpec(epsilon=0.3),
            MultiplierSpec(epsilon=0.3, extra_rate=0.2, delta=0.3),
            MultiplierSpec(extra_rate=-0.2, delta=0.2, shift_sign=-1),
            MultiplierSpec(kind="path", epsilon=0.1, extra_rate=0.2),
        ],
        ids=["epsilon", "extra-shift", "negative-extra-shift-down", "path"],
    )
    def test_on_edge_matches_point_definition(self, family, params, spec):
        f = construct(family, params, 4)
        graph = f.graph
        path = canonical_path(f) if spec.kind == "path" else None
        prefactor = {}
        if path is not None:
            acc = 1.0
            for eid, p in zip(path.edges, (*path.fractions, 1.0)):
                prefactor[eid] = acc
                acc *= math.sqrt(1.0 / p)
        table = compute_rho_a(graph, spec.effective_energy(graph.energy))
        mult = Multiplier(graph, spec, path)
        for e in graph.edges:
            big_f = mult.on_edge(e.id)
            xs = [0.0, e.length] + [e.length * (i + 1) / 17.0 for i in range(16)]
            for x in xs:
                point = GraphPoint(e.id, x)
                expected = prefactor.get(e.id, 1.0) * math.exp(
                    (1.0 - spec.epsilon) * eval_rho_a(table, point)
                    + spec.extra_rate * eval_arc(table, point)
                )
                assert big_f(x) == expected, (e.id, x)

    def test_path_kind_needs_path(self):
        with pytest.raises(ValueError, match="PathSpec"):
            Multiplier(tree(3).graph, MultiplierSpec(kind="path"))


class TestConstraintMargin:
    def test_shift_up_gives_delta(self):
        f = tree(5)
        for delta in (0.1, 0.5, 0.9):
            margin = constraint_margin(
                f.graph, MultiplierSpec(delta=delta, shift_sign=1)
            )
            assert abs(margin - delta) <= 1e-12

    def test_shift_down_gives_minus_delta(self):
        f = tree(5)
        for delta in (0.1, 0.5):
            margin = constraint_margin(
                f.graph, MultiplierSpec(delta=delta, shift_sign=-1)
            )
            assert abs(margin + delta) <= 1e-12

    def test_unit_multiplier_gives_potential_gap(self):
        # epsilon = 1 turns the multiplier into F == 1
        f = construct("millipede", {"delta": 0.3}, 4)
        margin = constraint_margin(f.graph, MultiplierSpec(epsilon=1.0))
        assert math.isclose(margin, 0.09, rel_tol=1e-12)

    def test_core_edges_excluded(self):
        f = construct("ladder", {"w": 1.0, "mode": "symmetric"}, 5)
        assert f.graph.core_edges
        margin = constraint_margin(f.graph, MultiplierSpec(delta=0.25))
        assert abs(margin - 0.25) <= 1e-12


class TestDecayReport:
    def test_tree_path_multiplier_passes(self):
        f = tree(10)
        rep = decay_report(f, MultiplierSpec(kind="path", epsilon=0.1), [6, 8, 10])
        assert rep.plateau_pass and rep.cauchy_pass and rep.passed
        lam = eig2(vertex_edge_transfer(1.0, 0.5)).lam_small
        predicted = 2 * lam * lam * math.exp(2 * 0.9)
        assert abs(rep.tail_ratio / predicted - 1) < 0.05

    def test_tree_control_multiplier_fails(self):
        f = tree(10)
        rep = decay_report(
            f,
            MultiplierSpec(kind="path", epsilon=-0.1, extra_rate=0.1),
            [6, 8, 10],
        )
        assert not rep.plateau_pass and not rep.cauchy_pass and not rep.passed

    def test_ladder_symmetric_margins(self):
        f = construct("ladder", {"w": 1.0, "mode": "symmetric"}, 12)
        ok = decay_report(f, MultiplierSpec(kind="action", epsilon=0.1), [6, 10])
        bad = decay_report(f, MultiplierSpec(kind="action", epsilon=-0.1), [6, 10])
        assert ok.passed
        assert not bad.passed

    def test_millipede_beats_action_rate(self):
        delta = 0.1
        f = construct("millipede", {"delta": delta}, 12)
        rep = decay_report(
            f, MultiplierSpec(kind="action", extra_rate=delta / 8), [6, 10]
        )
        assert rep.passed

    def test_cumulative_sums_nondecreasing(self):
        f = tree(8)
        rep = decay_report(f, MultiplierSpec(kind="action", epsilon=0.1), [4, 8])
        cums = [r.l2_cumulative for r in rep.rows]
        assert all(b >= a for a, b in zip(cums, cums[1:]))
        assert all(r.sup_F_psi >= 0.0 for r in rep.rows)

    def test_averaged_multiplier(self):
        f = construct(
            "braided",
            {"b_seq": [2] * 10, "a_seq": [1] * 10,
             "v_seq": [float(j) for j in range(1, 11)]},
            10,
        )
        rep = decay_report(f, MultiplierSpec(kind="averaged", delta=0.1), [6, 9])
        assert rep.passed

    def test_averaged_multiplier_narrowing_braid(self):
        # arriving branching 2 with ongoing 4: vertex counts still grow, and
        # the averaged certificate holds with the sqrt(b/a) prefactor
        f = construct(
            "braided",
            {"b_seq": [4] * 8, "a_seq": [2] * 8,
             "v_seq": [float(j) for j in range(1, 9)]},
            8,
        )
        rep = decay_report(f, MultiplierSpec(kind="averaged", delta=0.1), [4, 7])
        assert rep.passed

    def test_averaged_needs_regular_topology(self):
        f = construct("millipede", {"delta": 0.1}, 5)
        with pytest.raises(ValueError, match="regular-topology"):
            decay_report(f, MultiplierSpec(kind="averaged"), [3])

    def test_depth_schedule_must_fit(self):
        f = tree(5)
        with pytest.raises(ValueError, match="schedule"):
            decay_report(f, MultiplierSpec(), [9])

    def test_raw_l2_matches_closed_form(self):
        # with F == 1 the Gauss quadrature must agree with the closed-form
        # antiderivative on every edge
        f = tree(4)
        rep = decay_report(f, MultiplierSpec(epsilon=1.0), [4])
        by_gen = {}
        for e in f.graph.edges:
            by_gen.setdefault(e.generation, 0.0)
            by_gen[e.generation] += closed_form_edge_l2(f.solutions[e.id])
        for row in rep.rows:
            assert math.isclose(row.l2_increment, by_gen[row.generation],
                                rel_tol=1e-12)

    def test_json_and_csv_round(self):
        f = tree(5)
        rep = decay_report(f, MultiplierSpec(kind="action", epsilon=0.1), [3, 5])
        doc = rep.to_json_dict()
        assert doc["status"] == "PASS"
        assert json.loads(json.dumps(doc)) == doc
        text = rep.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "generation,sup_F_psi,cum_L2,depth"
        assert len(lines) == 2 + 5


class TestFitDecayRate:
    def test_half_line(self):
        f = construct("regular_tree", {"b": 1, "length": 1.0, "k": 1.0}, 12)
        assert abs(fit_decay_rate(f) + 1.0) <= 1e-6

    def test_regular_tree_transfer_rate(self):
        length = 0.8
        f = tree(10, b=3, k=1.25, length=length)
        lam = eig2(vertex_edge_transfer(1.25 * length, 1.0 / 3.0)).lam_small
        assert abs(fit_decay_rate(f) - math.log(lam) / length) <= 1e-6

    def test_millipede_expansion_rate(self):
        delta = 0.01
        f = construct("millipede", {"delta": delta}, 10)
        rate = fit_decay_rate(f)
        assert abs(rate + 1.0 + delta / 4.0) <= 10 * delta**2

    def test_ladder_antisymmetric_beats_one(self):
        f = construct("ladder", {"w": 1.0, "mode": "antisymmetric"}, 10)
        rate = fit_decay_rate(f)
        lam = f.meta["lambda_small"]
        assert math.isclose(rate, math.log(lam), rel_tol=1e-10)
        assert -rate > 1.0

    def test_degenerate_samples_raise(self):
        f = tree(4)
        with pytest.raises(ValueError, match="degenerate"):
            fit_decay_rate(f, samples=[(0.0, 0.0), (1.0, 0.0)])


class TestIdentityCheck:
    def test_unit_multiplier_is_exact(self):
        phi = lambda x: math.cosh(1.3 * x)
        assert identity_check(lambda x: 1.0, phi, 0.0, 1.0, 1e-2) == 0.0

    def test_zero_function_is_exact(self):
        assert identity_check(
            lambda x: math.exp(0.5 * x), lambda x: 0.0, 0.0, 1.0, 1e-2
        ) == 0.0

    def test_quadratic_convergence(self):
        big_f = lambda x: math.exp(0.8 * x)
        phi = lambda x: math.cosh(1.1 * x)
        r1 = identity_check(big_f, phi, 0.0, 1.0, 1e-2)
        r2 = identity_check(big_f, phi, 0.0, 1.0, 5e-3)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_window_validation(self):
        with pytest.raises(ValueError):
            identity_check(lambda x: 1.0, lambda x: 1.0, 0.0, 0.01, 0.01)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("regular_tree", {"b": 2, "length": 1.0, "k": 1.0}),
            ("regular_tree", {"b": 4, "length": 0.5, "k": 2.0}),
            ("ns_regular_tree", {"b_seq": [3, 2] * 3, "length_seq": [0.5, 1.0] * 4}),
            ("millipede", {"delta": 0.2}),
            ("ladder", {"w": 1.0, "mode": "symmetric"}),
        ],
    )
    def test_families_monotone(self, family, params):
        f = construct(family, dict(params), 6)
        assert monotonicity_check(f).ok

    def test_ladder_antisymmetric_rung_zeros(self):
        f = construct("ladder", {"w": 2.0, "mode": "antisymmetric"}, 8)
        result = monotonicity_check(f)
        assert result.ok

    def test_sign_change_detected(self):
        k = 1.0
        g = MetricGraph(
            [Vertex(0), Vertex(1, boundary=True)],
            [Edge(0, 0, 1, 2.0, k * k)],
            root=0,
            energy=0.0,
        )
        f = Eigenfunction(
            g, {0: EdgeSolution(0, k, 2.0, 1.0, -1.5)}, family="custom"
        )
        result = monotonicity_check(f)
        assert not result.ok
        assert result.edge == 0
        assert "edge 0" in result.detail

    def test_exclusion_radius_skips_core(self):
        k = 1.0
        g = MetricGraph(
            [Vertex(0), Vertex(1), Vertex(2, boundary=True)],
            [Edge(0, 0, 1, 2.0, k * k), Edge(1, 1, 2, 1.0, k * k)],
            root=0,
            energy=0.0,
        )
        sols = {
            0: EdgeSolution(0, k, 2.0, 1.0, -1.5),  # sign change inside edge 0
            1: EdgeSolution(1, k, 1.0, 1.0, -0.99),  # decaying beyond it
        }
        f = Eigenfunction(g, sols, family="custom")
        assert not monotonicity_check(f).ok
        assert monotonicity_check(f, exclusion_radius=2.0).ok


class TestContinuityAndKirchhoff:
    def test_all_families_within_tolerance(self):
        for family, params, depth in [
            ("regular_tree", {"b": 2}, 6),
            ("millipede", {"delta": 0.1}, 6),
            ("ladder", {"w": 1.0, "mode": "antisymmetric"}, 6),
        ]:
            f = construct(family, dict(params), depth)
            res = continuity_and_kirchhoff(f)
            assert res["max_continuity"] <= 1e-10
            assert res["max_kirchhoff"] <= 1e-9
