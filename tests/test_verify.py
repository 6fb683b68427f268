import collections
import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qgdecay.cli import _build_parser, _family_params, main
from qgdecay.graph import Edge, FamilyInfo, MetricGraph, Vertex
import qgdecay.cli
import qgdecay.eigenfunctions
import qgdecay.verify
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
)
from qgdecay.metrics import PathSpec, compute_rho_a
from qgdecay.transfer import eig2, vertex_edge_transfer
from qgdecay.verify import (
    Multiplier,
    MultiplierSpec,
    _slope_log_psi_vs_rho,
    _sup_and_l2,
    averaged_multiplier,
    certify,
    constraint_margin,
    continuity_and_kirchhoff,
    decay_report,
    fit_decay_rate,
    identity_check,
    monotonicity_check,
)

from expansion import expanded, vertex_fit_slopes
from points import GraphPoint, eval_arc, eval_rho_a
from test_quotient import DEPTHS, FAMILIES


def tree(depth=8, b=2, k=1.0, length=1.0):
    return construct("regular_tree", {"b": b, "length": length, "k": k}, depth)


def closed_form_edge_l2(sol) -> float:
    """Exact integral of (A cosh kx + B sinh kx)^2 over the edge."""
    a, b, k, length = sol.A, sol.B, sol.k, sol.length
    if k == 0.0:
        return (
            a * a * length + a * b * length * length + b * b * length**3 / 3.0
        )
    s2, c2 = math.sinh(2 * k * length), math.cosh(2 * k * length)
    return (
        (a * a - b * b) * length / 2.0
        + (a * a + b * b) * s2 / (4.0 * k)
        + a * b * (c2 - 1.0) / (2.0 * k)
    )


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
        graph = expanded(f).graph
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

    @pytest.mark.parametrize("field", ["delta", "epsilon", "extra_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MultiplierSpec(**{field: value})

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
    def test_gauss_rule_is_leggauss_to_the_bit(self):
        # the rule is written out as floats so that no verify imports numpy
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert [np.array(x).tobytes() for x in qgdecay.verify._gauss()] == [
            nodes.tobytes(), weights.tobytes()]

    def test_tree_path_multiplier_passes(self):
        f = tree(10)
        rep = decay_report(f, MultiplierSpec(kind="path", epsilon=0.1), [6, 8, 10])
        assert rep.plateau_pass and rep.cauchy_pass and rep.passed
        lam = eig2(vertex_edge_transfer(1.0, 0.5)).lam_small
        predicted = 2 * lam * lam * math.exp(2 * 0.9)
        assert abs(rep.tail_ratio / predicted - 1) < 0.05

    @pytest.mark.parametrize("kind", ["action", "averaged"])
    @pytest.mark.parametrize("extra_rate", [0.0, 1.0])
    def test_wide_tree_increments_grow_by_the_period_ratio(self, extra_rate, kind):
        # a generation of the b = 10 tree adds its up to 10^40 edges as
        # count * value, so each increment is q times the one before:
        # q = b lam^2 e^{2((1 - eps) kL + r)}, 1.67 > 1 at r = 1
        f = tree(40, b=10)
        spec = MultiplierSpec(kind=kind, epsilon=0.1, extra_rate=extra_rate)
        rep = decay_report(f, spec)
        lam = eig2(vertex_edge_transfer(1.0, 0.1)).lam_small
        q = 10 * lam * lam * math.exp(2 * (0.9 + extra_rate))
        incs = [row.l2_increment for row in rep.rows]
        assert len(incs) == 41
        for prev, inc in zip(incs, incs[1:]):
            assert math.isclose(inc / prev, q, rel_tol=1e-12)
        assert rep.passed == (q < 1.0)

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
        # a negative depth would index the rows from the end
        with pytest.raises(ValueError, match="schedule"):
            decay_report(f, MultiplierSpec(), [2, -3])

    def test_raw_l2_matches_closed_form(self):
        # with F == 1 the Gauss quadrature must agree with the closed-form
        # antiderivative on every edge
        f = tree(4)
        rep = decay_report(f, MultiplierSpec(epsilon=1.0), [4])
        full = expanded(f)
        by_gen = {}
        for e in full.graph.edges:
            by_gen.setdefault(e.generation, 0.0)
            by_gen[e.generation] += closed_form_edge_l2(full.solutions[e.id])
        for row in rep.rows:
            assert math.isclose(row.l2_increment, by_gen[row.generation],
                                rel_tol=1e-12)

    def test_json_and_csv_round(self, tmp_path):
        f = tree(5)
        rep = decay_report(f, MultiplierSpec(kind="action", epsilon=0.1), [3, 5])
        doc = rep.to_json_dict()
        assert doc["status"] == "PASS"
        assert json.loads(json.dumps(doc)) == doc
        # verify --csv: ints by str, floats by repr, the last generation as
        # depth
        csv = tmp_path / "report.csv"
        main(["verify", "--family", "regular-tree", "--b", "2", "--depth", "5",
              "--csv", str(csv)])
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "generation,sup_F_psi,cum_L2,depth"
        assert lines[1:] == [f"{r.generation},{r.sup_F_psi!r},{r.l2_cumulative!r},5"
                             for r in rep.rows]
        # plain float reprs, for every multiplier kind
        for kind in ("action", "path", "averaged"):
            main(["verify", "--family", "braided", "--b-seq", "2,2,2,2",
                  "--a-seq", "1,1,1,1", "--v-seq", "1,2,3,4", "--depth", "4",
                  "--multiplier", kind, "--csv", str(csv)])
            rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
            for gen, sup, cum, depth in rows:
                assert float(sup) >= 0.0 and float(cum) >= 0.0
                assert (sup, cum, depth) == (repr(float(sup)), repr(float(cum)), rows[-1][0])


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
        f = construct("regular_tree", {"b": 2}, 1)
        with pytest.raises(ValueError, match="need >= 2 nonzero samples"):
            fit_decay_rate(f)
        f = construct("braided", {"b_seq": [2], "a_seq": [2, 2],
                                  "v_seq": [1, 2], "root_edges": 4}, 2)
        with pytest.raises(ValueError, match="all samples at one distance"):
            fit_decay_rate(f)


def fit_cases():
    parser = _build_parser()
    for name, flags in FAMILIES.items():
        for depth in DEPTHS:
            args = parser.parse_args(
                ["verify", "--family", *flags, "--depth", str(depth)]
            )
            yield pytest.param(_family_params(args), id=f"{name}-{depth}")
    for mode in ("symmetric", "antisymmetric"):
        yield pytest.param(("ladder", {"w": 1.0, "mode": mode}, 6),
                           id=f"ladder-{mode}-6")
    yield pytest.param(("millipede", {"delta": 0.1}, 6), id="millipede-6")
    yield pytest.param(("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 6),
                       id="two-lengths-6")


class TestVertexFits:
    """The fits weight each distinct vertex sample by the vertices it
    stands for; the per-vertex fit on the built graph is the reference."""

    @pytest.mark.parametrize("args", fit_cases())
    def test_match_per_vertex_fit(self, args):
        f = construct(*args)
        arc_slope, rho_slope = vertex_fit_slopes(f)
        if arc_slope is None:
            with pytest.raises(ValueError, match="degenerate sample set"):
                fit_decay_rate(f)
        else:
            assert math.isclose(fit_decay_rate(f), arc_slope, rel_tol=1e-12)
        if rho_slope is None:
            assert _slope_log_psi_vs_rho(f) == 0.0
        else:
            assert math.isclose(
                _slope_log_psi_vs_rho(f), rho_slope, rel_tol=1e-12
            )

    @pytest.mark.parametrize("depth", [6, 40])
    def test_wide_tree_costs_no_memory_per_vertex(self, depth):
        # 1.1e6 interior vertices at depth 6, 1.1e40 at depth 40
        f = construct("regular_tree", {"b": 10}, depth)
        f.graph.distances()
        f.interior_values()
        want = math.log(eig2(vertex_edge_transfer(1.0, 1.0 / 10)).lam_small)
        tracemalloc.start()
        try:
            rates = fit_decay_rate(f), _slope_log_psi_vs_rho(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for rate in rates:
            assert math.isclose(rate, want, rel_tol=1e-12)
        assert peak < 64 * 1024


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

    def test_ladder_antisymmetric_rung_zero_violation(self):
        f = construct("ladder", {"w": 2.0, "mode": "antisymmetric"}, 8)
        vid = f.meta["rung_midpoints"][3]
        eid = next(e.id for e in f.graph.edges if e.head == vid)
        solutions = dict(f.solutions)
        # psi still falls along the rung half, but misses its zero
        solutions[eid] = replace(solutions[eid], B=solutions[eid].B * (1 - 1e-6))
        result = monotonicity_check(
            Eigenfunction(f.graph, solutions, f.family, f.meta)
        )
        assert not result.ok
        assert result.detail == f"reflection-axis zero violated at vertex {vid}"
        # the midpoints come from meta alone
        assert monotonicity_check(Eigenfunction(f.graph, solutions, f.family)).ok

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
        # |psi| falls to its zero, where tanh x = 2/3
        assert math.isclose(result.offset, math.atanh(2.0 / 3.0), rel_tol=1e-15)

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


# ---------------------------------------------------------------------------
# The closed-form kernels against the per-point code
# ---------------------------------------------------------------------------

KERNEL_FAMILIES = [
    ("regular_tree", {"b": 2, "length": 1.0, "k": 1.0}),
    ("ns_regular_tree", {"b_seq": [3, 2] * 3, "length_seq": [0.5, 1.0] * 4}),
    ("braided", {"b_seq": [4] * 6, "a_seq": [2] * 6,
                 "v_seq": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}),
    ("two_lengths_tree", {"L1": 1.0, "L2": 2.0}),
    ("ladder", {"w": 1.0, "mode": "symmetric"}),
    ("ladder", {"w": 1.0, "mode": "antisymmetric"}),
    ("millipede", {"delta": 0.1}),
]
KERNEL_FAMILY_IDS = [
    "regular", "ns-regular", "braided", "two-lengths", "ladder-symmetric",
    "ladder-antisymmetric", "millipede",
]
KERNEL_SPECS = [
    MultiplierSpec(epsilon=0.3),
    MultiplierSpec(epsilon=0.3, extra_rate=0.2, delta=0.3),
    MultiplierSpec(extra_rate=-0.2, delta=0.2, shift_sign=-1),
]
KERNEL_SPEC_IDS = ["epsilon", "extra-shift-up", "negative-extra-shift-down"]


def bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def kinks(table, e, spec):
    """The offsets inside edge ``e`` where rho_a (and arc, with an extra
    rate) switch from the tail's approach to the head's: where the two
    approaches of ``points._interp`` meet."""
    w = math.sqrt(max(e.potential - table.energy, 0.0))
    lines = [(table.rho, w)] + ([(table.arc, 1.0)] if spec.extra_rate else [])
    return [
        x for x in (
            (dist[e.head] - dist[e.tail] + slope * e.length) / (2 * slope)
            for dist, slope in lines if slope > 0.0
        )
        if 0.0 < x < e.length
    ]


def per_point_rows(f, spec, path):
    """The per-edge reduction of the per-point sampler that the closed
    forms replaced, its quadrature split at the kinks of F (a 16-node rule
    across one is off by up to 1e-4, as on the ladder's rungs with an
    extra rate)."""
    mult = Multiplier(f.graph, spec, path)
    pool = path.edges if spec.kind == "path" else f.solutions
    sup_by_gen, inc_by_gen = {}, {}
    for eid in pool:
        big_f, sol = mult.on_edge(eid), f.solutions[eid]
        e = f.graph.edge_by_id[eid]
        cuts = sorted({0.0, e.length, *kinks(mult.table, e, spec)})
        sup = inc = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            s, i = _sup_and_l2(
                lambda x: big_f(x) * edge_eval(sol, x), lo, hi
            )
            sup, inc = max(sup, s), inc + i
        gen = int(e.generation)
        sup_by_gen[gen] = max(sup_by_gen.get(gen, 0.0), sup)
        inc_by_gen[gen] = inc_by_gen.get(gen, 0.0) + inc
    rows, cum = [], 0.0
    for gen in sorted(sup_by_gen):
        cum += inc_by_gen[gen]
        rows.append((gen, sup_by_gen[gen], inc_by_gen[gen], cum))
    return rows


def assert_rows_close(report, expected, rel=1e-13):
    got = [
        (r.generation, r.sup_F_psi, r.l2_increment, r.l2_cumulative)
        for r in report.rows
    ]
    assert [row[0] for row in got] == [row[0] for row in expected]
    for row, want in zip(got, expected):
        for value, reference in zip(row[1:], want[1:]):
            assert math.isclose(value, reference, rel_tol=rel, abs_tol=1e-300)


def per_point_margin(graph, spec, samples_per_edge=16):
    table = compute_rho_a(graph, energy=spec.effective_energy(graph.energy))
    margin = math.inf
    for e in graph.edges:
        if e.id in graph.core_edges:
            continue
        w = math.sqrt(max(e.potential - table.energy, 0.0))
        gap = e.potential - graph.energy
        for i in range(samples_per_edge):
            x = e.length * (i + 0.5) / samples_per_edge
            rho_sign = (
                1.0
                if table.rho[e.tail] + w * x
                <= table.rho[e.head] + w * (e.length - x)
                else -1.0
            )
            arc_sign = (
                1.0
                if table.arc[e.tail] + x <= table.arc[e.head] + (e.length - x)
                else -1.0
            )
            slope = (
                (1.0 - spec.epsilon) * rho_sign * w
                + spec.extra_rate * arc_sign
            )
            margin = min(margin, gap - slope * slope)
    return margin


def per_point_monotonicity(f, exclusion_radius=0.0, edges=None,
                           samples_per_edge=17, rel_tol=1e-12):
    """(ok, edge, offset, detail) of the sampled edge scan that the exact
    test replaced, rung zeros left out."""
    arc = f.graph.distances()
    scale = max(abs(sol.A) + abs(sol.B) for sol in f.solutions.values())
    pool = (
        f.graph.edges
        if edges is None
        else [f.graph.edge_by_id[eid] for eid in edges]
    )
    for e in sorted(pool, key=lambda e: e.id):
        if min(arc[e.tail], arc[e.head]) < exclusion_radius - 1e-12:
            continue
        sol = f.solutions[e.id]
        forward = arc[e.head] >= arc[e.tail]
        prev = None
        for i in range(samples_per_edge):
            frac = i / (samples_per_edge - 1)
            x = e.length * (frac if forward else 1.0 - frac)
            val = abs(edge_eval(sol, x))
            if prev is not None and val > prev * (1 + rel_tol) + rel_tol * scale:
                return (False, e.id, x,
                        f"|psi| increases along edge {e.id} at x={x}")
            prev = val
    return (True, None, None, "")


def assert_no_laxer_than_oracle(result, expected):
    """The exact test fails wherever the sampled scan fails, on the same
    edge or an earlier one."""
    ok, edge = expected[:2]
    if not ok:
        assert not result.ok and result.edge <= edge


class TestKernelMatchesPerPointCode:
    @pytest.mark.parametrize("family,params", KERNEL_FAMILIES,
                             ids=KERNEL_FAMILY_IDS)
    @pytest.mark.parametrize("kind", ["action", "path"])
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_SPEC_IDS)
    def test_decay_report_rows(self, family, params, kind, spec):
        f = construct(family, dict(params), 6)
        spec = MultiplierSpec(
            kind=kind, delta=spec.delta, shift_sign=spec.shift_sign,
            epsilon=spec.epsilon, extra_rate=spec.extra_rate,
        )
        path = canonical_path(f) if kind == "path" else None
        report = decay_report(f, spec, path=path)
        assert_rows_close(report, per_point_rows(expanded(f), spec, path))

    @pytest.mark.parametrize("family,params", KERNEL_FAMILIES,
                             ids=KERNEL_FAMILY_IDS)
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("shift_sign", [1, -1], ids=["up", "down"])
    def test_constraint_margin(self, family, params, epsilon, shift_sign):
        f = construct(family, dict(params), 6)
        spec = MultiplierSpec(epsilon=epsilon, delta=0.3, shift_sign=shift_sign)
        assert bits([constraint_margin(f.graph, spec)]) == bits(
            [per_point_margin(expanded(f).graph, spec)]
        )

    @pytest.mark.parametrize("spec", KERNEL_SPECS[1:], ids=KERNEL_SPEC_IDS[1:])
    def test_constraint_margin_rejects_extra_rate(self, spec):
        with pytest.raises(ValueError, match="extra_rate"):
            constraint_margin(tree(3).graph, spec)

    @pytest.mark.parametrize("family,params", KERNEL_FAMILIES,
                             ids=KERNEL_FAMILY_IDS)
    @pytest.mark.parametrize("exclusion", [0.0, 2.5])
    @pytest.mark.parametrize("on_path", [False, True], ids=["graph", "path"])
    def test_monotonicity(self, family, params, exclusion, on_path):
        f = construct(family, dict(params), 6)
        edges = canonical_path(f).edges if on_path else None
        result = monotonicity_check(f, exclusion_radius=exclusion, edges=edges)
        expected = per_point_monotonicity(expanded(f), exclusion, edges)
        assert_no_laxer_than_oracle(result, expected)
        # and on these families the two verdicts agree
        assert result.ok == expected[0]

    def test_first_monotonicity_violation(self):
        f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 4)
        result = monotonicity_check(f)
        assert per_point_monotonicity(f)[:2] == (False, 2)
        assert (result.ok, result.edge) == (False, 2)
        # psi psi' <= 0 at both ends and psi keeps its sign: |psi| stops
        # falling at its minimum, where A sinh kx + B cosh kx = 0
        sol = f.solutions[2]
        at = math.atanh(-sol.B / sol.A) / sol.k
        assert 0.0 < at < sol.length
        assert abs(edge_deriv(sol, at)) < 1e-15 * abs(edge_eval(sol, at))
        assert math.isclose(result.offset, at, rel_tol=1e-15)
        assert result.detail == f"|psi| increases along edge 2 at x={result.offset}"

    def test_violation_on_a_late_edge(self):
        # growing solutions on two late edges: the lower id is reported, at
        # its near end
        f = expanded(tree(6))
        sols = dict(f.solutions)
        for eid in (117, 100):
            sol = sols[eid]
            sols[eid] = EdgeSolution(eid, sol.k, sol.length, sol.A, -sol.B)
        f = Eigenfunction(f.graph, sols, family=f.family)
        result = monotonicity_check(f)
        expected = per_point_monotonicity(f)
        assert expected[:2] == (False, 100)
        assert (result.ok, result.edge, result.offset) == (False, 100, 0.0)

    @pytest.mark.parametrize(
        "family,params,depth,gen",
        [
            ("ladder", {"w": 1.0, "mode": "antisymmetric"}, 800, 788),
            ("millipede", {"delta": 0.1}, 600, 394),
        ],
    )
    def test_overflow_names_first_generation(self, family, params, depth, gen):
        # the generation is that of the first overflowing edge in pool order
        f = construct(family, dict(params), depth)
        with pytest.raises(ValueError, match=f"at generation {gen};"):
            decay_report(f, MultiplierSpec(epsilon=0.1))

    def test_monotonicity_overflow_raises(self):
        # cosh(k x) overflows past k x = 710.5, at the edge's far end
        g = MetricGraph(
            [Vertex(0), Vertex(1, boundary=True)],
            [Edge(0, 0, 1, 800.0, 1.0)],
            root=0,
            energy=0.0,
        )
        f = Eigenfunction(
            g, {0: EdgeSolution(0, 1.0, 800.0, 1.0, -1.0)}, family="custom"
        )
        with pytest.raises(OverflowError, match=r"edge 0 at x=800\.0$"):
            monotonicity_check(f)


# ---------------------------------------------------------------------------
# The closed forms on random edges against mpmath and dense sampling
# ---------------------------------------------------------------------------


def random_edge_case(i):
    """A triangle whose edge 2 (1 -> 2) is reached from both of its ends,
    so that rho_a and arc switch branch inside it, with a random solution
    on it.  Case i cycles through k = 0 solutions, extra rates and the path
    prefactor."""
    rng = random.Random(i)
    length = rng.uniform(0.3, 3.0)
    potential = 0.0 if i % 5 == 4 else rng.uniform(0.1, 4.0)
    g = MetricGraph(
        [Vertex(0), Vertex(1), Vertex(2, boundary=True)],
        [Edge(0, 0, 1, rng.uniform(0.2, 2.0), rng.uniform(0.1, 4.0)),
         Edge(1, 0, 2, rng.uniform(0.2, 2.0), rng.uniform(0.1, 4.0)),
         Edge(2, 1, 2, length, potential)],
        root=0,
        energy=0.0,
    )
    k = 0.0 if i % 4 == 0 else rng.uniform(0.05, 3.0)
    sol = EdgeSolution(2, k, length, rng.uniform(-2.0, 2.0),
                       rng.uniform(-2.0, 2.0))
    spec = MultiplierSpec(
        kind="path" if i % 3 == 0 else "action",
        epsilon=rng.uniform(-0.5, 0.9),
        extra_rate=rng.uniform(-1.5, 1.5) if i % 2 else 0.0,
        delta=rng.uniform(0.0, 0.5),
        shift_sign=rng.choice([1, -1]),
    )
    path = PathSpec(g, (0, 2), (rng.uniform(0.2, 1.0),))
    return Multiplier(g, spec, path if spec.kind == "path" else None), sol


RANDOM_EDGES = range(48)


class TestClosedFormsOnRandomEdges:
    def test_cases_cover_every_piece_kind(self):
        seen = set()
        for i in RANDOM_EDGES:
            mult, sol = random_edge_case(i)
            e = mult.table.graph.edge_by_id[2]
            w = math.sqrt(max(e.potential - mult.table.energy, 0.0))
            seen.add(("k = 0", sol.k == 0.0))
            seen.add(("path", 2 in mult.prefactor and mult.prefactor[2] != 1.0))
            seen.add(("extra rate", mult.spec.extra_rate != 0.0))
            seen.add(("pieces", len(mult.pieces(2))))
            seen.add(("rho kink", w > 0.0 and bool(kinks(
                mult.table, e, MultiplierSpec()))))
        for key in ("k = 0", "path", "extra rate", "rho kink"):
            assert {(key, True), (key, False)} <= seen
        assert {("pieces", 1), ("pieces", 2), ("pieces", 3)} <= seen

    def test_decaying_leg_does_not_overflow(self):
        # on a millipede leg F psi = F(0) psi(0) e^{-0.1 delta x}, although
        # its growing factor e^{(c + k) x} alone passes e^709 on the leg
        f = construct("millipede", {"delta": 50.0}, 4)
        mult = Multiplier(f.graph, MultiplierSpec(epsilon=0.1))
        leg = f.solutions[5]
        assert (leg.k, leg.A + leg.B) == (50.0, 0.0)
        sup, l2 = qgdecay.verify._edge_sup_and_l2(mult, 5, leg)
        g0, rate = mult.on_edge(5)(0.0) * leg.A, 2 * 0.1 * 50.0
        assert sup == abs(g0)
        assert math.isclose(
            l2, g0 * g0 * -math.expm1(-rate * leg.length) / rate, rel_tol=1e-13
        )

    @pytest.mark.parametrize("i", RANDOM_EDGES)
    def test_l2_matches_mpmath_quad(self, i):
        mpmath = pytest.importorskip("mpmath")
        mult, sol = random_edge_case(i)
        table, spec = mult.table, mult.spec
        e = table.graph.edge_by_id[2]
        mp = mpmath.mp.clone()
        mp.dps = 40
        w = mp.sqrt(max(e.potential - table.energy, 0.0))
        length, k = mp.mpf(e.length), mp.mpf(sol.k)

        def approach(dist, slope, x):
            return min(dist[e.tail] + slope * x,
                       dist[e.head] + slope * (length - x))

        def integrand(x):
            expo = (1 - mp.mpf(spec.epsilon)) * approach(table.rho, w, x)
            expo += mp.mpf(spec.extra_rate) * approach(table.arc, 1, x)
            psi = (sol.A + sol.B * x if sol.k == 0.0
                   else sol.A * mp.cosh(k * x) + sol.B * mp.sinh(k * x))
            return (mult.prefactor.get(2, 1.0) * mp.exp(expo) * psi) ** 2

        cuts = sorted({0.0, e.length, *kinks(table, e, spec)})
        want = mp.quad(integrand, [mp.mpf(x) for x in cuts])
        _, l2 = qgdecay.verify._edge_sup_and_l2(mult, 2, sol)
        assert abs(l2 - want) <= 1e-13 * want

    @pytest.mark.parametrize("i", RANDOM_EDGES)
    def test_sup_bounds_dense_samples(self, i):
        mult, sol = random_edge_case(i)
        big_f, length = mult.on_edge(2), sol.length
        g = lambda x: abs(big_f(x) * edge_eval(sol, min(x, length)))
        n = 10_000
        xs = [length * j / (n - 1) for j in range(n)]
        samples = [g(x) for x in xs]
        best = max(range(n), key=samples.__getitem__)
        # refine the best sample between its neighbours: |F psi| is
        # unimodal that close to its max
        lo, hi = xs[max(best - 1, 0)], xs[min(best + 1, n - 1)]
        for _ in range(100):
            a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            lo, hi = (a, hi) if g(a) < g(b) else (lo, b)
        top = max(samples[best], g(0.5 * (lo + hi)))
        sup, _ = qgdecay.verify._edge_sup_and_l2(mult, 2, sol)
        assert sup >= max(samples)
        assert sup <= top * (1 + 1e-12)


# ---------------------------------------------------------------------------
# One evaluation per bitwise-distinct edge against the per-edge code
# ---------------------------------------------------------------------------

AVERAGED_FAMILIES = [
    ("braided", {"b_seq": [4] * 6, "a_seq": [2] * 6,
                 "v_seq": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}),
    ("ns_regular_tree", {"b_seq": [3, 2] * 3, "length_seq": [0.5, 1.0] * 4}),
]


def per_edge_average(f, y):
    """The averaged wave function as the in-order sum over every edge of
    its generation, each adding count * value: on a table or a built graph
    (every count 1), the bits of ``averaged_wave_function``; on the
    expansion of a table, whose class of n edges that function adds as
    n * value, the same to rounding."""
    info = f.graph.family_info
    if y < 0.0 or y > info.positions[-1]:
        raise ValueError(
            f"y={y} outside the truncated range [0, {info.positions[-1]}]"
        )
    gen = max(
        g for g in range(len(info.positions) - 1) if info.positions[g] <= y
    )
    x = y - info.positions[gen]
    weight = 1.0 / info.root_edges
    for j in range(gen):
        weight *= info.arriving[j] / info.ongoing[j]
    total = 0.0
    for e in f.graph.edges:
        if e.generation == gen:
            value = edge_eval(f.solutions[e.id], min(x, e.length))
            total += f.graph.edge_count(e.id) * value
    return weight * total


def looped_prefactor(y, positions, arriving, ongoing):
    """prod over generations passed before y of sqrt(b_j / a_j), as a loop
    over every generation position."""
    prefactor = 1.0
    for j, v_j in enumerate(positions):
        if v_j < y:
            if ongoing[j] <= 0 or arriving[j] <= 0:
                raise ValueError(
                    f"generation {j + 1} passed at y={y} has no branching data"
                )
            prefactor *= math.sqrt(ongoing[j] / arriving[j])
    return prefactor


def looped_action(y, positions, envelopes, energy):
    """int_0^y sqrt(V_m(t) - E) dt, as a loop over every segment that
    starts before y."""
    segments = [0.0, *positions]
    integral = 0.0
    for j, lo in enumerate(segments):
        if lo >= y:
            break
        hi = segments[j + 1] if j + 1 < len(segments) else math.inf
        gap = envelopes[j] - energy
        if gap <= 0.0:
            raise ValueError(
                f"envelope potential minus energy is {gap} <= 0 on segment {j}"
            )
        integral += math.sqrt(gap) * (min(hi, y) - lo)
    return integral


def per_point_averaged_rows(f, spec):
    """The averaged report's rows from F_ave * psi_ave at each point: the
    two F_ave factors and the per-edge average, each its own loop over the
    generations, and one ``_sup_and_l2`` per generation segment."""
    graph, info = f.graph, f.graph.family_info
    positions = info.positions
    envelopes = [
        min(e.potential for e in graph.edges if e.generation == g)
        for g in range(len(positions) - 1)
    ]
    e_eff = spec.effective_energy(graph.energy)

    def f_ave_psi(y):
        pre = looped_prefactor(y, positions[1:], info.arriving, info.ongoing)
        action = looped_action(y, positions[1:], envelopes, e_eff)
        big_f = pre * math.exp(
            (1.0 - spec.epsilon) * action + spec.extra_rate * y
        )
        return big_f * per_edge_average(f, y)

    rows, cum = [], 0.0
    for gen in range(len(envelopes)):
        sup, inc = _sup_and_l2(f_ave_psi, positions[gen], positions[gen + 1])
        cum += inc
        rows.append((gen, sup, inc, cum))
    return rows


def per_vertex_residuals(f):
    interior = f.graph.interior_vertex_ids()
    return bits([
        max(continuity_residual(f, v) for v in interior),
        max(kirchhoff_residual(f, v) for v in interior),
    ])


def with_signed_zero_children():
    """A root edge and two child edges whose solutions differ only in the
    sign of B = 0, with the averaging data of a binary branching."""
    g = MetricGraph(
        [Vertex(0), Vertex(1, generation=1),
         Vertex(2, generation=2, boundary=True),
         Vertex(3, generation=2, boundary=True)],
        [Edge(0, 0, 1, 1.0, 1.0, generation=0),
         Edge(1, 1, 2, 1.0, 1.0, generation=1),
         Edge(2, 1, 3, 1.0, 1.0, generation=1)],
        root=0,
        energy=0.0,
        family_info=FamilyInfo(positions=(0.0, 1.0, 2.0), arriving=(1,),
                               ongoing=(2,)),
    )
    sols = {
        0: EdgeSolution(0, 1.0, 1.0, 1.0, -0.9),
        1: EdgeSolution(1, 1.0, 1.0, 0.5, 0.0),
        2: EdgeSolution(2, 1.0, 1.0, 0.5, -0.0),
    }
    return Eigenfunction(g, sols, family="custom")


class TestDistinctEdgesMatchPerEdgeCode:
    @pytest.mark.parametrize("family,params", AVERAGED_FAMILIES,
                             ids=["braided", "ns-regular"])
    def test_averaged_wave_function(self, family, params):
        f = construct(family, dict(params), 6)
        positions = f.graph.family_info.positions
        interior = [
            a + t * (b - a)
            for a, b in zip(positions, positions[1:])
            for t in (0.1, 0.5, 0.9)
        ]
        full = expanded(f)
        for y in [*positions, *interior]:
            # a class of n edges adds n * value, the expansion edge by edge
            assert math.isclose(averaged_wave_function(f, y),
                                per_edge_average(full, y), rel_tol=1e-12)
            assert averaged_wave_function(full, y).hex() == (
                per_edge_average(full, y).hex()
            )

    @pytest.mark.parametrize("family,params", AVERAGED_FAMILIES,
                             ids=["braided", "ns-regular"])
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_SPEC_IDS)
    def test_averaged_decay_report_rows(self, family, params, spec):
        f = construct(family, dict(params), 6)
        spec = MultiplierSpec(
            kind="averaged", delta=spec.delta, shift_sign=spec.shift_sign,
            epsilon=spec.epsilon, extra_rate=spec.extra_rate,
        )
        got = [(r.generation, r.sup_F_psi, r.l2_increment, r.l2_cumulative)
               for r in decay_report(f, spec).rows]
        want = per_point_averaged_rows(expanded(f), spec)
        assert [row[0] for row in got] == [row[0] for row in want]
        # the averaged wave function adds a class of n edges as n * value
        assert all(math.isclose(a, b, rel_tol=1e-12)
                   for row, full in zip(got, want) for a, b in zip(row[1:], full[1:]))

    @pytest.mark.parametrize("family,params", KERNEL_FAMILIES,
                             ids=KERNEL_FAMILY_IDS)
    def test_continuity_and_kirchhoff(self, family, params):
        f = construct(family, dict(params), 6)
        res = continuity_and_kirchhoff(f)
        got = bits([res["max_continuity"], res["max_kirchhoff"]])
        assert got == per_vertex_residuals(expanded(f))

    def test_continuity_and_kirchhoff_late_violation(self):
        f = expanded(tree(6))
        sols = dict(f.solutions)
        for eid in (117, 100):
            sol = sols[eid]
            sols[eid] = EdgeSolution(eid, sol.k, sol.length, sol.A, 2 * sol.B)
        f = Eigenfunction(f.graph, sols, family=f.family)
        res = continuity_and_kirchhoff(f)
        assert res["max_kirchhoff"] > 1e-3
        got = bits([res["max_continuity"], res["max_kirchhoff"]])
        assert got == per_vertex_residuals(f)

    def test_end_roles_are_part_of_the_vertex_key(self):
        # vertex 1 is the head of a solution-1 edge and the tail of a
        # solution-2 edge, vertex 2 the other way round, in the same
        # incidence order
        g = MetricGraph(
            [Vertex(0), Vertex(1), Vertex(2), Vertex(3, boundary=True)],
            [Edge(0, 0, 1, 1.0, 1.0), Edge(1, 2, 3, 1.0, 1.0),
             Edge(2, 1, 2, 1.0, 1.0)],
            root=0,
            energy=0.0,
        )
        sols = {
            0: EdgeSolution(0, 1.0, 1.0, 1.0, 0.0),
            1: EdgeSolution(1, 1.0, 1.0, 1.0, 0.0),
            2: EdgeSolution(2, 1.0, 1.0, 1.5, 0.0),
        }
        f = Eigenfunction(g, sols, family="custom")
        res = continuity_and_kirchhoff(f)
        got = bits([res["max_continuity"], res["max_kirchhoff"]])
        assert got == per_vertex_residuals(f)
        assert res["max_continuity"] > 0.5

    def test_first_violation_after_duplicate_edges(self):
        # edges 0 and 1 are equal and decay; edge 2, shorter, grows
        g = MetricGraph(
            [Vertex(0), Vertex(1, boundary=True), Vertex(2, boundary=True),
             Vertex(3, boundary=True)],
            [Edge(0, 0, 1, 2.0, 1.0), Edge(1, 0, 2, 2.0, 1.0),
             Edge(2, 0, 3, 1.0, 1.0)],
            root=0,
            energy=0.0,
        )
        sols = {
            0: EdgeSolution(0, 1.0, 2.0, 1.0, -1.0),
            1: EdgeSolution(1, 1.0, 2.0, 1.0, -1.0),
            2: EdgeSolution(2, 1.0, 1.0, 1.0, 0.0),
        }
        f = Eigenfunction(g, sols, family="custom")
        result = monotonicity_check(f)
        assert per_point_monotonicity(f)[:2] == (False, 2)
        # psi = cosh x rises from its minimum at the near end
        expected = (False, 2, 0.0, "|psi| increases along edge 2 at x=0.0")
        assert (result.ok, result.edge, result.offset, result.detail) == expected

    def test_signed_zero_edges_are_not_merged(self, monkeypatch):
        f = with_signed_zero_children()
        evaluated = []

        def recording(sol, x):
            evaluated.append(sol.edge)
            return edge_eval(sol, x)

        monkeypatch.setattr(qgdecay.eigenfunctions, "edge_eval", recording)
        assert averaged_wave_function(f, 1.5).hex() == (
            per_edge_average(f, 1.5).hex()
        )
        assert evaluated == [1, 2]

        psi_rows = []

        def recording(name):
            kernel = getattr(qgdecay.verify, name)

            def run(*args):
                psi_rows.append(bits([args[-2 if name == "_rise" else -1].B])[0])
                return kernel(*args)

            monkeypatch.setattr(qgdecay.verify, name, run)

        recording("_edge_sup_and_l2")
        recording("_rise")
        report = decay_report(f, MultiplierSpec())
        assert_rows_close(report, per_point_rows(f, MultiplierSpec(), None))
        assert sorted(psi_rows) == sorted(bits([-0.9, 0.0, -0.0]))
        psi_rows.clear()
        result = monotonicity_check(f)
        assert per_point_monotonicity(f)[:2] == (False, 1)
        # psi = cosh x / 2 on edge 1 rises from the near end
        assert (result.ok, result.edge, bits([result.offset])[0]) == (
            False, 1, bits([0.0])[0]
        )
        # edge by edge in id order, up to the first that fails
        assert psi_rows == bits([-0.9, 0.0])


def ns_tree_with_a_repeated_position():
    """A generation-regular tree whose second generation is shorter than
    half an ulp of its position, so that positions[1] == positions[2]."""
    f = construct("ns_regular_tree", {
        "b_seq": [3, 2] * 3, "length_seq": [0.5, 1e-17, 0.5, 1.0, 0.5, 1.0, 0.5],
    }, 6)
    positions = f.graph.family_info.positions
    assert positions[1] == positions[2]
    return f


def braided_13():
    return construct("braided", {
        "b_seq": [4] * 13, "a_seq": [2] * 13,
        "v_seq": [float(j) for j in range(1, 14)],
    }, 13)


def chain_with_info(info, potentials):
    """One unit edge per potential in a chain, edge j in generation j with
    potential ``potentials[j]`` and psi = e^{-x} continued along it,
    carrying the averaging data ``info``."""
    n = len(potentials)
    g = MetricGraph(
        [Vertex(0), *(Vertex(j, generation=j, boundary=j == n)
                      for j in range(1, n + 1))],
        [Edge(j, j, j + 1, 1.0, potentials[j], generation=j) for j in range(n)],
        root=0,
        energy=0.0,
        family_info=info,
    )
    sols = {j: EdgeSolution(j, 1.0, 1.0, math.exp(-j), -math.exp(-j))
            for j in range(n)}
    return Eigenfunction(g, sols, family="custom")


AVERAGED = MultiplierSpec(kind="averaged")
# (eigenfunction maker, spec): each report is compared bit for bit
BIT_CASES = {
    "b2-depth60": (lambda: tree(60), AVERAGED),
    "b10-depth40-extra-rate1": (
        lambda: tree(40, b=10),
        MultiplierSpec(kind="averaged", epsilon=0.1, extra_rate=1.0),
    ),
    "braided-depth13": (braided_13, AVERAGED),
    "ns-repeated-position": (
        ns_tree_with_a_repeated_position,
        MultiplierSpec(kind="averaged", epsilon=0.3, delta=0.2),
    ),
    "signed-zero-children": (with_signed_zero_children, AVERAGED),
}
# (eigenfunction maker, spec, verify flags if a family reaches the error,
# message)
ERROR_CASES = {
    "gap": (
        lambda: construct("braided", {"b_seq": [4] * 3, "a_seq": [2] * 3,
                                      "v_seq": [1.0, 2.0, 3.0]}, 3),
        MultiplierSpec(kind="averaged", delta=5.0),
        ["--family", "braided", "--b-seq", "4,4,4", "--a-seq", "2,2,2",
         "--v-seq", "1,2,3", "--depth", "3", "--shift-delta", "5"],
        "envelope potential minus energy is -4.0 <= 0 on segment 0",
    ),
    "branching": (
        lambda: chain_with_info(FamilyInfo(positions=(0.0, 1.0, 2.0, 3.0),
                                           arriving=(1, 0, 1),
                                           ongoing=(2, 2, 0)), [1.0] * 3),
        AVERAGED,
        None,
        "generation 2 passed at y=3.0 has no branching data",
    ),
    "range": (
        lambda: chain_with_info(FamilyInfo(positions=(-1.0, 1.0, 2.0),
                                           arriving=(1, 1),
                                           ongoing=(1, 0)), [1.0] * 2),
        AVERAGED,
        None,
        "y=-1.0 outside the truncated range [0, 2.0]",
    ),
    # no family has a generation after the first whose potential lies
    # below the energy
    "gap-segment-1": (
        lambda: chain_with_info(FamilyInfo(positions=(0.0, 1.0, 2.0),
                                           arriving=(1,), ongoing=(1,)),
                                [1.0, -1.0]),
        AVERAGED,
        None,
        "envelope potential minus energy is -1.0 <= 0 on segment 1",
    ),
}


class TestAveragedPrefixTables:
    """The averaged kind reads running prefix tables built once per report;
    every sample is the float the per-point loops give."""

    @pytest.mark.parametrize("case", BIT_CASES.values(), ids=list(BIT_CASES))
    def test_report_is_the_per_point_code_bit_for_bit(self, case):
        make, spec = case
        f = make()
        got = [(r.generation, *bits([r.sup_F_psi, r.l2_increment, r.l2_cumulative]))
               for r in decay_report(f, spec).rows]
        assert got == [(gen, *bits(rest))
                       for gen, *rest in per_point_averaged_rows(f, spec)]

    @pytest.mark.parametrize("case", BIT_CASES.values(), ids=list(BIT_CASES))
    def test_per_point_functions_are_their_loops(self, case):
        make, spec = case
        f = make()
        info = f.graph.family_info
        positions, e_eff = info.positions, spec.effective_energy(f.graph.energy)
        envelopes = [min(e.potential for e in f.graph.edges if e.generation == g)
                     for g in range(len(positions) - 1)]
        ys = []  # every point the report samples
        for lo, hi in zip(positions, positions[1:]):
            _sup_and_l2(lambda y: ys.append(y) or 0.0, lo, hi)
        big_f = averaged_multiplier(f.graph, spec)
        for y in ys:
            pre = looped_prefactor(y, positions[1:], info.arriving, info.ongoing)
            action = looped_action(y, positions[1:], envelopes, e_eff)
            assert big_f(y).hex() == (pre * math.exp(
                (1.0 - spec.epsilon) * action + spec.extra_rate * y
            )).hex()
            assert averaged_wave_function(f, y).hex() == (
                per_edge_average(f, y).hex()
            )

    @pytest.mark.parametrize("case", ERROR_CASES.values(), ids=list(ERROR_CASES))
    def test_error_is_the_per_point_codes(self, case):
        make, spec, _, message = case
        f = make()
        with pytest.raises(ValueError) as want:
            per_point_averaged_rows(f, spec)
        with pytest.raises(ValueError) as got:
            decay_report(f, spec)
        assert str(got.value) == str(want.value) == message

    @pytest.mark.parametrize("case", ERROR_CASES.values(), ids=list(ERROR_CASES))
    def test_error_exits_2_through_the_cli(self, case, capsys, monkeypatch):
        make, _, flags, message = case
        if flags is None:  # no family reaches it: verify gets the graph
            f = make()
            monkeypatch.setattr(qgdecay.cli, "construct", lambda *args: f)
            flags = ["--family", "regular-tree", "--b", "2", "--depth", "3"]
        code = main(["verify", *flags, "--multiplier", "averaged"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("make", [lambda: tree(30), lambda: tree(60),
                                      braided_13],
                             ids=["b2-depth30", "b2-depth60", "braided-depth13"])
    def test_work_is_linear_in_the_classes(self, make, monkeypatch):
        f = make()
        calls = collections.Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def run(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, run)

        counted(qgdecay.eigenfunctions, "edge_eval")
        # where verify looks the table builders up, and where the per-point
        # function does
        counted(qgdecay.verify, "averaged_multiplier")
        for module in (qgdecay.verify, qgdecay.eigenfunctions):
            counted(module, "averaged_wave")
        decay_report(f, AVERAGED)
        # 18 sup points and 16 Gauss nodes per generation class, and the
        # slope fit's one psi value per interior vertex class
        assert calls == {
            "edge_eval": 34 * len(f.graph.edges) + len(f.graph.interior_vertex_ids()),
            "averaged_multiplier": 1,
            "averaged_wave": 1,
        }


# synchronized families, on which every edge of a generation has the
# canonical path's derivative fraction a_j / b_j
SYNCHRONIZED = {
    "b2": lambda: tree(14),
    "b3": lambda: tree(10, b=3),
    "b10": lambda: tree(8, b=10),
    "ns": lambda: construct("ns_regular_tree", {
        "b_seq": [2, 3] * 5, "length_seq": [1.0, 0.7] * 6}, 10),
    "braided-depth13": braided_13,
}
SHARPER_SPECS = {
    "eps0.1": MultiplierSpec(kind="averaged", epsilon=0.1),
    "eps0.1-extra-rate1": MultiplierSpec(kind="averaged", epsilon=0.1,
                                         extra_rate=1.0),
    "shift-delta0.1": MultiplierSpec(kind="averaged", delta=0.1),
}


class TestSharperMultipliersAgree:
    @pytest.mark.parametrize("spec", SHARPER_SPECS.values(), ids=list(SHARPER_SPECS))
    @pytest.mark.parametrize("make", SYNCHRONIZED.values(), ids=list(SYNCHRONIZED))
    def test_averaged_is_path_inside_each_generation(self, make, spec):
        """F_ave at a generation's midpoint is the path multiplier's F
        halfway along that generation's path edge."""
        f = make()
        positions = f.graph.family_info.positions
        path = canonical_path(f)
        big_f = averaged_multiplier(f.graph, spec)
        mult = Multiplier(f.graph, replace(spec, kind="path"), path)
        gens = []
        for eid in path.edges:
            e = f.graph.edge_by_id[eid]
            gens.append(e.generation)
            mid = (positions[e.generation] + positions[e.generation + 1]) / 2
            assert math.isclose(big_f(mid), mult.on_edge(eid)(e.length / 2),
                                rel_tol=1e-13)
        assert gens == list(range(len(positions) - 1))


class TestCertify:
    def test_thresholds(self):
        # a loosened threshold would pass certificates these reject
        verify = qgdecay.verify
        assert (verify.MAX_CONTINUITY, verify.MAX_KIRCHHOFF, verify.MARGIN_SLACK,
                verify.IDENTITY_FLOOR, verify.IDENTITY_RATIO) == (
                    1e-10, 1e-9, 1e-9, 1e-12, 2.5)

    @pytest.mark.parametrize("constants,block,ok", [
        ({"MAX_CONTINUITY": 1e-16}, "structure", False),
        ({"MAX_KIRCHHOFF": 1e-16}, "structure", False),
        ({"MARGIN_SLACK": -1e-9}, "constraint", False),
        ({"IDENTITY_RATIO": 5.0}, "identity", False),
        ({"IDENTITY_RATIO": 5.0, "IDENTITY_FLOOR": 1e-4}, "identity", True),
    ], ids=["continuity", "kirchhoff", "margin-slack", "identity-ratio",
            "identity-floor"])
    def test_each_threshold_decides_its_check(self, monkeypatch, constants,
                                              block, ok):
        # on the b = 2 tree: continuity 5.1e-16, Kirchhoff 4.2e-16, margin
        # delta - 1.1e-16, identity residuals 4.5e-5 and 1.1e-5 (ratio 4.0)
        f = tree(depth=4)
        for name, value in constants.items():
            monkeypatch.setattr(qgdecay.verify, name, value)
        passed, blocks = certify(f, MultiplierSpec(epsilon=0.1))
        assert (passed, blocks[block]["ok"]) == (ok, ok)
        others = ("structure", "constraint", "monotonicity", "identity")
        assert all(blocks[name]["ok"] for name in others if name != block)
        assert blocks["decay_report"]["status"] == "PASS"
