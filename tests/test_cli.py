import collections
import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgdecay.cli
import qgdecay.eigenfunctions
import qgdecay.graph
import qgdecay.metrics
import qgdecay.verify
from qgdecay.cli import main
from qgdecay.eigenfunctions import edge_eval
from qgdecay.graph import GenerationTable, MetricGraph, build_graph, dijkstra
from qgdecay.transfer import eig2, vertex_edge_transfer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (family, the flags given, the required flag left out)
MISSING_FLAG_CASES = [
    ("regular-tree", [], "--b"),
    ("ns-regular-tree", ["--length-seq", "1,1,1"], "--b-seq"),
    ("ns-regular-tree", ["--b-seq", "2,2"], "--length-seq"),
    ("two-lengths-tree", ["--L2", "2"], "--L1"),
    ("two-lengths-tree", ["--L1", "1"], "--L2"),
    ("millipede", [], "--delta"),
    ("ladder", [], "--w"),
    ("braided", ["--a-seq", "1,1", "--v-seq", "1,2"], "--b-seq"),
    ("braided", ["--b-seq", "2,2", "--v-seq", "1,2"], "--a-seq"),
    ("braided", ["--b-seq", "2,2", "--a-seq", "1,1"], "--v-seq"),
]


class TestGenerate:
    def test_family_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "regular-tree", "--b", "2",
            "--depth", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["edges"]) == 15
        rebuilt = build_graph(doc)
        assert len(rebuilt.edges) == 15

    def test_broken_spec_exits_2(self, capsys, tmp_path):
        edge = {"id": 0, "tail": 0, "head": 7, "length": 1.0, "potential": 2.0}
        graph = {"vertices": [{"id": 0}], "edges": [edge], "root": 0,
                 "energy": 1.0}
        no_length = {k: v for k, v in edge.items() if k != "length"}
        # an infinite potential leaves the head out of the action table
        inf_potential = dict(
            graph, vertices=[{"id": 0}, {"id": 7}],
            edges=[dict(edge, potential=math.inf)],
        )
        # (spec document, text the error message must contain)
        cases = [
            (graph, "7"),
            ({"family": "regular_tree", "params": {"b": 2}}, "depth"),
            ({"family": "regular_tree", "params": {}, "depth": 3}, "'b'"),
            (dict(graph, edges=[no_length]), "length"),
            (dict(graph, vertices=5), "vertices"),
            (inf_potential, "edge 0: non-finite potential inf"),
            # values of the wrong JSON type
            ({"family": "regular-tree", "params": {"b": [1]}, "depth": 2},
             "int()"),
            ({"family": "regular-tree", "params": {"b": 2}, "depth": None},
             "int()"),
            (dict(graph, energy="low"), "could not convert string to float"),
        ]
        spec = tmp_path / "broken.json"
        for doc, needle in cases:
            spec.write_text(json.dumps(doc))
            for command in ("generate", "metric"):
                code, _, err = run(capsys, command, "--spec", str(spec))
                assert code == 2, (command, doc)
                assert needle in err, err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code, _, err = run(capsys, "generate", "--spec", str(spec))
        assert code == 2

    @pytest.mark.parametrize(
        "family,given,flag", MISSING_FLAG_CASES,
        ids=[family + flag for family, _, flag in MISSING_FLAG_CASES],
    )
    def test_missing_family_args_exit_2(self, capsys, family, given, flag):
        code, _, err = run(capsys, "generate", "--family", family, *given,
                           "--depth", "2")
        assert code == 2
        assert flag in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "generate", "--family", "regular-tree",
                         "--b", "2", "--depth", "3", "--frobnicate")
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0

    def test_out_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QGDECAY_OUTDIR", str(tmp_path))
        code, out, _ = run(
            capsys, "generate", "--family", "regular-tree", "--b", "2",
            "--depth", "2", "--out", "tree.json",
        )
        assert code == 0 and out == ""
        assert (tmp_path / "tree.json").exists()


class TestMetric:
    def test_csv_columns(self, capsys):
        code, out, _ = run(
            capsys, "metric", "--family", "regular-tree", "--b", "2",
            "--depth", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "vertex_id,arc_distance,rho_a"
        assert len(lines) == 1 + 16  # all vertices of the depth-3 tree

    def test_cut_points_add_ladder_midpoints(self, capsys):
        _, plain, _ = run(capsys, "metric", "--family", "ladder", "--w", "1",
                          "--depth", "4")
        _, cut, _ = run(capsys, "metric", "--family", "ladder", "--w", "1",
                        "--depth", "4", "--cut-points")
        assert len(cut.strip().split("\n")) == len(plain.strip().split("\n")) + 4


class TestSolve:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--family", "millipede", "--delta", "0.1",
            "--depth", "3", "--samples", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "edge_id,generation,x_local,arc_distance,psi,dpsi"
        # 4 body edges + 3 legs, 5 samples each
        assert len(lines) == 1 + 7 * 5

    @pytest.mark.parametrize("argv,rows", [
        (["--family", "regular-tree", "--b", "10", "--depth", "9"],
         9 * 1_111_111_111),  # 1 + 10 + ... + 10^9 edges, 9 samples each
        (["--family", "millipede", "--delta", "0.1", "--depth", "3",
          "--samples", "1000000000"], 7 * 10**9),
    ], ids=["wide-tree", "many-samples"])
    def test_too_many_rows_exit_2_before_sampling(self, capsys, monkeypatch,
                                                  argv, rows):
        def refuse(*args):
            raise AssertionError("sampled the rows")

        monkeypatch.setattr(qgdecay.eigenfunctions.Eigenfunction, "sample_rows",
                            refuse)
        code, out, err = run(capsys, "solve", *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: solve would write {rows} rows, more than "
                       "MAX_SOLVE_ROWS = 1000000; use a smaller --depth or "
                       "--samples\n")

    @pytest.mark.parametrize("bound,code", [(7 * 5, 0), (7 * 5 - 1, 2)])
    def test_row_bound_is_inclusive(self, capsys, monkeypatch, bound, code):
        monkeypatch.setattr(qgdecay.cli, "MAX_SOLVE_ROWS", bound)
        assert run(capsys, "solve", "--family", "millipede", "--delta", "0.1",
                   "--depth", "3", "--samples", "5")[0] == code


class TestVerify:
    def test_tree_path_multiplier_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "regular-tree", "--b", "2",
            "--kL", "1", "--depth", "10", "--multiplier", "path",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        assert doc["decay_report"]["status"] == "PASS"
        assert doc["structure"]["ok"]
        assert doc["constraint"]["ok"]
        assert doc["monotonicity"]["ok"]
        assert doc["identity"]["ok"]

    def test_sharp_rate_control_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "ladder", "--w", "1",
            "--mode", "symmetric", "--depth", "10",
            "--multiplier", "action", "--epsilon", "-0.1",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "FAIL"
        assert doc["decay_report"]["status"] == "FAIL"

    @pytest.mark.parametrize("multiplier", [[], ["--multiplier", "averaged"]],
                             ids=["action", "averaged"])
    def test_wide_tree_growing_tail_fails(self, capsys, multiplier):
        # each generation's L2 increment is 1.6696 times the one before
        code, out, _ = run(
            capsys, "verify", "--family", "regular-tree", "--b", "10",
            "--kL", "1", "--depth", "40", "--extra-rate", "1", *multiplier,
        )
        assert code == 1
        report = json.loads(out)["decay_report"]
        assert report["status"] == "FAIL"
        assert report["cauchy_pass"] is False
        assert math.isclose(report["tail_ratio"], 1.6695784865510894, rel_tol=1e-12)

    def test_braided_averaged_multiplier(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "braided",
            "--b-seq", "2,2,2,2,2,2", "--a-seq", "1,1,1,1,1,1",
            "--v-seq", "1,2,3,4,5,6", "--depth", "6",
            "--multiplier", "averaged", "--shift-delta", "0.1",
        )
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_two_lengths_path_certificate(self, capsys):
        # along the canonical pure-first-length path the certificate holds;
        # the whole-graph action certificate does not (mixed branches leave
        # the shared eigendirection)
        base = ["verify", "--family", "two-lengths-tree", "--L1", "1",
                "--L2", "2", "--depth", "8"]
        code_path, _, _ = run(capsys, *base, "--multiplier", "path")
        assert code_path == 0
        code_action, _, _ = run(capsys, *base, "--multiplier", "action")
        assert code_action == 1

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric"])
    def test_ladder_path_default_schedule(self, capsys, mode):
        # the certified rail path ends one generation short of the rungs;
        # the default schedule follows the generations actually sampled
        code, out, _ = run(
            capsys, "verify", "--family", "ladder", "--w", "1", "--depth", "5",
            "--multiplier", "path", "--mode", mode,
        )
        assert code == 0
        assert json.loads(out)["decay_report"]["depths"] == [4]

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the multiplier overflows a float at these depths
            (["verify", "--family", "ladder", "--w", "1", "--mode",
              "antisymmetric", "--depth", "800"],
             "action multiplier times psi overflows a float at generation "
             "788; try a smaller --depth"),
            (["verify", "--family", "millipede", "--delta", "0.1",
              "--depth", "600"],
             "action multiplier times psi overflows a float at generation "
             "394; try a smaller --depth"),
            # tanh(kL2) saturates, so the shared-eigenvector bracket fails
            (["verify", "--family", "two-lengths-tree", "--L1", "1", "--L2",
              "30", "--depth", "4"], ""),
            # the tree builder, not 1 / b, rejects b = 0
            (["sweep", "--family", "regular-tree", "--b-range", "0:2:1"],
             "branching number b must be >= 1"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--depth-schedule", "2,-3"],
             "depth schedule [2, -3] lies outside the constructed depths 0..4"),
            # non-finite numeric flags
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--epsilon", "nan"], "epsilon must be finite, got nan"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--extra-rate", "nan"], "extra_rate must be finite, got nan"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--extra-rate", "nan", "--multiplier", "path"],
             "extra_rate must be finite, got nan"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--shift-delta", "nan"], "delta must be finite, got nan"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--shift-delta", "inf"], "delta must be finite, got inf"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--exclusion", "nan"], "exclusion must be finite, got nan"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--exclusion", "inf"], "exclusion must be finite, got inf"),
            (["metric", "--family", "regular-tree", "--b", "2", "--depth", "4",
              "--energy-shift", "nan"], "energy must be finite, got nan"),
            # non-finite sweep grids, which would otherwise never end
            (["sweep", "--family", "ladder", "--w", "0.5:1:nan"],
             "grid values must be finite, got 0.5:1:nan"),
            (["sweep", "--family", "ladder", "--w", "0.5:inf:0.5"],
             "grid values must be finite, got 0.5:inf:0.5"),
            (["sweep", "--family", "regular-tree", "--kL-range", "nan:1:0.5"],
             "grid values must be finite, got nan:1:0.5"),
            (["sweep", "--family", "millipede", "--delta-grid", "0.1,inf"],
             "grid values must be finite, got 0.1,inf"),
            # a finite grid too large to build
            (["sweep", "--family", "ladder", "--w", "1:1e9:1"],
             "grid 1:1e9:1 has more than 100000 points"),
            # a branching number is a whole number
            (["sweep", "--family", "regular-tree", "--b-range", "2:3:0.5",
              "--kL-range", "1:1:1"],
             "b grid values must be integers, got 2:3:0.5"),
            # a CSV of no samples
            (["solve", "--family", "regular-tree", "--b", "2", "--depth", "2",
              "--samples", "0"], "--samples must be >= 1, got 0"),
            (["solve", "--family", "regular-tree", "--b", "2", "--depth", "2",
              "--samples", "-3"], "--samples must be >= 1, got -3"),
            # k = kL / L has no value at L = 0
            (["verify", "--family", "regular-tree", "--b", "2", "--kL", "1",
              "--L", "0", "--depth", "3"], "length must be > 0"),
            (["solve", "--family", "regular-tree", "--b", "2", "--kL", "1",
              "--L", "0", "--depth", "3"], "length must be > 0"),
            # F underflows on the identity window: to 0 (a division by
            # zero), or to subnormals that leave the residuals infinite
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "3",
              "--extra-rate=-1000"],
             "the action multiplier underflows on the identity window "
             "[0.1, 0.9] of root edge 0"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "3",
              "--epsilon", "1000"],
             "the action multiplier underflows on the identity window "
             "[0.1, 0.9] of root edge 0"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "3",
              "--multiplier", "path", "--extra-rate=-1000"],
             "the path multiplier underflows on the identity window "
             "[0.1, 0.9] of root edge 0"),
            (["verify", "--family", "millipede", "--delta", "0.1", "--depth",
              "3", "--multiplier", "path", "--extra-rate=-1000"],
             "the path multiplier underflows on the identity window "
             "[0.2, 1.8] of root edge 0"),
            (["verify", "--family", "regular-tree", "--b", "2", "--depth", "3",
              "--extra-rate=-800"],
             "the action multiplier underflows on the identity window "
             "[0.1, 0.9] of root edge 0"),
            # a root distance of 2e308 is inf, which reaches nothing
            (["metric", "--family", "two-lengths-tree", "--L1", "1e308",
              "--L2", "1e308", "--depth", "2"],
             "the root distance of vertex 2 overflows\n"),
            (["metric", "--family", "regular-tree", "--b", "2", "--L", "1e308",
              "--depth", "3"],
             "the root distance of vertex 2 overflows\n"),
        ],
        ids=["ladder-deep", "millipede-deep", "twolen-saturated", "sweep-b0",
             "negative-schedule", "epsilon-nan", "extra-rate-nan",
             "extra-rate-nan-path", "shift-delta-nan", "shift-delta-inf",
             "exclusion-nan", "exclusion-inf", "energy-shift-nan",
             "grid-step-nan", "grid-stop-inf", "grid-start-nan",
             "grid-list-inf", "grid-too-large", "b-grid-fractional",
             "samples-zero", "samples-negative", "kL-zero-length",
             "kL-zero-length-solve", "identity-f-zero-rate",
             "identity-f-zero-epsilon", "identity-f-zero-path",
             "identity-f-zero-millipede-path", "identity-f-subnormal",
             "metric-twolen-distance-inf", "metric-tree-distance-inf"],
    )
    def test_numeric_failure_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth,multiplier", [
        (320, "action"), (320, "averaged"), (320, "path"), (309, "averaged"),
    ])
    def test_class_counts_past_the_float_range_exit_2(self, capsys, depth,
                                                      multiplier):
        # generation 309 of the b = 10 tree has 10^309 edges
        code, out, err = run(
            capsys, "verify", "--family", "regular-tree", "--b", "10",
            "--kL", "1", "--depth", str(depth), "--multiplier", multiplier,
        )
        assert (code, out) == (2, "")
        assert err == ("error: generation 309 has more edges than a float can "
                       "count (over 1.798e+308); use a smaller --depth\n")

    def test_class_counts_inside_the_float_range_pass(self, capsys):
        # generation 308 has 10^308 edges, below the largest float
        code, _, _ = run(capsys, "verify", "--family", "regular-tree", "--b",
                         "10", "--kL", "1", "--depth", "308")
        assert code == 0

    def test_path_underflow_names_the_generation(self, capsys):
        # the incoming derivative underflows at generation 249, whose vertex
        # ids have 248 digits
        code, out, err = run(
            capsys, "verify", "--family", "regular-tree", "--b", "10",
            "--kL", "1", "--depth", "308", "--multiplier", "path",
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: vertex with a 248-digit id in generation 249: incoming "
        )
        assert "generation" in err and len(err) < 200

    @pytest.mark.parametrize("argv,depth", [
        (["sweep", "--family", "regular-tree", "--b-range", "2",
          "--kL-range", "800"], 3),
        (["solve", "--family", "regular-tree", "--b", "2", "--kL", "800",
          "--depth", "2"], 2),
        (["verify", "--family", "regular-tree", "--b", "2", "--L", "1e300",
          "--depth", "3"], 3),
    ], ids=["sweep", "solve", "verify"])
    def test_construction_overflow_names_family_and_depth(self, capsys, argv,
                                                          depth):
        # cosh(kL) overflows in the tree's transfer step
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: constructing the regular_tree eigenfunction "
                       f"to depth {depth} overflows a float (math range error)\n")

    @pytest.mark.parametrize("depth,code", [(10, 0), (20, 1)])
    def test_alternating_ns_tree_stops_decaying(self, capsys, depth, code):
        # the construction's seed excites the growing mode, which overtakes
        # the decaying one near generation 17; |psi| first rises inside the
        # first generation class whose psi' turns positive at its far end
        argv = ["--family", "ns-regular-tree",
                "--b-seq", ",".join(["2", "3"] * 12),
                "--length-seq", ",".join(["1.0", "0.7"] * 13),
                "--depth", str(depth)]
        got, out, _ = run(capsys, "verify", *argv)
        assert got == code
        mono = json.loads(out)["monotonicity"]
        f = qgdecay.eigenfunctions.construct(
            *qgdecay.cli._family_params(qgdecay.cli._build_parser().parse_args(
                ["verify", *argv]
            ))
        )
        rising = [
            e.id for e in f.graph.edges
            if qgdecay.eigenfunctions.edge_deriv(f.solutions[e.id], e.length) > 0.0
        ]
        if depth == 10:
            assert mono == {"ok": True, "detail": ""} and not rising
        else:
            assert f.graph.edge_by_id[rising[0]].generation == 18
            assert not mono["ok"]
            assert mono["detail"].startswith(
                f"|psi| increases along edge {rising[0]} at x="
            )

    @pytest.mark.parametrize("multiplier,status", [("action", 1), ("path", 0)])
    @pytest.mark.parametrize("shift,tables", [("0", 2), ("0.3", 3)])
    def test_one_verify_runs_dijkstra_once_per_table(
        self, capsys, monkeypatch, multiplier, status, shift, tables
    ):
        # one distance pass per table: arc lengths and rho at the graph
        # energy, shared by every reader, plus rho at E + shift for the
        # report's multiplier; the constraint margin needs no table.  The
        # two-lengths tree is built as a graph (its generations differ
        # within), and its whole-graph action certificate honestly fails.
        # k = 2 keeps rho at E (weights 2L) apart from arc length
        weight_sums = []
        distance_pass = MetricGraph._pass

        def counting(graph, weights):
            weight_sums.append(float(weights.sum()))
            return distance_pass(graph, weights)

        monkeypatch.setattr(MetricGraph, "_pass", counting)
        code, _, _ = run(
            capsys, "verify", "--family", "two-lengths-tree", "--L1", "1",
            "--L2", "2", "--k", "2", "--depth", "4", "--multiplier", multiplier,
            "--shift-delta", shift,
        )
        assert code == status
        assert len(weight_sums) == tables
        assert len(set(weight_sums)) == tables

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "regular-tree", "--b", "3", "--depth", "4"],
        ["verify", "--family", "ns-regular-tree", "--b-seq", "2,3,2,2",
         "--length-seq", "1,1,1,1,1", "--depth", "4", "--multiplier", "path"],
        ["verify", "--family", "braided", "--b-seq", "4,4,4,4",
         "--a-seq", "2,2,2,2", "--v-seq", "1,2,3,4", "--depth", "4",
         "--multiplier", "averaged", "--shift-delta", "0.3"],
        ["solve", "--family", "braided", "--b-seq", "3,4,2",
         "--a-seq", "1,3,2,4", "--v-seq", "1,1.5,3,4", "--depth", "4"],
        ["sweep", "--family", "regular-tree", "--b-range", "2:3:1",
         "--kL-range", "0.5:1:0.5"],
    ], ids=["verify-regular", "verify-ns-path", "verify-braided-averaged",
            "solve-braided", "sweep"])
    def test_synchronized_families_build_no_graph(self, capsys, monkeypatch, argv):
        # construct keeps the generation table (a MetricGraph of one edge
        # per generation): no other graph is built, and no Dijkstra runs
        init = MetricGraph.__init__

        def only_tables(graph, *args, **kwargs):
            assert type(graph) is GenerationTable, "built a graph"
            init(graph, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("ran Dijkstra")

        monkeypatch.setattr(MetricGraph, "__init__", only_tables)
        monkeypatch.setattr(qgdecay.graph, "dijkstra", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("family_argv,pushes", [
        (["regular-tree", "--b", "2"], False),
        (["ns-regular-tree", "--b-seq", "2,3,2,2",
          "--length-seq", "1,0.5,1.5,1,2"], False),
        (["two-lengths-tree", "--L1", "1", "--L2", "2"], False),
        (["millipede", "--delta", "0.1"], False),
        (["ladder", "--w", "1"], True),
        (["braided", "--b-seq", "4,4,4,4", "--a-seq", "2,2,2,2",
          "--v-seq", "1,2,3,4"], True),
    ], ids=["regular", "ns", "twolen", "millipede", "ladder", "braided"])
    def test_only_cyclic_families_push_on_the_heap(
        self, capsys, monkeypatch, family_argv, pushes
    ):
        # on the built graph (a verify of a synchronized family runs no
        # Dijkstra), trees take the breadth-first pass; the ladder's rungs
        # and the braided graph's parallel edges send Dijkstra to the heap
        calls = []

        def counting(heap, item):
            calls.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(qgdecay.graph, "heapq", types.SimpleNamespace(
            heappush=counting, heappop=heapq.heappop,
        ))
        code, _, _ = run(capsys, "metric", "--family", *family_argv,
                         "--depth", "4")
        assert code == 0
        assert (len(calls) > 0) == pushes

    @pytest.mark.parametrize("family_argv", [
        ["ladder", "--w", "1"],
        ["ladder", "--w", "1", "--cut-points"],
        ["braided", "--b-seq", "4,4,4,4", "--a-seq", "2,2,2,2",
         "--v-seq", "1,2,3,4"],
    ], ids=["ladder", "ladder-cut-points", "braided"])
    def test_heap_evaluates_each_weight_at_most_once(
        self, capsys, monkeypatch, family_argv
    ):
        # the heap skips a settled neighbour before looking up its weight
        runs = []

        class Counting(collections.UserDict):
            def __init__(self, weight):
                self.lookups = collections.Counter()
                super().__init__(weight)

            def __getitem__(self, eid):
                self.lookups[eid] += 1
                return self.data[eid]

        def counting(graph, weight):
            runs.append(Counting(weight))
            return dijkstra(graph, runs[-1])

        monkeypatch.setattr(qgdecay.graph, "dijkstra", counting)
        code, _, _ = run(capsys, "metric", "--family", *family_argv,
                         "--depth", "4")
        assert code == 0
        assert runs and all(max(w.lookups.values()) == 1 for w in runs)

    def test_one_verify_evaluates_psi_per_vertex_not_per_point(
        self, capsys, monkeypatch
    ):
        # the decay report and the monotonicity test are closed forms on
        # one edge per generation, which call no edge_eval; pointwise
        # evaluations remain for the vertex values that both fits read (6
        # interior vertex generations), the identity check (198) and the
        # vertex residuals (6 generations x 2 incident edge classes).
        # Per-vertex fits and residuals would add 297 (513 in all), and
        # per-point sampling 51 per edge (34 in the decay report, 17 in the
        # monotonicity scan): 6,477 on these 127 edges.
        calls = []

        def counting(sol, x):
            calls.append(x)
            return edge_eval(sol, x)

        for module in (qgdecay.eigenfunctions, qgdecay.verify, qgdecay.cli):
            monkeypatch.setattr(module, "edge_eval", counting, raising=False)
        counts = []
        for _ in range(2):
            calls.clear()
            code, _, _ = run(
                capsys, "verify", "--family", "regular-tree", "--b", "2",
                "--depth", "6",
            )
            assert code == 0
            counts.append(len(calls))
        assert counts == [216, 216]

    def test_csv_sidecar(self, capsys, tmp_path):
        out_csv = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "verify", "--family", "regular-tree", "--b", "2",
            "--depth", "6", "--csv", str(out_csv),
        )
        assert code == 0
        header = out_csv.read_text().split("\n")[0]
        assert header == "generation,sup_F_psi,cum_L2,depth"

    @pytest.mark.parametrize("error", [
        MemoryError(),
        np._core._exceptions._ArrayMemoryError((10**9,), np.dtype(float)),
    ], ids=["bare", "numpy"])
    def test_memory_error_exits_2(self, capsys, monkeypatch, error):
        # exit 1 means only a FAILed certificate
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(qgdecay.verify, "decay_report", exhausted)
        code, out, err = run(
            capsys, "verify", "--family", "regular-tree", "--b", "2",
            "--depth", "3",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {str(error) or 'out of memory'}\n"


# sha256 of the stdout of the millipede and of the odd ladder's half graph
# as they were built edge by edge before the comb builder made both; the
# comb keeps their ids, generations, boundary flags and solutions.  At
# depth 1 the half ladder's spine is a single edge.
COMB_DIGESTS = {
    "ladder-odd-depth-1": (
        ["solve", "--family", "ladder", "--w", "1", "--mode", "antisymmetric",
         "--depth", "1"],
        "dafca0c5e08f92c345970b7f71cc27ed26fd751739d77606d545efee1ed744be",
    ),
    "ladder-odd-depth-2-rungs-3": (
        ["solve", "--family", "ladder", "--w", "1", "--mode", "antisymmetric",
         "--depth", "2", "--rungs", "3"],
        "9e005c4eccfd347c7ffbd2bcb24e38f3d4d64a3bc5d1688981eba08d13aed344",
    ),
    "ladder-odd-depth-5-rungs-3": (
        ["solve", "--family", "ladder", "--w", "1", "--mode", "antisymmetric",
         "--depth", "5", "--rungs", "3"],
        "9e005c4eccfd347c7ffbd2bcb24e38f3d4d64a3bc5d1688981eba08d13aed344",
    ),
    "ladder-odd-energy": (
        ["solve", "--family", "ladder", "--w", "0.7", "--mode",
         "antisymmetric", "--depth", "4", "--energy", "0.3"],
        "ee55b58ee9a82d4e433dfa9c28c62baf15f02783cb4cb510f1802fa4b36b372d",
    ),
    "ladder-even-energy": (
        ["solve", "--family", "ladder", "--w", "1", "--depth", "3",
         "--energy", "0.3"],
        "76804204cdf08873ec623d399f18ff962f9ab7acbe1f70c66993f98b0507290d",
    ),
    "generate-millipede-legs": (
        ["generate", "--family", "millipede", "--delta", "0.1", "--depth", "4",
         "--legs", "2", "--leg-length", "1.5"],
        "4187f2eaa60d72617263e3272a27d7a29f50d5079ed21b23b701c8fdaf3d302a",
    ),
    "solve-millipede-legs": (
        ["solve", "--family", "millipede", "--delta", "0.1", "--depth", "4",
         "--legs", "2", "--leg-length", "1.5"],
        "70eddcad4f9056bba8fcee4d765a1a72d41dae339b396c12673bb99dadf57fc8",
    ),
    "solve-millipede-legs-energy": (
        ["solve", "--family", "millipede", "--delta", "0.3", "--depth", "3",
         "--legs", "5", "--leg-length", "2.5", "--energy", "0.3"],
        "5a16d43610a4192f1f040924ef8722aa96762234a05d5dce7f69d8715b9cf4df",
    ),
}


class TestComb:
    @pytest.mark.parametrize("argv,digest", COMB_DIGESTS.values(),
                             ids=COMB_DIGESTS)
    def test_output_unchanged(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_millipede_legs_at_the_body_potential(self, capsys):
        # at delta = 1 legs and body share V - E = 1; the legs still carry
        # the leg solution, so the vertex conditions hold
        code, out, _ = run(capsys, "verify", "--family", "millipede",
                           "--delta", "1", "--depth", "6")
        doc = json.loads(out)
        assert (code, doc["status"]) == (0, "PASS")
        assert doc["structure"]["max_kirchhoff"] <= 1e-9
        assert doc["monotonicity"]["ok"]


class TestSweep:
    def test_ladder_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "ladder",
                           "--w", "0.25:4:0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            cells = line.split(",")
            det = float(cells[2])
            assert abs(det - 1.0) <= 1e-12
            assert cells[7] == "True"
            # fitted rate agrees with the step eigenvalue
            assert abs(float(cells[6]) - math.log(float(cells[4]))) <= 1e-6

    def test_tree_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "regular-tree",
                           "--b-range", "2:3:1", "--kL-range", "0.5:1.5:0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == "True"  # lambda < 1/(b cosh kL)
            assert cells[7] == "True"  # b lambda^2 < 1
            lam = float(cells[2])
            assert abs(float(cells[3]) - math.log(lam)) <= 1e-6

    def test_millipede_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "millipede",
                           "--delta-grid", "0.1,0.01")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3

    @pytest.mark.parametrize("family,points", [
        ("ladder", 16), ("millipede", 5), ("regular-tree", 270),
    ])
    def test_rows_read_the_fitted_eigenfunction(
        self, capsys, eig2_calls, family, points
    ):
        # one eig2 per grid point: the row's step and lambda are the ones
        # its construct solved
        code, out, _ = run(capsys, "sweep", "--family", family)
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + points
        assert len(eig2_calls) == points

    def test_tree_lambda_is_the_step_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "regular-tree")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 270
        for row in rows:
            b, kl, lam = row.split(",")[:3]
            step = vertex_edge_transfer(float(kl), 1.0 / int(b))
            assert lam == repr(eig2(step).lam_small)

    def test_grid_size_cap(self):
        n = qgdecay.cli.MAX_GRID_POINTS
        assert len(qgdecay.cli._parse_grid(f"0:{n - 1}:1")) == n
        with pytest.raises(ValueError, match=f"more than {n} points"):
            qgdecay.cli._parse_grid(f"0:{n}:1")

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "two-lengths-tree")
        assert code == 2

    @pytest.mark.parametrize("grid", ["1e25:1e25:1", "1:1:1e-17", "1e308:1e308:1",
                                      "9007199254740992:9007199254740994:1"])
    def test_step_that_leaves_a_value_unchanged_exits_2(self, capsys, grid):
        # start + step rounds back to start: the unbounded loop never
        # passed stop, or repeated kL = 1.0 for a one-point grid
        code, out, err = run(capsys, "sweep", "--family", "regular-tree",
                             "--b-range", "2:2:1", "--kL-range", grid)
        assert code == 2
        assert out == ""
        assert f"grid {grid}: step" in err

    @pytest.mark.parametrize("grid,values", [
        ("0:1.5:1", [0.0, 1.0, 2.0]),  # ends half a step past a point
        ("0:2.5:1", [0.0, 1.0, 2.0, 3.0]),
        ("2:1:1", []),
        ("2:1.5:1", [2.0]),
        ("1e308:-1e308:1e300", []),  # stop - start overflows
        ("0.1:0.3:0.1", [0.1, 0.2, 0.30000000000000004]),
    ])
    def test_grid_edges(self, grid, values):
        assert qgdecay.cli._parse_grid(grid) == values

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(-100.0, 100.0), points=st.integers(-3, 50),
           step=st.floats(1e-3, 10.0),
           frac=st.sampled_from([0.0, 0.5, -0.5, 0.4999999999, 0.5000000001])
           | st.floats(-1.0, 1.0))
    def test_grid_is_the_unbounded_loop(self, start, points, step, frac):
        # the values of the loop that ran until a value passed the end
        stop = start + (points + frac) * step
        expected = []
        while (v := start + len(expected) * step) <= stop + step / 2:
            expected.append(v)
        assert qgdecay.cli._parse_grid(f"{start!r}:{stop!r}:{step!r}") == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--family", "ladder", "--w", "0.25:4:0.25"),
            ("metric", "--family", "ladder", "--w", "1", "--depth", "4",
             "--cut-points"),
            ("solve", "--family", "regular-tree", "--b", "3", "--depth", "4"),
            ("verify", "--family", "regular-tree", "--b", "2", "--depth", "6"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


SRC = Path(__file__).resolve().parents[1] / "src"
# main(argv) in a fresh interpreter; ``block`` makes ``import numpy`` raise
PROCESS = ("import sys\n{block}from qgdecay.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print('numpy' in sys.modules, file=sys.stderr)\nsys.exit(code)\n")
BLOCK_NUMPY = "sys.modules['numpy'] = None\n"
TWO_LENGTHS = ["verify", "--family", "two-lengths-tree", "--L1", "1", "--L2", "2",
               "--depth", "4"]


def run_process(argv, block=""):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", PROCESS.format(block=block), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


class TestNoNumpyOnTables:
    """A generation table needs no numpy: with ``import numpy`` made to
    fail, every command on a synchronized family still exits 0."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["verify", "--family", "regular-tree", "--b", "2", "--depth", "6"],
        ["verify", "--family", "regular-tree", "--b", "2", "--depth", "6",
         "--multiplier", "path"],
        ["verify", "--family", "braided", "--b-seq", "4,4,4", "--a-seq", "2,2,2",
         "--v-seq", "1,2,3", "--depth", "3", "--multiplier", "averaged"],
        ["solve", "--family", "regular-tree", "--b", "2", "--depth", "3"],
        ["sweep", "--family", "regular-tree", "--b-range", "2", "--kL-range", "1,2"],
    ], ids=["help", "verify-action", "verify-path", "verify-averaged", "solve",
            "sweep"])
    def test_exits_0_without_numpy(self, argv):
        proc = run_process(argv, BLOCK_NUMPY)
        assert proc.returncode == 0, proc.stderr

    def test_probe_sees_a_built_graph_load_numpy(self):
        # the control: a two-lengths tree is built, so it loads numpy, and
        # without it exits 2 with a message, not a traceback
        plain = run_process(TWO_LENGTHS)
        assert plain.returncode == 1
        assert plain.stderr.splitlines()[-1] == "True"
        blocked = run_process(TWO_LENGTHS, BLOCK_NUMPY)
        assert blocked.returncode == 2
        assert blocked.stderr.startswith("error: a built graph needs numpy")
        assert "Traceback" not in blocked.stderr


# ---------------------------------------------------------------------------
# The exit-code contract over generated verify argvs
# ---------------------------------------------------------------------------


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _sequence(elements, size):
    return st.lists(elements, min_size=size, max_size=size + 1).map(",".join)


@st.composite
def verify_argvs(draw):
    """A verify argv: any family at depth 1-6 with any multiplier and
    options, each option given or left at its default."""
    depth = draw(st.integers(1, 6))
    family = draw(st.sampled_from(sorted(CONTRACT_FAMILIES)))
    argv = ["verify", "--family", family, "--depth", str(depth)]
    for flag, values, required in CONTRACT_FAMILIES[family](depth):
        if required or draw(st.booleans()):
            argv += [flag, draw(values)]
    argv += ["--multiplier", draw(st.sampled_from(["action", "path", "averaged"]))]
    for flag, values in CONTRACT_OPTIONS:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


EDGE_CASES = st.sampled_from(["0", "-1", "1e-9", "nan", "inf"])
CONTRACT_FAMILIES = {
    "regular-tree": lambda depth: [
        ("--b", st.integers(1, 4).map(str), True),
        ("--kL", _number(0.05, 4.0) | EDGE_CASES, False),
        ("--L", _number(0.1, 3.0), False),
    ],
    "ns-regular-tree": lambda depth: [
        ("--b-seq", _sequence(st.integers(1, 4).map(str), depth), True),
        ("--length-seq", _sequence(_number(0.2, 2.0), depth + 1), True),
    ],
    "two-lengths-tree": lambda depth: [
        ("--L1", _number(0.2, 3.0), True),
        ("--L2", _number(0.2, 3.0) | EDGE_CASES, True),
    ],
    "millipede": lambda depth: [
        ("--delta", _number(0.01, 2.0) | EDGE_CASES, True),
    ],
    "ladder": lambda depth: [
        ("--w", _number(0.1, 4.0) | EDGE_CASES, True),
        ("--mode", st.sampled_from(["symmetric", "antisymmetric"]), True),
    ],
    "braided": lambda depth: [
        ("--b-seq", _sequence(st.sampled_from(["2", "4"]), depth), True),
        ("--a-seq", _sequence(st.sampled_from(["1", "2"]), depth), True),
        ("--v-seq", st.just(",".join(str(j) for j in range(1, depth + 2))), True),
    ],
}
CONTRACT_OPTIONS = [
    # F underflows on the identity window at --epsilon 1000, --extra-rate -1000
    ("--epsilon", _number(-0.5, 1.5) | EDGE_CASES | st.just("1000")),
    ("--extra-rate", _number(-1.0, 1.0) | EDGE_CASES | st.just("-1000")),
    ("--shift-delta", _number(0.0, 1.0) | EDGE_CASES),
    ("--shift-sign", st.sampled_from(["1", "-1"])),
    ("--exclusion", _number(0.0, 5.0) | EDGE_CASES),
]


@settings(max_examples=200, deadline=None)
@given(argv=verify_argvs())
def test_verify_exit_code_contract(argv):
    # every input ends in exit 0, 1 or 2 without a traceback (main would
    # raise), exit 1 means exactly that a certificate FAILed, and status
    # PASSes exactly when the decay report and every other check do
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        return
    doc = json.loads(out.getvalue())
    assert (code == 1) == (doc["status"] == "FAIL")
    assert (code == 0) == (doc["status"] == "PASS")
    checks = [doc[name]["ok"]
              for name in ("structure", "constraint", "monotonicity", "identity")]
    assert (doc["status"] == "PASS") == (
        doc["decay_report"]["status"] == "PASS" and all(checks)
    )


# ---------------------------------------------------------------------------
# Negative option values, and the exit-code contract of the other commands
# ---------------------------------------------------------------------------


def _float_flags():
    parser = qgdecay.cli._build_parser()
    commands = next(a for a in parser._actions if a.choices and a.dest == "command")
    return [(command, action.option_strings[0], action.dest)
            for command, sub in commands.choices.items()
            for action in sub._actions if action.type is float]


@pytest.mark.parametrize("command,flag,dest", _float_flags())
@pytest.mark.parametrize("value", ["-1e-5", "-2.2250738585072014e-308", "-1E+3",
                                   "-.5", "-inf"])
def test_float_flags_take_negative_values(command, flag, dest, value):
    # as "--flag=-1e-5" always did; argparse alone reads "-1e-5" as an option
    parser = qgdecay.cli._build_parser()
    spaced = parser.parse_args([command, flag, value])
    assert vars(spaced) == vars(parser.parse_args([command, f"{flag}={value}"]))
    assert getattr(spaced, dest) == float(value)


def test_verify_with_a_negative_exponent_option(capsys):
    code, out, _ = run(capsys, "verify", "--family", "regular-tree", "--b", "2",
                       "--depth", "4", "--extra-rate", "-1e-5")
    assert code == 0
    assert json.loads(out)["decay_report"]["multiplier"]["extra_rate"] == -1e-5


@st.composite
def command_argvs(draw):
    """A generate, metric, solve or sweep argv: any family at depth 1-5
    with its flags, each command's own options, and sweep grids of a few
    points."""
    command = draw(st.sampled_from(["generate", "metric", "solve", "sweep"]))
    if command == "sweep":
        family = draw(st.sampled_from(["regular-tree", "ladder", "millipede",
                                       "two-lengths-tree"]))
        argv = ["sweep", "--family", family]
        grid = (st.lists(_number(0.05, 3.0) | EDGE_CASES, min_size=1, max_size=3)
                .map(",".join) | st.sampled_from(["1:2:0.5", "2:1:1", "1:2:0", "x"]))
        for flag in {"regular-tree": ["--b-range", "--kL-range"], "ladder": ["--w"],
                     "millipede": ["--delta-grid"]}.get(family, []):
            argv += [flag, draw(grid)] if flag != "--b-range" else [
                flag, draw(st.sampled_from(["2:3:1", "1:2:1", "0:1:1", "2.5"]))]
        return argv
    depth = draw(st.integers(1, 5))
    family = draw(st.sampled_from(sorted(CONTRACT_FAMILIES)))
    argv = [command, "--family", family, "--depth", str(depth)]
    for flag, values, required in CONTRACT_FAMILIES[family](depth):
        if command == "solve" or flag != "--mode":
            if required or draw(st.booleans()):
                argv += [flag, draw(values)]
    if command == "metric":
        if draw(st.booleans()):
            argv.append("--cut-points")
        if draw(st.booleans()):
            argv += ["--energy-shift", draw(_number(-2.0, 2.0) | EDGE_CASES)]
    if command == "solve" and draw(st.booleans()):
        argv += ["--samples", str(draw(st.integers(-1, 5)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=command_argvs())
def test_other_commands_exit_code_contract(argv):
    # no certificate, so no exit 1: an output and exit 0, or an error and
    # exit 2, never a traceback (main would raise)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue()) == (not err.getvalue())


@pytest.mark.parametrize("argv,code", [
    (["verify", "--family", "regular-tree", "--b", "2", "--depth", "4"], 0),
    (["verify", "--family", "two-lengths-tree", "--L1", "1", "--L2", "2",
      "--depth", "6"], 1),
    (["verify", "--family", "regular-tree", "--depth", "4"], 2),
    (["verify", "--no-such-flag"], 2),
], ids=["pass", "fail", "missing-flag", "unknown-option"])
def test_entry_exits_with_the_code_of_main(capsys, monkeypatch, argv, code):
    # entry() is the qgdecay console script
    monkeypatch.setattr("sys.argv", ["qgdecay", *argv])
    with pytest.raises(SystemExit) as exit_:
        qgdecay.cli.entry()
    assert exit_.value.code == code
    status = capsys.readouterr().out
    assert ('"status": "PASS"' in status) == (code == 0)
