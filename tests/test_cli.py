import json
import math

import pytest

from qgdecay.cli import main
from qgdecay.graph import build_graph


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
        # (spec document, text the error message must contain)
        cases = [
            (graph, "7"),
            ({"family": "regular_tree", "params": {"b": 2}}, "depth"),
            ({"family": "regular_tree", "params": {}, "depth": 3}, "'b'"),
            (dict(graph, edges=[no_length]), "length"),
            (dict(graph, vertices=5), "vertices"),
        ]
        spec = tmp_path / "broken.json"
        for doc, needle in cases:
            spec.write_text(json.dumps(doc))
            code, _, err = run(capsys, "generate", "--spec", str(spec))
            assert code == 2, doc
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
        "argv",
        [
            # the multiplier overflows a float at these depths
            ["--family", "ladder", "--w", "1", "--mode", "antisymmetric",
             "--depth", "800"],
            ["--family", "millipede", "--delta", "0.1", "--depth", "600"],
            # tanh(kL2) saturates, so the shared-eigenvector bracket fails
            ["--family", "two-lengths-tree", "--L1", "1", "--L2", "30",
             "--depth", "4"],
        ],
        ids=["ladder-deep", "millipede-deep", "twolen-saturated"],
    )
    def test_numeric_failure_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_csv_sidecar(self, capsys, tmp_path):
        out_csv = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "verify", "--family", "regular-tree", "--b", "2",
            "--depth", "6", "--csv", str(out_csv),
        )
        assert code == 0
        header = out_csv.read_text().split("\n")[0]
        assert header == "generation,sup_F_psi,cum_L2,depth"


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

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "two-lengths-tree")
        assert code == 2


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
