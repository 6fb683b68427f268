"""The verdict rules of ``tools/ab.py``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


class TestVerdict:
    def test_gain_with_ten_pairs(self):
        change = [p - 0.5 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == (10, "gain")

    def test_gain_when_higher_is_better(self):
        change = [p + 0.5 for p in PARENT]
        assert ab.verdict(PARENT, change, "higher", 0.25) == (10, "gain")

    def test_fewer_than_ten_pairs_show_no_gain(self):
        parent = PARENT[:5]
        change = [p - 0.5 for p in parent]
        assert ab.verdict(parent, change, "lower", 0.25) == (5, "within bound")

    def test_nine_wins_in_ten_is_a_gain_eight_is_not(self):
        change = [p - 0.5 for p in PARENT]
        change[0] = PARENT[0] + 0.01
        assert ab.verdict(PARENT, change, "lower", 0.25) == (9, "gain")
        change[1] = PARENT[1] + 0.01
        assert ab.verdict(PARENT, change, "lower", 0.25)[0] == 8
        assert ab.verdict(PARENT, change, "lower", 0.25)[1] != "gain"

    def test_regression_beyond_the_bound(self):
        change = [p + 0.3 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == (0, "regression")

    def test_worse_within_the_bound(self):
        change = [p + 0.2 for p in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25) == (
            0, "within bound"
        )

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        parent = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        change = [p - 0.05 for p in reversed(parent)]
        assert ab.verdict(parent, change, "lower", 0.25)[1] == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        parent = [2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        change = [1.6, 1.6, 1.6, 1.6, 1.6, 1.9, 1.9, 1.9, 1.9, 1.9]
        # the medians differ by less than the parent's IQR, so no gain
        assert ab.verdict(parent, change, "lower", 0.25) == (
            10, "within bound"
        )

    @pytest.mark.parametrize("better", ["lower", "higher"])
    def test_ties_count_for_neither_side(self, better):
        change = list(PARENT)
        assert ab.verdict(PARENT, change, better, 0.25) == (0, "within bound")
        change[:9] = [p - 0.5 if better == "lower" else p + 0.5
                      for p in PARENT[:9]]
        # nine wins and one tie in ten pairs is nine tenths: a gain
        assert ab.verdict(PARENT, change, better, 0.25) == (9, "gain")


RESULT_LINE = {"correct": True, "metrics": {"wall_s": {"value": 1.0}}}


def checkout(root: Path, name: str, command: list[str] | None = None) -> Path:
    """A checkout whose bench/run.py prints one fixed result line, and whose
    benchmark ``command`` runs it with this interpreter by default."""
    path = root / name
    (path / "bench" / "__pycache__").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": command or [sys.executable, "bench/run.py"],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
    }))
    (path / "bench" / "run.py").write_text(
        f"print({json.dumps(json.dumps(RESULT_LINE))})\n"
    )
    (path / "bench" / "__pycache__" / "run.pyc").write_bytes(name.encode())
    return path


def ab_main(parent: Path, change: Path) -> None:
    ab.main(["--parent", str(parent), "--change", str(change),
             "--workload", "w", "--pairs", "1", "--seconds", "0"])


class TestSameBenchmark:
    def test_runs_when_only_pycache_differs(self, tmp_path, capsys):
        parent, change = checkout(tmp_path, "a"), checkout(tmp_path, "b")
        assert ab.differing_benchmark_files(parent, change) == []
        ab_main(parent, change)
        assert "w wall_s [1 1 1] [1 1 1] 0/1 within bound" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", ["BENCHMARK.json", "bench/run.py",
                                      "bench/reference/new.out"])
    def test_refuses_differing_benchmark_files(self, tmp_path, capsys, edit):
        parent, change = checkout(tmp_path, "a"), checkout(tmp_path, "b")
        target = change / edit
        target.parent.mkdir(exist_ok=True)
        with target.open("a") as fh:  # append to the file, or create it
            fh.write(" ")
        assert ab.differing_benchmark_files(parent, change) == [edit]
        with pytest.raises(SystemExit) as exc:
            ab_main(parent, change)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{edit} differ" in captured.err

    def test_refuses_paths_of_different_lengths(self, tmp_path, capsys):
        parent, change = checkout(tmp_path, "a"), checkout(tmp_path, "bb")
        with pytest.raises(SystemExit) as exc:
            ab_main(parent, change)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resolved paths differ in length" in captured.err

    @pytest.mark.parametrize("cached", [("a",), ("b",), ("a", "b")])
    def test_bytecode_caches_in_one_checkout_only(self, tmp_path, capsys, cached):
        parent, change = checkout(tmp_path, "a"), checkout(tmp_path, "b")
        for name in cached:
            (tmp_path / name / "src" / "qgdecay" / "__pycache__").mkdir(parents=True)
        if len(cached) == 2:  # both alike: it runs
            ab_main(parent, change)
            assert "0/1 within bound" in capsys.readouterr().out
            return
        with pytest.raises(SystemExit) as exc:
            ab_main(parent, change)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        side = "parent" if cached == ("a",) else "change"
        assert f"only the {side} checkout holds src/qgdecay/__pycache__" in captured.err


class TestLaunch:
    def test_argv_is_the_benchmark_command_and_the_run_flags(self, tmp_path):
        # launched as the benchmark is, python3 and not sys.executable: the
        # length of argv[0] alone moves peak_rss_mb
        path = checkout(tmp_path, "a", ["python3", "bench/run.py"])
        assert ab.bench_argv(path, "w", 7, 0.5) == [
            "python3", "bench/run.py", "--workload", "w", "--seed", "7",
            "--seconds", "0.5", "--trace", "0",
        ]

    def test_runs_the_command_it_reads(self, tmp_path):
        path = checkout(tmp_path, "a")
        # reports its --workload value as wall_s
        (path / "bench" / "other.py").write_text(
            "import json, sys\n"
            "print(json.dumps({'correct': True, 'metrics': "
            "{'wall_s': {'value': float(sys.argv[2])}}}))\n"
        )
        spec = json.loads((path / "BENCHMARK.json").read_text())
        spec["command"] = [sys.executable, "bench/other.py"]
        (path / "BENCHMARK.json").write_text(json.dumps(spec))
        assert ab.run_bench(path, "2.5", 0, 0) == {"wall_s": 2.5}
