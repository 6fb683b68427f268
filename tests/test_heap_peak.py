"""``tools/heap_peak.py``: the heap peak of one warm workload call."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("heap_peak", ROOT / "tools" / "heap_peak.py")
heap_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heap_peak)


@pytest.fixture(autouse=True)
def keep_sys_path(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))


def test_tree_action_peak(capsys):
    assert heap_peak.main(["--workload", "tree-action", "--checkout", str(ROOT)]) == 0
    out, err = capsys.readouterr()
    name, peak = out.split()
    # a generation table: about 45 KB, nothing of the 32,767-edge graph
    assert (name, err) == ("tree-action", "")
    assert 0 < int(peak) < 500_000


def test_twolen_path_peak(capsys):
    # int32 positions and fixed-size kernel blocks: 3,568,262 B, under a
    # margin of about 0.43 MB; 5.2 MB with int64 positions, and 9.4 MB when
    # each kernel took the whole 32,767-edge graph at once
    assert heap_peak.main(["--workload", "twolen-path", "--checkout", str(ROOT)]) == 0
    out, err = capsys.readouterr()
    name, peak = out.split()
    assert (name, err) == ("twolen-path", "")
    assert int(peak) < 4_000_000


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        heap_peak.main(["--workload", "no-such-workload"])
    assert exc.value.code == 2
    assert "choose from braided-averaged" in capsys.readouterr().err


def test_a_wrong_output_exits_1(capsys, monkeypatch):
    # the workload's check sees what the calls print
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    monkeypatch.setattr(workloads.Workload, "check",
                        lambda self, rc, out: "wrong output")
    assert heap_peak.main(["--workload", "tree-action"]) == 1
    assert capsys.readouterr().err == "error: wrong output\n"
