"""Golden CLI matrix: stdout and exit code of every case, byte for byte.

``tests/golden/cli.json`` records, for each named case, the argv, the exit
code and the exact stdout.  Replaying it shows that a refactor kept the
command-line behaviour; stderr wording is not pinned.  After an intended
change of output, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from qgdecay.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"

FAMILY = {
    "regular": ["--family", "regular-tree", "--b", "2"],
    "ns": ["--family", "ns-regular-tree", "--b-seq", "2,3,2,2",
           "--length-seq", "1,0.5,1.5,1,1"],
    "twolen": ["--family", "two-lengths-tree", "--L1", "1", "--L2", "2"],
    "millipede": ["--family", "millipede", "--delta", "0.1"],
    "ladder": ["--family", "ladder", "--w", "1"],
    "braided": ["--family", "braided", "--b-seq", "4,4,4,4",
                "--a-seq", "2,2,2,2", "--v-seq", "1,2,3,4"],
}
MULTIPLIERS = ("action", "path", "averaged")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for fam, flags in FAMILY.items():
        cases[f"generate-{fam}"] = ["generate", *flags, "--depth", "3"]
        cases[f"metric-{fam}"] = ["metric", *flags, "--depth", "3"]
        cases[f"metric-cut-{fam}"] = [
            "metric", *flags, "--depth", "3", "--cut-points",
            "--energy-shift", "0.25",
        ]
        cases[f"solve-{fam}"] = ["solve", *flags, "--depth", "3",
                                 "--samples", "3"]
        for m in MULTIPLIERS:
            cases[f"verify-{m}-{fam}"] = [
                "verify", *flags, "--depth", "4", "--multiplier", m,
            ]
    ladder = FAMILY["ladder"]
    for mode in ("symmetric", "antisymmetric"):
        cases[f"generate-ladder-{mode}"] = [
            "generate", *ladder, "--depth", "2", "--mode", mode,
        ]
        cases[f"solve-ladder-{mode}"] = [
            "solve", *ladder, "--depth", "3", "--samples", "3", "--mode", mode,
        ]
        for m in MULTIPLIERS:
            cases[f"verify-{m}-ladder-{mode}"] = [
                "verify", *ladder, "--depth", "5", "--multiplier", m,
                "--mode", mode,
            ]
    cases.update({
        # family options
        "generate-ladder-rungs": ["generate", *ladder, "--depth", "4",
                                  "--rungs", "2", "--energy", "2"],
        "metric-ladder-kL-ignored": ["metric", *ladder, "--depth", "3",
                                     "--kL", "2"],
        "generate-millipede-legs": ["generate", *FAMILY["millipede"],
                                    "--depth", "4", "--legs", "2",
                                    "--leg-length", "1.5", "--energy", "-3"],
        "verify-millipede-legs": ["verify", *FAMILY["millipede"],
                                  "--depth", "5", "--legs", "3",
                                  "--leg-length", "2", "--k", "3"],
        "generate-regular-L-energy": ["generate", *FAMILY["regular"],
                                      "--depth", "2", "--L", "0.5",
                                      "--energy", "-2"],
        "verify-regular-kL-L": ["verify", *FAMILY["regular"], "--depth", "5",
                                "--kL", "1.5", "--L", "2"],
        "verify-regular-kL": ["verify", *FAMILY["regular"], "--depth", "5",
                              "--kL", "0.7"],
        "solve-regular-k": ["solve", *FAMILY["regular"], "--depth", "2",
                            "--k", "0.5", "--samples", "4"],
        "verify-regular-k-energy": ["verify", *FAMILY["regular"], "--depth",
                                    "5", "--k", "2", "--energy", "0.5"],
        "solve-regular-b3": ["solve", "--family", "regular-tree", "--b", "3",
                             "--depth", "2"],
        "solve-ns-k": ["solve", *FAMILY["ns"], "--depth", "3", "--k", "1.5",
                       "--samples", "2"],
        "verify-path-twolen-kL": ["verify", *FAMILY["twolen"], "--depth", "5",
                                  "--multiplier", "path", "--kL", "0.8"],
        "verify-averaged-braided-kL": ["verify", *FAMILY["braided"],
                                       "--depth", "4", "--multiplier",
                                       "averaged", "--kL", "1.2"],
        "verify-averaged-braided-theta": [
            "verify", "--family", "braided", "--b-seq", "2,2,2,2,2",
            "--a-seq", "2,2,2,2,2", "--v-seq", "1,2,3,4,5", "--depth", "5",
            "--multiplier", "averaged", "--shift-delta", "0.1",
        ],
        # verify options
        "verify-regular-depth7": ["verify", *FAMILY["regular"], "--depth",
                                  "7"],
        "verify-regular-epsilon": ["verify", *FAMILY["regular"], "--depth",
                                   "5", "--epsilon", "0.3"],
        "verify-ladder-sharp-rate": ["verify", *ladder, "--depth", "6",
                                     "--epsilon", "-0.1"],
        "verify-regular-shift-minus": ["verify", *FAMILY["regular"],
                                       "--depth", "5", "--shift-delta", "0.2",
                                       "--shift-sign", "-1"],
        "verify-path-regular-shift": ["verify", *FAMILY["regular"], "--depth",
                                      "5", "--multiplier", "path",
                                      "--shift-delta", "0.3"],
        "verify-regular-extra-rate": ["verify", *FAMILY["regular"], "--depth",
                                      "5", "--extra-rate", "0.1"],
        "verify-regular-schedule": ["verify", *FAMILY["regular"], "--depth",
                                    "5", "--depth-schedule", "2,4"],
        "verify-path-ladder-schedule": ["verify", *ladder, "--depth", "5",
                                        "--multiplier", "path",
                                        "--depth-schedule", "4"],
        "verify-regular-exclusion": ["verify", *FAMILY["regular"], "--depth",
                                     "5", "--exclusion", "1.5"],
        "verify-millipede-exclusion": ["verify", *FAMILY["millipede"],
                                       "--depth", "5", "--exclusion", "3"],
        # sweeps
        "sweep-regular": ["sweep", "--family", "regular-tree", "--b-range",
                          "2:3:1", "--kL-range", "0.5:1.5:0.5"],
        "sweep-regular-list": ["sweep", "--family", "regular_tree",
                               "--b-range", "4", "--kL-range", "0.3,2.5"],
        "sweep-ladder": ["sweep", "--family", "ladder", "--w", "0.5:2:0.5"],
        "sweep-ladder-default": ["sweep", "--family", "Ladder"],
        "sweep-millipede": ["sweep", "--family", "millipede", "--delta-grid",
                            "0.1,0.02"],
        "sweep-millipede-default": ["sweep", "--family", "millipede"],
        # spec files
        "generate-spec-explicit": ["generate", "--spec",
                                   "{specs}/explicit.json"],
        "metric-spec-explicit-cut": ["metric", "--spec",
                                     "{specs}/explicit.json", "--cut-points"],
        "generate-spec-family": ["generate", "--spec", "{specs}/tree.json"],
        "metric-spec-ladder": ["metric", "--spec", "{specs}/ladder.json"],
        "generate-spec-dangling": ["generate", "--spec",
                                   "{specs}/dangling.json"],
        "generate-spec-unknown-key": ["generate", "--spec",
                                      "{specs}/unknown_key.json"],
        "generate-spec-unknown-param": ["generate", "--spec",
                                        "{specs}/unknown_param.json"],
        "generate-spec-invalid-json": ["generate", "--spec",
                                       "{specs}/invalid.json"],
        "generate-spec-missing-file": ["generate", "--spec",
                                       "{specs}/no_such_file.json"],
        # usage errors
        "error-regular-needs-b": ["generate", "--family", "regular-tree",
                                  "--depth", "3"],
        "error-ns-needs-length-seq": ["generate", "--family",
                                      "ns-regular-tree", "--b-seq", "2,2",
                                      "--depth", "2"],
        "error-twolen-needs-L2": ["solve", "--family", "two-lengths-tree",
                                  "--L1", "1", "--depth", "2"],
        "error-millipede-needs-delta": ["verify", "--family", "millipede",
                                        "--depth", "3"],
        "error-ladder-needs-w": ["metric", "--family", "ladder", "--depth",
                                 "3"],
        "error-braided-needs-a-seq": ["generate", "--family", "braided",
                                      "--b-seq", "2,2", "--v-seq", "1,2",
                                      "--depth", "2"],
        "error-generate-unknown-family": ["generate", "--family", "star",
                                          "--depth", "3"],
        "error-solve-unknown-family": ["solve", "--family", "star", "--depth",
                                       "3"],
        "error-verify-unknown-family": ["verify", "--family", "star",
                                        "--depth", "3"],
        "error-sweep-unknown-family": ["sweep", "--family",
                                       "two-lengths-tree"],
        "error-sweep-no-family": ["sweep"],
        "error-no-family": ["generate", "--depth", "3"],
        "error-no-depth": ["solve", *FAMILY["regular"]],
        "error-depth-zero": ["generate", *FAMILY["regular"], "--depth", "0"],
        "error-bad-b-seq": ["generate", "--family", "ns-regular-tree",
                            "--b-seq", "2,x", "--length-seq", "1,1,1",
                            "--depth", "2"],
        "error-bad-mode": ["solve", *ladder, "--depth", "3", "--mode", "odd"],
        "error-ladder-w-zero": ["generate", "--family", "ladder", "--w", "0",
                                "--depth", "3"],
        "error-bad-schedule": ["verify", *FAMILY["regular"], "--depth", "4",
                               "--depth-schedule", "9"],
        "error-no-command": [],
    })
    return cases


CASES = _cases()


def _argv(argv: list[str]) -> list[str]:
    return [a.replace("{specs}", str(GOLDEN_DIR / "specs")) for a in argv]


@functools.lru_cache(maxsize=1)
def _load() -> dict:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_matrix():
    golden = _load()
    assert sorted(golden) == sorted(CASES)
    for name, argv in CASES.items():
        assert golden[name]["argv"] == argv, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, capsys):
    want = _load()[name]
    code = main(_argv(CASES[name]))
    out = capsys.readouterr().out
    assert code == want["exit"]
    assert out == want["stdout"]


def capture() -> dict:
    golden = {}
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(argv))
        golden[name] = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    return golden


if __name__ == "__main__":
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
