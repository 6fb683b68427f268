"""Alternating parent/change runs of the benchmark, with a gain or
regression verdict per end-to-end metric and workload.

Run from anywhere, with two checkouts of the repository:

    python3 tools/ab.py --parent ../parent --change . \\
        --workload braided-averaged --pairs 10 --seconds 20 --seed 0

Each pair runs the benchmark once in each checkout, one process at a time,
alternating which side goes first; every run's metrics go to stderr as one
JSON line.  A run is the ``command`` of the checkout's ``BENCHMARK.json``
with ``--trace 0``, launched as that command names it (``python3``, not
this interpreter's full path), since ``peak_rss_mb`` moves with argv[0]
alone.  For each metric the table on stdout gives both sides' medians and
quartiles and the pairs the change won (ties count for neither).  The
verdict follows the benchmark's rules: ``gain`` when at least ten pairs
ran, the change wins at least nine tenths of them and the medians differ,
in its favour, by more than the parent's interquartile range;
``regression`` when the change's median is worse by more than the bound in
``BENCHMARK.json``; ``unresolved`` when either side's quartiles are further
apart than the bound and not every change run beats every parent run;
``within bound`` otherwise.

Both sides must run the same benchmark: it refuses to start when
``BENCHMARK.json`` or a file under ``bench/`` (``__pycache__`` aside)
differs between the checkouts.  It also refuses checkouts whose resolved
paths differ in length, as ``peak_rss_mb`` steps by about 1 MB with that
length alone, and checkouts of which only one holds compiled bytecode
(``src/qgdecay/__pycache__``), which lowers ``peak_rss_mb`` by about
1.3 MB.  Remove the caches from both, or build them in both, first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_GAIN_PAIRS = 10  # fewer pairs cannot show a gain


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every file under ``bench/`` outside
    ``__pycache__``, by path relative to ``checkout``."""
    files = {}
    for path in [checkout / "BENCHMARK.json", *(checkout / "bench").rglob("*")]:
        name = path.relative_to(checkout)
        if path.is_file() and "__pycache__" not in name.parts:
            files[name.as_posix()] = path.read_bytes()
    return files


def differing_benchmark_files(parent: Path, change: Path) -> list[str]:
    """The benchmark files that are not byte-identical in both checkouts."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def bench_argv(checkout: Path, workload: str, seed: int, seconds: float) -> list[str]:
    """The argv of one untraced benchmark run: the ``command`` of the
    checkout's ``BENCHMARK.json``, then the run's flags."""
    command = json.loads((checkout / "BENCHMARK.json").read_text())["command"]
    return [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``checkout``."""
    argv = bench_argv(checkout, workload, seed, seconds)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
            + proc.stderr
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"incorrect output in {checkout}: {proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    # gain > 0 where the change reads better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    median_gain = sign * (p_med - c_med)
    if (len(gains) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(gains)
            and median_gain > p_q3 - p_q1):
        return wins, "gain"
    if -median_gain > bound:
        return wins, "regression"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(p_q3 - p_q1, c_q3 - c_q1) > bound and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    differing = differing_benchmark_files(args.parent, args.change)
    if differing:
        parser.error("the checkouts run different benchmarks: "
                     + ", ".join(differing) + " differ")
    lengths = [len(str(path.resolve())) for path in (args.parent, args.change)]
    if lengths[0] != lengths[1]:
        parser.error("the checkouts' resolved paths differ in length "
                     f"({lengths[0]} and {lengths[1]} characters), which "
                     "moves peak_rss_mb")
    cached = [side for side in ("parent", "change")
              if (getattr(args, side) / "src" / "qgdecay" / "__pycache__").is_dir()]
    if len(cached) == 1:
        parser.error(f"only the {cached[0]} checkout holds src/qgdecay/__pycache__, "
                     "whose bytecode moves peak_rss_mb")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    print("workload metric parent[q1 median q3] change[q1 median q3] "
          "wins verdict")
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values = run_bench(getattr(args, side), workload, args.seed,
                                   args.seconds)
                runs[side].append(values)
                print(json.dumps({"workload": workload, "pair": i,
                                  "side": side, "metrics": values}),
                      file=sys.stderr, flush=True)
        for m in metrics:
            parent = [r[m["name"]] for r in runs["parent"]]
            change = [r[m["name"]] for r in runs["change"]]
            wins, word = verdict(parent, change, m["better"], m["bound"])
            cells = [
                "[" + " ".join(f"{v:.4g}" for v in quartiles(vals)) + "]"
                for vals in (parent, change)
            ]
            print(f"{workload} {m['name']} {cells[0]} {cells[1]} "
                  f"{wins}/{args.pairs} {word}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
