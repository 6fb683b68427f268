"""Benchmark of the qgdecay CLI: time to a certificate or a finished sweep.

Run from the root of a checkout:

    python3 bench/run.py --workload tree-action --seed 0 --seconds 20 --trace 0

The program is driven in-process through ``qgdecay.cli.main`` from ``src/``,
closed loop: one thread, one invocation at a time.  Every invocation's exit
code and stdout are checked (see ``workloads.py``).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
MIN_TIMED = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_CODE = "import sys; from qgdecay.cli import main; sys.exit(main(['--help']))"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters that import ``qgdecay.cli`` and
    build its parser (via ``--help``).  The first start compiles bytecode
    and is not kept."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(
                "importing qgdecay.cli failed:\n" + proc.stderr.decode(errors="replace")
            )
        if i:
            times.append(elapsed)
    return times


class Runner:
    """Runs one workload's argv through ``cli.main`` and checks each result."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def invoke(self, call=None) -> float:
        """One checked invocation; returns its wall seconds.  ``call``
        replaces ``cli.main`` (the traced run passes a span around it)."""
        call = call or self.main
        gc.collect()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                rc = call(list(self.workload.argv))
                err = None
            except Exception as exc:  # a crash is a failed invocation
                err = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        err = err or self.workload.check(rc, out.getvalue())
        if err is not None:
            self.failed += 1
            self.first_error = self.first_error or err
        return elapsed


def run_untraced(runner: Runner, seconds: float) -> dict:
    runner.invoke()  # warm-up; a fresh process, so it also sets peak RSS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED or time.perf_counter() - start < seconds:
        walls.append(runner.invoke())
    q1, median, q3 = statistics.quantiles(walls, n=4)
    return {
        "wall_s": {"value": median, "unit": "s", "q1": q1, "q3": q3,
                   "samples": len(walls)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    from tracing import PER_LAYER_UNITS, Tracer

    tracer = Tracer()
    runner.invoke()  # warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.invoke())
        tracer.begin_invocation(len(traced))
        tracer.install()
        try:
            traced.append(runner.invoke(
                lambda argv: tracer.span("cli.main", runner.main, argv)
            ))
        finally:
            tracer.uninstall()
    tracer.write(trace_path)
    overhead = statistics.median(traced) - statistics.median(plain)
    return {
        name: {"value": value, "unit": PER_LAYER_UNITS[name]}
        for name, value in tracer.per_layer(overhead).items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qgdecay" / "cli.py").is_file():
        print(f"error: no qgdecay sources under {SRC}", file=sys.stderr)
        return 2
    workload = Workload(args.workload, args.seed)

    # one BLAS/OpenMP thread, set before numpy is first imported; the
    # set-up children inherit it too
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup_times = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from qgdecay import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: qgdecay imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    runner = Runner(workload, cli.main)
    if args.trace:
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics = run_traced(runner, args.seconds, trace_path)
    else:
        metrics = run_untraced(runner, args.seconds)
        metrics["setup_s"] = {
            "value": statistics.median(setup_times), "unit": "s",
            "samples": len(setup_times),
        }
        metrics["ok_ratio"] = {
            "value": (runner.attempted - runner.failed) / runner.attempted,
            "unit": "ratio",
        }

    summary = {"workload": args.workload, "seed": args.seed,
               "argv": workload.argv, "metrics": metrics}
    if runner.first_error:
        summary["first_error"] = runner.first_error
    print(json.dumps(summary))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
