"""The tracemalloc peak of one warm call of a benchmark workload.

Run from anywhere:

    python3 tools/heap_peak.py --workload twolen-path [--checkout DIR]

It imports ``qgdecay`` from the checkout's ``src/`` (this repository by
default), makes one untraced ``cli.main`` call on the workload's seed-0
argv from ``bench/workloads.py``, then one more under ``tracemalloc``, and
prints the peak of that call in bytes.  Unlike ``peak_rss_mb`` the number
leaves out the import and the interpreter, so it does not move with
bytecode caches, the checkout path or argv[0].  Both calls' exit code and
stdout must pass ``Workload.check``; the exit code is 1 if one does not.
Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tracemalloc
from pathlib import Path


def warm_peak(workload: str) -> tuple[int, str | None]:
    """(peak bytes of the traced call, the first check failure or None),
    with ``qgdecay`` and ``workloads`` importable."""
    from qgdecay import cli
    from workloads import Workload

    work = Workload(workload, 0)

    def call() -> tuple[int, io.StringIO]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            return cli.main(list(work.argv)), out

    warm = call()
    tracemalloc.start()
    try:
        traced = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    errors = [work.check(rc, out.getvalue()) for rc, out in (warm, traced)]
    return peak, errors[0] or errors[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(sorted(WORKLOADS)))
    peak, err = warm_peak(args.workload)
    print(f"{args.workload} {peak}")
    if err is not None:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
