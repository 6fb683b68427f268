"""Replay the golden CLI matrix against ``src/`` and report what moved.

Run from anywhere:

    python3 tools/golden_diff.py

Every case of ``tests/golden/cli.json`` runs again in-process.  For each
case whose stdout differs, one line names the JSON keys (list indices
dropped, so a key stands for its column of rows) or CSV columns whose
numbers moved, each with its worst relative change.  The exit code is 1
when a case's exit code or the text outside its numbers differs, or when a
number moves by more than ``bench/workloads.py``'s ``REFERENCE_RTOL``
(1e-12) relative, and 0 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in ("src", "tests", "bench"):
    sys.path.insert(0, str(ROOT / _path))

from test_golden import _load, capture  # noqa: E402
from workloads import REFERENCE_RTOL, matches_reference  # noqa: E402


def _json_leaves(doc, key: str = ""):
    if isinstance(doc, dict):
        for name, value in doc.items():
            yield from _json_leaves(value, f"{key}.{name}" if key else name)
    elif isinstance(doc, list):
        for value in doc:
            yield from _json_leaves(value, key)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield key, float(doc)


def _csv_cells(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                yield name, float(cell)
            except ValueError:
                pass


def _numbers(text: str) -> list[tuple[str, float]]:
    """(JSON key or CSV column, value) of each number in a stdout."""
    try:
        return list(_json_leaves(json.loads(text)))
    except json.JSONDecodeError:
        return list(_csv_cells(text))


def moved(old: str, new: str) -> dict[str, float]:
    """The worst relative change of each key or column whose numbers
    differ between two stdouts of the same shape."""
    worst: dict[str, float] = {}
    for (name, a), (_, b) in zip(_numbers(old), _numbers(new)):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            change = abs(a - b) / scale if math.isfinite(scale) else math.inf
            worst[name] = max(worst.get(name, 0.0), change)
    return worst


def main() -> int:
    golden = _load()
    changed = failed = 0
    for name, got in sorted(capture().items()):
        want = golden[name]
        if got == want:
            continue
        changed += 1
        if got["exit"] != want["exit"]:
            print(f"{name}: exit {got['exit']}, golden {want['exit']}")
            failed += 1
            continue
        changes = moved(want["stdout"], got["stdout"])
        print(f"{name}: " + ", ".join(
            f"{key} {change:.1e}" for key, change in sorted(changes.items())
        ))
        error = matches_reference(got["stdout"], want["stdout"])
        if error is None and max(changes.values(), default=0.0) > REFERENCE_RTOL:
            error = f"a number moved by more than {REFERENCE_RTOL:g} relative"
        if error:
            print(f"{name}: {error}")
            failed += 1
    print(f"{changed} of {len(golden)} cases moved, {failed} beyond tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
