"""The four benchmark workloads: argv drawn from a seed, and output checks.

Seed 0 reproduces the documented commands exactly, and its stdout must match
the reference recorded under ``reference/`` to 1e-12 relative.  Any other
seed draws the physical parameters from ranges where every check passes,
while depth and branching (and so the work done) stay fixed.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-9
BRAIDED_DEPTH = 13

# sweep-tree's default grids in the CLI: b = 2..10, kL = 0.1..3.0 step 0.1
SWEEP_BS = range(2, 11)
SWEEP_KL_COUNT = 30


def _tree_argv(seed: int) -> list[str]:
    kl = "1" if seed == 0 else repr(random.Random(seed).uniform(0.8, 1.2))
    return ["verify", "--family", "regular-tree", "--b", "2", "--kL", kl,
            "--depth", "14"]


def _twolen_argv(seed: int) -> list[str]:
    l2 = "2" if seed == 0 else repr(random.Random(seed).uniform(1.5, 2.5))
    return ["verify", "--family", "two-lengths-tree", "--L1", "1", "--L2", l2,
            "--depth", "14", "--multiplier", "path"]


def _sweep_argv(seed: int) -> list[str]:
    if seed == 0:
        return ["sweep", "--family", "regular-tree"]
    offset = random.Random(seed).uniform(0.0, 0.1)
    start, stop = 0.1 + offset, 3.0 + offset
    return ["sweep", "--family", "regular-tree",
            "--kL-range", f"{start!r}:{stop!r}:0.1"]


def _braided_argv(seed: int) -> list[str]:
    n = BRAIDED_DEPTH
    argv = ["verify", "--family", "braided",
            "--b-seq", ",".join(["4"] * n),
            "--a-seq", ",".join(["2"] * n),
            "--v-seq", ",".join(str(i) for i in range(1, n + 1)),
            "--depth", str(n), "--multiplier", "averaged"]
    if seed != 0:
        argv[3:3] = ["--kL", repr(random.Random(seed).uniform(0.8, 1.2))]
    return argv


def lam_small(kl: float, p: float) -> float:
    """Smaller eigenvalue of the vertex-edge step [[c, s], [p s, p c]]
    (trace (1 + p) c, determinant p), in cancellation-free form.  Written
    here rather than imported so the check does not trust the program's own
    transfer algebra."""
    b = (1.0 + p) * math.cosh(kl)
    return 2.0 * p / (b + math.sqrt(b * b - 4.0 * p))


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


_NUMBER = re.compile(
    r"(?<![\w.])-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN"
)


def matches_reference(text: str, reference: str, rtol: float = REFERENCE_RTOL) -> str | None:
    """None when ``text`` equals ``reference`` outside its numbers and every
    number agrees to ``rtol`` relative; otherwise the first difference."""
    if _NUMBER.sub("#", text) != _NUMBER.sub("#", reference):
        return "output differs from the reference outside its numbers"
    for got, want in zip(_NUMBER.findall(text), _NUMBER.findall(reference)):
        if not _close(float(got), float(want), rtol):
            return f"number {got} differs from reference {want}"
    return None


def _verify_doc(rc: int, out: str) -> tuple[dict | None, str | None]:
    if rc != 0:
        return None, f"exit code {rc}, expected 0"
    doc = json.loads(out)
    if doc.get("status") != "PASS":
        return None, f"status {doc.get('status')!r}, expected 'PASS'"
    return doc, None


def _check_pass(argv: list[str], rc: int, out: str) -> str | None:
    return _verify_doc(rc, out)[1]


def _check_fitted_rate(argv: list[str], rc: int, out: str, p: float) -> str | None:
    """PASS, and the fitted rate is the closed form of a generation family
    with derivative fraction ``p`` = a/b at each vertex and edge length 1."""
    doc, err = _verify_doc(rc, out)
    if err:
        return err
    kl = float(argv[argv.index("--kL") + 1]) if "--kL" in argv else 1.0
    want = math.log(lam_small(kl, p))
    got = doc["fitted_decay_rate"]
    if not _close(got, want, CLOSED_FORM_RTOL):
        return f"fitted_decay_rate {got!r}, closed form {want!r}"
    return None


def _check_sweep(argv: list[str], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    rows = [line.split(",") for line in out.splitlines()[1:]]
    start = 0.1
    if "--kL-range" in argv:
        start = float(argv[argv.index("--kL-range") + 1].split(":")[0])
    grid = [(b, start + i * 0.1) for b in SWEEP_BS for i in range(SWEEP_KL_COUNT)]
    if len(rows) != len(grid):
        return f"{len(rows)} sweep rows, expected {len(grid)}"
    for row, (want_b, want_kl) in zip(rows, grid):
        b, kl, lam, fitted = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        if b != want_b or not _close(kl, want_kl, REFERENCE_RTOL):
            return f"row (b={b}, kL={kl}), expected (b={want_b}, kL={want_kl})"
        if not _close(lam, lam_small(kl, 1.0 / b), CLOSED_FORM_RTOL):
            return f"b={b} kL={kl}: lambda_small {lam!r} off the closed form"
        if not _close(fitted, math.log(lam), CLOSED_FORM_RTOL):
            return f"b={b} kL={kl}: fitted_rate {fitted!r} != log(lambda_small)"
    return None


class Workload:
    """One named workload at one seed: the argv the program sees and the
    check every invocation's exit code and stdout must pass."""

    def __init__(self, name: str, seed: int):
        argv_of, self._check = WORKLOADS[name]
        self.argv = argv_of(seed)
        self._reference = (
            (REFERENCE_DIR / f"{name}.out").read_text(encoding="utf-8")
            if seed == 0 else None
        )

    def check(self, rc: int, out: str) -> str | None:
        """None if the invocation is correct, else why it is not."""
        try:
            err = self._check(self.argv, rc, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc!r}"
        if err is None and self._reference is not None:
            err = matches_reference(out, self._reference)
        return err


# name -> (argv from seed, check of (argv, exit code, stdout)); in the
# generation families p = a/b: 1/2 on the b=2 tree, 2/4 on the braided graph
WORKLOADS = {
    "tree-action": (_tree_argv, functools.partial(_check_fitted_rate, p=1 / 2)),
    "twolen-path": (_twolen_argv, _check_pass),
    "sweep-tree": (_sweep_argv, _check_sweep),
    "braided-averaged": (_braided_argv, functools.partial(_check_fitted_rate, p=2 / 4)),
}
