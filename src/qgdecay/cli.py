"""Command-line front end.

Subcommands: ``generate`` (build/validate a graph, emit canonical JSON),
``metric`` (action-metric table as CSV), ``solve`` (sampled eigenfunction as
CSV), ``verify`` (decay certificates; nonzero exit on FAIL), ``sweep``
(parameter sweeps with one CSV row per grid point).

Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage, input or
out-of-memory error.
Floats are emitted in shortest round-trip form so identical inputs produce
byte-identical outputs.  The QGDECAY_OUTDIR environment variable supplies a
default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

from .eigenfunctions import CONSTRUCTORS, construct
from .graph import (
    FAMILIES,
    FamilyParameterError,
    MetricGraph,
    NumpyMissingError,
    family_name,
    generate_family,
    keyword_params,
    load_graph_spec,
)
from .metrics import compute_rho_a, insert_cut_points
from .verify import MultiplierSpec, certify, fit_decay_rate

ENV_OUTDIR = "QGDECAY_OUTDIR"
MAX_GRID_POINTS = 100_000  # per start:stop:step sweep grid
MAX_SOLVE_ROWS = 1_000_000  # of a solve CSV: about 0.4 GB at its peak
# what argparse reads as a value, not an option, after an option: argparse
# itself takes only -1 and -0.5, so -1e-5 or -inf needed --flag=-1e-5
NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(ENV_OUTDIR)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue()


def _parse_grid(spec: str) -> list[float]:
    """start:stop:step inclusive of both endpoints within half a step, or a
    comma-separated list; every value must be finite."""
    values = [float(s) for s in spec.split(":" if ":" in spec else ",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {spec}")
    if ":" in spec:
        start, stop, step = values
        if step <= 0:
            raise ValueError("grid step must be > 0")
        # the values are start + i * step for i = 0 .. floor(span + 1/2), and
        # one more: the end test on each value decides
        last = (stop - start) / step + 0.5
        if last >= MAX_GRID_POINTS:
            raise ValueError(f"grid {spec} has more than {MAX_GRID_POINTS} points")
        values = []
        for i in range(math.floor(max(last, -1.0)) + 2):
            v = start + i * step
            if v > stop + step / 2:
                break
            if values and v == values[-1]:
                raise ValueError(f"grid {spec}: step {step!r} leaves {v!r} unchanged")
            values.append(v)
    return values


def _parse_int_list(spec: str) -> list[int]:
    return [int(s) for s in spec.split(",")]


def _parse_float_list(spec: str) -> list[float]:
    return [float(s) for s in spec.split(",")]


# ---------------------------------------------------------------------------
# Family parameters from flags
# ---------------------------------------------------------------------------


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family name, e.g. regular-tree")
    p.add_argument("--depth", type=int, help="generations to construct")
    p.add_argument("--b", type=int, help="tree branching number")
    p.add_argument("--L", dest="length", metavar="L", type=float,
                   help="edge length (default 1)")
    p.add_argument("--kL", type=float, help="scaled edge length kL (sets k = kL/L)")
    p.add_argument("--k", type=float, help="sqrt(V - E), default 1")
    p.add_argument("--energy", type=float, help="eigenparameter E, default -1")
    p.add_argument("--L1", type=float, help="two-lengths tree: first length")
    p.add_argument("--L2", type=float, help="two-lengths tree: second length")
    p.add_argument("--delta", type=float, help="millipede leg rate")
    p.add_argument("--legs", type=int, help="millipede legs (default depth)")
    p.add_argument("--leg-length", type=float, help="millipede leg truncation")
    p.add_argument("--w", help="ladder rung length (sweep: grid start:stop:step)")
    p.add_argument("--rungs", type=int, help="ladder rungs (default depth)")
    p.add_argument("--mode", choices=["symmetric", "antisymmetric"],
                   help="ladder mode (default symmetric)")
    p.add_argument("--b-seq", type=_parse_int_list,
                   help="comma-separated branching numbers")
    p.add_argument("--a-seq", type=_parse_int_list,
                   help="comma-separated arriving numbers")
    p.add_argument("--v-seq", type=_parse_float_list,
                   help="comma-separated generation positions")
    p.add_argument("--length-seq", type=_parse_float_list,
                   help="comma-separated generation lengths")


def _family_params(args: argparse.Namespace) -> tuple[str, dict, int]:
    """The family's params from the flags named after them (``--b-seq`` for
    ``b_seq``), the builder's and the constructor's alike."""
    if not args.family:
        raise FamilyParameterError("--family is required (or use --spec)")
    if args.depth is None:
        raise FamilyParameterError("--depth is required with --family")
    name = family_name(args.family)
    if name not in FAMILIES:
        raise FamilyParameterError(f"unknown family {args.family!r}")
    values = vars(args).copy()
    if args.kL is not None:
        if args.length == 0:
            raise FamilyParameterError("length must be > 0")
        values["k"] = args.kL / (1.0 if args.length is None else args.length)
    params: dict = {}
    missing = []
    accepted = {**keyword_params(FAMILIES[name]), **keyword_params(CONSTRUCTORS[name])}
    for key, p in accepted.items():
        if values.get(key) is not None:
            params[key] = values[key]
        elif p.default is p.empty:
            missing.append("--" + key.replace("_", "-"))
    if missing:
        raise FamilyParameterError(f"{args.family} needs {' and '.join(missing)}")
    return name, params, args.depth


def _graph_from_args(args: argparse.Namespace) -> MetricGraph:
    if getattr(args, "spec", None):
        return load_graph_spec(args.spec)
    name, params, depth = _family_params(args)
    for key in keyword_params(CONSTRUCTORS[name]):
        params.pop(key, None)
    return generate_family(name, params, depth)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    text = json.dumps(graph.to_json_dict(), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_metric(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    if args.cut_points:
        graph = insert_cut_points(graph)
    table = compute_rho_a(graph, energy=graph.energy + args.energy_shift)
    try:
        rows = table.to_csv_rows()
    except KeyError as exc:  # a distance of inf reaches nothing
        raise ValueError(f"the root distance of vertex {exc.args[0]} "
                         "overflows") from None
    text = _csv_text(["vertex_id", "arc_distance", "rho_a"], rows)
    _emit(text, args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    f = construct(*_family_params(args))
    rows = args.samples * sum(map(f.graph.edge_count, f.graph.edge_by_id))
    if rows > MAX_SOLVE_ROWS:
        raise ValueError(f"solve would write {rows} rows, more than "
                         f"MAX_SOLVE_ROWS = {MAX_SOLVE_ROWS}; use a smaller "
                         "--depth or --samples")
    text = _csv_text(
        ["edge_id", "generation", "x_local", "arc_distance", "psi", "dpsi"],
        f.sample_rows(args.samples),
    )
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = MultiplierSpec(kind=args.multiplier, delta=args.shift_delta,
                          shift_sign=args.shift_sign, epsilon=args.epsilon,
                          extra_rate=args.extra_rate)
    name, params, depth = _family_params(args)
    f = construct(name, params, depth)
    depths = _parse_int_list(args.depth_schedule) if args.depth_schedule else None
    passed, blocks = certify(f, spec, depths, args.exclusion)
    doc = {"status": "PASS" if passed else "FAIL", "family": name,
           "depth": depth, **blocks}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if args.csv:
        rows = blocks["decay_report"]["rows"]
        last = rows[-1]["generation"]
        _emit(_csv_text(["generation", "sup_F_psi", "cum_L2", "depth"],
                        [(r["generation"], r["sup_F_psi"], r["l2_cumulative"], last)
                         for r in rows]), args.csv)
    return 0 if passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    name = family_name(args.family or "")
    if name == "regular_tree":
        bs = _parse_grid(args.b_range or "2:10:1")
        if any(b != int(b) for b in bs):
            raise ValueError(f"b grid values must be integers, got {args.b_range}")
        bs = [int(b) for b in bs]
        kls = _parse_grid(args.kL_range or "0.1:3.0:0.1")
        header = ["b", "kL", "lambda_small", "fitted_rate", "bound",
                  "bound_ok", "l2_ratio", "l2_ok"]
        rows = []
        for b in bs:
            for kl in kls:
                f = construct("regular_tree", {"b": b, "length": 1.0, "k": kl}, 3)
                lam = f.meta["eigenpair"].lam_small
                fitted = fit_decay_rate(f)
                bound = 1.0 / (b * math.cosh(kl))
                ratio = b * lam * lam
                rows.append(
                    (b, kl, lam, fitted, bound, lam < bound, ratio, ratio < 1.0)
                )
    elif name == "ladder":
        ws = _parse_grid(args.w or "0.25:4:0.25")
        header = [
            "w", "gamma", "det", "trace",
            "lambda_small", "lambda_large", "fitted_rate",
            "below_half_line_rate",
        ]
        rows = []
        for w in ws:
            f = construct("ladder", {"w": w, "mode": "antisymmetric"}, 8)
            t, pair = f.meta["step"], f.meta["eigenpair"]
            gamma = math.sinh(1.0) / math.tanh(w / 2.0)
            rows.append((w, gamma, t.det(), t.trace(), pair.lam_small, pair.lam_large,
                         fit_decay_rate(f), pair.lam_small < math.exp(-1.0)))
    elif name == "millipede":
        deltas = _parse_grid(args.delta_grid or "0.1,0.05,0.02,0.01,0.005")
        header = ["delta", "lambda_small", "log_residual", "fitted_rate"]
        rows = []
        for d in deltas:
            f = construct("millipede", {"delta": d}, 8)
            lam = f.meta["lambda_small"]
            rows.append((d, lam, abs(math.log(lam) + 2.0 + d / 2.0), fit_decay_rate(f)))
    else:
        raise FamilyParameterError(
            f"sweep supports regular-tree, ladder, millipede; got {args.family!r}"
        )
    _emit(_csv_text(header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# shared by every call: no argument has a mutable default or append action
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgdecay",
        description="Exterior eigenfunctions on quantum graphs and their "
        "exponential-decay certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build/validate a graph, emit JSON")
    p_gen.add_argument("--spec", help="graph spec JSON file")
    _add_family_flags(p_gen)
    p_gen.add_argument("--out")

    p_metric = sub.add_parser("metric", help="action-metric table as CSV")
    p_metric.add_argument("--spec", help="graph spec JSON file")
    _add_family_flags(p_metric)
    p_metric.add_argument("--cut-points", action="store_true",
                          help="insert equidistant cut points first")
    p_metric.add_argument("--energy-shift", type=float, default=0.0,
                          help="evaluate at E + shift")
    p_metric.add_argument("--out")

    p_solve = sub.add_parser("solve", help="sampled eigenfunction as CSV")
    _add_family_flags(p_solve)
    p_solve.add_argument("--samples", type=int, default=9)
    p_solve.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the decay certificates")
    _add_family_flags(p_verify)
    p_verify.add_argument("--multiplier", default="action",
                          choices=["action", "path", "averaged"])
    p_verify.add_argument("--epsilon", type=float, default=0.1,
                          help="action exponent margin (1 - epsilon)")
    p_verify.add_argument("--shift-delta", type=float, default=0.0)
    p_verify.add_argument("--shift-sign", type=int, default=1, choices=[1, -1])
    p_verify.add_argument("--extra-rate", type=float, default=0.0)
    p_verify.add_argument("--depth-schedule", help="comma-separated depths")
    p_verify.add_argument("--exclusion", type=float, default=0.0,
                          help="monotonicity exclusion radius")
    p_verify.add_argument("--out")
    p_verify.add_argument("--csv")

    p_sweep = sub.add_parser("sweep", help="parameter sweep as CSV")
    _add_family_flags(p_sweep)
    p_sweep.add_argument("--b-range", help="tree sweep b grid start:stop:step")
    p_sweep.add_argument("--kL-range", dest="kL_range",
                         help="tree sweep kL grid start:stop:step")
    p_sweep.add_argument("--delta-grid", help="millipede sweep delta grid")
    p_sweep.add_argument("--out")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handlers = {
        "generate": _cmd_generate,
        "metric": _cmd_metric,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OverflowError, OSError, NumpyMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
