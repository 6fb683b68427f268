"""Command-line front end.

Subcommands: ``generate`` (build/validate a graph, emit canonical JSON),
``metric`` (action-metric table as CSV), ``solve`` (sampled eigenfunction as
CSV), ``verify`` (decay certificates; nonzero exit on FAIL), ``sweep``
(parameter sweeps with one CSV row per grid point).

Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage or input error.
Floats are emitted in shortest round-trip form so identical inputs produce
byte-identical outputs.  The QGDECAY_OUTDIR environment variable supplies a
default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .eigenfunctions import CONSTRUCTORS, canonical_path, construct, edge_eval
from .graph import (
    FAMILIES,
    FamilyParameterError,
    GraphValidationError,
    MetricGraph,
    family_name,
    generate_family,
    keyword_params,
    load_graph_spec,
)
from .metrics import compute_rho_a, insert_cut_points
from .transfer import (
    eig2,
    ladder_antisym_transfer,
    millipede_transfer,
    vertex_edge_transfer,
)
from .verify import (
    Multiplier,
    MultiplierSpec,
    constraint_margin,
    continuity_and_kirchhoff,
    decay_report,
    fit_decay_rate,
    identity_check,
    monotonicity_check,
)

ENV_OUTDIR = "QGDECAY_OUTDIR"


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
    comma-separated list."""
    if ":" in spec:
        start, stop, step = (float(s) for s in spec.split(":"))
        if step <= 0:
            raise ValueError("grid step must be > 0")
        values = []
        i = 0
        while True:
            v = start + i * step
            if v > stop + step / 2:
                break
            values.append(v)
            i += 1
        return values
    return [float(s) for s in spec.split(",")]


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
    text = _csv_text(
        ["vertex_id", "arc_distance", "rho_a"],
        [tuple(row) for row in table.to_csv_rows()],
    )
    _emit(text, args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    f = construct(*_family_params(args))
    rows = [
        (eid, "" if gen is None else gen, x, arc, psi, dpsi)
        for eid, gen, x, arc, psi, dpsi in f.sample_rows(args.samples)
    ]
    text = _csv_text(
        ["edge_id", "generation", "x_local", "arc_distance", "psi", "dpsi"],
        rows,
    )
    _emit(text, args.out)
    return 0


def _multiplier_from_args(args: argparse.Namespace) -> MultiplierSpec:
    return MultiplierSpec(
        kind=args.multiplier,
        delta=args.shift_delta,
        shift_sign=args.shift_sign,
        epsilon=args.epsilon,
        extra_rate=args.extra_rate,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    name, params, depth = _family_params(args)
    f = construct(name, params, depth)
    spec = _multiplier_from_args(args)
    depths = _parse_int_list(args.depth_schedule) if args.depth_schedule else None
    report = decay_report(f, spec, depths)

    residuals = continuity_and_kirchhoff(f)
    structure_ok = (
        residuals["max_continuity"] <= 1e-10
        and residuals["max_kirchhoff"] <= 1e-9
    )

    gap_min = min(
        e.potential - f.graph.energy
        for e in f.graph.edges
        if e.id not in f.graph.core_edges
    )
    margin_delta = args.shift_delta if args.shift_delta > 0 else 0.5 * gap_min
    margin_plus = constraint_margin(
        f.graph, MultiplierSpec(delta=margin_delta, shift_sign=1)
    )
    margin_minus = constraint_margin(
        f.graph, MultiplierSpec(delta=margin_delta, shift_sign=-1)
    )
    margin_ok = margin_plus >= margin_delta - 1e-9

    # a path certificate is scoped to its path, monotonicity included
    mono_edges = canonical_path(f).edges if spec.kind == "path" else None
    mono = monotonicity_check(
        f, exclusion_radius=args.exclusion, edges=mono_edges
    )

    # product-derivative identity on an interior window of the root edge
    first = min(
        (e for e in f.graph.edges if e.tail == f.graph.root),
        key=lambda e: e.id,
    )
    sol = f.solutions[first.id]
    big_f = Multiplier(
        f.graph,
        spec if spec.kind != "averaged" else MultiplierSpec(),
        canonical_path(f) if spec.kind == "path" else None,
    ).on_edge(first.id)
    phi = lambda x: edge_eval(sol, x)
    h = first.length / 64.0
    res_h = identity_check(big_f, phi, 0.1 * first.length, 0.9 * first.length, h)
    res_h2 = identity_check(big_f, phi, 0.1 * first.length, 0.9 * first.length, h / 2)
    identity_ok = res_h2 <= 1e-12 or res_h / max(res_h2, 1e-300) >= 2.5

    passed = bool(
        report.passed and structure_ok and margin_ok and mono.ok and identity_ok
    )
    doc = {
        "status": "PASS" if passed else "FAIL",
        "family": name,
        "depth": depth,
        "decay_report": report.to_json_dict(),
        "structure": {
            "ok": structure_ok,
            **residuals,
        },
        "constraint": {
            "ok": margin_ok,
            "delta": margin_delta,
            "margin_shift_plus": margin_plus,
            "margin_shift_minus": margin_minus,
            "satisfying_shift_sign": 1 if margin_ok else -1
            if margin_minus >= margin_delta - 1e-9
            else 0,
        },
        "monotonicity": {"ok": mono.ok, "detail": mono.detail},
        "identity": {
            "ok": identity_ok,
            "residual_h": res_h,
            "residual_h_over_2": res_h2,
        },
        "fitted_decay_rate": fit_decay_rate(f),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if args.csv:
        _emit(report.to_csv_text(), args.csv)
    return 0 if passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    name = family_name(args.family or "")
    if name == "regular_tree":
        bs = [int(b) for b in _parse_grid(args.b_range or "2:10:1")]
        kls = _parse_grid(args.kL_range or "0.1:3.0:0.1")
        header = ["b", "kL", "lambda_small", "fitted_rate", "bound",
                  "bound_ok", "l2_ratio", "l2_ok"]
        rows = []
        for b in bs:
            for kl in kls:
                lam = eig2(vertex_edge_transfer(kl, 1.0 / b)).lam_small
                fitted = fit_decay_rate(
                    construct("regular_tree", {"b": b, "length": 1.0, "k": kl}, 3)
                )
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
            t = ladder_antisym_transfer(w)
            pair = eig2(t)
            gamma = math.sinh(1.0) / math.tanh(w / 2.0)
            fitted = fit_decay_rate(
                construct("ladder", {"w": w, "mode": "antisymmetric"}, 8)
            )
            rows.append(
                (
                    w, gamma, t.det(), t.trace(),
                    pair.lam_small, pair.lam_large, fitted,
                    pair.lam_small < math.exp(-1.0),
                )
            )
    elif name == "millipede":
        deltas = _parse_grid(args.delta_grid or "0.1,0.05,0.02,0.01,0.005")
        header = ["delta", "lambda_small", "log_residual", "fitted_rate"]
        rows = []
        for d in deltas:
            lam = eig2(millipede_transfer(d)).lam_small
            fitted = fit_decay_rate(construct("millipede", {"delta": d}, 8))
            rows.append(
                (
                    d, lam,
                    abs(math.log(lam) + 2.0 + d / 2.0),
                    fitted,
                )
            )
    else:
        raise FamilyParameterError(
            f"sweep supports regular-tree, ladder, millipede; got {args.family!r}"
        )
    _emit(_csv_text(header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
    except (GraphValidationError, FamilyParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
