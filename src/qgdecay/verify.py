"""Numerical decay certificates for constructed eigenfunctions.

Boundedness and square-summability on an infinite graph are not decidable
from a truncation, so the checks here use two published proxies: multiplied
sups must plateau (bounded by 1.01 times their early maximum), and the
per-generation increments of the multiplied L2 sum must fit a geometric
ratio below 1.  Alongside these live the pointwise constraint margin for
the multiplier, a finite-difference check of the product-derivative
identity, decay-rate fitting, and monotonicity scans.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .eigenfunctions import (
    Eigenfunction,
    averaged_wave_function,
    canonical_path,
    continuity_residual,
    edge_eval,
    kirchhoff_residual,
)
from .graph import MetricGraph
from .metrics import (
    PathSpec,
    ave_action_integral,
    ave_branching_prefactor,
    compute_rho_a,
)

VALUE_FLOOR = 1e-300
PLATEAU_FACTOR = 1.01
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class MultiplierSpec:
    """Which growing weight multiplies psi, and how it is shifted.

    E_eff = E + shift_sign * delta; the default +1 is the choice under which
    the pointwise constraint V - E - (F'/F)^2 >= delta holds with margin
    exactly delta on constant-potential edges.  ``epsilon`` scales the action
    exponent by (1 - epsilon); ``extra_rate`` adds exp(extra_rate * arc).
    """

    kind: str = "action"  # action | path | averaged
    delta: float = 0.0
    shift_sign: int = 1
    epsilon: float = 0.0
    extra_rate: float = 0.0

    def effective_energy(self, energy: float) -> float:
        return energy + self.shift_sign * self.delta


class Multiplier:
    """F on a graph: per-edge path prefactor times
    exp((1 - eps) * rho_a(x; E_eff) + extra_rate * arc(x)).

    ``on_edge`` evaluates exactly what ``eval_rho_a`` and ``eval_arc`` give
    at ``GraphPoint(eid, x)``, with the edge's data read once."""

    def __init__(
        self,
        graph: MetricGraph,
        spec: MultiplierSpec,
        path: PathSpec | None = None,
    ):
        self.spec = spec
        self.table = compute_rho_a(
            graph, energy=spec.effective_energy(graph.energy)
        )
        self.prefactor: dict[int, float] = {}
        if spec.kind == "path":
            if path is None:
                raise ValueError("path multiplier needs a PathSpec")
            acc = 1.0
            for i, eid in enumerate(path.edges):
                self.prefactor[eid] = acc
                if i < len(path.fractions):
                    p = path.fractions[i]
                    acc *= math.sqrt(1.0 / p)

    def on_edge(self, eid: int) -> Callable[[float], float]:
        """x -> F(x) at offset x in [0, L] along edge ``eid`` (unchecked)."""
        table, spec = self.table, self.spec
        e = table.graph.edge_by_id[eid]
        pre = self.prefactor.get(eid, 1.0)
        w = math.sqrt(max(e.potential - table.energy, 0.0))
        rho_tail, rho_head = table.rho[e.tail], table.rho[e.head]
        arc_tail, arc_head = table.arc[e.tail], table.arc[e.head]
        length, scale, rate = e.length, 1.0 - spec.epsilon, spec.extra_rate

        def big_f(x: float) -> float:
            expo = scale * min(rho_tail + w * x, rho_head + w * (length - x))
            if rate != 0.0:
                expo += rate * min(arc_tail + x, arc_head + (length - x))
            return pre * math.exp(expo)

        return big_f


def continuity_and_kirchhoff(f: Eigenfunction) -> dict[str, float]:
    """Worst continuity and Kirchhoff residuals over all interior vertices."""
    interior = f.graph.interior_vertex_ids()
    if not interior:
        return {"max_continuity": 0.0, "max_kirchhoff": 0.0}
    return {
        "max_continuity": max(continuity_residual(f, v) for v in interior),
        "max_kirchhoff": max(kirchhoff_residual(f, v) for v in interior),
    }


# ---------------------------------------------------------------------------
# Constraint margin
# ---------------------------------------------------------------------------


def constraint_margin(
    graph: MetricGraph, spec: MultiplierSpec, samples_per_edge: int = 16
) -> float:
    """min over sampled points of V - E - (F'/F)^2 for F = the action-type
    multiplier of ``spec``.  A positive return certifies the decay
    hypothesis at the sampled resolution.  Core edges are excluded (the
    constraint is only required outside the compact core)."""
    table = compute_rho_a(graph, energy=spec.effective_energy(graph.energy))
    margin = math.inf
    for e in graph.edges:
        if e.id in graph.core_edges:
            continue
        w = math.sqrt(max(e.potential - table.energy, 0.0))
        gap = e.potential - graph.energy
        for i in range(samples_per_edge):
            x = e.length * (i + 0.5) / samples_per_edge
            # one-sided slopes of the piecewise-linear rho and arc at x
            rho_sign = (
                1.0
                if table.rho[e.tail] + w * x
                <= table.rho[e.head] + w * (e.length - x)
                else -1.0
            )
            arc_sign = (
                1.0
                if table.arc[e.tail] + x <= table.arc[e.head] + (e.length - x)
                else -1.0
            )
            slope = (
                (1.0 - spec.epsilon) * rho_sign * w
                + spec.extra_rate * arc_sign
            )
            margin = min(margin, gap - slope * slope)
    return margin


# ---------------------------------------------------------------------------
# Decay report
# ---------------------------------------------------------------------------


@dataclass
class GenerationRow:
    generation: int
    sup_F_psi: float
    l2_increment: float
    l2_cumulative: float


@dataclass
class DecayReport:
    """Per-generation sups of F|psi| and partial L2 sums of (F psi)^2, with
    the plateau and geometric-tail verdicts."""

    multiplier: MultiplierSpec
    depths: tuple[int, ...]
    rows: list[GenerationRow]
    cumulative_at_depth: dict[int, float]
    tail_ratio: float
    plateau_pass: bool
    cauchy_pass: bool
    passed: bool
    slope_log_psi_vs_rho: float

    def to_json_dict(self) -> dict:
        return {
            "status": "PASS" if self.passed else "FAIL",
            "plateau_pass": self.plateau_pass,
            "cauchy_pass": self.cauchy_pass,
            "tail_ratio": self.tail_ratio,
            "slope_log_psi_vs_rho": self.slope_log_psi_vs_rho,
            "multiplier": asdict(self.multiplier),
            "depths": list(self.depths),
            "cumulative_at_depth": {
                str(d): v for d, v in sorted(self.cumulative_at_depth.items())
            },
            "rows": [asdict(r) for r in self.rows],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["generation", "sup_F_psi", "cum_L2", "depth"])
        depth = self.rows[-1].generation if self.rows else 0
        for r in self.rows:
            writer.writerow(
                [r.generation, repr(r.sup_F_psi), repr(r.l2_cumulative), depth]
            )
        return buf.getvalue()


def _sup_and_l2(
    g: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Sup of |g| at lo, hi and 16 equispaced interior points, and the
    16-node Gauss-Legendre integral of g^2 over [lo, hi]."""
    ys = [lo, hi] + [lo + (hi - lo) * (i + 1) / 17.0 for i in range(16)]
    sup = max(abs(g(y)) for y in ys)
    half = (hi - lo) / 2.0
    total = 0.0
    for t, wt in zip(_GAUSS_X, _GAUSS_W):
        v = g(lo + half * (t + 1.0))
        total += wt * v * v
    return sup, total * half


def closed_form_edge_l2(sol) -> float:
    """Exact integral of (A cosh kx + B sinh kx)^2 over the edge."""
    a, b, k, length = sol.A, sol.B, sol.k, sol.length
    if k == 0.0:
        return (
            a * a * length + a * b * length * length + b * b * length**3 / 3.0
        )
    s2, c2 = math.sinh(2 * k * length), math.cosh(2 * k * length)
    return (
        (a * a - b * b) * length / 2.0
        + (a * a + b * b) * s2 / (4.0 * k)
        + a * b * (c2 - 1.0) / (2.0 * k)
    )


def _fit_tail_ratio(increments: list[float]) -> float:
    usable = [
        (n, inc) for n, inc in enumerate(increments) if inc > VALUE_FLOOR
    ]
    start = 3 if len(usable) > 5 else 1
    pts = [(n, inc) for n, inc in usable if n >= start]
    if len(pts) < 2:
        return 0.0
    ns = np.array([n for n, _ in pts], dtype=float)
    logs = np.log([inc for _, inc in pts])
    slope = np.polyfit(ns, logs, 1)[0]
    return float(math.exp(slope))


def _plateau(sups: list[float]) -> bool:
    if len(sups) <= 3:
        return True
    ref = max(sups[:3])
    return all(s <= PLATEAU_FACTOR * ref for s in sups[3:])


def _slope_log_psi_vs_rho(f: Eigenfunction) -> float:
    table = f.table()
    pts = []
    for vid in f.graph.interior_vertex_ids():
        val = abs(f.vertex_value(vid))
        if val > VALUE_FLOOR:
            pts.append((table.rho[vid], math.log(val)))
    if len(pts) < 2:
        return 0.0
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.ptp(xs) == 0.0:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def decay_report(
    f: Eigenfunction,
    spec: MultiplierSpec,
    depths: Sequence[int] | None = None,
    path: PathSpec | None = None,
) -> DecayReport:
    """Run the plateau and geometric-tail proxies for F * psi.

    kind "action" sums over the whole graph, kind "path" along one root-to-
    boundary path (default: the canonical one), kind "averaged" over the
    averaged wave function on arc-distance segments.  ``depths`` defaults
    to {min(6, last), last} over the generations sampled.
    """
    sup_by_gen: dict[int, float] = {}
    inc_by_gen: dict[int, float] = {}
    for gen, g, lo, hi in _units(f, spec, path):
        sup, inc = _sup_and_l2(g, lo, hi)
        sup_by_gen[gen] = max(sup_by_gen.get(gen, 0.0), sup)
        inc_by_gen[gen] = inc_by_gen.get(gen, 0.0) + inc
    gens = sorted(sup_by_gen)
    sups = [sup_by_gen[gen] for gen in gens]
    incs = [inc_by_gen[gen] for gen in gens]
    max_gen = len(sups) - 1
    if depths is None:
        depths = sorted({min(6, max_gen), max_gen})
    if max(depths) > max_gen:
        raise ValueError(
            f"depth schedule {list(depths)} exceeds constructed depth {max_gen}"
        )
    rows = []
    cum = 0.0
    for g, (sup, inc) in enumerate(zip(sups, incs)):
        cum += inc
        rows.append(GenerationRow(g, sup, inc, cum))
    cumulative_at_depth = {
        int(d): rows[int(d)].l2_cumulative for d in depths
    }
    tail_ratio = _fit_tail_ratio(incs)
    plateau_pass = _plateau(sups)
    cauchy_pass = tail_ratio < 1.0
    return DecayReport(
        multiplier=spec,
        depths=tuple(int(d) for d in depths),
        rows=rows,
        cumulative_at_depth=cumulative_at_depth,
        tail_ratio=tail_ratio,
        plateau_pass=plateau_pass,
        cauchy_pass=cauchy_pass,
        passed=plateau_pass and cauchy_pass,
        slope_log_psi_vs_rho=_slope_log_psi_vs_rho(f),
    )


def _units(
    f: Eigenfunction, spec: MultiplierSpec, path: PathSpec | None
) -> Iterator[tuple[int, Callable[[float], float], float, float]]:
    """(generation, g, lo, hi) for each edge or segment the report sums:
    g = F * psi on [0, L] of every edge (kind "action") or of each path
    edge (kind "path"), g = F_ave * averaged psi on [v_g, v_{g+1}] (kind
    "averaged").  Lazy, so one unit is held at a time."""
    graph = f.graph
    if spec.kind != "averaged":
        if spec.kind == "path" and path is None:
            path = canonical_path(f)
        mult = Multiplier(graph, spec, path)

        def edge_unit(eid: int):
            big_f, sol = mult.on_edge(eid), f.solutions[eid]
            e = graph.edge_by_id[eid]
            g = lambda x: big_f(x) * edge_eval(sol, x)
            return int(e.generation), g, 0.0, e.length

        pool = path.edges if spec.kind == "path" else f.solutions.keys()
        return map(edge_unit, pool)

    info = graph.family_info
    if info is None or info.positions is None:
        raise ValueError("averaged multiplier requires a regular-topology family")
    positions = info.positions
    n_gens = len(positions) - 1
    v_inner = positions[1:]
    envelopes = [
        min(e.potential for e in graph.edges if e.generation == g)
        for g in range(n_gens)
    ]
    e_eff = spec.effective_energy(graph.energy)

    def f_ave_psi(y: float) -> float:
        pre = ave_branching_prefactor(y, v_inner, info.arriving, info.ongoing)
        action = ave_action_integral(y, v_inner, envelopes, e_eff)
        big_f = pre * math.exp(
            (1.0 - spec.epsilon) * action + spec.extra_rate * y
        )
        return big_f * averaged_wave_function(f, y)

    return (
        (g, f_ave_psi, positions[g], positions[g + 1]) for g in range(n_gens)
    )


# ---------------------------------------------------------------------------
# Decay-rate fitting
# ---------------------------------------------------------------------------


def vertex_samples(f: Eigenfunction) -> list[tuple[float, float]]:
    """(arc distance, psi value) at every interior vertex."""
    table = f.table()
    return [
        (table.arc[vid], f.vertex_value(vid))
        for vid in sorted(f.graph.interior_vertex_ids())
    ]


def fit_decay_rate(
    f: Eigenfunction, samples: Sequence[tuple[float, float]] | None = None
) -> float:
    """Least-squares slope of log |psi| against arc distance.

    ``samples`` are (arc, value) pairs; they default to the interior vertex
    values, where transfer-matrix decay is exact.
    """
    pairs = vertex_samples(f) if samples is None else samples
    pts = [(x, abs(v)) for x, v in pairs if abs(v) > VALUE_FLOOR]
    if len(pts) < 2:
        raise ValueError("degenerate sample set: need >= 2 nonzero samples")
    xs = np.array([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate sample set: all samples at one distance")
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# Product-derivative identity
# ---------------------------------------------------------------------------


def identity_check(
    big_f: Callable[[float], float],
    phi: Callable[[float], float],
    x0: float,
    x1: float,
    h: float,
    n_samples: int = 33,
) -> float:
    """Max residual of (F phi)'(phi/F)' = (phi')^2 - (F'/F)^2 phi^2 with all
    derivatives replaced by centered differences of step h.  O(h^2) for
    smooth F > 0 and phi."""
    if not (x1 - x0 > 2 * h > 0):
        raise ValueError("need x1 - x0 > 2h > 0")
    worst = 0.0
    for i in range(n_samples):
        x = (x0 + h) + (x1 - x0 - 2 * h) * i / max(n_samples - 1, 1)
        fp, fm = big_f(x + h), big_f(x - h)
        pp, pm = phi(x + h), phi(x - h)
        d_phi = (pp - pm) / (2 * h)
        d_f = (fp - fm) / (2 * h)
        d_fphi = (fp * pp - fm * pm) / (2 * h)
        d_phi_over_f = (pp / fp - pm / fm) / (2 * h)
        lhs = d_fphi * d_phi_over_f
        ratio = d_f / big_f(x)
        rhs = d_phi * d_phi - ratio * ratio * phi(x) ** 2
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityResult:
    ok: bool
    edge: int | None = None
    offset: float | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def monotonicity_check(
    f: Eigenfunction,
    exclusion_radius: float = 0.0,
    samples_per_edge: int = 17,
    rel_tol: float = 1e-12,
    edges: Sequence[int] | None = None,
) -> MonotonicityResult:
    """Scan |psi| along every distance-oriented edge beyond the exclusion
    radius for non-increase.  For the odd ladder mode the rung halves decay
    into their reflection-axis zero, which is additionally verified.

    ``edges`` restricts the scan (e.g. to one certified path); default is
    the whole graph.
    """
    table = f.table()
    scale = max(abs(sol.A) + abs(sol.B) for sol in f.solutions.values())
    pool = (
        f.graph.edges
        if edges is None
        else [f.graph.edge_by_id[eid] for eid in edges]
    )
    for e in sorted(pool, key=lambda e: e.id):
        near = min(table.arc[e.tail], table.arc[e.head])
        if near < exclusion_radius - 1e-12:
            continue
        sol = f.solutions[e.id]
        forward = table.arc[e.head] >= table.arc[e.tail]
        prev = None
        for i in range(samples_per_edge):
            frac = i / (samples_per_edge - 1)
            x = e.length * (frac if forward else 1.0 - frac)
            val = abs(edge_eval(sol, x))
            if prev is not None and val > prev * (1 + rel_tol) + rel_tol * scale:
                return MonotonicityResult(
                    False,
                    edge=e.id,
                    offset=x,
                    detail=f"|psi| increases along edge {e.id} at x={x}",
                )
            prev = val
    if f.mode == "antisymmetric":
        for vid in f.meta.get("rung_midpoints", []):
            val = abs(f.vertex_value(vid))
            if val > 1e-10 * scale:
                return MonotonicityResult(
                    False,
                    edge=None,
                    offset=None,
                    detail=f"reflection-axis zero violated at vertex {vid}",
                )
    return MonotonicityResult(True)
