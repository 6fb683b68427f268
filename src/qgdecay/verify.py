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
import functools
import io
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .eigenfunctions import (
    Eigenfunction,
    averaged_wave_function,
    canonical_path,
    repeated_sum,
)
from .graph import Edge, MetricGraph
from .metrics import (
    AgmonMetricTable,
    PathSpec,
    ave_action_integral,
    ave_branching_prefactor,
    compute_rho_a,
)

VALUE_FLOOR = 1e-300
PLATEAU_FACTOR = 1.01
BLOCK_EDGES = 512  # edges per array block of the sampled stages
MONOTONICITY_SAMPLES = 17  # per edge, both ends included
MONOTONICITY_REL_TOL = 1e-12
IDENTITY_SAMPLES = 33


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

    def __post_init__(self):
        for name in ("delta", "epsilon", "extra_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def effective_energy(self, energy: float) -> float:
        return energy + self.shift_sign * self.delta


class Multiplier:
    """F on a graph: per-edge path prefactor times
    exp((1 - eps) * rho_a(x; E_eff) + extra_rate * arc(x)).

    ``on_edge`` evaluates exactly what the per-point reference in the tests
    (``tests/points.py``: ``eval_rho_a`` and ``eval_arc`` at
    ``GraphPoint(eid, x)``) gives, with the edge's data read once."""

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

    def on_edges(
        self, rows: np.ndarray, x: np.ndarray, overflow: np.ndarray
    ) -> np.ndarray:
        """``on_edge`` at offsets ``x[i, j]`` along the edge of ``rows[i]``
        (``_edge_rows`` and the path prefactor), bit for bit; exp overflows
        are flagged in ``overflow``."""
        spec = self.spec
        length, w, rho_tail, rho_head, arc_tail, arc_head, pre = _columns(rows)
        expo = (1.0 - spec.epsilon) * _min(
            rho_tail + w * x, rho_head + w * (length - x)
        )
        if spec.extra_rate != 0.0:
            expo += spec.extra_rate * _min(arc_tail + x, arc_head + (length - x))
        return pre * _libm(math.exp, expo, overflow)


# The stages read the eigenfunction's graph by classes: one representative
# edge or vertex per class, which stands for ``edge_count`` or
# ``vertex_count`` of them (a built graph gives one class per edge and
# vertex, a GenerationTable one per generation).  Each class is
# evaluated once, as every member evaluates bit for bit alike.  Maxima,
# minima and first failures read each class once; sums replay their
# additions in order (repeated_sum), and fits weight each class's sample.
#
# The sampled stages run on blocks of BLOCK_EDGES edges as (edges x samples)
# arrays, with the per-point code's float operations in its order, so their
# results are bitwise those of on_edge, edge_eval and _sup_and_l2.


def _blocks(items: Iterable) -> Iterator[list]:
    it = iter(items)
    while block := list(itertools.islice(it, BLOCK_EDGES)):
        yield block


def _columns(rows: np.ndarray) -> np.ndarray:
    """The columns of (n, m) ``rows`` as m arrays of shape (n, 1)."""
    return rows.T[:, :, None]


def _edge_rows(table: AgmonMetricTable, edges: list[Edge]) -> np.ndarray:
    """Rows L, sqrt((V - E)_+), rho and arc at tail and head."""
    rho, arc = table.rho, table.arc
    return np.array([
        (e.length, math.sqrt(max(e.potential - table.energy, 0.0)),
         rho[e.tail], rho[e.head], arc[e.tail], arc[e.head])
        for e in edges
    ], dtype=float)


def _solution_rows(f: Eigenfunction, eids: Iterable[int]) -> np.ndarray:
    """Rows A, B, k of the solutions on edges ``eids``."""
    sols = [f.solutions[eid] for eid in eids]
    return np.array([(s.A, s.B, s.k) for s in sols], dtype=float)


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(a, b) elementwise by Python's rule: a unless b < a."""
    return np.where(b < a, b, a)


def _libm(fn: Callable, a: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` on each element, as numpy's ufuncs differ from
    libm in the last bit for some inputs; overflows read inf and are
    flagged in ``overflow``."""
    flat = memoryview(a.ravel())  # yields one Python float at a time
    try:
        out = np.fromiter(map(fn, flat), float, a.size)
    except OverflowError:
        out = np.empty(a.size)
        for i, value in enumerate(flat):
            try:
                out[i] = fn(value)
            except OverflowError:
                out[i] = math.inf
                overflow.flat[i] = True
    return out.reshape(a.shape)


def _psi(rows: np.ndarray, x: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    """``edge_eval`` at offsets ``x[i, j]`` on the solution of ``rows[i]``
    (from ``_solution_rows``), bit for bit."""
    a, b, k = _columns(rows)
    kx = k * x
    cosh, sinh = _libm(math.cosh, kx, overflow), _libm(math.sinh, kx, overflow)
    return np.where(k == 0.0, a + b * x, a * cosh + b * sinh)


def continuity_and_kirchhoff(f: Eigenfunction) -> dict[str, float]:
    """Worst continuity and Kirchhoff residuals over all interior vertices,
    one per vertex class."""
    worst = None
    for res in map(f.vertex_residuals, f.graph.interior_vertex_ids()):
        # max() over the vertices in order, as a running value
        worst = res if worst is None else tuple(map(max, worst, res))
    cont, kirch = worst or (0.0, 0.0)
    return {"max_continuity": cont, "max_kirchhoff": kirch}


# ---------------------------------------------------------------------------
# Constraint margin
# ---------------------------------------------------------------------------


def constraint_margin(graph: MetricGraph, spec: MultiplierSpec) -> float:
    """min over non-core edges of V - E - (F'/F)^2 for F = the action-type
    multiplier of ``spec``, inf when every edge is core; a positive return
    certifies the decay hypothesis outside the compact core.

    |rho_a'| = sqrt((V - E_eff)_+) makes (F'/F)^2 = ((1 - eps) rho_a')^2
    constant on each edge, so no distances are needed.  An ``extra_rate``
    would make the sign of rho_a' matter, and raises ValueError.
    """
    if spec.extra_rate != 0.0:
        raise ValueError("constraint_margin needs extra_rate == 0")
    e_eff = spec.effective_energy(graph.energy)
    if not math.isfinite(e_eff):
        raise ValueError(f"energy must be finite, got {e_eff}")
    scale = 1.0 - spec.epsilon
    margin = math.inf
    for e in graph.edges:  # one edge per class; min() reads each once
        if e.id not in graph.core_edges:
            s = scale * math.sqrt(max(e.potential - e_eff, 0.0))
            margin = min(margin, (e.potential - graph.energy) - s * s)
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


@functools.cache
def _gauss() -> tuple[np.ndarray, np.ndarray]:
    """16-node Gauss-Legendre nodes and weights on [-1, 1].  Built on first
    use: importing numpy.polynomial adds 0.7 MB to every process."""
    return np.polynomial.legendre.leggauss(16)


def _sup_and_l2(
    g: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Sup of |g| at lo, hi and 16 equispaced interior points, and the
    16-node Gauss-Legendre integral of g^2 over [lo, hi]."""
    ys = [lo, hi] + [lo + (hi - lo) * (i + 1) / 17.0 for i in range(16)]
    sup = max(abs(g(y)) for y in ys)
    half = (hi - lo) / 2.0
    total = 0.0
    for t, wt in zip(*_gauss()):
        v = g(lo + half * (t + 1.0))
        total += wt * v * v
    return sup, float(total * half)


def _edge_sups_and_l2(
    f: Eigenfunction, mult: Multiplier, eids: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_sup_and_l2`` of on_edge * edge_eval over [0, L] of each edge, bit
    for bit, and whether any of the edge's samples overflowed."""
    nodes, weights = _gauss()
    keys = np.column_stack([
        _edge_rows(mult.table, [f.graph.edge_by_id[eid] for eid in eids]),
        [mult.prefactor.get(eid, 1.0) for eid in eids],
        _solution_rows(f, eids),
    ])
    lo = 0.0
    hi = keys[:, :1]  # L
    half = (hi - lo) / 2.0
    x = np.hstack([
        np.full_like(hi, lo),
        hi,
        lo + (hi - lo) * np.arange(1, 17) / 17.0,
        lo + half * (nodes + 1.0),
    ])
    overflow = np.zeros(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        g = mult.on_edges(keys[:, :7], x, overflow) * _psi(
            keys[:, 7:], x, overflow
        )
        sup_g = np.abs(g[:, :18])
        sup = sup_g[:, 0]
        for j in range(1, 18):  # max(): only a greater value replaces
            sup = np.where(sup_g[:, j] > sup, sup_g[:, j], sup)
        total = np.zeros(len(keys))
        for j, wt in enumerate(weights):
            v = g[:, 18 + j]
            total = total + wt * v * v
    l2 = total * half[:, 0]
    return sup, l2, overflow.any(axis=1)


def _fit_tail_ratio(increments: list[float]) -> float:
    usable = [
        (n, inc) for n, inc in enumerate(increments) if inc > VALUE_FLOOR
    ]
    start = 3 if len(usable) > 5 else 1
    pts = [(n, inc) for n, inc in usable if n >= start]
    if len(pts) < 2:
        return 0.0
    ns = np.array([n for n, _ in pts], dtype=float)
    return math.exp(_slope(ns, np.log([inc for _, inc in pts])))


def _plateau(sups: list[float]) -> bool:
    if len(sups) <= 3:
        return True
    ref = max(sups[:3])
    return all(s <= PLATEAU_FACTOR * ref for s in sups[3:])


def _slope_log_psi_vs_rho(f: Eigenfunction) -> float:
    xs, ys, counts = _vertex_fit(f, compute_rho_a(f.graph).rho)
    if counts.sum() < 2 or np.ptp(xs) == 0.0:
        return 0.0
    return _slope(xs, ys, counts)


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
    for gen, sup, inc, count in _unit_sups_and_l2(f, spec, path):
        sup_by_gen[gen] = max(sup_by_gen.get(gen, 0.0), sup)
        inc_by_gen[gen] = repeated_sum(inc_by_gen.get(gen, 0.0), inc, count)
    gens = sorted(sup_by_gen)
    sups = [sup_by_gen[gen] for gen in gens]
    incs = [inc_by_gen[gen] for gen in gens]
    max_gen = len(sups) - 1
    if depths is None:
        depths = sorted({min(6, max_gen), max_gen})
    if min(depths) < 0 or max(depths) > max_gen:
        raise ValueError(
            f"depth schedule {list(depths)} lies outside the constructed "
            f"depths 0..{max_gen}"
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


def _overflow_error(spec: MultiplierSpec, gen: int) -> ValueError:
    return ValueError(
        f"{spec.kind} multiplier times psi overflows a float at "
        f"generation {gen}; try a smaller --depth"
    )


def _unit_sups_and_l2(
    f: Eigenfunction, spec: MultiplierSpec, path: PathSpec | None
) -> Iterator[tuple[int, float, float, int]]:
    """(generation, sup of |g|, L2 increment of g, units alike) for each
    class of units the report sums, in order: g = F * psi on [0, L] of
    every edge class of ``f`` (kind "action") or of each path edge
    (kind "path"), g = F_ave * averaged psi on [v_g, v_{g+1}] (kind
    "averaged")."""
    graph = f.graph
    if spec.kind != "averaged":
        if spec.kind == "path" and path is None:
            path = canonical_path(f)
        mult = Multiplier(graph, spec, path)
        for eids in _blocks(path.edges if spec.kind == "path" else f.solutions):
            gens = [int(graph.edge_by_id[eid].generation) for eid in eids]
            counts = [
                1 if spec.kind == "path" else graph.edge_count(eid) for eid in eids
            ]
            sups, incs, overflow = _edge_sups_and_l2(f, mult, eids)
            if overflow.any():  # the first such edge in pool order
                raise _overflow_error(spec, gens[int(overflow.argmax())])
            yield from zip(gens, sups.tolist(), incs.tolist(), counts)
        return

    info = graph.family_info
    if info is None or info.positions is None:
        raise ValueError("averaged multiplier requires a regular-topology family")
    positions = info.positions
    v_inner = positions[1:]
    envelope: dict[int, float] = {}  # min() over each generation, in order
    for e in graph.edges:
        envelope[e.generation] = min(envelope.get(e.generation, e.potential),
                                     e.potential)
    envelopes = [envelope[g] for g in range(len(positions) - 1)]
    e_eff = spec.effective_energy(graph.energy)

    def f_ave_psi(y: float) -> float:
        pre = ave_branching_prefactor(y, v_inner, info.arriving, info.ongoing)
        action = ave_action_integral(y, v_inner, envelopes, e_eff)
        big_f = pre * math.exp(
            (1.0 - spec.epsilon) * action + spec.extra_rate * y
        )
        return big_f * averaged_wave_function(f, y)

    for g in range(len(envelopes)):
        try:
            sup, inc = _sup_and_l2(f_ave_psi, positions[g], positions[g + 1])
        except OverflowError:
            raise _overflow_error(spec, g) from None
        yield g, sup, inc, 1


# ---------------------------------------------------------------------------
# Decay-rate fitting
# ---------------------------------------------------------------------------


def _slope(xs: np.ndarray, ys: np.ndarray, counts=None) -> float:
    """Least-squares slope of ``ys`` against ``xs``, point i counted
    ``counts[i]`` times."""
    w = None if counts is None else np.sqrt(counts)
    return float(np.polyfit(xs, ys, 1, w=w)[0])


def _vertex_fit(f: Eigenfunction, dist: dict) -> tuple[np.ndarray, ...]:
    """(dist, log |psi|, vertex count) per run of equal samples at the
    interior vertices with |psi| > VALUE_FLOOR, so a built graph, which
    lists each generation's vertices in a row, gives its quotient's points."""
    vids, values = f.interior_values()
    keep = np.abs(values) > VALUE_FLOOR
    xs = np.fromiter(map(dist.__getitem__, vids), float)[keep]
    ys = np.log(np.abs(values[keep]))
    # float: a wide generation holds more vertices than an int64
    counts = np.fromiter(map(f.graph.vertex_count, vids), float)[keep]
    new = np.ones(len(xs), dtype=bool)
    new[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    starts = np.flatnonzero(new)
    return xs[starts], ys[starts], np.add.reduceat(counts, starts)


def fit_decay_rate(f: Eigenfunction) -> float:
    """Least-squares slope of log |psi| against arc distance over the
    interior vertices, where transfer-matrix decay is exact."""
    xs, ys, counts = _vertex_fit(f, f.graph.arc_distances())
    if counts.sum() < 2:
        raise ValueError("degenerate sample set: need >= 2 nonzero samples")
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate sample set: all samples at one distance")
    return _slope(xs, ys, counts)


# ---------------------------------------------------------------------------
# Product-derivative identity
# ---------------------------------------------------------------------------


def identity_check(
    big_f: Callable[[float], float],
    phi: Callable[[float], float],
    x0: float,
    x1: float,
    h: float,
) -> float:
    """Max residual of (F phi)'(phi/F)' = (phi')^2 - (F'/F)^2 phi^2 with all
    derivatives replaced by centered differences of step h.  O(h^2) for
    smooth F > 0 and phi."""
    if not (x1 - x0 > 2 * h > 0):
        raise ValueError("need x1 - x0 > 2h > 0")
    worst = 0.0
    for i in range(IDENTITY_SAMPLES):
        x = (x0 + h) + (x1 - x0 - 2 * h) * i / (IDENTITY_SAMPLES - 1)
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
    edges: Sequence[int] | None = None,
) -> MonotonicityResult:
    """Scan |psi| along every distance-oriented edge beyond the exclusion
    radius for non-increase.  For the odd ladder mode the rung halves decay
    into their reflection-axis zero, which is additionally verified.

    ``edges`` restricts the scan (e.g. to one certified path); default is
    the whole graph.
    """
    arc = f.graph.arc_distances()
    scale = max(abs(sol.A) + abs(sol.B) for sol in f.solutions.values())
    pool = (
        f.graph.edges
        if edges is None
        else [f.graph.edge_by_id[eid] for eid in edges]
    )
    kept = (
        e
        for e in sorted(pool, key=lambda e: e.id)
        if not min(arc[e.tail], arc[e.head]) < exclusion_radius - 1e-12
    )
    frac = np.array([
        i / (MONOTONICITY_SAMPLES - 1) for i in range(MONOTONICITY_SAMPLES)
    ])
    for edges in _blocks(kept):
        forward, length = _columns(np.array(
            [(arc[e.head] >= arc[e.tail], e.length) for e in edges], dtype=float
        ))
        x = length * np.where(forward != 0.0, frac, 1.0 - frac)
        overflow = np.zeros(x.shape, dtype=bool)
        with np.errstate(all="ignore"):
            val = np.abs(_psi(_solution_rows(f, (e.id for e in edges)), x, overflow))
            stop = overflow.copy()
            stop[:, 1:] |= val[:, 1:] > (
                val[:, :-1] * (1 + MONOTONICITY_REL_TOL)
                + MONOTONICITY_REL_TOL * scale
            )
        # the first overflow or increase, by edge id and then by sample
        if stop.any():
            i, j = np.unravel_index(stop.argmax(), stop.shape)
            eid, at = edges[i].id, float(x[i, j])
            if overflow[i, j]:
                raise OverflowError(
                    f"|psi| overflows a float along edge {eid} at x={at}"
                )
            return MonotonicityResult(
                False,
                edge=eid,
                offset=at,
                detail=f"|psi| increases along edge {eid} at x={at}",
            )
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
