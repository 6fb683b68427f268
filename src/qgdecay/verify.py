"""Numerical decay certificates for constructed eigenfunctions.

Boundedness and square-summability on an infinite graph are not decidable
from a truncation, so the checks here use two published proxies: multiplied
sups must plateau (bounded by 1.01 times their early maximum), and the
per-generation increments of the multiplied L2 sum must fit a geometric
ratio below 1.  Alongside these live the pointwise constraint margin for
the multiplier, a finite-difference check of the product-derivative
identity, decay-rate fitting, and an exact monotonicity test.  ``certify``
runs them all and holds the thresholds of the verdict.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

from .eigenfunctions import (
    VALUE_FLOOR,
    EdgeSolution,
    Eigenfunction,
    averaged_wave,
    canonical_path,
    edge_eval,
)
from .graph import MetricGraph, _arrays
from .metrics import PathSpec, compute_rho_a

PLATEAU_FACTOR = 1.01
MAX_CONTINUITY = 1e-10  # structure: worst continuity residual
MAX_KIRCHHOFF = 1e-9  # structure: worst Kirchhoff residual
MARGIN_SLACK = 1e-9  # how far the constraint margin may fall below delta
IDENTITY_FLOOR = 1e-12  # an identity residual at h/2 this small passes
IDENTITY_RATIO = 2.5  # else it passes if it falls this much from h (4: O(h^2))
ROUNDING_ULPS = 4  # a sign counts beyond this many ulps of its terms
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
    (``tests/points.py``: rho_a and arc length at ``GraphPoint(eid, x)``)
    gives, with the edge's data read once."""

    def __init__(
        self,
        graph: MetricGraph,
        spec: MultiplierSpec,
        path: PathSpec | None = None,
    ):
        self.spec = spec
        self.table = compute_rho_a(graph, spec.effective_energy(graph.energy))
        self.prefactor: dict[int, float] = {}
        if spec.kind == "path":
            if path is None:
                raise ValueError("path multiplier needs a PathSpec")
            acc = 1.0
            for eid, p in zip(path.edges, (*path.fractions, 1.0)):
                self.prefactor[eid] = acc
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

    def pieces(self, eid: int) -> list[tuple[float, float, float]]:
        """(x0, x1, c) per piece of edge ``eid`` where log F has slope c:
        cut where rho_a or arc switches from the tail's to the head's."""
        table, spec = self.table, self.spec
        e = table.graph.edge_by_id[eid]
        # (distances, their slope along the edge, weight in log F)
        lines = [(table.rho, math.sqrt(max(e.potential - table.energy, 0.0)),
                  1.0 - spec.epsilon)]
        if spec.extra_rate != 0.0:
            lines.append((table.arc, 1.0, spec.extra_rate))
        # (offset where the head's approach takes over, slope of log F)
        turns = [((d[e.head] - d[e.tail] + w * e.length) / (2 * w) if w else 0.0,
                  w * c) for d, w, c in lines]
        xs = sorted({0.0, e.length, *(x for x, _ in turns if 0.0 < x < e.length)})
        return [(x0, x1, sum(s if (x0 + x1) / 2 <= x else -s for x, s in turns))
                for x0, x1 in zip(xs, xs[1:])]


def averaged_multiplier(
    graph: MetricGraph, spec: MultiplierSpec
) -> Callable[[float], float]:
    """y -> F_ave(y): the product over generations passed before y
    (v_j < y) of sqrt(b_j / a_j), times exp((1 - eps) * int_0^y
    sqrt(V_m(t) - E_eff) dt + extra_rate * y), with V_m the least potential
    of generation m on [v_m, v_{m+1}).  Both factors are bisections into
    running prefixes, each built in a loop's order up to the first
    generation or segment without valid data, where a point raises."""
    info = graph.family_info
    if info is None or info.positions is None:
        raise ValueError("averaged multiplier requires a regular-topology family")
    envelope: dict[int, float] = {}  # min() over each generation, in order
    for e in graph.edges:
        envelope[e.generation] = min(envelope.get(e.generation, e.potential),
                                     e.potential)
    inner = info.positions[1:]
    segments, prefactors, actions, slopes = (0.0, *inner), [1.0], [0.0], []
    for a, b in zip(info.arriving, info.ongoing):
        if b <= 0 or a <= 0:
            break
        prefactors.append(prefactors[-1] * math.sqrt(b / a))
    energy = spec.effective_energy(graph.energy)
    for lo, hi, v in zip(segments, (*inner, math.inf),
                         [envelope[g] for g in range(len(inner))]):
        if (gap := v - energy) <= 0.0:
            break
        slopes.append(math.sqrt(gap))
        actions.append(actions[-1] + slopes[-1] * (hi - lo))
    else:
        gap = None  # every segment has its slope
    scale, rate = 1.0 - spec.epsilon, spec.extra_rate

    def big_f(y: float) -> float:
        n = bisect.bisect_left(inner, y)
        if n >= len(prefactors):
            raise ValueError(f"generation {len(prefactors)} passed at y={y} "
                             "has no branching data")
        j = bisect.bisect_left(segments, y) - 1  # the segment y ends in
        if j >= len(slopes) and gap is not None:
            raise ValueError(f"envelope potential minus energy is {gap} <= 0 "
                             f"on segment {len(slopes)}")
        action = actions[j] + slopes[j] * (y - segments[j]) if j >= 0 else 0.0
        return prefactors[n] * math.exp(scale * action + rate * y)

    return big_f


# The stages read the eigenfunction's graph by classes: one representative edge
# or vertex per class, which stands for ``edge_count`` or ``vertex_count`` of
# them (one per edge and vertex of a built graph, one per generation of a
# GenerationTable), evaluated once in closed form or, for the averaged kind,
# once per sample from the prefix tables that ``averaged_multiplier`` and
# ``averaged_wave`` build once per report.  Maxima, minima and first failures
# read each class once; the decay report and the averaged wave function add
# count * value, the Kirchhoff totals replay their additions in order
# (repeated_sum), and fits weight each class's sample.


def _terms(sol: EdgeSolution, x: float) -> tuple[tuple[float, ...], ...]:
    """The terms edge_eval and edge_deriv sum for psi and psi'/k (psi' if
    k = 0) at x."""
    if sol.k == 0.0:
        return (sol.A, sol.B * x), (sol.B,)
    c, s = math.cosh(sol.k * x), math.sinh(sol.k * x)
    return (sol.A * c, sol.B * s), (sol.A * s, sol.B * c)


def _integral(a: float, x: float, b: float, y: float, h: float) -> float:
    """The integral of a e^{xu} b e^{yu} over [0, h]; a growing one is read
    from its value at h, so it overflows only with it."""
    r = x + y
    if r > 0.0:
        return a * math.exp(x * h) * b * math.exp(y * h) * -math.expm1(-r * h) / r
    return a * b * (math.expm1(r * h) / r if r else h)


def _moments(z: float) -> tuple[float, ...]:
    """Integrals of t^n e^{z t} over [0, 1], n = 0, 1, 2 (series below
    |z| = 1, where closed forms cancel)."""
    if abs(z) < 1.0:
        return tuple(math.fsum(z**j / (math.factorial(j) * (n + j + 1))
                               for j in range(20)) for n in range(3))
    e, m0 = math.exp(z), math.expm1(z) / z
    m1 = (e - m0) / z
    return m0, m1, (e - 2.0 * m1) / z


def _edge_sup_and_l2(
    mult: Multiplier, eid: int, sol: EdgeSolution
) -> tuple[float, float]:
    """Sup of |F psi| and integral of (F psi)^2 over edge ``eid``.  On a
    piece F psi = p e^{(c+k)u} + q e^{(c-k)u}, u = x - x0 ((a + b u) e^{cu}
    if k = 0): its sup is at an end or its one critical point."""
    big_f, k = mult.on_edge(eid), sol.k
    sup = l2 = 0.0
    for x0, x1, c in mult.pieces(eid):
        h, f0 = x1 - x0, big_f(x0)
        crit = -1.0  # u at the critical point, if any
        if k == 0.0:
            a, b = f0 * (sol.A + sol.B * x0), f0 * sol.B
            if b and c:
                crit = -(a / b + 1.0 / c)
            m0, m1, m2 = _moments(2.0 * c * h)
            l2 += h * (a * a * m0 + h * (2.0 * a * b * m1 + h * b * b * m2))
        else:
            p = f0 * (0.5 * (sol.A + sol.B)) * math.exp(k * x0)
            q = f0 * (0.5 * (sol.A - sol.B)) * math.exp(-k * x0)
            ratio = (k - c) * q / ((c + k) * p) if p * (c + k) else 0.0
            if ratio > 0.0:
                crit = math.log(ratio) / (2.0 * k)
            l2 += (
                _integral(p, c + k, p, c + k, h)
                + 2.0 * _integral(p, c + k, q, c - k, h)
                + _integral(q, c - k, q, c - k, h)
            )
        xs = (x0, x1, x0 + crit) if 0.0 < crit < h else (x0, x1)
        sup = max(sup, *(abs(big_f(x) * sum(_terms(sol, x)[0])) for x in xs))
    return sup, l2


def continuity_and_kirchhoff(f: Eigenfunction) -> dict[str, float]:
    """Worst continuity and Kirchhoff residuals over all interior vertices,
    one per vertex class."""
    if f.coeffs is not None:  # a built graph, on its arrays
        worst = _arrays().interior_residuals(f)
    else:
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
    for potential in graph.non_core_potentials():
        s = scale * math.sqrt(max(potential - e_eff, 0.0))
        margin = min(margin, (potential - graph.energy) - s * s)
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


@functools.cache
def _gauss() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """numpy.polynomial.legendre.leggauss(16) to the bit, as floats, so no
    verify imports numpy: the 16-node rule on [-1, 1]."""
    x = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
         0.9445750230732326, 0.9894009349916499)
    w = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
         0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
         0.062253523938647456, 0.027152459411754176)
    return (*(-t for t in reversed(x)), *x), (*reversed(w), *w)


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
    return sup, total * half


def _fit_tail_ratio(increments: list[float]) -> float:
    usable = [
        (n, inc) for n, inc in enumerate(increments) if inc > VALUE_FLOOR
    ]
    start = 3 if len(usable) > 5 else 1
    pts = [(n, inc) for n, inc in usable if n >= start]
    if len(pts) < 2:
        return 0.0
    return math.exp(_slope([(n, 1.0, math.log(inc)) for n, inc in pts]))


def _plateau(sups: list[float]) -> bool:
    if len(sups) <= 3:
        return True
    ref = max(sups[:3])
    return all(s <= PLATEAU_FACTOR * ref for s in sups[3:])


def _slope_log_psi_vs_rho(f: Eigenfunction) -> float:
    points = f.log_sums(compute_rho_a(f.graph).rho)
    return _slope(points) if len(points) > 1 else 0.0


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
    for gen, count, unit in _units(f, spec, path):
        try:
            sup, inc = unit()
        except OverflowError:  # at the first such unit, in order
            raise ValueError(
                f"{spec.kind} multiplier times psi overflows a float at "
                f"generation {gen}; try a smaller --depth"
            ) from None
        sup_by_gen[gen] = max(sup_by_gen.get(gen, 0.0), sup)
        inc_by_gen[gen] = inc_by_gen.get(gen, 0.0) + count * inc
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


def _units(
    f: Eigenfunction, spec: MultiplierSpec, path: PathSpec | None
) -> Iterator[tuple[int, int, Callable[[], tuple[float, float]]]]:
    """(generation, units alike, () -> (sup |g|, L2 of g)) per class of
    units the report sums, in order: g = F psi on each edge class (kind
    "action") or path edge ("path"), F_ave psi_ave on [v_g, v_{g+1}]."""
    graph = f.graph
    if spec.kind != "averaged":
        if spec.kind == "path" and path is None:
            path = canonical_path(f)
        mult = Multiplier(graph, spec, path)
        for eid in path.edges if spec.kind == "path" else f.solutions:
            count = 1 if spec.kind == "path" else graph.edge_count(eid)
            yield (int(graph.edge_by_id[eid].generation), count,
                   functools.partial(_edge_sup_and_l2, mult, eid, f.solutions[eid]))
        return

    big_f, psi_ave = averaged_multiplier(graph, spec), averaged_wave(f)

    def f_ave_psi(y: float) -> float:
        return big_f(y) * psi_ave(y)

    positions = graph.family_info.positions
    for g in range(len(positions) - 1):
        yield g, 1, functools.partial(
            _sup_and_l2, f_ave_psi, positions[g], positions[g + 1]
        )


# ---------------------------------------------------------------------------
# Decay-rate fitting
# ---------------------------------------------------------------------------


def _slope(points: list[tuple[float, float, float]]) -> float:
    """Least-squares slope through points (x, w, s), each w samples at x
    whose ys sum to s, with every sum exactly rounded (math.fsum)."""
    total = math.fsum(w for _, w, _ in points)
    x_bar = math.fsum(w * x for x, w, _ in points) / total
    y_bar = math.fsum(s for _, _, s in points) / total
    return (math.fsum((x - x_bar) * (s - w * y_bar) for x, w, s in points)
            / math.fsum(w * (x - x_bar) ** 2 for x, w, _ in points))


def fit_decay_rate(f: Eigenfunction) -> float:
    """Least-squares slope of log |psi| against arc distance over the
    interior vertices, where transfer-matrix decay is exact."""
    points = f.log_sums(f.graph.distances())
    if math.fsum(w for _, w, _ in points) < 2:
        raise ValueError("degenerate sample set: need >= 2 nonzero samples")
    if len(points) < 2:
        raise ValueError("degenerate sample set: all samples at one distance")
    return _slope(points)


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


def _signs(sol: EdgeSolution, x: float) -> list[float]:
    """Signs of psi and psi' at x, 0 within ROUNDING_ULPS of their terms."""
    try:
        terms = _terms(sol, x)
    except OverflowError:
        terms = ((math.inf,),)
    sizes = [sum(map(abs, t)) for t in terms]
    if not math.isfinite(sum(sizes)):
        raise OverflowError(f"at x={x}")
    tol = ROUNDING_ULPS * math.ulp(1.0)
    return [0.0 if abs(sum(t)) <= tol * size else math.copysign(1.0, sum(t))
            for t, size in zip(terms, sizes)]


def _rise(sol: EdgeSolution, forward: bool) -> float | None:
    """Where |psi| stops falling as distance grows (with x if ``forward``),
    or None.  psi'/psi is monotone on an edge, so |psi| falls exactly when
    psi psi' <= 0 at both ends and psi keeps its sign."""
    near, far = (0.0, sol.length) if forward else (sol.length, 0.0)
    way = 1.0 if forward else -1.0
    (psi0, d0), (psi1, d1) = _signs(sol, near), _signs(sol, far)
    if way * psi0 * d0 > 0.0:
        return near
    if psi0 * psi1 < 0.0:  # at the zero
        num, den = sol.A, sol.B
    elif way * psi1 * d1 > 0.0:
        if sol.k == 0.0:  # psi' = B: no minimum
            return near
        num, den = sol.B, sol.A  # at the minimum
    else:
        return None
    try:
        x = -num / den if sol.k == 0.0 else math.atanh(-num / den) / sol.k
    except (ZeroDivisionError, ValueError):  # off the edge by rounding
        return near
    return max(0.0, x) if 0.0 <= x <= sol.length else near  # not -0.0


def monotonicity_check(
    f: Eigenfunction,
    exclusion_radius: float = 0.0,
    edges: Sequence[int] | None = None,
) -> MonotonicityResult:
    """Test |psi| for non-increase along every distance-oriented edge
    beyond the exclusion radius (``_rise``), and the odd ladder's rung
    halves for their reflection-axis zero.

    ``edges`` restricts the test (e.g. to one certified path); default is
    the whole graph.
    """
    arc = f.graph.distances()
    pool = (
        f.graph.edges
        if edges is None
        else [f.graph.edge_by_id[eid] for eid in edges]
    )
    for e in sorted(pool, key=lambda e: e.id):
        if min(arc[e.tail], arc[e.head]) < exclusion_radius - 1e-12:
            continue
        try:
            at = _rise(f.solutions[e.id], arc[e.head] >= arc[e.tail])
        except OverflowError as exc:
            raise OverflowError(
                f"|psi| overflows a float along edge {e.id} {exc}"
            ) from None
        if at is not None:
            return MonotonicityResult(
                False,
                edge=e.id,
                offset=at,
                detail=f"|psi| increases along edge {e.id} at x={at}",
            )
    if midpoints := f.meta.get("rung_midpoints"):
        scale = max(abs(sol.A) + abs(sol.B) for sol in f.solutions.values())
        for vid in midpoints:
            val = abs(f.vertex_value(vid))
            if val > 1e-10 * scale:
                return MonotonicityResult(
                    False, detail=f"reflection-axis zero violated at vertex {vid}"
                )
    return MonotonicityResult(True)


def certify(
    f: Eigenfunction, spec: MultiplierSpec, depths: Sequence[int] | None = None,
    exclusion: float = 0.0,
) -> tuple[bool, dict]:
    """Run the decay report and the structure, constraint, monotonicity and
    identity checks, in that order: whether all passed, and the verify
    document's blocks from ``decay_report`` to ``fitted_decay_rate``.  The
    margin's delta is ``spec.delta``, or half the least non-core V - E."""
    if not math.isfinite(exclusion):
        raise ValueError(f"exclusion must be finite, got {exclusion}")
    graph = f.graph
    path = canonical_path(f) if spec.kind == "path" else None
    report = decay_report(f, spec, depths, path=path)

    residuals = continuity_and_kirchhoff(f)
    structure_ok = (
        residuals["max_continuity"] <= MAX_CONTINUITY
        and residuals["max_kirchhoff"] <= MAX_KIRCHHOFF
    )

    gap_min = min(p - graph.energy for p in graph.non_core_potentials())
    delta = spec.delta if spec.delta > 0 else 0.5 * gap_min
    margin_plus = constraint_margin(graph, MultiplierSpec(delta=delta, shift_sign=1))
    margin_minus = constraint_margin(graph, MultiplierSpec(delta=delta, shift_sign=-1))
    margin_ok = margin_plus >= delta - MARGIN_SLACK

    # a path certificate is scoped to its path, monotonicity included
    mono = monotonicity_check(
        f, exclusion_radius=exclusion, edges=None if path is None else path.edges
    )

    # product-derivative identity on an interior window of the root edge,
    # with the action multiplier for the averaged kind
    first = min(
        (e for e in map(graph.edge_by_id.__getitem__, graph.incidence[graph.root])
         if e.tail == graph.root),
        key=lambda e: e.id,
    )
    window_spec = spec if spec.kind != "averaged" else MultiplierSpec()
    big_f = Multiplier(graph, window_spec, path).on_edge(first.id)
    phi = functools.partial(edge_eval, f.solutions[first.id])
    lo, hi, h = 0.1 * first.length, 0.9 * first.length, first.length / 64.0
    try:
        res_h = identity_check(big_f, phi, lo, hi, h)
        res_h2 = identity_check(big_f, phi, lo, hi, h / 2)
    except ZeroDivisionError:  # F underflows to 0
        res_h = res_h2 = math.inf
    if not (math.isfinite(res_h) and math.isfinite(res_h2)):
        raise ValueError(f"the {window_spec.kind} multiplier underflows on the "
                         f"identity window [{lo!r}, {hi!r}] of root edge {first.id}")
    identity_ok = res_h2 <= IDENTITY_FLOOR or res_h / res_h2 >= IDENTITY_RATIO

    passed = report.passed and structure_ok and margin_ok and mono.ok and identity_ok
    return passed, {
        "decay_report": report.to_json_dict(),
        "structure": {"ok": structure_ok, **residuals},
        "constraint": {
            "ok": margin_ok,
            "delta": delta,
            "margin_shift_plus": margin_plus,
            "margin_shift_minus": margin_minus,
            "satisfying_shift_sign": 1 if margin_ok else -1
            if margin_minus >= delta - MARGIN_SLACK
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
