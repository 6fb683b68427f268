"""Built graphs held as arrays, and the eigenfunction kernels that read them.

A ``graph.MetricGraph`` holds its columns in a ``GraphArrays``, and its
``vertices``, ``edges``, ``vertex_by_id``, ``edge_by_id`` and ``incidence``
are views of them (``Items``, ``IdView``).  The whole-graph stages run here
on the arrays: the CSR incidence, the breadth-first levels behind
``validate``, the root distances (``Distances``), the interior vertices,
and the vertex values and residuals of an eigenfunction.  Every kernel
makes the float operations of the per-vertex code it replaces, element by
element: only correctly rounded operations are vectorized, cosh and sinh
come from ``math`` once per distinct argument, and sums run left to right.

The kernels over every interior vertex or every edge take ``BLOCK`` of
them at a time, so that their temporaries are as long as one block, not
the graph; what each block gives is combined as the code it replaces reads
the whole: values and logs are concatenated in order, a largest residual is
the first vertex's if NaN and else the largest other than NaN, and a
potential is kept at its first occurrence.

Every vertex and edge position is an int32, so a graph holds fewer than
``POSITIONS`` edge ends and vertices.  numpy indexes by an int32 array at a
higher cost than by its own intp, so ``incident_at`` reads a run of
consecutive vertices, as each breadth-first level and interior block of
the two-lengths tree is, as one slice of the CSR incidence, and the
per-level and per-block gathers use ``take``, which costs less.

``graph._arrays()`` imports this module on first use: the generation
tables of the synchronized families read none of it, and the code objects
of a module a process never loads add nothing to its peak RSS.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping, Sequence

from . import graph
from .eigenfunctions import DERIV_FLOOR, VALUE_FLOOR, EdgeSolution
from .graph import Edge, GraphValidationError, Vertex, _numpy

np = _numpy()

# vertices or edges per block: 16 KB a float column; smaller blocks no
# longer lower the heap peak of a 32,767-edge tree's verify, and cost time
BLOCK = 2048

# edge ends or vertices a built graph may hold: each position is an int32
POSITIONS = 2**31 - 1


def _blocks(n: int) -> Iterator[slice]:
    """Slices of ``range(n)``, ``BLOCK`` long but the last; one empty slice
    if n = 0."""
    return (slice(i, i + BLOCK) for i in range(0, max(n, 1), BLOCK))


class GraphArrays(SimpleNamespace):
    """A graph's columns by vertex and edge position: ``vertex_ids``,
    ``boundary``, ``vertex_generation``; ``edge_ids``, ``tail`` and ``head``
    (int32 vertex positions, -1 at an end that is no vertex), ``length``,
    ``potential``, ``generation`` and ``core`` (a mask).  ``vertex_index``
    and ``edge_index`` give an id's position: a range where ids are
    positions, else a dict in which the last of equal ids wins, as in
    ``vertex_by_id``.  A graph made from objects has no generation columns
    (its objects hold them).  The kernels below keep what they derive here
    too."""


def position(index: range | dict, key) -> int:
    """The position of id ``key`` in a GraphArrays index; KeyError if none.
    A range index is range(n), whose ids are their positions."""
    if type(key) is int and type(index) is range and 0 <= key < len(index):
        return key  # the lookup of every whole-graph loop: no method calls
    try:
        return index[key] if isinstance(index, dict) else index.index(operator.index(key))
    except (TypeError, ValueError):
        raise KeyError(key) from None


class Items(Sequence):
    """Objects made from arrays as they are read: ``len()`` makes none and
    an index one (``one(position)``), until the lookups have made a quarter
    as many as there are; then, as at the first full read, ``every()``
    makes and keeps them all."""

    def __init__(self, n: int, one: Callable[[int], object],
                 every: Callable[[], tuple]):
        self._n, self._one, self._every, self._all = n, one, every, None
        self._made = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if self._all is not None:
            return self._all[i]
        if not isinstance(i, slice) and self._made < self._n // 4:
            self._made += 1
            return self._one(range(self._n)[i])
        return self._kept()[i]

    def __iter__(self) -> Iterator:
        return iter(self._kept())

    def _kept(self) -> tuple:
        if self._all is None:
            self._all = self._every()
        return self._all


class Distances(Mapping):
    """Root distances by vertex id, read-only: ``array`` by vertex
    position, inf or NaN where the vertex is not reached.  A lookup reads
    the array, until a quarter of the vertices have been looked up; then,
    as ``Items`` does, one dict is made and kept."""

    def __init__(self, a: GraphArrays, array: np.ndarray):
        array.flags.writeable = False
        self._a, self.array, self.reached = a, array, array < math.inf
        self._made, self._dict = 0, None

    def __getitem__(self, key):
        if self._dict is not None:
            return self._dict[key]
        if self._made < len(self.array) // 4:
            self._made += 1
            i = position(self._a.vertex_index, key)
            if not self.reached[i]:
                raise KeyError(key)
            return self.array.item(i)
        self._dict = dict(zip(self, self.array[self.reached].tolist()))
        return self._dict[key]

    def __iter__(self) -> Iterator:
        """The ids of the vertices reached, in vertex order."""
        return iter(self._a.vertex_ids[self.reached].tolist())

    def __len__(self) -> int:
        return int(self.reached.sum())

    def at(self, positions: np.ndarray) -> np.ndarray:
        """The distances at these vertex positions; KeyError at the first
        one not reached."""
        missing = ~self.reached.take(positions)
        if missing.any():
            raise KeyError(self._a.vertex_ids[positions[missing.argmax()]].item())
        return self.array.take(positions)


class IdView(Mapping):
    """Id -> ``make(position)``, made on lookup, for the ids of ``index``."""

    def __init__(self, index: range | dict, make: Callable[[int], object]):
        self._index, self._make = index, make

    def __getitem__(self, key):
        return self._make(position(self._index, key))

    def __contains__(self, key) -> bool:
        try:
            position(self._index, key)
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def _ints(values: list[int]) -> np.ndarray:
    """int64, or Python ints where a spec's ids do not fit one."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _check_size(n: int, m: int) -> None:
    """ValueError unless n vertices and m edges have int32 positions."""
    if max(n, 2 * m) >= POSITIONS:
        raise ValueError(f"a built graph holds fewer than {POSITIONS} edge ends "
                         f"and vertices; this one has {2 * m} and {n}")


def _hold(g, a: GraphArrays, vertices: Sequence[Vertex], edges: Sequence[Edge]) -> None:
    g.arrays = a
    g.vertices, g.edges = vertices, edges
    g.vertex_by_id = IdView(a.vertex_index, vertices.__getitem__)
    g.edge_by_id = IdView(a.edge_index, edges.__getitem__)
    incidence = Items(len(a.boundary), lambda i: tuple(
        a.edge_ids[incident_at(a, np.array([i]))[0]].tolist()
    ), functools.partial(_incidence, a))
    g.incidence = IdView(a.vertex_index, incidence.__getitem__)


def _incidence(a: GraphArrays) -> tuple[tuple[int, ...], ...]:
    """The ids of the edges at each vertex, by vertex position."""
    ptr, adj = csr(a)
    ids, bounds = a.edge_ids[adj].tolist(), ptr.tolist()
    return tuple(tuple(ids[i:j]) for i, j in zip(bounds, bounds[1:]))


def hold_objects(g, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> None:
    """Give ``g`` the arrays of Vertex and Edge objects, kept as its views."""
    _check_size(len(vertices), len(edges))
    vindex = {v.id: i for i, v in enumerate(vertices)}
    ends = np.array(
        [(vindex.get(e.tail, -1), vindex.get(e.head, -1)) for e in edges],
        dtype=np.int32,
    ).reshape(-1, 2)
    edge_ids = _ints([e.id for e in edges])
    _hold(g, GraphArrays(
        vertex_ids=_ints([v.id for v in vertices]),
        boundary=np.array([v.boundary for v in vertices], dtype=bool),
        edge_ids=edge_ids, tail=ends[:, 0], head=ends[:, 1],
        length=np.array([e.length for e in edges], dtype=float),
        potential=np.array([e.potential for e in edges], dtype=float),
        core=np.isin(edge_ids, list(g.core_edges)),
        vertex_index=vindex, edge_index={e.id: i for i, e in enumerate(edges)},
    ), vertices, edges)


def hold_columns(g, tail, head, length, potential, generation,
                 vertex_generation, boundary) -> None:
    """Give ``g`` these columns, its ids being their positions; a length or
    potential may be one number."""
    n, m = len(boundary), len(tail)
    _check_size(n, m)
    ids = np.arange(max(n, m), dtype=np.int32)
    a = GraphArrays(
        vertex_ids=ids[:n], boundary=np.asarray(boundary),
        vertex_generation=np.asarray(vertex_generation, dtype=np.int32),
        edge_ids=ids[:m], tail=np.asarray(tail, dtype=np.int32),
        head=np.asarray(head, dtype=np.int32),
        length=np.broadcast_to(np.asarray(length, dtype=float), (m,)),
        potential=np.broadcast_to(np.asarray(potential, dtype=float), (m,)),
        generation=np.asarray(generation, dtype=np.int32),
        core=np.isin(ids[:m], list(g.core_edges)),
        vertex_index=range(n), edge_index=range(m),
    )
    columns = (a.tail, a.head, a.length, a.potential, a.generation)
    # a full read makes one int object per id, which a vertex and the ends
    # of its edges share
    shared = functools.cache(lambda: list(range(max(n, m))))
    _hold(g, a, Items(
        n, lambda i: Vertex(i, a.vertex_generation.item(i), a.boundary.item(i)),
        lambda: tuple(map(Vertex, shared()[:n], a.vertex_generation.tolist(),
                          a.boundary.tolist())),
    ), Items(
        m, lambda i: Edge(i, *(c.item(i) for c in columns)),
        lambda: tuple(map(Edge, shared()[:m], *(
            map(shared().__getitem__, c.tolist()) for c in columns[:2]
        ), *(c.tolist() for c in columns[2:]))),
    ))


def csr(a: GraphArrays) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, adj): the edges at vertex position i are at positions
    adj[ptr[i]:ptr[i + 1]], in edge order, a loop once."""
    if "adj" not in vars(a):
        ends = np.stack([a.tail, a.head], axis=1).ravel()
        keep = ends >= 0
        keep[1::2] &= a.head != a.tail
        order = np.argsort(ends[keep], kind="stable")
        a.adj = (np.flatnonzero(keep).astype(np.int32) // 2)[order]
        a.ptr = np.zeros(len(a.boundary) + 1, dtype=np.int32)
        np.cumsum(np.bincount(ends[keep], minlength=len(a.boundary)), out=a.ptr[1:])
    return a.ptr, a.adj


def incident_at(a: GraphArrays, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the edges at each vertex of ``positions``, one
    vertex after another in incidence order, and how many at each: a slice
    of ``adj`` where the vertices are a run lo, lo + 1, ..., hi - 1."""
    ptr, adj = csr(a)
    n = len(positions)
    if n and positions[-1] - positions[0] == n - 1 and (np.diff(positions) == 1).all():
        lo, hi = positions[0], positions[-1] + 1
        return adj[ptr[lo]:ptr[hi]], np.diff(ptr[lo:hi + 1])
    start = ptr[positions]
    count = ptr[positions + 1] - start
    at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
    return adj[at], count


def bfs(g) -> tuple[list[tuple[np.ndarray, ...]], bool, np.ndarray]:
    """Breadth first from the root: per level, the (edge, from, to)
    positions of the edges it leaves by; whether the root's component is a
    tree (no edge leads back to a vertex reached); the reached mask."""
    a = g.arrays
    if "levels" not in vars(a):
        # the edge each vertex is reached by
        back = np.full(len(a.boundary), -2, dtype=np.int32)
        frontier = np.array([position(a.vertex_index, g.root)], dtype=np.int32)
        back[frontier] = -1
        a.levels, tree = [], True
        while frontier.size:
            edge, count = incident_at(a, frontier)
            frm = np.repeat(frontier, count)
            keep = edge != back.take(frm)
            edge, frm = edge[keep], frm[keep]
            # the other end: the int32 sum may wrap, the difference is exact
            to = a.tail.take(edge) + a.head.take(edge) - frm
            new = back.take(to) == -2
            fresh, via = to[new], edge[new]
            back[fresh] = via  # of two edges to one vertex, either
            # each vertex once: the edges of a level that reach a new vertex
            # differ (one at two frontier vertices reaches none)
            frontier = fresh[back.take(fresh) == via]
            tree = tree and len(frontier) == len(to)
            a.levels.append((edge, frm, to))
        a.tree, a.reached = bool(tree), back != -2
    return a.levels, a.tree, a.reached


def distances(g, weights: np.ndarray) -> Distances:
    """The root distances with these edge weights: where the root's
    component is a tree, level by level, ``dist[from] + weight``, one
    addition per vertex, as the heap makes them; else ``graph.dijkstra``'s.
    Inf and NaN reach nothing, as in the heap."""
    a = g.arrays
    levels, tree, _ = bfs(g)
    dist = np.full(len(a.boundary), math.inf)
    if tree:
        dist[position(a.vertex_index, g.root)] = 0.0
        with np.errstate(over="ignore"):
            for edge, frm, to in levels:
                dist[to] = dist.take(frm) + weights.take(edge)
    else:
        heap = graph.dijkstra(g, dict(zip(a.edge_ids.tolist(), weights.tolist())))
        dist[[position(a.vertex_index, vid) for vid in heap]] = list(heap.values())
    return Distances(a, dist)


def interior_positions(g) -> np.ndarray:
    """Positions of the vertices where vertex conditions are checkable:
    not the root, not boundary-flagged, degree at least 2."""
    a = g.arrays
    if "interior" not in vars(a):
        loops = a.tail[(a.tail == a.head) & (a.tail >= 0)]
        degree = np.diff(csr(a)[0]) + np.bincount(loops, minlength=len(a.boundary))
        a.interior = np.flatnonzero((a.vertex_ids != g.root) & ~a.boundary
                                    & (degree >= 2)).astype(np.int32)
    return a.interior


def interior_vertex_ids(g) -> list[int]:
    return g.arrays.vertex_ids[interior_positions(g)].tolist()


def non_core_potentials(g) -> list[float]:
    """The potentials of the non-core edges in edge order, each bit pattern
    once: all that a min() over those edges reads."""
    a = g.arrays
    if "non_core" not in vars(a):
        kept = {}  # bit pattern -> potential, in order of first occurrence
        for part in _blocks(len(a.core)):
            potential = a.potential[part][~a.core[part]]
            bits = potential.view(np.int64)
            first = np.sort(np.unique(bits, return_index=True)[1])
            for key, value in zip(bits[first].tolist(), potential[first].tolist()):
                kept.setdefault(key, value)
        a.non_core = list(kept.values())
    return a.non_core


def _repeats(ids: np.ndarray, index: range | dict) -> np.ndarray:
    """Mask of the positions whose id came before."""
    repeat = np.full(len(ids), len(index) < len(ids))
    if repeat.any():
        repeat[np.unique(ids, return_index=True)[1]] = False
    return repeat


def validate(g) -> None:
    """``MetricGraph.validate``: the first fault, in the order the checks
    read the vertices and edges."""
    a = g.arrays
    repeat = _repeats(a.vertex_ids, a.vertex_index)
    if repeat.any():
        raise GraphValidationError(
            f"duplicate vertex id {g.vertices[repeat.argmax()].id}"
        )
    repeat = _repeats(a.edge_ids, a.edge_index)
    bad = (repeat | (a.tail < 0) | (a.head < 0) | ~(a.length > 0.0)
           | ~np.isfinite(a.length) | ~np.isfinite(a.potential))
    if bad.any():  # the first edge at fault, and its first fault
        e = g.edges[bad.argmax()]
        if repeat[bad.argmax()]:
            raise GraphValidationError(f"duplicate edge id {e.id}")
        g._check_edge(e)
    if g.root not in g.vertex_by_id:
        raise GraphValidationError(f"root {g.root} is not a vertex")
    unreached = sorted(a.vertex_ids[~bfs(g)[2]].tolist())
    if unreached:
        raise GraphValidationError(f"vertices disconnected from root: {unreached}")
    bad = ~(a.potential - g.energy > 0.0) & ~a.core
    if bad.any():
        g._check_gap(g.edges[bad.argmax()])


# ---------------------------------------------------------------------------
# Eigenfunction kernels
# ---------------------------------------------------------------------------


def hold_solutions(f, solutions: Mapping[int, EdgeSolution]) -> None:
    """Give ``f`` the coefficients of one EdgeSolution per edge."""
    sols = [solutions[eid] for eid in f.graph.arrays.edge_ids.tolist()]
    _hold_coefficients(f, tuple(np.array([getattr(sol, name) for sol in sols], dtype=float)
                                for name in ("k", "length", "A", "B")))


def hold_coefficients(f, k, a, b) -> None:
    """Give ``f`` k, A and B by edge position (each may be one number), and
    L, the edge lengths."""
    length = f.graph.arrays.length
    _hold_coefficients(f, tuple(np.broadcast_to(np.asarray(x, dtype=float), length.shape)
                                for x in (k, length, a, b)))


def _hold_coefficients(f, coeffs: tuple[np.ndarray, ...]) -> None:
    """Give ``f`` its coefficient arrays ``coeffs`` = (k, L, A, B) by edge
    position, and ``solutions``, the read-only view that makes
    EdgeSolutions of them."""
    f.coeffs = coeffs
    ids = f.graph.arrays.edge_ids
    solutions = Items(
        len(ids), lambda i: EdgeSolution(ids.item(i), *(c.item(i) for c in coeffs)),
        lambda: tuple(map(EdgeSolution, ids.tolist(), *(c.tolist() for c in coeffs))),
    )
    f._solutions = IdView(f.graph.arrays.edge_index, solutions.__getitem__)


def cosh_sinh(args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """math.cosh and math.sinh elementwise, once per distinct argument (bit
    pattern)."""
    bits = np.sort(args.view(np.int64))
    first = np.ones(len(bits), dtype=bool)  # of each run of equal bits
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    bits = bits[first]
    inverse = np.searchsorted(bits, args.view(np.int64))
    distinct = bits.view(float).tolist()
    return (np.array([math.cosh(t) for t in distinct])[inverse],
            np.array([math.sinh(t) for t in distinct])[inverse])


def _psi(k: np.ndarray, x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """edge_eval and edge_deriv elementwise: psi and psi' at offset x on
    edges with coefficients (k, A, B)."""
    c, s = cosh_sinh(k * x)
    flat = k == 0.0
    c, s = np.where(flat, 1.0, c), np.where(flat, x, s)  # A * 1.0 is A
    return a * c + b * s, np.where(flat, b, k * (a * s + b * c))


def _ends(f, edge: np.ndarray, vertex: np.ndarray) -> tuple[np.ndarray, ...]:
    """Elementwise, psi and psi' at the end of each edge at its vertex (at
    the tail of a loop), as edge_end_value reads them, and whether that end
    is the tail."""
    k, length, ca, cb = (c.take(edge) for c in f.coeffs)
    at_tail = f.graph.arrays.tail.take(edge) == vertex
    with np.errstate(all="ignore"):
        return (*_psi(k, np.where(at_tail, 0.0, length), ca, cb), at_tail)


def _running(best, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """What Python's max() (``best`` = np.fmax) or min() (np.fmin) takes
    over each run of ``x`` from ``starts``: its first value if that is NaN,
    else the best value other than NaN."""
    return np.where(np.isnan(x[starts]), x[starts], best.reduceat(x, starts))


def _vertex_psi(f, vertex: np.ndarray) -> np.ndarray:
    """psi at the first edge end of each vertex, as vertex_value reads it."""
    edge, count = incident_at(f.graph.arrays, vertex)
    return _ends(f, edge[np.cumsum(count) - count], vertex)[0]


def interior_values(f) -> tuple[list[int], np.ndarray, np.ndarray]:
    """``Eigenfunction.interior_values`` on a built graph, with a count of
    one for each vertex."""
    interior = interior_positions(f.graph)
    values = np.concatenate([_vertex_psi(f, interior[part])
                             for part in _blocks(len(interior))])
    return f.graph.arrays.vertex_ids[interior].tolist(), values, np.ones(len(interior))


def interior_logs(f) -> tuple[np.ndarray, np.ndarray, str | None]:
    """The positions of the interior vertices where |psi| > VALUE_FLOOR,
    and log |psi| there, up to the first vertex where psi overflows; the
    message of that OverflowError, or None."""
    interior = interior_positions(f.graph)
    positions, logs, overflow = [], [], None
    for part in _blocks(len(interior)):
        vertex = interior[part]
        try:
            values = _vertex_psi(f, vertex)
        except OverflowError as exc:  # keep the vertices before the first
            overflow, values = str(exc), []
            with contextlib.suppress(OverflowError):
                for i in range(len(vertex)):
                    values.append(_vertex_psi(f, vertex[i:i + 1]).item())
            vertex, values = vertex[:len(values)], np.array(values, dtype=float)
        keep = np.abs(values) > VALUE_FLOOR
        positions.append(vertex[keep])
        logs.append(np.fromiter(map(math.log, np.abs(values[keep]).tolist()), float))
        if overflow is not None:
            break
    return np.concatenate(positions), np.concatenate(logs), overflow


def log_sums(dist: Distances, positions: np.ndarray, logs: np.ndarray,
             overflow: str | None) -> list[tuple[float, float, float]]:
    """``Eigenfunction.log_sums`` on a built graph, each vertex counted
    once: its samples sorted by distance, and each run of one distance
    summed.  As the per-vertex code meets them, a vertex not reached
    (KeyError) comes before the OverflowError of ``interior_logs``."""
    xs = dist.at(positions)
    if overflow is not None:
        raise OverflowError(overflow)
    order = np.argsort(xs)
    xs, ys = xs[order], logs[order]
    starts = np.flatnonzero(np.diff(xs, prepend=np.nan)).tolist()  # new distances
    return [(x, float(b - a), math.fsum(ys[a:b].tolist()))
            for x, a, b in zip(xs[starts].tolist(), starts, [*starts[1:], len(xs)])]


def interior_residuals(f) -> tuple[float, float] | None:
    """The largest continuity and Kirchhoff residuals (``vertex_residuals``)
    over the interior vertices of a built graph, in order, as max() takes
    them; None without interior vertices."""
    interior = interior_positions(f.graph)
    if not len(interior):
        return None
    # the first vertex's residuals, then each block's largest other than
    # NaN: _running over these is max() over all the vertices in order
    worst = []
    for part in _blocks(len(interior)):
        res = np.array(_residuals(f, interior[part]))  # rows: continuity, Kirchhoff
        if not worst:
            worst.append(res[:, 0])
        worst.append(np.fmax.reduce(res, axis=1))
    first = np.zeros(1, dtype=np.int64)
    return tuple(_running(np.fmax, r, first).item() for r in np.array(worst).T)


def _residuals(f, vertex: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The continuity and Kirchhoff residuals at each of these interior
    vertex positions."""
    a = f.graph.arrays
    edge, count = incident_at(a, vertex)
    vertex = np.repeat(vertex, count)
    psi, dpsi, at_tail = _ends(f, edge, vertex)
    start = np.cumsum(count) - count
    total, magnitude = np.zeros(len(count)), np.zeros(len(count))
    with np.errstate(all="ignore"):
        out = np.where(at_tail, 0.0 + dpsi, 0.0 - dpsi)  # outgoing_derivative
        loop = at_tail & (a.head.take(edge) == vertex)
        if loop.any():  # less psi' at its head
            out[loop] -= _psi(*(c[edge[loop]] for c in f.coeffs))[1]
        for j in range(count.max()):  # left to right from 0.0, as repeated_sum
            at = count > j
            total[at] += out[start[at] + j]
            magnitude[at] += np.abs(out[start[at] + j])
        spread = _running(np.fmax, psi, start) - _running(np.fmin, psi, start)
        # + 0.0: max() and min() pick the same zero, whose difference is +0.0
        cont = (spread + 0.0) / (_running(np.fmax, np.abs(psi), start) + DERIV_FLOOR)
        return cont, np.abs(total) / (magnitude + DERIV_FLOOR)
