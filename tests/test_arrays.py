"""Built graphs held as arrays: their views against the object graphs the
builders used to make, and the array kernels against the per-vertex code,
bit for bit."""

import collections
import contextlib
import io
import math
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import object_graphs
import qgdecay.arrays
import qgdecay.eigenfunctions
import qgdecay.graph
from qgdecay.cli import main
from qgdecay.eigenfunctions import (
    VALUE_FLOOR,
    EdgeSolution,
    Eigenfunction,
    construct,
    continuity_residual,
    kirchhoff_residual,
)
from qgdecay.graph import (
    Edge,
    FamilyParameterError,
    GraphValidationError,
    MetricGraph,
    Vertex,
    build_family,
    build_graph,
    dijkstra,
    generate_family,
)
from qgdecay.metrics import edge_action_weight
from qgdecay.verify import continuity_and_kirchhoff, fit_decay_rate
from test_graph import FAMILY_CASES, spec_documents


def bits(values):
    return [struct.pack("<d", v) for v in values]


def assert_views_match(g, vertices, edges):
    """``g``'s views equal those of the object graph of ``vertices`` and
    ``edges``, and its array stages agree with the object code."""
    old = MetricGraph(vertices, edges, g.root, g.energy, g.core_edges,
                      g.family_info)
    # lookups and len() first, before a full read makes every object
    assert (len(g.vertices), len(g.edges)) == (len(old.vertices), len(old.edges))
    assert g.edges[-1] == g.edge_by_id[old.edges[-1].id] == old.edges[-1]
    assert g.vertex_by_id[old.root] == old.vertex_by_id[old.root]
    assert g.incidence == old.incidence == object_graphs.incidence(vertices, edges)
    assert tuple(g.vertices) == old.vertices
    assert tuple(g.edges) == old.edges
    assert g.vertex_by_id == old.vertex_by_id
    assert g.edge_by_id == old.edge_by_id
    assert g.to_json_dict() == old.to_json_dict()
    assert g.interior_vertex_ids() == object_graphs.interior_vertex_ids(old)
    object_graphs.validate(old)
    g.validate()


class TestViews:
    @pytest.mark.parametrize("depth", [1, 2, 5, 9])
    @pytest.mark.parametrize("l2", [0.5, 2.0])
    def test_two_lengths_tree(self, depth, l2):
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": l2}, depth)
        assert_views_match(g, *object_graphs.two_lengths_tree(depth, 1.0, l2, 0.0))

    @pytest.mark.parametrize("depth", [1, 4])
    def test_millipede(self, depth):
        g = generate_family("millipede", {"delta": 0.2}, depth)
        assert_views_match(g, *object_graphs.comb(
            depth + 1, depth, 2.0, 0.0, 4.0, -1.0 + 0.2 * 0.2))

    @pytest.mark.parametrize("rung_potential", [None, -1.0, 3.0])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_ladder(self, depth, rung_potential):
        params = {"w": 1.5}
        if rung_potential is not None:
            params["rung_potential"] = rung_potential
        g = generate_family("ladder", params, depth)
        rung = 0.0 if rung_potential is None else rung_potential
        assert g.core_edges == (set(range(2 * depth, 3 * depth)) if rung <= -1.0
                                else set())
        assert_views_match(g, *object_graphs.ladder(depth, 1.5, 0.0, rung))

    def test_half_ladder(self):
        f = construct("ladder", {"w": 1.5, "mode": "antisymmetric"}, 4)
        assert_views_match(f.graph, *object_graphs.comb(4, 4, 1.0, 0.0, 0.75, 0.0))

    @pytest.mark.parametrize("name,params", [
        ("regular_tree", {"b": 3}),
        ("ns_regular_tree", {"b_seq": [2, 3, 2], "length_seq": [1.0, 0.5, 1.5, 1.0]}),
        ("braided", {"b_seq": [4, 4], "a_seq": [2, 2, 2], "v_seq": [1.0, 2.5, 3.0]}),
    ])
    def test_expanded_tables(self, name, params):
        table = build_family(name, params, 3)
        assert_views_match(table.expand(), *object_graphs.expansion(table))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_graphs_with_cycles_loops_and_parallel_edges(self, data):
        # ids are positions, so the object graph's columns build an array
        # graph; components other than the root's are unreached
        g = data.draw(solved_graphs()).graph
        a = g.arrays
        built = MetricGraph.from_arrays(
            a.tail, a.head, a.length, a.potential,
            np.array([e.generation for e in g.edges], dtype=np.int64),
            np.array([v.generation for v in g.vertices], dtype=np.int64),
            a.boundary, g.root, g.energy, g.core_edges,
        )
        assert built.incidence == g.incidence == object_graphs.incidence(
            g.vertices, g.edges)
        assert built.interior_vertex_ids() == object_graphs.interior_vertex_ids(g)
        assert fault(built.validate) == fault(object_graphs.validate, g)
        assert (tuple(built.vertices), tuple(built.edges)) == (g.vertices, g.edges)

    @settings(max_examples=300, deadline=None)
    @given(spec_documents())
    def test_validate_names_the_fault_the_object_code_named(self, doc):
        validate = MetricGraph.validate

        def both(graph):
            assert fault(validate, graph) == fault(object_graphs.validate, graph)
            validate(graph)

        with mock.patch.object(MetricGraph, "validate", both):
            with contextlib.suppress(GraphValidationError, FamilyParameterError):
                build_graph(doc)

    def test_a_lookup_makes_one_object(self, monkeypatch):
        made = count_objects(monkeypatch)
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 14)
        assert len(g.edges) == 32767 and len(g.vertices) == 32768
        assert g.edge_by_id[300].tail == 150 and g.vertex_by_id[300].generation == 9
        assert g.incidence[300] == (299, 599, 600)
        assert 32766 in g.edge_by_id and 32767 not in g.edge_by_id
        assert sum(made.values()) == 2


def fault(check, *args):
    try:
        check(*args)
    except GraphValidationError as exc:
        return str(exc)
    return None


def count_objects(monkeypatch):
    """Count the Vertex, Edge and EdgeSolution objects made from now on."""
    made = collections.Counter()
    for cls in (Vertex, Edge, EdgeSolution):
        def make(*args, cls=cls, **kwargs):
            made[cls.__name__] += 1
            return cls(*args, **kwargs)

        for module in (qgdecay.graph, qgdecay.eigenfunctions, qgdecay.arrays):
            if getattr(module, cls.__name__, None) is cls:
                monkeypatch.setattr(module, cls.__name__, make)
    return made


# ---------------------------------------------------------------------------
# Kernels against the per-vertex code
# ---------------------------------------------------------------------------


COEFFICIENTS = (
    st.floats(-4.0, 4.0)
    | st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, math.nan])
)


@st.composite
def solved_graphs(draw):
    """A forest (about one vertex in six starts a tree) plus edges that may
    close cycles, double an edge or loop at a vertex, in any order and
    orientation, with a solution on each
    edge: k = 0 now and then, and coefficients that overflow or are not
    finite (cosh overflows past k L = 710)."""
    n = draw(st.integers(1, 7))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)
            if draw(st.integers(0, 5))]
    ends += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4
    ))
    ends = [end[::-1] if draw(st.booleans()) else end
            for end in draw(st.permutations(ends))]
    edges = [Edge(eid, tail, head, draw(st.sampled_from([0.5, 1.0, 2.0, 300.0])),
                  draw(st.sampled_from([1.0, -1.0])), generation=eid)
             for eid, (tail, head) in enumerate(ends)]
    vertices = [Vertex(v, generation=v, boundary=draw(st.integers(0, 5)) == 0)
                for v in range(n)]
    g = MetricGraph(vertices, edges, root=draw(st.integers(0, n - 1)), energy=0.0)
    sols = {
        e.id: EdgeSolution(e.id, draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
                           e.length, draw(COEFFICIENTS), draw(COEFFICIENTS))
        for e in edges
    }
    return Eigenfunction(g, sols, family="custom")


def outcome(compute):
    try:
        return compute()
    except OverflowError:
        return OverflowError


def kernel_values(f):
    vids, values, counts = f.interior_values()
    return vids, bits(values), bits(counts)


def oracle_values(f):
    vids = object_graphs.interior_vertex_ids(f.graph)
    return (vids, bits([f.vertex_value(vid) for vid in vids]),
            bits([float(f.graph.vertex_count(vid)) for vid in vids]))


def kernel_residuals(f):
    res = continuity_and_kirchhoff(f)
    return bits([res["max_continuity"], res["max_kirchhoff"]])


def oracle_residuals(f):
    worst = None
    for vid in object_graphs.interior_vertex_ids(f.graph):
        res = (continuity_residual(f, vid), kirchhoff_residual(f, vid))
        worst = res if worst is None else tuple(map(max, worst, res))
    return bits(worst or (0.0, 0.0))


def oracle_log_sums(f, dist):
    groups = {}
    for vid in object_graphs.interior_vertex_ids(f.graph):
        psi = f.vertex_value(vid)
        if abs(psi) > VALUE_FLOOR:
            groups.setdefault(dist[vid], []).append(math.log(abs(psi)))
    return sorted((x, float(len(ys)), math.fsum(ys)) for x, ys in groups.items())


def oracle_non_core_potentials(g):
    kept = {}
    for e in g.edges:
        if e.id not in g.core_edges:
            kept.setdefault(struct.pack("<d", e.potential), e.potential)
    return list(kept.values())


def fit_outcome(compute):
    """outcome(), with an unreached vertex (KeyError) or too few points to
    fit (ValueError) as its type and message."""
    try:
        return outcome(compute)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def assert_kernels_match(f):
    assert f.coeffs is not None  # the array kernels run
    assert outcome(lambda: kernel_values(f)) == outcome(lambda: oracle_values(f))
    assert (outcome(lambda: kernel_residuals(f))
            == outcome(lambda: oracle_residuals(f)))
    g = f.graph
    for dist in (g.distances(), g.distances(g.energy)):
        assert (fit_outcome(lambda: [bits(p) for p in f.log_sums(dist)])
                == fit_outcome(lambda: [bits(p) for p in oracle_log_sums(f, dist)]))
    oracle = SimpleNamespace(graph=g, log_sums=lambda dist: oracle_log_sums(f, dist))
    assert (fit_outcome(lambda: bits([fit_decay_rate(f)]))
            == fit_outcome(lambda: bits([fit_decay_rate(oracle)])))
    assert bits(g.non_core_potentials()) == bits(oracle_non_core_potentials(g))


BUILT = [
    *[("two_lengths_tree", {"L1": 1.0, "L2": l2}) for l2 in (0.5, 1.0, 1.5, 3.0)],
    ("two_lengths_tree", {"L1": 0.7, "L2": 2.0, "k": 2.0}),
    ("millipede", {"delta": 0.1}),
    ("millipede", {"delta": 1.0}),
    ("ladder", {"w": 0.5, "mode": "symmetric"}),  # k = 0 on the rungs
    ("ladder", {"w": 2.0, "mode": "antisymmetric"}),
]


# edge id -> (A, B) on the depth-5 two-lengths tree: NaN at the first
# interior vertex; with blocks of 3, a later block whose first residual is
# NaN holds the largest
PERTURBATIONS = [
    {1: (math.nan, 0.0)}, {9: (1e308, 0.0)}, {9: (math.nan, 1.0)},
    {3: (math.nan, 0.0), 4: (1.0, 4.0)}, {3: (1.0, math.inf), 40: (math.nan, 0.0)},
]


def perturbed():
    f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 5)
    for change in PERTURBATIONS:
        sols = dict(f.solutions)
        for eid, (a, b) in change.items():
            sols[eid] = EdgeSolution(eid, sols[eid].k, sols[eid].length, a, b)
        yield Eigenfunction(f.graph, sols, family=f.family)


def unreached_and_overflow(loop):
    """An unvalidated graph, root 1: psi overflows at vertex 2 (cosh 900 on
    edge 0), and vertex ``loop`` (0 or 5, on a loop) is not reached and
    |psi| > VALUE_FLOOR there; the other of 0 and 5 hangs from the root.
    The per-vertex code meets the lower of 2 and ``loop`` first."""
    swap = {0: loop, loop: 0}
    ends = [(swap.get(t, t), swap.get(h, h), length) for t, h, length in [
        (1, 2, 300.0), (3, 4, 300.0), (1, 5, 1.0), (0, 0, 0.5), (4, 3, 0.5),
        (3, 2, 300.0), (1, 2, 0.5)]]
    coefficients = [
        (3.0, -0.0, -0.0), (1.0, 0.0, math.inf), (3.0, 1.8175525605346925, math.inf),
        (0.5, 8.862187721907171e-247, -3.9999999999999996),
        (0.0, 9.652769311769808e-133, -1.740876624971475),
        (1.0, -1.401298464324817e-45, 4.765865653100203e-132),
        (0.0, 4.0, -1.177619519383391),
    ]
    g = MetricGraph([Vertex(v, boundary=v == 1) for v in range(6)],
                    [Edge(eid, tail, head, length, 1.0)
                     for eid, (tail, head, length) in enumerate(ends)],
                    root=1, energy=0.0)
    return Eigenfunction(g, {
        eid: EdgeSolution(eid, k, ends[eid][2], a, b)
        for eid, (k, a, b) in enumerate(coefficients)
    }, family="custom")


def assert_unreached_and_overflow(loop):
    f = unreached_and_overflow(loop)
    assert_kernels_match(f)
    with pytest.raises(KeyError if loop < 2 else OverflowError) as exc:
        f.log_sums(f.graph.distances())
    assert exc.value.args == ((0,) if loop < 2 else ("math range error",))


class TestKernels:
    @pytest.mark.parametrize("depth", [1, 2, 7])
    @pytest.mark.parametrize("name,params", BUILT,
                             ids=[f"{n}-{i}" for i, (n, _) in enumerate(BUILT)])
    def test_built_families(self, name, params, depth):
        assert_kernels_match(construct(name, dict(params), depth))

    def test_perturbed_and_overflowing_solutions(self):
        for f in perturbed():
            assert_kernels_match(f)

    @settings(max_examples=300, deadline=None)
    @given(solved_graphs())
    def test_graphs_with_cycles_loops_and_parallel_edges(self, f):
        assert_kernels_match(f)

    @pytest.mark.parametrize("loop", [0, 5])
    def test_an_unreached_vertex_and_an_overflow(self, loop):
        assert_unreached_and_overflow(loop)


@pytest.mark.parametrize("block", [1, 3])
class TestBlocks:
    """The kernels in blocks of 1 and 3 vertices or edges, so that every
    graph spans several."""

    @pytest.mark.parametrize("depth", [1, 2, 7])
    @pytest.mark.parametrize("name,params", BUILT,
                             ids=[f"{n}-{i}" for i, (n, _) in enumerate(BUILT)])
    def test_built_families(self, name, params, depth, block):
        with mock.patch.object(qgdecay.arrays, "BLOCK", block):
            assert_kernels_match(construct(name, dict(params), depth))

    def test_perturbed_and_overflowing_solutions(self, block):
        with mock.patch.object(qgdecay.arrays, "BLOCK", block):
            for f in perturbed():
                assert_kernels_match(f)

    @settings(max_examples=150, deadline=None)
    @given(f=solved_graphs())
    def test_graphs_with_cycles_loops_and_parallel_edges(self, block, f):
        with mock.patch.object(qgdecay.arrays, "BLOCK", block):
            assert_kernels_match(f)

    @pytest.mark.parametrize("loop", [0, 5])
    def test_an_unreached_vertex_and_an_overflow(self, block, loop):
        with mock.patch.object(qgdecay.arrays, "BLOCK", block):
            assert_unreached_and_overflow(loop)

    @settings(max_examples=150, deadline=None)
    @given(edges=st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, -math.nan]),
        st.booleans(),
    ), max_size=12))
    def test_non_core_potentials_of_a_path(self, block, edges):
        # (potential, core) by edge
        n = len(edges)
        g = MetricGraph.from_arrays(
            np.arange(n), np.arange(1, n + 1), 1.0,
            np.array([v for v, _ in edges], dtype=float), np.arange(n),
            np.arange(n + 1), np.zeros(n + 1, dtype=bool), 0, 0.0,
            [eid for eid, (_, core) in enumerate(edges) if core],
        )
        with mock.patch.object(qgdecay.arrays, "BLOCK", block):
            assert bits(g.non_core_potentials()) == bits(oracle_non_core_potentials(g))


# ---------------------------------------------------------------------------
# Positions: int32 columns, and the CSR slice of a run of vertices
# ---------------------------------------------------------------------------


def position_lists(n):
    """Every run of vertex positions lo .. hi - 1 (one vertex and none among
    them), each run backwards, and lists that are not runs."""
    runs = [list(range(lo, hi)) for lo in range(n + 1) for hi in range(lo, n + 1)]
    return runs + [run[::-1] for run in runs] + [
        [0, 0], [0, 2], [n - 1, 0], [1, 0, 2], [0, 1, 1, 2], [0, 2, 1, 3][:n]]


def assert_incident_at(g, positions):
    """incident_at against the incidence of the edge objects, whose ids are
    positions, with positions of either int width."""
    incidence = object_graphs.incidence(g.vertices, g.edges)
    for dtype in (np.int32, np.int64):
        edge, count = qgdecay.arrays.incident_at(g.arrays, np.array(positions, dtype=dtype))
        assert edge.tolist() == [eid for p in positions for eid in incidence[p]]
        assert count.tolist() == [len(incidence[p]) for p in positions]


class TestIncidentAt:
    @pytest.mark.parametrize("name,params", [
        ("two_lengths_tree", {"L1": 1.0, "L2": 2.0}), ("millipede", {"delta": 0.2}),
        ("ladder", {"w": 1.5}),
    ])
    def test_built_families(self, name, params):
        g = generate_family(name, params, 3)
        for positions in position_lists(len(g.vertices)):
            assert_incident_at(g, positions)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_graphs_with_cycles_loops_and_parallel_edges(self, data):
        g = data.draw(solved_graphs()).graph
        n = len(g.vertices)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        others = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        for positions in (range(lo, hi), range(hi - 1, lo - 1, -1), others):
            assert_incident_at(g, list(positions))

    def test_a_run_reads_a_slice_and_others_a_gather(self):
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 3)
        adj = qgdecay.arrays.csr(g.arrays)[1]
        run = qgdecay.arrays.incident_at(g.arrays, np.arange(2, 6))[0]
        assert np.shares_memory(run, adj)
        assert not np.shares_memory(
            qgdecay.arrays.incident_at(g.arrays, np.array([5, 2]))[0], adj)


class TestPositions:
    def test_every_position_column_is_int32(self):
        f = construct("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 5)
        g, a = f.graph, f.graph.arrays
        g.validate()
        f.log_sums(g.distances())
        columns = {
            "vertex_ids": a.vertex_ids, "vertex_generation": a.vertex_generation,
            "edge_ids": a.edge_ids, "tail": a.tail, "head": a.head,
            "generation": a.generation, "adj": a.adj, "ptr": a.ptr,
            "interior": a.interior, "log positions": f._logs[0],
            **{f"level {i} {name}": column for i, level in enumerate(a.levels)
               for name, column in zip(("edge", "from", "to"), level)},
        }
        assert {name: c.dtype for name, c in columns.items()} == dict.fromkeys(
            columns, np.dtype(np.int32))

    def test_object_graphs_keep_their_ids(self):
        # positions are int32; ids stay int64, or Python ints past it
        g = MetricGraph([Vertex(2**40), Vertex(2**70)],
                        [Edge(7, 2**40, 2**70, 1.0, 1.0), Edge(8, 2**70, 2**40, 1.0, 1.0)],
                        root=2**40, energy=0.0)
        g.validate()
        a = g.arrays
        assert (a.vertex_ids.dtype, a.edge_ids.dtype) == (object, np.int64)
        assert {c.dtype for c in (a.tail, a.head, a.adj, a.ptr, *a.levels[0])} == {
            np.dtype(np.int32)}
        assert g.incidence[2**70] == (7, 8)

    def test_the_limit_is_the_largest_int32(self):
        assert qgdecay.arrays.POSITIONS == np.iinfo(np.int32).max == 2**31 - 1

    @pytest.mark.parametrize("vertices,edges,refused", [
        (2**31 - 2, 2**30 - 1, False), (2**31 - 1, 0, True), (1, 2**30, True),
    ])
    def test_the_guard_at_the_int32_limit(self, vertices, edges, refused):
        # the count alone decides: nothing this large is made
        if refused:
            with pytest.raises(ValueError, match=f"fewer than {2**31 - 1} edge ends"):
                qgdecay.arrays._check_size(vertices, edges)
        else:
            qgdecay.arrays._check_size(vertices, edges)

    def test_a_graph_at_the_limit_is_refused_not_wrapped(self):
        # depth 6: 127 edges (254 edge ends) and 128 vertices
        tree = object_graphs.two_lengths_tree(6, 1.0, 2.0, 0.0)
        with mock.patch.object(qgdecay.arrays, "POSITIONS", 255):
            assert_views_match(generate_family("two_lengths_tree",
                                               {"L1": 1.0, "L2": 2.0}, 6), *tree)
        with mock.patch.object(qgdecay.arrays, "POSITIONS", 254):
            for build in (lambda: generate_family("two_lengths_tree",
                                                  {"L1": 1.0, "L2": 2.0}, 6),
                          lambda: MetricGraph(*tree, root=0, energy=-1.0)):
                with pytest.raises(ValueError, match="fewer than 254 edge ends "
                                   "and vertices; this one has 254 and 128"):
                    build()

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "two-lengths-tree", "--L1", "1", "--L2", "2",
         "--depth", "6", "--multiplier", "path"],
        ["metric", "--spec", str(Path(__file__).parent / "golden" / "specs"
                                 / "explicit.json")],
    ], ids=["columns", "objects"])
    def test_the_cli_exits_2(self, argv, capsys):
        # the explicit spec: 4 edges (8 edge ends) and 4 vertices
        with mock.patch.object(qgdecay.arrays, "POSITIONS", 8):
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert "a built graph holds fewer than 8 edge ends" in err


def test_path_verify_makes_objects_by_depth_not_by_edge(monkeypatch):
    # 98,302 Vertex, Edge and EdgeSolution objects at depth 14 if made per
    # edge; the path certificate reads the 15 edges of its path
    made = count_objects(monkeypatch)
    counts = {}
    for depth in (10, 14):
        made.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--family", "two-lengths-tree", "--L1", "1",
                         "--L2", "2", "--depth", str(depth),
                         "--multiplier", "path"]) == 0
        counts[depth] = sum(made.values())
    assert counts[14] <= 30 * 15
    assert counts[14] - counts[10] <= 30 * 4


# ---------------------------------------------------------------------------
# cosh_sinh against math, and root distances against the heap
# ---------------------------------------------------------------------------


def nan_with_payload(payload):
    return np.array([payload | 0x7FF8000000000000], dtype=np.int64).view(float).item()


SPECIAL_ARGS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                nan_with_payload(5), 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                1e-300, 0.5, -0.5, 1.0, 709.0, -709.0]


def math_cosh_sinh(args):
    return bits(map(math.cosh, args)), bits(map(math.sinh, args))


def kernel_cosh_sinh(args):
    return tuple(bits(v) for v in qgdecay.arrays.cosh_sinh(np.array(args, dtype=float)))


class TestCoshSinh:
    @pytest.mark.parametrize("args", [
        [], [0.25], [-0.0], SPECIAL_ARGS, SPECIAL_ARGS[::-1] * 3 + [0.5] * 4,
        [0.0, -0.0, 0.0, -0.0],
    ], ids=["none", "one", "minus-zero", "special", "repeats", "signed-zeros"])
    def test_matches_math_bit_for_bit(self, args):
        assert kernel_cosh_sinh(args) == math_cosh_sinh(args)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64) | st.sampled_from(SPECIAL_ARGS), max_size=40))
    def test_any_floats(self, args):
        # cosh overflows past 710, where both raise OverflowError
        assert (outcome(lambda: kernel_cosh_sinh(args))
                == outcome(lambda: math_cosh_sinh(args)))


def distance_bits(dist):
    return {vid: struct.pack("<d", d) for vid, d in dist.items()}


def assert_distances_are_the_heap(g, energy):
    table = g.distances(energy)
    assert isinstance(table, qgdecay.arrays.Distances)
    heap = dijkstra(g, {e.id: e.length if energy is None
                        else edge_action_weight(e, energy) for e in g.edges})
    assert distance_bits(table) == distance_bits(heap)
    assert list(table) == [v.id for v in g.vertices if v.id in heap]


class TestDistances:
    @pytest.mark.parametrize("name,params", FAMILY_CASES,
                             ids=[name for name, _ in FAMILY_CASES])
    def test_built_families_match_the_heap(self, name, params):
        g = generate_family(name, params, 3)
        # arc lengths, then actions at E and at E + 0.5 (not the lengths)
        for energy in (None, g.energy, g.energy + 0.5):
            assert_distances_are_the_heap(g, energy)

    @settings(max_examples=300, deadline=None)
    @given(solved_graphs())
    def test_graphs_with_cycles_loops_and_parallel_edges(self, f):
        for energy in (None, 0.0, 0.5):
            assert_distances_are_the_heap(f.graph, energy)

    def test_a_read_only_mapping_of_the_reached_ids(self):
        # root 3 reaches 0 and 1; 2 and 4 are another component, and 5 lies
        # beyond an infinite edge
        g = MetricGraph([Vertex(v) for v in (3, 0, 1, 2, 4, 5)], [
            Edge(0, 3, 0, 1.0, 0.0), Edge(1, 0, 1, 2.0, 0.0),
            Edge(2, 2, 4, 1.0, 0.0), Edge(3, 1, 5, math.inf, 0.0),
        ], root=3, energy=0.0)
        table = g.distances()
        assert list(table) == [3, 0, 1] and len(table) == 3
        assert dict(table) == {3: 0.0, 0: 1.0, 1: 3.0}
        for key in (2, 4, 5, 99, "x", None):
            assert key not in table
            with pytest.raises(KeyError):
                table[key]
        with pytest.raises(TypeError):
            table[3] = 1.0
        with pytest.raises(ValueError):
            table.array[0] = 1.0

    def test_lookups_read_the_array_until_a_quarter_then_one_dict(self):
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 6)
        table = g.distances()
        n = len(g.vertices)
        for vid in range(n // 4):
            assert table[vid] == table.array[vid]
        assert table._dict is None
        assert table[n - 1] == table.array[n - 1]
        assert table._dict == dict(zip(range(n), table.array.tolist()))

    def test_retains_a_table_not_a_dict(self):
        # a dict of the 32,768 distances holds 3.06 MB, the array 262 KB
        g = generate_family("two_lengths_tree", {"L1": 1.0, "L2": 2.0}, 14)
        tracemalloc.start()
        try:
            g.distances()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**20
