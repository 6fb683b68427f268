"""The generation quotient against the fully built eigenfunction.

A synchronized family's eigenfunction is held on its generation table, one
representative edge and vertex per generation.  Every output must equal, byte
for byte, what the same stages give on the expanded graph, where each edge
and vertex is its own class; only the class sums, which a class of n edges
adds as n * value and the expanded graph edge by edge, agree to 1e-12
relative: the L2 sums of the action and averaged decay reports, and the
averaged report's sups.
"""

import dataclasses
import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

import qgdecay.cli
import qgdecay.eigenfunctions
from qgdecay.cli import main
from qgdecay.eigenfunctions import Eigenfunction, construct, repeated_sum
from qgdecay.graph import GenerationTable, MetricGraph

from expansion import expanded

FAMILIES = {
    "regular-b1": ["regular-tree", "--b", "1"],
    "regular-b2": ["regular-tree", "--b", "2"],
    "regular-b3": ["regular-tree", "--b", "3", "--kL", "0.5", "--L", "0.7"],
    # a b = 1 generation between wider ones
    "ns-regular": ["ns-regular-tree", "--b-seq", "2,1,3,1,2,1,2,1",
                   "--length-seq", "1,0.5,1.5,1,2,0.7,1,1.2,0.9"],
    # a = 4 edges arrive at each vertex that sends b = 2 on
    "braided-narrowing": ["braided", "--b-seq", "2,4,2,4,2,4,2,4",
                          "--a-seq", "1,2,4,2,4,2,4,2",
                          "--v-seq", "1,1.5,3,4,4.5,6,7,7.25"],
    "braided-widening": ["braided", "--b-seq", "4,3,4,3,4,3,4,3",
                         "--a-seq", "2,2,3,2,3,2,3,2",
                         "--v-seq", "1,2,3,4,5,6,7,8", "--kL", "1.2"],
}
OPTIONS = [
    [],
    ["--epsilon", "0.3", "--extra-rate", "0.2"],
    ["--epsilon", "0", "--extra-rate", "-0.1", "--shift-delta", "0.3"],
    ["--shift-delta", "0.25", "--shift-sign", "-1", "--exclusion", "2.5"],
    ["--shift-delta", "-0.2", "--exclusion", "1"],
]
MULTIPLIERS = ["action", "path", "averaged"]
DEPTHS = range(1, 9)


def outputs(argv, tmp_path, monkeypatch, capsys, full):
    """Exit code, output files and stderr of one CLI run, on the quotient
    or on the fully built eigenfunction."""
    with monkeypatch.context() as m:
        if full:
            m.setattr(qgdecay.cli, "construct",
                      lambda *args: expanded(construct(*args)))
        out = tmp_path / ("full.txt" if full else "quotient.txt")
        csv = tmp_path / ("full.csv" if full else "quotient.csv")
        extra = ["--csv", str(csv)] if argv[0] == "verify" else []
        code = main([*argv, "--out", str(out), *extra])
    files = [path.read_bytes() if path.exists() else None for path in (out, csv)]
    return code, *files, capsys.readouterr().err


def verify_cases():
    # every family at every depth; the multipliers and options turn over
    # with the depth, so each family meets each of them
    for name, family in FAMILIES.items():
        for depth in DEPTHS:
            multiplier = MULTIPLIERS[depth % 3]
            options = OPTIONS[(depth + len(name)) % len(OPTIONS)]
            yield pytest.param(
                ["verify", "--family", *family, "--depth", str(depth),
                 "--multiplier", multiplier, *options],
                id=f"{name}-{depth}-{multiplier}",
            )


def class_sums(code, out, csv, err, averaged):
    """A verify's outputs without the decay report's L2 sums (and the tail
    ratio fitted to them), and those sums; with ``averaged``, without the
    sups of the averaged wave function either, in the JSON and the CSV."""
    if out is None:
        return (code, out, csv, err), []
    doc = json.loads(out)
    report = doc["decay_report"]
    sums = [report.pop("tail_ratio"), *report.pop("cumulative_at_depth").values()]
    keys = ["l2_increment", "l2_cumulative"] + (["sup_F_psi"] if averaged else [])
    for row in report["rows"]:
        sums += [row.pop(key) for key in keys]
    rows = [line.split(",") for line in csv.decode().splitlines()]
    columns = [2, 1] if averaged else [2]  # cum_L2, then sup_F_psi
    sums += [float(row.pop(c)) for row in rows[1:] for c in columns]
    return (code, json.dumps(doc), rows, err), sums


@pytest.mark.parametrize("argv", verify_cases())
def test_verify_matches_the_full_graph(argv, tmp_path, monkeypatch, capsys):
    # errors too: a one-generation path fits no slope, and a narrowing
    # braided generation's path fraction exceeds 1
    averaged = "averaged" in argv
    quotient, sums = class_sums(
        *outputs(argv, tmp_path, monkeypatch, capsys, full=False), averaged)
    full, full_sums = class_sums(
        *outputs(argv, tmp_path, monkeypatch, capsys, full=True), averaged)
    assert quotient == full
    if "path" in argv:
        assert sums == full_sums
    else:
        # a class of n edges adds n * value, the full graph edge by edge
        assert len(sums) == len(full_sums)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(sums, full_sums))


def test_most_verify_cases_reach_a_verdict(tmp_path, monkeypatch, capsys):
    codes = [
        outputs(case.values[0], tmp_path, monkeypatch, capsys, full=False)[0]
        for case in verify_cases()
    ]
    assert codes.count(2) <= 10 and {0, 1} <= set(codes)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("depth", [1, 4, 8])
def test_solve_matches_the_full_graph(name, depth, tmp_path, monkeypatch, capsys):
    argv = ["solve", "--family", *FAMILIES[name], "--depth", str(depth),
            "--samples", "4"]
    quotient = outputs(argv, tmp_path, monkeypatch, capsys, full=False)
    assert quotient[0] == 0
    assert quotient == outputs(argv, tmp_path, monkeypatch, capsys, full=True)


def test_construct_keeps_the_table():
    f = construct("regular_tree", {"b": 3}, 5)
    assert type(f) is Eigenfunction
    assert isinstance(f.graph, GenerationTable)
    # one representative per generation: the generation's first edge
    assert [e.id for e in f.graph.edges] == [0, 1, 4, 13, 40, 121]
    assert [f.graph.edge_count(e.id) for e in f.graph.edges] == [
        1, 3, 9, 27, 81, 243,
    ]
    assert sorted(f.solutions) == [0, 1, 4, 13, 40, 121]
    # the expansion is a graph whose edges carry their generation's solution
    full = expanded(f)
    assert type(full.graph) is MetricGraph
    assert len(full.solutions) == len(full.graph.edges) == 364
    assert full.solutions[5] == dataclasses.replace(f.solutions[4], edge=5)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5,
           1e308, math.inf, -math.inf, math.nan,
           struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
           struct.unpack("<d", struct.pack("<Q", 0xFFF4000000000001))[0]]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def loop_of_adds(start: float, x: float, n: int) -> float:
    total = start
    for _ in range(n):
        total += x
    return total


@st.composite
def near_ulp_multiples(draw):
    """(start, x): x a small multiple of start's half-ulp, so that sums tie
    and cross binades; start anywhere from subnormal to huge."""
    start = draw(st.floats(allow_nan=False, allow_infinity=False,
                           allow_subnormal=True))
    halves = draw(st.integers(-9, 9) | st.integers(-2**21, 2**21))
    return start, halves * math.ulp(start) / 2


@settings(max_examples=300, deadline=None)
@given(start=FLOATS, x=FLOATS, n=st.integers(0, 10_000))
def test_replay_equals_a_loop_of_adds(start, x, n):
    assert bits(repeated_sum(start, x, n)) == bits(loop_of_adds(start, x, n))


@settings(max_examples=300, deadline=None)
@given(pair=near_ulp_multiples(), n=st.integers(0, 10_000))
def test_replay_of_ties_and_binade_crossings(pair, n):
    start, x = pair
    assert bits(repeated_sum(start, x, n)) == bits(loop_of_adds(start, x, n))


def test_replay_of_a_huge_count():
    # a loop of 3e6 additions, and counts no loop could run: adding 1.0
    # stops at 2**53, where 2**53 + 1 ties back to even
    assert bits(repeated_sum(0.1, 1e-7, 3_000_000)) == bits(
        loop_of_adds(0.1, 1e-7, 3_000_000)
    )
    assert repeated_sum(0.0, 1.0, 10**40) == 2.0**53
    assert repeated_sum(-(2.0**53), 1.0, 2**53 + 5) == 5.0
    assert bits(repeated_sum(-0.0, 0.0, 10**40)) == bits(0.0)
