"""Snapshots, schedules, window graphs, and the three property checkers."""

from __future__ import annotations

import math
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from dispersim import cli, graphs
from dispersim.adversary import gen_random_with_property
from dispersim.graphs import (
    GraphError,
    Schedule,
    Snapshot,
    check_property,
    components,
    format_edges,
    minimal_T,
    parse_edges,
    window_graph,
)

import oracles

DATA = Path(__file__).parent / "data"


def load(name):
    return Schedule.load(DATA / f"{name}.sched")


def random_pairs(rng, n, p):
    return {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    }


def random_schedule(rng, n, rounds):
    return Schedule(
        Snapshot.from_pairs(n, random_pairs(rng, n, rng.uniform(0.1, 0.9)))
        for _ in range(rounds)
    )


# --- snapshot validation ---


def test_snapshot_rejects_bad_ports():
    with pytest.raises(GraphError):
        Snapshot(3, [(0, 1, 0, 0), (0, 2, 0, 0)])  # port 0 twice at 0
    with pytest.raises(GraphError):
        Snapshot(2, [(0, 1, 1, 0)])  # ports must start at 0
    with pytest.raises(GraphError):
        Snapshot(2, [(0, 0, 0, 1)])  # self-loop
    with pytest.raises(GraphError):
        Snapshot(2, [(0, 1, 0, 0), (1, 0, 1, 1)])  # duplicate pair
    with pytest.raises(GraphError):
        Snapshot(2, [(0, 2, 0, 0)])  # out of range


def _random_edges(rng, n, density):
    """A valid edge list: random pairs, a random port permutation at every
    node, each edge written from either end, in random order."""
    pairs = list(random_pairs(rng, n, density))
    nbrs = {}
    for u, v in pairs:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    port = {}
    for v, ws in nbrs.items():
        for w, p in zip(ws, rng.sample(range(len(ws)), len(ws))):
            port[v, w] = p
    edges = [(u, v, port[u, v], port[v, u]) if rng.random() < 0.5
             else (v, u, port[v, u], port[u, v]) for u, v in pairs]
    rng.shuffle(edges)
    return edges


SNAPSHOT_FAULTS = ("duplicate edge", "reversed duplicate", "reused port",
                   "port gap", "negative port", "self-loop",
                   "endpoint out of range")


def _add_fault(rng, n, edges, fault):
    """Insert one fault into an edge list; a fault in an edge's ports or
    ends takes the edge's place."""
    if fault == "self-loop":
        x, p = rng.randrange(n), rng.randrange(3)
        edge = (x, x, p, rng.choice((p, p + 1)))
    else:
        u, v, pu, pv = edge = rng.choice(edges)
        if fault == "duplicate edge":
            edge = (u, v, rng.choice((pu, 0)), rng.choice((pv, 1)))
        elif fault == "reversed duplicate":
            edge = (v, u, pv, pu)
        else:
            edges.remove(edge)
            degree = 1 + sum((a == u) + (b == u) for a, b, _, _ in edges)
            if fault == "reused port":
                pu = rng.randrange(degree)
            elif fault == "port gap":
                pu = degree + rng.randrange(3)
            elif fault == "negative port":
                pv = -1 - rng.randrange(2)
            else:
                v = rng.choice((n, n + 2, -1))
            edge = (u, v, pu, pv)
    edges.insert(rng.randrange(len(edges) + 1), edge)


def _snapshot_outcome(build):
    """``(n, pairs, ports)`` of what build returns, or its GraphError text."""
    try:
        s = build()
    except GraphError as exc:
        return str(exc)
    return s if isinstance(s, tuple) else (s.n, s.pairs, s.ports)


SNAPSHOT_ERRORS = ("out of range", "self-loop", "duplicate edge", "uses port",
                   "are not", "at least one node")


def test_snapshot_validation_matches_the_edge_by_edge_reference():
    # valid lists, single- and multi-fault mutants and empty lists give an
    # equal snapshot or the same first GraphError, from a list or a generator
    rng = random.Random("snapshot-validation")
    seen = set()
    for i in range(3000):
        n = rng.choice((0, 1, 2, 3, 5, 8, 13, 40)) if i % 10 else 0
        edges = _random_edges(rng, n, rng.uniform(0.0, 0.9)) if n > 1 else []
        if i % 3 and edges:
            for _ in range(rng.choice((1, 1, 2, 3))):
                _add_fault(rng, n, edges, rng.choice(SNAPSHOT_FAULTS))
        elif i % 7 == 0:
            n, edges = rng.randint(-1, 4), []  # no edges at all
        want = _snapshot_outcome(lambda: oracles.snapshot_reference(n, edges))
        assert _snapshot_outcome(lambda: Snapshot(n, edges)) == want, (n, edges)
        assert _snapshot_outcome(
            lambda: Snapshot(n, (e for e in edges))) == want, (n, edges)
        seen.update(e for e in SNAPSHOT_ERRORS if e in want)
        seen.add(isinstance(want, tuple))
    # every kind of fault is met first somewhere, and valid snapshots too
    assert seen == {*SNAPSHOT_ERRORS, True, False}


def test_snapshot_accepts_any_port_permutation():
    s = Snapshot(3, [(0, 1, 1, 0), (0, 2, 0, 0)])
    assert s.neighbor(0, 1) == 1
    assert s.neighbor(0, 0) == 2
    assert len(s.ports[0]) == 2


def test_from_pairs_canonical_ports():
    s = Snapshot.from_pairs(4, [(2, 0), (0, 1), (0, 3)])
    # node 0 numbers neighbors 1,2,3 in ascending order
    assert [s.neighbor(0, p) for p in range(3)] == [1, 2, 3]
    assert s.neighbor(1, 0) == 0


def test_from_pairs_builds_what_validation_accepts():
    # from_pairs skips __init__; the validating constructor is the reference
    rng = random.Random("from-pairs")
    for _ in range(200):
        n = rng.randrange(1, 9)
        fast = Snapshot.from_pairs(n, random_pairs(rng, n, rng.random()))
        checked = Snapshot(n, oracles.edges_of(fast))
        assert (fast.n, fast.pairs) == (checked.n, checked.pairs)
        assert fast.ports == checked.ports


def test_from_pairs_keeps_its_own_errors():
    with pytest.raises(GraphError, match="at least one node"):
        Snapshot.from_pairs(0, [])
    with pytest.raises(GraphError, match="out of range"):
        Snapshot.from_pairs(3, [(0, 3)])
    with pytest.raises(GraphError, match="self-loop"):
        Snapshot.from_pairs(3, [(1, 1)])


def test_single_node_graph_is_connected():
    s = Snapshot.from_pairs(1, [])
    assert components(s) == [[0]]
    sch = Schedule([s, s])
    assert check_property(sch, "t_interval", 1).holds
    assert check_property(sch, "t_path", 2).holds


def test_components_ordering():
    s = Snapshot.from_pairs(6, [(4, 2), (1, 5)])
    assert components(s) == [[0], [1, 5], [2, 4], [3]]


def test_components_are_computed_once_per_snapshot(monkeypatch):
    calls = []
    real = graphs._components
    monkeypatch.setattr(graphs, "_components",
                        lambda n, ports: calls.append(n) or real(n, ports))
    sch = random_schedule(random.Random(3), 5, 8)
    minimal_T(sch, "t_path")
    minimal_T(sch, "t_path")
    assert len(calls) == sch.rounds
    first = sch.snapshots[0]
    assert components(first) is components(first)
    assert Snapshot(5, oracles.edges_of(first)).comps is None


# --- schedule file round-trip ---


def test_schedule_text_round_trip(tmp_path):
    rng = random.Random(7)
    sch = random_schedule(rng, 5, 6)
    path = tmp_path / "x.sched"
    path.write_text(sch.to_text())
    again = Schedule.load(path)
    assert again == sch
    assert again.to_text() == sch.to_text()


def test_edge_codec_round_trip():
    s = Snapshot.from_pairs(4, [(0, 1), (1, 2), (3, 0)])
    assert format_edges(s) == " 0-1:0,0 0-3:1,0 1-2:1,0"
    assert Snapshot(4, parse_edges(format_edges(s))) == s
    assert parse_edges("") == []
    with pytest.raises(GraphError, match="^bad edge token '0-1:0'$"):
        parse_edges("0-1:0")
    # a well-formed field is read in one pass: each token must end at
    # whitespace, and the token loop still names the bad token or number
    assert parse_edges(" 2-0:1,0\t0-1:0,0 ") == [(2, 0, 1, 0), (0, 1, 0, 0)]
    with pytest.raises(GraphError,
                       match="^bad edge token '0-1:0,01-2:0,0'$"):
        parse_edges("0-1:0,01-2:0,0")
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(GraphError,
                           match="^number of 5000 digits is too long$"):
            parse_edges("0-1:0,0 " + "1" * 5000 + "-2:0,0")


LONG = "7" * 4301  # one digit past the interpreter's default limit

# kind -> fields; the fields of the first three kinds are well formed
EDGE_FIELDS = {
    "valid": ["", " ", "\t \n", "0-1:0,0", " 2-0:1,0\t0-1:0,0 ",
              "0-01:0,0 1-2:01,000", "0-1:0,0 0-1:0,0", "10-200:3,45"],
    "unicode digits": ["\u0661-\u0662:\u0660,\u0660",
                       "0-1:0,0 \u0661-\u0662:\u0660,\u0660",
                       "\uff10-\uff11:\uff10,\uff10", "1-2:3,4\u0665"],
    "unicode whitespace": ["0-1:0,0\u20031-2:1,0", "\xa00-1:0,0\u2028",
                           "0-1:0,0\x1c1-2:1,0"],
    "empty numbers": ["-:,", "0-:0,0", "0-1:,0", "0-1:0,", "-1:0,0",
                      "0-1:0,0 -:,"],
    "reordered separators": ["1:2-3,4", "1-2,3:4", "1,2:3-4",
                             "0-1:0,0 1:2-3,4"],
    "bad tokens": ["1-2:3,4-5 6:7,8", "0-1:0,01-2:0,0", "0-1:0", "a",
                   "0-1:0,0,0", "0--1:0,0", "+0-1:0,0", "1_0-2:0,0",
                   "0-1:0,0x", "0-1:0,0 bad 1-2:0,0", "0-1-2:0,0,0 0",
                   "\xb2-1:0,0", "0-1:0,0\u200b1-2:1,0"],
    "long numbers": [f"0-1:0,{LONG}", f"0-1:0,0 {LONG}-2:0,0",
                     f"{LONG}-1:0,0 bad", f"bad {LONG}-1:0,0",
                     f"0-{LONG}:0,{LONG}"],
}


def _edges_outcome(parse, field):
    try:
        return parse(field)
    except GraphError as exc:
        return f"GraphError: {exc}"


@pytest.mark.parametrize("kind", sorted(EDGE_FIELDS))
def test_edge_fields_read_as_the_field_regex_reads_them(kind):
    # the string-operation check takes only ASCII fields that the
    # whole-field regex matches; every other field goes to the token loop,
    # which gives the same edges or the same error text
    well_formed = kind in ("valid", "unicode digits", "unicode whitespace")
    for field in EDGE_FIELDS[kind]:
        want = _edges_outcome(oracles.parse_edges_reference, field)
        assert _edges_outcome(parse_edges, field) == want, field
        if kind != "long numbers":  # int's digit limit depends on the Python
            assert isinstance(want, list) == well_formed, field


def test_schedule_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        Schedule.from_text("n=2 rounds=1\nnonsense\n")
    with pytest.raises(GraphError, match="line 3"):
        Schedule.from_text("n=2 rounds=2\nr=0:\nr=0: 0-1:0,0\n")
    with pytest.raises(GraphError, match="missing rounds"):
        Schedule.from_text("n=2 rounds=2\nr=0:\n")
    with pytest.raises(GraphError, match="bad header"):
        Schedule.from_text("nodes=2\n")


@pytest.mark.parametrize("text, lineno", [
    ("n=3 rounds=1\nr=0: " + "1" * 5000 + "-0:0,0\n", 2),
    ("n=" + "1" * 5000 + " rounds=1\nr=0:\n", 1),
    ("n=3 rounds=1\nr=" + "1" * 5000 + ":\n", 2),
], ids=["edge", "header", "round"])
def test_overlong_schedule_numbers_name_their_line(tmp_path, capsys, text,
                                                   lineno):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    with pytest.raises(GraphError, match=f"^line {lineno}: .*5000 digits"):
        Schedule.from_text(text)
    path = tmp_path / "long.sched"
    path.write_text(text)
    assert cli.main(["classify", str(path)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {lineno}: ")


def test_a_schedule_converts_each_number_text_once(monkeypatch):
    # one integer table serves the header, the round numbers and the edges
    converted = []
    original = graphs.parse_int
    monkeypatch.setattr(graphs, "parse_int",
                        lambda text: converted.append(text) or original(text))
    text = (DATA / "random_tpath.sched").read_text()
    Schedule.from_text(text)
    assert sorted(converted) == sorted(set(re.findall(r"\d+", text)))
    # a leading zero still reads as the number it pads, beside the
    # unpadded text of the same number
    assert Schedule.from_text(
        "n=03 rounds=2\nr=00: 0-01:0,0 1-2:01,000\nr=1: 0-1:0,0\n"
    ) == Schedule.from_text("n=3 rounds=2\nr=0: 0-1:0,0 1-2:1,0\nr=1: 0-1:0,0\n")
    assert parse_edges("0-01:0,0 1-2:01,000") == [(0, 1, 0, 0), (1, 2, 1, 0)]


def test_schedule_header_cannot_outgrow_its_body():
    # the header alone must not size an allocation
    with pytest.raises(GraphError, match="line 1: .*rounds=1000000000000"):
        Schedule.from_text("n=4 rounds=1000000000000\nr=0: 0-1:0,0\n")
    with pytest.raises(GraphError, match="line 3: .*only 1 round lines"):
        Schedule.from_text("# comment\n\nn=2 rounds=2\nr=0:\n")


def test_repeated_round_lines_share_one_snapshot():
    text = ("n=4 rounds=4\nr=0: 0-1:0,0\nr=1: 1-2:0,0\n"
            "r=2: 0-1:0,0\nr=3: 0-1:0,0\n")
    sch = Schedule.from_text(text)
    assert sch.snapshots[0] is sch.snapshots[2] is sch.snapshots[3]
    assert sch.snapshots[0] is not sch.snapshots[1]
    for text in [text] + [p.read_text() for p in sorted(DATA.glob("*.sched"))]:
        rows = [line.split(":", 1)[1] for line in text.splitlines()
                if line.startswith("r=")]
        sch = Schedule.from_text(text)
        fresh = Schedule(Snapshot(sch.n, parse_edges(row)) for row in rows)
        assert sch == fresh and sch.to_text() == fresh.to_text()
    # a bad line that repeats is reported where it first appears
    with pytest.raises(GraphError, match="^line 3: node 1 ports"):
        Schedule.from_text("n=3 rounds=3\nr=0:\nr=1: 0-1:0,1\nr=2: 0-1:0,1\n")


def test_port_maps_only_for_nodes_with_edges():
    for s in (Snapshot(5, parse_edges("1-0:0,0")),
              Snapshot.from_pairs(5, [(1, 0)])):
        assert set(s.ports) == {0, 1}
        assert 3 not in s.ports
        with pytest.raises(GraphError, match="^node 3 has no port 0$"):
            s.neighbor(3, 0)
    # ports are checked node by node in ascending order, whatever the
    # order in which the edges reach them
    with pytest.raises(GraphError, match=r"^node 1 ports \[1\] are not 0..0$"):
        Snapshot(6, [(0, 5, 0, 1), (1, 2, 1, 0)])


def test_schedule_memory_follows_its_text_not_its_header():
    tracemalloc.start()
    try:
        Schedule.from_text("n=100000 rounds=2\nr=0:\nr=1:\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_empty_rounds_allowed():
    sch = Schedule.from_text("n=3 rounds=2\nr=0:\nr=1: 0-1:0,0\n")
    assert sch.snapshots[0].pairs == frozenset()


# --- window graphs ---


def test_window_graph_modes_and_errors():
    sch = load("tpath_demo")
    inter = window_graph(sch, 0, 3, "intersection")
    assert inter.pairs == frozenset()
    union = window_graph(sch, 0, 3, "union")
    assert union.pairs == {(0, 1), (0, 2), (1, 3), (2, 3)}
    with pytest.raises(GraphError):
        window_graph(sch, 7, 3, "union")  # window sticks out
    with pytest.raises(GraphError):
        window_graph(sch, 0, 3, "both")


# --- frozen expectations for the reference traces ---


def test_tpath_reference_trace():
    sch = load("tpath_demo")
    assert minimal_T(sch, "t_path") == 3
    rep2 = check_property(sch, "t_path", 2)
    assert not rep2.holds and rep2.witness == (0, (2, 3))
    rep1 = check_property(sch, "t_path", 1)
    assert not rep1.holds and rep1.witness == (0, (0, 3))
    rep_i3 = check_property(sch, "t_interval", 3)
    assert not rep_i3.holds and rep_i3.witness == (0, (0, 1))
    assert minimal_T(sch, "t_interval") is None
    assert minimal_T(sch, "connectivity_time") == 2
    assert rep2.dynamic_diameter == math.inf


def test_dynamic_diameter_is_computed_on_access(monkeypatch):
    calls = []
    diameter = graphs._diameter
    monkeypatch.setattr(graphs, "_diameter",
                        lambda n, pairs: calls.append(n) or diameter(n, pairs))
    path = Snapshot.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    sch = Schedule([path, path])
    report = check_property(sch, "t_interval", 1)
    assert calls == []
    assert report.describe() == "t_interval at T=1: holds; dynamic diameter 3"
    assert calls
    assert report.dynamic_diameter == 3


@pytest.mark.parametrize("name,distinct", [
    ("perpetual_demo", 6), ("tpath_demo", 3), ("ctime_demo", 2)])
def test_dynamic_diameter_searches_each_distinct_snapshot_once(
        name, distinct, monkeypatch, capsys):
    # the schedule files repeat their graphs, and every round of a graph
    # shares one Snapshot; a copy in another object is no new graph either
    calls = []
    diameter = graphs._diameter
    monkeypatch.setattr(graphs, "_diameter",
                        lambda n, ports: calls.append(n) or diameter(n, ports))
    path = str(DATA / f"{name}.sched")
    cli.main(["classify", path, "--property", "t_path", "--T", "6"])
    assert "dynamic diameter" in capsys.readouterr().out
    sch = load(name)
    assert len(set(sch.snapshots)) == distinct
    assert len(calls) == distinct
    want = sch.dynamic_diameter()
    copies = Schedule([*sch.snapshots, *(Snapshot(4, oracles.edges_of(s))
                                         for s in sch.snapshots)])
    calls.clear()
    assert copies.dynamic_diameter() == want
    assert len(calls) == distinct


def test_a_snapshot_keeps_its_t_path_table_across_schedules(monkeypatch):
    snaps = [Snapshot.from_pairs(4, [(0, 1), (2, 3)]),
             Snapshot.from_pairs(4, [(1, 2)]),
             Snapshot.from_pairs(4, [(0, 3)])]
    first = check_property(Schedule(snaps), "t_path", 3)
    tables = [s.table for s in snaps]
    assert None not in tables
    calls = []
    monkeypatch.setattr(graphs, "components",
                        lambda s: calls.append(s) or components(s))
    second = check_property(Schedule(snaps[::-1] + snaps), "t_path", 3)
    assert calls == []
    assert all(s.table is t for s, t in zip(snaps, tables))
    assert (first.holds, first.witness) == (second.holds, second.witness)


def test_check_property_splits_each_distinct_window_set_once(monkeypatch):
    # a window's verdict depends only on the set of its snapshots, so a
    # 1,000-round schedule that cycles between two graphs is split at most
    # once per set: {a} and {b} at T=1, and {a, b} at every longer T
    a = Snapshot.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    b = Snapshot.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    apart = Snapshot.from_pairs(5, [(0, 1), (2, 3)])
    calls = []
    split = graphs._split
    monkeypatch.setattr(graphs, "_split",
                        lambda *args: calls.append(1) or split(*args))
    for snaps in ([a, b] * 500, [a, apart] * 500):
        sch = Schedule(snaps)
        for prop in graphs.PROPERTIES:
            for T in (1, 2, 3, 999, 1000):
                calls.clear()
                report = check_property(sch, prop, T)
                last = report.witness[0] if report.witness else sch.rounds - T
                sets = {frozenset(map(id, sch.snapshots[r:r + T]))
                        for r in range(last + 1)}
                assert len(calls) == len(sets) <= 2, (prop, T)
                want = (oracles.t_path_witness(sch, T) if prop == "t_path"
                        else oracles.window_witness_reference(sch, prop, T))
                assert report.witness == want, (prop, T)


def test_check_property_memory_follows_its_window_sets_not_its_windows():
    # two graphs in the Thue-Morse order, which never repeats, so almost
    # every window of 2,000 rounds is a sequence not seen before, while
    # all of them are the one set {a, b}
    a = Snapshot.from_pairs(3, [(0, 1)])
    b = Snapshot.from_pairs(3, [(1, 2)])
    sch = Schedule(b if bin(r).count("1") % 2 else a for r in range(4000))
    tracemalloc.start()
    try:
        for prop in graphs.PROPERTIES:
            check_property(sch, prop, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_a_connected_round_decides_its_window_without_a_search(monkeypatch):
    # a connected round joins every pair, so under t_path and
    # connectivity_time its windows hold from the kept components alone;
    # so does every window of one snapshot, under every property
    searched = []
    for name in ("_split_from_0", "_table"):
        original = getattr(graphs, name)
        monkeypatch.setattr(graphs, name, lambda *args, name=name, f=original:
                            searched.append(name) or f(*args))
    joined = Snapshot.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    left = Snapshot.from_pairs(5, [(0, 1), (1, 2)])
    right = Snapshot.from_pairs(5, [(2, 3), (3, 4)])
    sch = Schedule([joined, left, joined, right, joined])
    for prop in ("t_path", "connectivity_time"):
        for T in (2, 3, 5):
            assert check_property(sch, prop, T).holds
        assert check_property(sch, prop, 1).witness == (1, (0, 3))
    for prop in graphs.PROPERTIES:
        for snap, want in ((joined, None), (left, (0, (0, 3))),
                           (right, (0, (0, 1)))):
            report = check_property(Schedule([snap] * 3), prop, 2)
            assert report.witness == want, (prop, snap)
    assert searched == []
    # a window without a connected round is still searched
    apart = Schedule([left, right])
    assert check_property(apart, "t_path", 2).witness == (0, (0, 3))
    assert searched == ["_table", "_table"]
    assert check_property(apart, "connectivity_time", 2).holds
    assert searched[2:] == ["_split_from_0"]


def test_window_checks_match_the_references_on_random_schedules():
    # seeded schedules that mix connected and disconnected rounds: the
    # generator makes every T-th round connected and draws the others at
    # the density, sparse or dense
    for seed in range(6):
        for T, density in ((1, 0.5), (2, 0.15), (3, 0.3), (4, 0.05)):
            n = 4 + seed
            rounds = 3 * T + seed
            sch = gen_random_with_property(seed, n, "t_path", T, density,
                                           rounds)
            pair_sets = [s.pairs for s in sch.snapshots]
            for prop in graphs.PROPERTIES:
                for t in range(1, rounds + 1):
                    want = (oracles.t_path_witness(sch, t) if prop == "t_path"
                            else oracles.window_witness_reference(sch, prop, t))
                    report = check_property(sch, prop, t)
                    assert report.witness == want, (seed, T, prop, t)
                assert (minimal_T(sch, prop)
                        == oracles.minimal_T_reference(n, pair_sets, prop))


def _placed_schedule(rng, n, rounds, joined_at):
    """A schedule whose rounds in ``joined_at`` are connected and whose
    other rounds are not, each drawn from a pool of two graphs, so that
    windows repeat snapshots."""
    joined = [Snapshot.from_pairs(n, _tree_without(rng, n, None)
                                  + list(random_pairs(rng, n, 0.2)))
              for _ in range(2)]
    apart = [Snapshot.from_pairs(n, _tree_without(rng, n, rng.randrange(n)))
             if rng.random() < 0.5 else
             Snapshot.from_pairs(n, [p for p in random_pairs(
                 rng, n, rng.uniform(0.1, 0.5)) if 0 not in p])
             for _ in range(2)]
    return Schedule(rng.choice(joined if r in joined_at else apart)
                    for r in range(rounds))


@pytest.mark.parametrize("layout", ["first", "last", "every_T", "nowhere"])
def test_window_checks_match_the_references_wherever_the_connected_rounds_sit(
    layout
):
    # a window stops at its first connected round, searched newest first,
    # so the verdicts and witnesses must not depend on where those rounds
    # sit: first, last, every T-th round or nowhere
    rng = random.Random(f"placed:{layout}")
    for i in range(12):
        n, rounds = rng.randint(4, 7), rng.randint(5, 9)
        every = rng.randint(2, 3)
        joined_at = {"first": {0}, "last": {rounds - 1}, "nowhere": set(),
                     "every_T": set(range(every - 1, rounds, every))}[layout]
        sch = _placed_schedule(rng, n, rounds, joined_at)
        for r, s in enumerate(sch.snapshots):
            assert oracles.is_connected(n, s.pairs) == (r in joined_at)
        pair_sets = [s.pairs for s in sch.snapshots]
        for prop in graphs.PROPERTIES:
            for T in range(1, rounds + 1):
                want = (oracles.t_path_witness(sch, T) if prop == "t_path"
                        else oracles.window_witness_reference(sch, prop, T))
                report = check_property(sch, prop, T)
                assert report.witness == want, (i, prop, T)
                assert report.holds == (want is None)
            assert (minimal_T(sch, prop)
                    == oracles.minimal_T_reference(n, pair_sets, prop)), (i, prop)


def test_classify_searches_the_components_its_verdicts_need(monkeypatch):
    # every third round of this schedule is connected: a window of t_path or
    # connectivity_time stops at the first connected round it searches, so
    # 42 of its 120 distinct snapshots are searched, not all of them
    calls = []
    real = graphs._components
    monkeypatch.setattr(graphs, "_components",
                        lambda n, ports: calls.append(n) or real(n, ports))
    lines = []
    assert cli.main(["classify", str(DATA / "random_tpath.sched")],
                    out=lines.append) == 0
    assert lines == ["t_interval: minimal T = none", "t_path: minimal T = 3",
                     "connectivity_time: minimal T = 3"]
    assert len(calls) == 42


def test_schedule_names_the_first_round_of_another_node_count():
    four, five = Snapshot(4, []), Snapshot(5, [])
    with pytest.raises(GraphError, match=r"^round 2 has n=5, expected 4$"):
        Schedule([four, four, five, four, five])


def test_format_edges_formats_a_snapshot_once():
    s = Snapshot(3, [(0, 1, 0, 0), (1, 2, 1, 0)])
    assert format_edges(s) == " 0-1:0,0 1-2:1,0"
    assert format_edges(s) is format_edges(s)


def test_ctime_reference_trace():
    sch = load("ctime_demo")
    assert minimal_T(sch, "connectivity_time") == 3
    rep2 = check_property(sch, "connectivity_time", 2)
    assert not rep2.holds and rep2.witness == (0, (0, 3))
    for T in range(1, sch.rounds + 1):
        assert not check_property(sch, "t_path", T).holds
    assert check_property(sch, "t_path", 9).witness == (0, (0, 3))
    assert minimal_T(sch, "t_path") is None
    assert minimal_T(sch, "t_interval") is None


def test_minimal_T_decides_none_with_one_check(monkeypatch):
    # t_path holds at T+1 wherever it holds at T, so failing at T = rounds
    # it holds at no T
    calls = []
    check = graphs.check_property
    monkeypatch.setattr(graphs, "check_property",
                        lambda sch, prop, T: calls.append(T) or check(sch, prop, T))
    sch = load("ctime_demo")
    assert minimal_T(sch, "t_path") is None
    assert calls == [sch.rounds]


def test_perpetual_reference_trace():
    sch = load("perpetual_demo")
    assert minimal_T(sch, "t_path") == 6
    assert not check_property(sch, "t_path", 5).holds
    assert minimal_T(sch, "t_interval") is None


def test_insufficient_trace_is_an_error():
    sch = load("tpath_demo")
    with pytest.raises(GraphError, match="insufficient"):
        check_property(sch, "t_path", 10)
    with pytest.raises(GraphError):
        check_property(sch, "t_path", 0)
    with pytest.raises(GraphError):
        check_property(sch, "diameter", 1)


# --- checkers against the brute-force oracle ---


def test_checkers_match_oracle_spot():
    rng = random.Random(20240817)
    for _ in range(120):
        n = rng.randint(1, 6)
        rounds = rng.randint(1, 8)
        sch = random_schedule(rng, n, rounds)
        pair_sets = [set(s.pairs) for s in sch.snapshots]
        for prop in ("t_interval", "t_path", "connectivity_time"):
            for T in range(1, rounds + 1):
                got = check_property(sch, prop, T).holds
                want = oracles.oracle_holds(n, pair_sets, prop, T)
                assert got == want, (n, rounds, prop, T, pair_sets)


def test_dynamic_diameter_matches_floyd_warshall():
    rng = random.Random("diameter")
    values = set()
    for _ in range(200):
        n = rng.randint(1, 7)
        sch = random_schedule(rng, n, rng.randint(1, 4))
        want = max(oracles.diameter_reference(n, s.pairs)
                   for s in sch.snapshots)
        assert sch.dynamic_diameter() == want, (n, sch.to_text())
        values.add(want)
    assert math.inf in values and {0, 1, 2, 3} <= values


def test_minimal_T_matches_trying_every_T():
    # t_interval is decided by its T=1 check alone; the oracle tries every T
    rng = random.Random("minimal-T")
    sizes = [(1, 1), (1, 5), (4, 1)]
    sizes += [(rng.randrange(1, 7), rng.randrange(1, 9)) for _ in range(300)]
    answers = set()
    for n, rounds in sizes:
        density = rng.uniform(0.0, 1.0)
        pair_sets = [random_pairs(rng, n, density) for _ in range(rounds)]
        sch = Schedule(Snapshot.from_pairs(n, pairs) for pairs in pair_sets)
        for prop in ("t_interval", "t_path", "connectivity_time"):
            want = oracles.minimal_T_reference(n, pair_sets, prop)
            assert minimal_T(sch, prop) == want, (n, rounds, prop, pair_sets)
            answers.add((prop, want))
    assert {("t_interval", 1), ("t_interval", None)} <= answers
    assert any(prop != "t_interval" and (want or 0) > 1
               for prop, want in answers)


def test_snapshot_hash_follows_equality_without_hashing_edges():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 7)
        fast = Snapshot.from_pairs(n, random_pairs(rng, n, rng.random()))
        slow = Snapshot(n, oracles.edges_of(fast))
        assert fast == slow and hash(fast) == hash(slow)
    # the same pairs with other ports: equal hashes, yet distinct keys
    path = Snapshot(3, [(0, 1, 0, 0), (1, 2, 1, 0)])
    flipped = Snapshot(3, [(0, 1, 0, 1), (1, 2, 0, 0)])
    assert path != flipped and hash(path) == hash(flipped)
    assert len({path: 1, flipped: 2, Snapshot(3, oracles.edges_of(path)): 3}) == 2


def _periodic_schedule(rng, n, rounds):
    """A random schedule that cycles through a few random graphs."""
    graphs = [Snapshot.from_pairs(n, random_pairs(rng, n, rng.uniform(0.1, 0.6)))
              for _ in range(rng.randint(1, 4))]
    return Schedule(rng.choice(graphs) for _ in range(rounds))


def test_t_path_witness_matches_the_pair_loop():
    rng = random.Random(20261018)
    for i in range(300):
        n = rng.randint(1, 9)
        rounds = rng.randint(1, 12)
        make = random_schedule if i % 2 else _periodic_schedule
        sch = make(rng, n, rounds)
        for T in range(1, rounds + 1):
            report = check_property(sch, "t_path", T)
            want = oracles.t_path_witness(sch, T)
            assert report.witness == want, (n, rounds, T)
            assert report.holds == (want is None)


def test_union_and_intersection_witnesses_match_the_reference():
    # windows that repeat one snapshot, T = 1 and T = rounds included
    rng = random.Random("window-witness")
    for i in range(160):
        n = (1, 2, 5, 70)[i % 4]
        rounds = rng.randint(1, 6 if n == 70 else 9)
        snaps = [
            Snapshot.from_pairs(n, random_pairs(
                rng, n, rng.uniform(0.0, 0.12 if n == 70 else 0.8)))
            for _ in range(rng.randint(1, 4))
        ]
        sch = Schedule(rng.choice(snaps) for _ in range(rounds))
        for prop in ("t_interval", "connectivity_time"):
            least = None
            for T in range(rounds, 0, -1):
                want = oracles.window_witness_reference(sch, prop, T)
                report = check_property(sch, prop, T)
                assert report.witness == want, (i, prop, T)
                assert report.holds == (want is None)
                if want is None:
                    least = T
            assert minimal_T(sch, prop) == least, (i, prop)


def _tree_without(rng, n, alone):
    """A random tree on every node but ``alone``, which has no edge."""
    rest = [v for v in range(n) if v != alone]
    rng.shuffle(rest)
    return [(rest[i], rng.choice(rest[:i])) for i in range(1, len(rest))]


def test_t_path_witness_matches_the_pair_loop_beyond_64_nodes():
    # a component whose greatest node is 64 times its size or more has no
    # kept mask: nodes above 63 alone, and pairs above 127 spread thin.
    # Node x is alone in one tree, x + n/2 in another, and only the thin
    # pairs join the two, so windows hold without a connected round
    rng = random.Random(7)
    for i in range(60):
        n = rng.randint(64, 200)
        x = rng.randrange(n // 2)
        snaps = [
            Snapshot.from_pairs(n, pairs) for pairs in (
                _tree_without(rng, n, x),
                _tree_without(rng, n, x + n // 2),
                [(v, v + n // 2) for v in range(n // 2)],
                random_pairs(rng, n, 0.01),
            )
        ]
        rounds = rng.randint(2, 7)
        sch = Schedule(rng.choice(snaps) for _ in range(rounds))
        for T in range(1, rounds + 1):
            report = check_property(sch, "t_path", T)
            want = oracles.t_path_witness(sch, T)
            assert report.witness == want, (i, n, rounds, T)
            assert report.holds == (want is None)


def test_t_path_memory_follows_the_components_not_n_squared():
    # one n-bit mask per node would take n * n / 16 bytes: 625 MB here
    sch = Schedule.from_text("n=100000 rounds=1\nr=0:\n")
    tracemalloc.start()
    try:
        report = check_property(sch, "t_path", 1)
        assert minimal_T(sch, "t_path") is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness == (0, (0, 1))
    assert peak < 40_000_000


def test_components_match_oracle_partition():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 7)
        pairs = random_pairs(rng, n, rng.random())
        got = frozenset(frozenset(c) for c in components(Snapshot.from_pairs(n, pairs)))
        assert got == oracles.partition(n, pairs)


# --- structural properties ---


def test_port_relabeling_does_not_change_results():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        sch = random_schedule(rng, n, 6)
        shuffled = []
        for s in sch.snapshots:
            edges = []
            for v in range(n):
                pmap = s.ports.get(v, {})
                perm = list(range(len(pmap)))
                rng.shuffle(perm)
                # perm[i] is the new label of old port i
                for old, nbr in sorted(pmap.items()):
                    edges.append((v, nbr, perm[old]))
            by_pair = {}
            for v, nbr, port in edges:
                by_pair.setdefault((min(v, nbr), max(v, nbr)), {})[v] = port
            shuffled.append(Snapshot(
                n, [(u, v, ps[u], ps[v]) for (u, v), ps in by_pair.items()]))
        sch2 = Schedule(shuffled)
        for prop in ("t_interval", "t_path", "connectivity_time"):
            for T in (1, 3, 6):
                assert (
                    check_property(sch, prop, T).holds
                    == check_property(sch2, prop, T).holds
                )
        for s1, s2 in zip(sch.snapshots, sch2.snapshots):
            assert components(s1) == components(s2)


def test_property_monotonicity_directions():
    # t_path / connectivity_time: holding at T implies holding at T' >= T.
    # t_interval on a finite trace: holding at T implies holding at T' <= T.
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(2, 6)
        sch = random_schedule(rng, n, 7)
        for prop in ("t_path", "connectivity_time"):
            holds = [check_property(sch, prop, T).holds for T in range(1, 8)]
            for a in range(len(holds) - 1):
                if holds[a]:
                    assert all(holds[a:]), (prop, holds)
        holds = [check_property(sch, "t_interval", T).holds for T in range(1, 8)]
        for a in range(1, len(holds)):
            if holds[a]:
                assert all(holds[: a + 1]), holds


def test_implication_chain_at_fixed_T():
    # interval implies path implies union-connectivity; all equal at T=1
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 6)
        sch = random_schedule(rng, n, 6)
        for T in range(1, 6):
            i = check_property(sch, "t_interval", T).holds
            p = check_property(sch, "t_path", T).holds
            c = check_property(sch, "connectivity_time", T).holds
            assert not i or p
            assert not p or c
            if T == 1:
                assert i == p == c
