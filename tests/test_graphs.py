"""Snapshots, schedules, window graphs, and the three property checkers."""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from dispersim import cli, graphs
from dispersim.graphs import (
    Edge,
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
        Snapshot(3, [Edge(0, 1, 0, 0), Edge(0, 2, 0, 0)])  # port 0 twice at 0
    with pytest.raises(GraphError):
        Snapshot(2, [Edge(0, 1, 1, 0)])  # ports must start at 0
    with pytest.raises(GraphError):
        Snapshot(2, [Edge(0, 0, 0, 1)])  # self-loop
    with pytest.raises(GraphError):
        Snapshot(2, [Edge(0, 1, 0, 0), Edge(1, 0, 1, 1)])  # duplicate pair
    with pytest.raises(GraphError):
        Snapshot(2, [Edge(0, 2, 0, 0)])  # out of range


def test_snapshot_accepts_any_port_permutation():
    s = Snapshot(3, [Edge(0, 1, 1, 0), Edge(0, 2, 0, 0)])
    assert s.neighbor(0, 1) == 1
    assert s.neighbor(0, 0) == 2
    assert s.degree(0) == 2


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
        checked = Snapshot(n, fast.edges)
        assert (fast.n, fast.edges, fast.pairs) == (
            checked.n, checked.edges, checked.pairs)
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
    real = graphs._components_from_pairs
    monkeypatch.setattr(graphs, "_components_from_pairs",
                        lambda n, pairs: calls.append(n) or real(n, pairs))
    sch = random_schedule(random.Random(3), 5, 8)
    minimal_T(sch, "t_path")
    minimal_T(sch, "t_path")
    assert len(calls) == sch.rounds
    first = sch.snapshots[0]
    assert components(first) is components(first)
    assert Snapshot(5, first.edges).comps is None


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
    assert sch.snapshot(0) is sch.snapshot(2) is sch.snapshot(3)
    assert sch.snapshot(0) is not sch.snapshot(1)
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
        assert s.degree(3) == 0 and s.port_items(3) == []
        with pytest.raises(GraphError, match="^node 3 has no port 0$"):
            s.neighbor(3, 0)
    # ports are checked node by node in ascending order, whatever the
    # order in which the edges reach them
    with pytest.raises(GraphError, match=r"^node 1 ports \[1\] are not 0..0$"):
        Snapshot(6, [Edge(0, 5, 0, 1), Edge(1, 2, 1, 0)])


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
    assert sch.snapshot(0).pairs == frozenset()


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


def test_dynamic_diameter_is_computed_on_access():
    path = Snapshot.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    sch = Schedule([path, path])
    report = check_property(sch, "t_interval", 1)
    assert sch._diameter_cache is None
    assert report.describe() == "t_interval at T=1: holds; dynamic diameter 3"
    assert report.dynamic_diameter == 3


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


def test_snapshot_hash_follows_equality_without_hashing_edges(monkeypatch):
    def unhashable(edge):
        raise AssertionError("hashed an Edge")

    monkeypatch.setattr(Edge, "__hash__", unhashable)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 7)
        fast = Snapshot.from_pairs(n, random_pairs(rng, n, rng.random()))
        slow = Snapshot(n, fast.edges)
        assert fast == slow and hash(fast) == hash(slow)
    # the same pairs with other ports: equal hashes, yet distinct keys
    path = Snapshot(3, [Edge(0, 1, 0, 0), Edge(1, 2, 1, 0)])
    flipped = Snapshot(3, [Edge(0, 1, 0, 1), Edge(1, 2, 0, 0)])
    assert path != flipped and hash(path) == hash(flipped)
    assert len({path: 1, flipped: 2, Snapshot(3, path.edges): 3}) == 2


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
                perm = list(range(s.degree(v)))
                rng.shuffle(perm)
                # perm[i] is the new label of old port i
                for old, nbr in s.port_items(v):
                    edges.append((v, nbr, perm[old]))
            by_pair = {}
            for v, nbr, port in edges:
                by_pair.setdefault((min(v, nbr), max(v, nbr)), {})[v] = port
            shuffled.append(
                Snapshot(
                    n,
                    [
                        Edge(u, v, ps[u], ps[v])
                        for (u, v), ps in by_pair.items()
                    ],
                )
            )
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
