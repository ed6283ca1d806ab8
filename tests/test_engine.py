"""Round semantics: views, delivery, stitching, moves, runs, traces."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from dispersim.engine import (
    Action,
    AgentState,
    Block,
    Configuration,
    EngineError,
    NodeKnowledge,
    RoundRecord,
    STAY,
    apply_actions,
    compute_preview,
    deliver,
    node_views,
    parse_trace,
    round_step,
    run,
    stitch_component,
)
from dispersim import adversary, algorithms, engine, harness
from dispersim.adversary import gen_random_with_property, make_adversary
from dispersim.algorithms import ALGORITHM_NAMES, make_algorithm
from dispersim.graphs import GraphError, Schedule, Snapshot
from dispersim.claims import CLAIMS, run_claim
from dispersim.scenario import parse_scenario, run_scenario

import oracles
from test_acceptance import C12_SCENARIOS

DATA = Path(__file__).parent / "data"


def path4():
    return Snapshot.from_pairs(4, [(0, 1), (1, 2), (2, 3)])


def test_action_codes_round_trip():
    for act in (STAY, Action(port=2), Action(terminate=True),
                Action(port=0, terminate=True)):
        assert Action.from_code(act.code()) == act
    with pytest.raises(EngineError):
        Action.from_code("x1")


def test_configuration_accessors():
    c = Configuration(5, {1: 2, 2: 2, 3: 0})
    assert c.ids_at(2) == (1, 2)
    assert sorted(c.at) == [0, 2]
    assert c.holes() == [1, 3, 4]
    assert c.multinodes() == [2]
    assert not c.is_dispersed()
    assert Configuration(3, {1: 0, 2: 1}).is_dispersed()


def test_is_dispersed_means_one_agent_per_occupied_node():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 8)
        positions = {a: rng.randrange(n) for a in range(1, rng.randint(0, 9))}
        want = len(set(positions.values())) == len(positions)
        assert Configuration(n, positions).is_dispersed() == want
    assert Configuration(4, {}).is_dispersed()


def test_views_zero_vs_one_hop():
    s = path4()
    c = Configuration(4, {1: 1, 2: 1, 3: 2})
    v0 = node_views(s, c, "zero")[1]
    assert v0.per_port is None and v0.degree == 2 and v0.colocated == (1, 2)
    v1 = node_views(s, c, "one")[1]
    assert list(v1.per_port) == [(), (3,)]
    assert v1.hole_ports() == (0,)


def test_per_port_is_indexed_by_port():
    # Snapshot(n, edges) keeps the ports as given, so shuffled ports put
    # the neighbors of a node out of node order
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        ports = {v: [] for v in range(n)}
        for u, v in pairs:
            ports[u].append(v)
            ports[v].append(u)
        for nbrs in ports.values():
            rng.shuffle(nbrs)
        snap = Snapshot(n, [(u, v, ports[u].index(v), ports[v].index(u))
                            for u, v in pairs])
        config = Configuration(
            n, {a: rng.randrange(n) for a in range(1, rng.randint(1, n + 2))})
        views = node_views(snap, config, "one")
        assert sorted(views) == sorted(config.at)
        for v, view in views.items():
            assert len(view.per_port) == view.degree == snap.degree(v)
            for p in range(view.degree):
                assert view.per_port[p] == config.ids_at(snap.neighbor(v, p))
            assert view.hole_ports() == tuple(
                p for p in range(view.degree)
                if not config.ids_at(snap.neighbor(v, p)))


def test_deliver_global_vs_f2f():
    s = path4()
    c = Configuration(4, {1: 0, 2: 2, 3: 2})
    inbox = deliver(s, c, "global")
    assert [b.sender for b in inbox[1]] == [1, 2, 3]  # own broadcast included
    assert inbox[1] is inbox[2]  # one shared bundle per component
    inbox_f2f = deliver(s, c, "f2f")
    assert [b.sender for b in inbox_f2f[1]] == [1]
    assert [b.sender for b in inbox_f2f[2]] == [2, 3]


def test_deliver_excludes_terminated_but_views_keep_them():
    s = path4()
    c = Configuration(4, {1: 1, 2: 2})
    inbox = deliver(s, c, "global", terminated={2})
    assert 2 not in inbox
    assert [b.sender for b in inbox[1]] == [1]
    # the terminated agent still occupies node 2 in agent 1's view
    view = node_views(s, c, "one")[1]
    assert view.per_port[1] == (2,)


def test_stitch_component_builds_node_graph():
    s = path4()
    c = Configuration(4, {1: 1, 2: 1, 3: 2})
    inbox = deliver(s, c, "global")
    nodes = stitch_component(inbox[1])
    assert set(nodes) == {1, 3}
    assert nodes[1].ids == (1, 2)
    assert nodes[1].hole_ports == (0,)
    assert nodes[1].links == ((1, 3),)
    assert nodes[3].links == ((0, 1),)
    assert sorted(k for k, nd in nodes.items() if len(nd.ids) > 1) == [1]


def test_stitch_rejects_conflicting_views():
    from dispersim.engine import Broadcast, LocalView

    va = LocalView(degree=1, colocated=(1, 2), per_port=None)
    vb = LocalView(degree=2, colocated=(1, 2), per_port=None)
    with pytest.raises(EngineError):
        stitch_component((Broadcast(1, va), Broadcast(2, vb)))


def test_apply_actions_simultaneous_and_faults():
    s = path4()
    c = Configuration(4, {1: 1, 2: 2})
    after = apply_actions(s, c, {1: Action(port=1), 2: Action(port=0)})
    assert after == {1: 2, 2: 1}  # swap, no collision logic
    with pytest.raises(EngineError):
        apply_actions(s, c, {1: Action(port=5)})


def test_run_rejects_bad_inputs():
    sch = Schedule([path4()])
    alg = make_algorithm("stay")
    with pytest.raises(GraphError):
        run(sch, {0: 0}, alg, max_rounds=1)  # ids must start at 1
    with pytest.raises(GraphError):
        run(sch, {1: 0}, alg, max_rounds=0)
    with pytest.raises(GraphError):
        run(sch, {1: 0}, alg, max_rounds=5)  # schedule exhausted
    with pytest.raises(GraphError):
        run(sch, {1: 0}, alg, max_rounds=1, visibility="two")


def test_an_exhausted_random_schedule_names_its_round():
    # the CLI draws as many rounds as it runs; a library caller may ask
    # for more
    source = adversary.RandomRounds(0, 5, "t_path", 2, 0.3, 3)
    with pytest.raises(GraphError, match=r"^random schedule exhausted at"
                                         r" round 3 \(has 3\)$"):
        run(source, {1: 0, 2: 0}, make_algorithm("stay"), max_rounds=10)


def test_stay_run_outcomes():
    sch = Schedule([path4(), path4()])
    res = run(sch, {1: 0, 2: 1}, make_algorithm("stay"), max_rounds=2)
    assert res.dispersed_at == 0  # already dispersed, measured after round 0
    assert res.explored_at is None
    assert res.all_terminated_at is None
    assert res.budget_exhausted


def test_perpetual_reference_run():
    # agents 1,2 on node 0 and agent 3 on node 1; the explorer tours
    # nodes 2,3,1 at rounds 1,3,5 of every period and never disperses
    sch = Schedule.load(DATA / "perpetual_demo.sched")
    res = run(sch, {1: 0, 2: 0, 3: 1}, make_algorithm("alg3"),
              max_rounds=18, T=6)
    assert res.explored_at == 3
    assert res.dispersed_at is None
    for r, rec in enumerate(res.records):
        movers = [a for a, act in rec.actions.items() if act.port is not None]
        if r % 6 in (1, 3, 5):
            assert movers == [3]
        else:
            assert movers == []
    assert res.final == {1: 0, 2: 0, 3: 1}  # back to start


def test_compute_preview_is_pure_and_matches_run():
    sch = Schedule.load(DATA / "perpetual_demo.sched")
    alg = make_algorithm("alg3")
    config = Configuration(4, {1: 0, 2: 0, 3: 1})
    states = {a: AgentState(id=a) for a in (1, 2, 3)}
    preview = compute_preview(sch.snapshots[0], config, states, alg, "one", "global")
    res = run(sch, {1: 0, 2: 0, 3: 1}, alg, max_rounds=1)
    assert preview == res.records[0].actions
    assert states == {a: AgentState(id=a) for a in (1, 2, 3)}  # untouched


def test_trace_text_shape():
    sch = Schedule([path4()])
    res = run(sch, {1: 0, 2: 0}, make_algorithm("disp"), max_rounds=1)
    text = res.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("trace v=1 n=4 k=2")
    assert lines[1] == "round r=0"
    assert lines[2] == "edges: 0-1:0,0 1-2:1,0 2-3:1,0"
    assert lines[3] == "pos: 0:1,2"
    assert lines[-1].startswith("end rounds=1")


def test_parse_trace_reads_back_the_records_of_the_run():
    results = [run_scenario(parse_scenario(text)) for text in C12_SCENARIOS]
    results += [run_claim(claim, claim.rows[0]).result
                for claim in CLAIMS.values()]
    for res in results:
        header, records, trailer = parse_trace(res.to_text())
        assert records == [RoundRecord(r, *block)
                           for r, block in enumerate(res.records)]
        assert header == {key: getattr(res, key) for key in (
            "n", "k", "T", "algorithm", "visibility", "communication")}
        assert trailer == {key: getattr(res, key) for key in (
            "rounds", "dispersed_at", "explored_at", "all_terminated_at",
            "budget_exhausted")}


def test_records_share_the_configurations_of_the_run():
    # a round's after is the next round's before, in a run and in its
    # parsed trace, where a post: and the next pos: parse to one object
    claim = CLAIMS["ct_dispersion"]
    res = run_claim(claim, claim.rows[0]).result
    _, parsed, _ = parse_trace(res.to_text())
    assert res.final is res.records[-1].after
    for records in (res.records, parsed):
        for rec, following in zip(records, records[1:]):
            assert following.before is rec.after
        for rec in records:
            for config in (rec.before, rec.after):
                assert type(config) is Configuration and config.n == res.n
    for got, want in zip(parsed, res.records, strict=True):
        assert got.before == want.before and got.before.at == want.before.at
        assert got.after == want.after and got.after.at == want.after.at


def test_trace_text_does_not_depend_on_shared_values():
    # to_text formats each distinct Block once, by its id, and each value
    # in it once; fresh Blocks of fresh equal values, one per round, write
    # the same bytes
    claim = CLAIMS["ct_dispersion"]
    res = run_claim(claim, claim.rows[0]).result
    fresh = [Block(
        Snapshot(rec.snapshot.n, oracles.edges_of(rec.snapshot)),
        Configuration(rec.before.n, rec.before), dict(rec.actions),
        Configuration(rec.after.n, rec.after),
        [list(c) for c in rec.components], rec.messages)
        for rec in res.records]
    assert len({id(rec.before) for rec in res.records}) < len(fresh)
    assert res._replace(records=fresh).to_text() == res.to_text()


def test_equal_rounds_of_a_run_share_one_block():
    # a round on an equal snapshot from the same configuration object (and
    # so the same states) is the memo entry's Block itself
    claim = CLAIMS["ct_dispersion"]
    res = run_claim(claim, claim.rows[0]).result
    blocks = res.records
    assert len({id(block) for block in blocks}) < len(blocks)
    first = {}
    for block in blocks:
        key = (block.snapshot, id(block.before))
        assert first.setdefault(key, block) is block


def test_sorted_path_consults_its_oracle_once_per_configuration_and_states():
    alg = make_algorithm("alg3")
    memo, asked = {}, []

    def oracle(snapshot, config, states):
        asked.append((config, states))  # keeps every id unique
        return round_step(snapshot, config, states, alg, "one", "f2f", memo)

    placement = {a: 0 for a in range(1, 7)}
    adv = make_adversary("sorted_path", 7, variant="comm")
    adv.oracle = oracle
    res = run(adv, placement, alg, communication="f2f", max_rounds=60)
    pairs = [(id(config), id(states)) for config, states in asked]
    assert len(set(pairs)) == len(pairs) < res.rounds
    again = run(make_adversary("sorted_path", 7, variant="comm"), placement,
                alg, communication="f2f", max_rounds=60)
    assert res.to_text() == again.to_text()


@pytest.mark.parametrize("seed", range(40))
def test_relabelling_nodes_is_a_symmetry_of_run(seed):
    # agents see ports and agent IDs, never node names: renaming a
    # schedule's nodes by a permutation, ports kept, and moving the
    # placement with it leaves every action, message count and outcome
    # round alone, and moves every configuration by the permutation
    rng = random.Random(f"relabel:{seed}")
    n = rng.randint(4, 8)
    k = rng.randint(2, n - 1)
    perm = list(range(n))
    rng.shuffle(perm)
    sched = gen_random_with_property(seed, n, "t_path", 3, 0.3, 24)
    moved = Schedule(Snapshot(n, [(perm[u], perm[v], pu, pv)
                                  for u, v, pu, pv in oracles.edges_of(s)])
                     for s in sched.snapshots)
    start = {a: rng.randrange(n) for a in range(1, k + 1)}
    moved_start = {a: perm[v] for a, v in start.items()}
    outcomes = ("dispersed_at", "explored_at", "all_terminated_at",
                "budget_exhausted")
    for name in ALGORITHM_NAMES:
        for visibility in ("zero", "one"):
            for communication in ("global", "f2f"):
                case = (name, visibility, communication)
                kwargs = dict(visibility=visibility,
                              communication=communication, max_rounds=24, T=3)
                got = run(sched, start, make_algorithm(name, T=3), **kwargs)
                want = run(moved, moved_start, make_algorithm(name, T=3),
                           **kwargs)
                assert [getattr(got, f) for f in outcomes] == [
                    getattr(want, f) for f in outcomes], case
                for x, y in zip(got.records, want.records, strict=True):
                    assert x.actions == y.actions, case
                    assert x.messages == y.messages, case
                    assert {a: perm[v] for a, v in x.after.items()} == (
                        y.after), case


def test_identical_runs_are_byte_identical():
    sch = Schedule.load(DATA / "perpetual_demo.sched")
    a = run(sch, {1: 0, 2: 0, 3: 1}, make_algorithm("alg3"), max_rounds=18)
    b = run(sch, {1: 0, 2: 0, 3: 1}, make_algorithm("alg3"), max_rounds=18)
    assert a.to_text() == b.to_text()


def test_round_step_leaves_caller_states_alone():
    # alg2 returns the state it was given; terminating must not flip the
    # caller's copy
    s = path4()
    config = Configuration(4, {1: 0, 2: 2})
    states = {a: AgentState(id=a) for a in (1, 2)}
    step = round_step(s, config, states, make_algorithm("alg2"), "one", "global")
    assert all(act.terminate for act in step.actions.values())
    assert all(st.terminated for st in step.states.values())
    assert states == {a: AgentState(id=a) for a in (1, 2)}
    assert step.components == [[0, 1, 2, 3]]
    assert step.messages == 4


def test_plan_is_stitched_once_per_component_per_round(monkeypatch):
    stitched = []
    original = algorithms.stitch_component

    def counting(bundle):
        stitched.append(bundle)  # keeps every bundle alive, so `is` is exact
        return original(bundle)

    monkeypatch.setattr(algorithms, "stitch_component", counting)
    n, k, T = 8, 6, 3
    adv = make_adversary("ct_dispersion", n, k=k, T=T)
    res = run(adv, {a: 0 for a in range(1, k + 1)},
              make_algorithm("alg1_implicit"), max_rounds=20 * k * T, T=T)
    assert stitched
    assert len(stitched) <= sum(len(rec.components) for rec in res.records)
    for i, bundle in enumerate(stitched):
        assert all(bundle is not other for other in stitched[:i])


class _Reemit:
    """Wraps an oracle adversary and re-emits each snapshot as a new but
    equal object, so the run finds the oracle's preview only by equality."""

    needs_oracle = True

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.oracle = None

    def next_snapshot(self, r, config, states):
        self.inner.oracle = self.oracle
        snap = self.inner.next_snapshot(r, config, states)
        return Snapshot(snap.n, oracles.edges_of(snap))


@pytest.mark.parametrize("variant, alg, placement, visibility, communication", [
    ("comm", "alg3", {a: 0 for a in range(1, 7)}, "one", "f2f"),
    ("visibility", "alg1_implicit", {a: 0 for a in range(1, 7)}, "zero",
     "global"),
    ("dispersed", "greedy_port0", {a: a for a in range(1, 7)}, "zero",
     "global"),
])
def test_oracle_reuse_does_not_change_sorted_path_traces(
    monkeypatch, variant, alg, placement, visibility, communication
):
    steps = []
    original = engine._step

    def counting(*args):
        steps.append(args)  # keeps every input alive, so ids stay unique
        return original(*args)

    monkeypatch.setattr(engine, "_step", counting)
    texts, counts = [], []
    for wrap in (False, True):
        steps.clear()
        adv = make_adversary("sorted_path", 7, variant=variant)
        res = run(_Reemit(adv) if wrap else adv, placement,
                  make_algorithm(alg), visibility=visibility,
                  communication=communication, max_rounds=40)
        texts.append(res.to_text())
        # every round is previewed first, so the round itself is served
        # from the memo: no inputs are ever computed twice, whether the
        # adversary emits the previewed graph or an equal copy of it
        keys = [(snap, engine._inputs(config, states))
                for snap, config, states, *_ in steps]
        assert len(set(keys)) == len(keys)
        computed = {(snap, positions) for snap, (positions, _) in keys}
        for rec in res.records:
            assert (rec.snapshot, tuple(rec.before.items())) in computed
        counts.append(len(keys))
    assert texts[0] == texts[1]
    assert counts[0] == counts[1]


def test_kernel_applies_the_moves_of_each_computed_step_once(monkeypatch):
    # the oracle's previews and the rounds both get the kernel's step, so
    # no caller applies moves again; every module's name for a function is
    # counted, in case a caller imported it
    counts = {"_step": 0, "apply_actions": 0}
    for name in counts:
        original = getattr(engine, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in (engine, adversary, harness):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    run(make_adversary("sorted_path", 7, variant="comm"),
        {a: 0 for a in range(1, 7)}, make_algorithm("alg3"),
        communication="f2f", max_rounds=60)
    assert counts["_step"] > 0
    assert counts["apply_actions"] == counts["_step"]


# --- the round memo ---


def test_round_memo_returns_the_step_of_equal_inputs():
    alg = make_algorithm("alg3")
    memo: dict = {}
    args = (path4(), Configuration(4, {1: 0, 2: 0}),
            {a: AgentState(id=a) for a in (1, 2)}, alg, "one", "global")
    step = round_step(*args, memo)
    assert round_step(*args, memo) is step
    # equal inputs in new objects find the same step
    again = (Snapshot.from_pairs(4, [(0, 1), (1, 2), (2, 3)]),
             Configuration(4, {1: 0, 2: 0}),
             {a: AgentState(id=a) for a in (1, 2)}, alg, "one", "global")
    assert round_step(*again, memo) is step
    # a different state, or the same placement in another order, is a miss
    other = (args[0], args[1], {1: AgentState(1, t=1), 2: AgentState(2)},
             alg, "one", "global")
    assert round_step(*other, memo) is not step
    swapped = (args[0], Configuration(4, {2: 0, 1: 0}), args[2], alg, "one",
               "global")
    assert round_step(*swapped, memo) is not step
    # one graph, three distinct rounds on it
    assert len(memo) == 1 and len(memo[args[0]]) == 3
    assert round_step(*args) == step


def test_round_memo_builds_no_key_when_no_graph_repeats(monkeypatch):
    sched = gen_random_with_property(5, 12, "t_path", 3, 0.2, 30)
    assert len(set(sched.snapshots)) == sched.rounds
    keys = []
    inputs = engine._inputs
    monkeypatch.setattr(engine, "_inputs",
                        lambda *args: keys.append(1) or inputs(*args))
    run(sched, {a: 0 for a in range(1, 7)}, make_algorithm("alg1_implicit"),
        max_rounds=30)
    assert keys == []
    # a graph that comes again keys its first round and the new one
    again = Schedule([sched.snapshots[0], sched.snapshots[1], sched.snapshots[0]])
    run(again, {a: 0 for a in range(1, 7)}, make_algorithm("alg1_implicit"),
        max_rounds=3)
    assert len(keys) == 2


def test_round_memo_builds_no_key_for_inputs_it_has_seen(monkeypatch):
    # an oracle round follows its preview with the very same configuration
    # and states, and a memo hit hands run and the verifier's replay the
    # step's own objects to carry forward; the memo finds the step of
    # objects it has seen by their identity, so no (snapshot, config,
    # states) triple is ever keyed twice
    calls, keyed, current = [], [], []
    # run, the oracle's round_step and the verifier's all reach the memo
    # through _entry
    original, inputs = engine._entry, engine._inputs

    def recording(snapshot, config, states, *rest):
        calls.append((snapshot, config, states))  # keeps every id unique
        current.append(snapshot)
        try:
            return original(snapshot, config, states, *rest)
        finally:
            current.pop()

    def keying(config, states):
        keyed.append((current[-1], id(config), id(states)))
        return inputs(config, states)

    monkeypatch.setattr(engine, "_entry", recording)
    monkeypatch.setattr(engine, "_inputs", keying)
    make_source, placement, rounds = MEMO_SOURCES["sorted_path:comm"]
    res = run(make_source(), placement, make_algorithm("alg3"),
              communication="f2f", max_rounds=rounds)
    in_run = len(keyed)
    assert harness.verify_trace(res.to_text()).ok
    assert 0 < in_run < len(keyed) < len(calls)
    assert len(set(keyed)) == len(keyed)


# every source repeats graphs and placements; agents in dispersed_n start
# one per node behind the hole at node 0.  The adversaries keep what they
# derive per configuration object; oracles.run_text hands them a fresh
# configuration every round, so it takes their uncached path
MEMO_SOURCES = {
    "ct_dispersion": (lambda: make_adversary("ct_dispersion", 6, k=4, T=3),
                      {a: 0 for a in range(1, 5)}, 30),
    "kt_lower": (lambda: make_adversary("kt_lower", 6, k=4, T=3),
                 {a: 0 for a in range(1, 5)}, 24),
    "exploration_star": (lambda: make_adversary("exploration_star", 6, k=3),
                         {a: 0 for a in range(1, 4)}, 24),
    "two_stars_time": (lambda: make_adversary("two_stars_time", 6),
                       {a: 0 for a in range(1, 4)}, 24),
    "two_stars_time_tpath": (lambda: make_adversary("two_stars_time_tpath",
                                                    6, T=3),
                             {a: 0 for a in range(1, 4)}, 24),
    "ct_exploration": (lambda: make_adversary("ct_exploration", 7, k=4, T=3),
                       {a: 0 for a in range(1, 5)}, 24),
    "tpath_demo": (lambda: oracles.tpath_demo_schedule(24),
                   {a: 0 for a in range(1, 4)}, 24),
    "sorted_path:comm": (lambda: make_adversary("sorted_path", 7,
                                                variant="comm"),
                         {a: 0 for a in range(1, 7)}, 24),
    "sorted_path:visibility": (lambda: make_adversary("sorted_path", 7,
                                                      variant="visibility"),
                               {a: 0 for a in range(1, 7)}, 24),
    "sorted_path:dispersed": (lambda: make_adversary("sorted_path", 7,
                                                     variant="dispersed"),
                              {a: a for a in range(1, 7)}, 24),
    "random:t_path": (lambda: gen_random_with_property(3, 7, "t_path", 3,
                                                       0.15, 24),
                      {a: 0 for a in range(1, 6)}, 24),
}


def _outcome(fn):
    try:
        return fn()
    except (GraphError, EngineError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("source", sorted(MEMO_SOURCES))
def test_round_memo_cannot_be_observed(source):
    make_source, placement, rounds = MEMO_SOURCES[source]
    for name in ALGORITHM_NAMES:
        for visibility in ("zero", "one"):
            for communication in ("global", "f2f"):
                kwargs = dict(visibility=visibility,
                              communication=communication,
                              max_rounds=rounds, T=3)
                got = _outcome(lambda: run(
                    make_source(), placement,
                    make_algorithm(name, T=3), **kwargs).to_text())
                want = _outcome(lambda: oracles.run_text(
                    make_source(), placement,
                    make_algorithm(name, T=3), **kwargs))
                assert got == want, (source, name, visibility, communication)
