"""Round semantics: views, delivery, stitching, moves, runs, traces."""

from __future__ import annotations

from pathlib import Path

import pytest

from dispersim.engine import (
    Action,
    AgentState,
    Configuration,
    EngineError,
    NodeKnowledge,
    STAY,
    apply_actions,
    compute_preview,
    deliver,
    node_views,
    round_step,
    run,
    stitch_component,
)
from dispersim import algorithms, engine
from dispersim.adversary import gen_random_with_property, make_adversary
from dispersim.algorithms import ALGORITHM_NAMES, make_algorithm
from dispersim.graphs import GraphError, Schedule, Snapshot

import oracles

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
    assert c.occupied() == [0, 2]
    assert c.holes() == [1, 3, 4]
    assert c.multinodes() == [2]
    assert not c.is_dispersed()
    assert Configuration(3, {1: 0, 2: 1}).is_dispersed()


def test_views_zero_vs_one_hop():
    s = path4()
    c = Configuration(4, {1: 1, 2: 1, 3: 2})
    v0 = node_views(s, c, "zero")[1]
    assert v0.per_port is None and v0.degree == 2 and v0.colocated == (1, 2)
    v1 = node_views(s, c, "one")[1]
    assert [pv.occupants for pv in v1.per_port] == [(), (3,)]
    assert v1.hole_ports() == (0,)


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
    assert view.per_port[1].occupants == (2,)


def test_stitch_component_builds_node_graph():
    s = path4()
    c = Configuration(4, {1: 1, 2: 1, 3: 2})
    inbox = deliver(s, c, "global")
    ck = stitch_component(inbox[1])
    assert set(ck.nodes) == {1, 3}
    assert ck.nodes[1].ids == (1, 2)
    assert ck.nodes[1].hole_ports == (0,)
    assert ck.nodes[1].links == ((1, 3),)
    assert ck.nodes[3].links == ((0, 1),)
    assert ck.multinode_keys() == [1]


def test_stitch_rejects_conflicting_views():
    from dispersim.engine import Broadcast, LocalView

    va = LocalView(degree=1, colocated=(1, 2), per_port=None)
    vb = LocalView(degree=2, colocated=(1, 2), per_port=None)
    with pytest.raises(EngineError):
        stitch_component((Broadcast(1, 2, va), Broadcast(2, 2, vb)))


def test_apply_actions_simultaneous_and_faults():
    s = path4()
    c = Configuration(4, {1: 1, 2: 2})
    after = apply_actions(s, c, {1: Action(port=1), 2: Action(port=0)})
    assert after.positions == {1: 2, 2: 1}  # swap, no collision logic
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
    for rec in res.records:
        movers = [a for a, act in rec.actions.items() if act.port is not None]
        if rec.r % 6 in (1, 3, 5):
            assert movers == [3]
        else:
            assert movers == []
    assert res.final.positions == {1: 0, 2: 0, 3: 1}  # back to start


def test_compute_preview_is_pure_and_matches_run():
    sch = Schedule.load(DATA / "perpetual_demo.sched")
    alg = make_algorithm("alg3")
    config = Configuration(4, {1: 0, 2: 0, 3: 1})
    states = {a: AgentState(id=a) for a in (1, 2, 3)}
    preview = compute_preview(sch.snapshot(0), config, states, alg, "one", "global")
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
        return Snapshot(snap.n, snap.edges)


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
    again = Schedule([sched.snapshot(0), sched.snapshot(1), sched.snapshot(0)])
    run(again, {a: 0 for a in range(1, 7)}, make_algorithm("alg1_implicit"),
        max_rounds=3)
    assert len(keys) == 2


# every source repeats graphs and placements; agents in dispersed_n start
# one per node behind the hole at node 0
MEMO_SOURCES = {
    "ct_dispersion": (lambda: make_adversary("ct_dispersion", 6, k=4, T=3),
                      {a: 0 for a in range(1, 5)}, 30),
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
