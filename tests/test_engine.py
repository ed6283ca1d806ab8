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
from dispersim.adversary import (
    ADVERSARY_KINDS, Periodic, RandomRounds, gen_random_with_property,
    make_adversary,
)
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
            degree = len(snap.ports.get(v, ()))
            assert len(view.per_port) == view.degree == degree
            for p in range(view.degree):
                assert view.per_port[p] == config.ids_at(snap.neighbor(v, p))
            assert view.hole_ports() == tuple(
                p for p in range(view.degree)
                if not config.ids_at(snap.neighbor(v, p)))


def test_deliver_global_vs_f2f():
    s = path4()
    c = Configuration(4, {1: 0, 2: 2, 3: 2})
    inbox = deliver(s, c, "global", views=node_views(s, c, "one"))
    assert [b.sender for b in inbox[1]] == [1, 2, 3]  # own broadcast included
    assert inbox[1] is inbox[2]  # one shared bundle per component
    inbox_f2f = deliver(s, c, "f2f", views=node_views(s, c, "one"))
    assert [b.sender for b in inbox_f2f[1]] == [1]
    assert [b.sender for b in inbox_f2f[2]] == [2, 3]


def test_deliver_excludes_terminated_but_views_keep_them():
    s = path4()
    c = Configuration(4, {1: 1, 2: 2})
    inbox = deliver(s, c, "global", views=node_views(s, c, "one"),
                    terminated={2})
    assert 2 not in inbox
    assert [b.sender for b in inbox[1]] == [1]
    # the terminated agent still occupies node 2 in agent 1's view
    view = node_views(s, c, "one")[1]
    assert view.per_port[1] == (2,)


def test_stitch_component_builds_node_graph():
    s = path4()
    c = Configuration(4, {1: 1, 2: 1, 3: 2})
    inbox = deliver(s, c, "global", views=node_views(s, c, "one"))
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
        assert records == list(enumerate(res.records))
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
    parsed = [block for _, block in parse_trace(res.to_text())[1]]
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
    # to_text formats each distinct Block once, by its id, and a snapshot
    # or configuration keeps its text; fresh Blocks of fresh equal values,
    # one per round, write the same bytes
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
    # so the same states) is the Block of the memo's step itself
    claim = CLAIMS["ct_dispersion"]
    res = run_claim(claim, claim.rows[0]).result
    blocks = res.records
    assert len({id(block) for block in blocks}) < len(blocks)
    first = {}
    for block in blocks:
        key = (block.snapshot, id(block.before))
        assert first.setdefault(key, block) is block


def test_a_post_and_the_next_pos_share_one_placement_text():
    claim = CLAIMS["ct_dispersion"]
    res = run_claim(claim, claim.rows[0]).result
    blocks = res.records
    assert len({id(block) for block in blocks}) < len(blocks)
    text = res.to_text()
    for prev, block in zip(blocks, blocks[1:]):
        post = engine._placement_text(prev.after)
        assert post is engine._placement_text(block.before)
        assert f"\npost:{post}\n" in text
    assert res.to_text() == text


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
    step = round_step(s, config, states, make_algorithm("alg2"), "one",
                      "global", {})
    assert all(act.terminate for act in step.block.actions.values())
    assert step.states == {}
    assert states == {a: AgentState(id=a) for a in (1, 2)}
    assert step.block.components == [[0, 1, 2, 3]]
    assert step.block.messages == 4


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
    equal object, so the run computes again each round it previewed."""

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
    variant, alg, placement, visibility, communication
):
    # the run and the oracle share one memo; an adversary that emits an
    # equal copy of the previewed graph writes the same trace
    texts = []
    for wrap in (False, True):
        adv = make_adversary("sorted_path", 7, variant=variant)
        res = run(_Reemit(adv) if wrap else adv, placement,
                  make_algorithm(alg), visibility=visibility,
                  communication=communication, max_rounds=40)
        texts.append(res.to_text())
    assert texts[0] == texts[1]


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


def test_a_run_ends_its_steps_in_one_configuration_per_placement():
    # a placement reached again is the same object, so a round that
    # repeats an earlier one is found by identity and records its block:
    # a run has one block per distinct block text
    res = run(make_adversary("ct_dispersion", 5, k=4, T=3),
              {a: 0 for a in range(1, 5)}, make_algorithm("alg1_implicit"),
              max_rounds=240, T=3)
    afters = {}
    for rec in res.records:
        assert afters.setdefault(tuple(rec.after.items()), rec.after) is rec.after
    body = res.to_text().rsplit("\nend ", 1)[0]
    texts = {chunk.split("\n", 1)[1] for chunk in body.split("\nround r=")[1:]}
    assert len({id(rec) for rec in res.records}) == len(texts) < res.rounds


def test_a_quiet_alg1_implicit_run_computes_one_round(monkeypatch):
    # alg1_implicit keeps no counter: on a static path from a dispersed
    # start every round has the inputs of the first, which the memo serves
    steps = []
    original = engine._step
    monkeypatch.setattr(engine, "_step",
                        lambda *args: steps.append(1) or original(*args))
    snap = Snapshot.from_pairs(5, [(v, v + 1) for v in range(4)])
    res = run(Schedule([snap] * 50), {1: 0, 2: 2, 3: 4},
              make_algorithm("alg1_implicit"), max_rounds=50)
    assert res.rounds == 50 and res.budget_exhausted
    assert len(steps) == 1


# every source repeats graphs and placements; agents in
# sorted_path:dispersed start one per node behind the hole at node 0, and
# in equal_graphs one per node on a path whose every round is an equal
# graph in an object of its own, so its rounds repeat only by value.  The adversaries and perpetual_demo have
# a state key, and their budgets reach past the first round whose key,
# configuration and states repeat, from which run fast-forwards;
# oracles.run_text queries every round.  The fixed schedules have no key,
# and their budgets are their lengths
MEMO_SOURCES = {
    "ct_dispersion": (lambda: make_adversary("ct_dispersion", 6, k=4, T=3),
                      {a: 0 for a in range(1, 5)}, 80),
    "ct_dispersion:spread": (lambda: make_adversary("ct_dispersion", 6, k=4,
                                                    T=4),
                             {1: 0, 2: 1, 3: 2, 4: 0}, 80),
    "kt_lower": (lambda: make_adversary("kt_lower", 6, k=4, T=3),
                 {a: 0 for a in range(1, 5)}, 80),
    "exploration_star": (lambda: make_adversary("exploration_star", 6, k=3),
                         {a: 0 for a in range(1, 4)}, 80),
    "two_stars_time": (lambda: make_adversary("two_stars_time", 6),
                       {a: 0 for a in range(1, 4)}, 80),
    "two_stars_time_tpath": (lambda: make_adversary("two_stars_time_tpath",
                                                    6, T=3),
                             {a: 0 for a in range(1, 4)}, 80),
    "ct_exploration": (lambda: make_adversary("ct_exploration", 7, k=4, T=3),
                       {a: 0 for a in range(1, 5)}, 80),
    "perpetual_demo": (lambda: Periodic("perpetual_demo"),
                       {a: 0 for a in range(1, 4)}, 80),
    "tpath_demo": (lambda: oracles.tpath_demo_schedule(24),
                   {a: 0 for a in range(1, 4)}, 24),
    "sorted_path:comm": (lambda: make_adversary("sorted_path", 7,
                                                variant="comm"),
                         {a: 0 for a in range(1, 7)}, 80),
    "sorted_path:visibility": (lambda: make_adversary("sorted_path", 7,
                                                      variant="visibility"),
                               {a: 0 for a in range(1, 7)}, 80),
    "sorted_path:dispersed": (lambda: make_adversary("sorted_path", 7,
                                                     variant="dispersed"),
                              {a: a for a in range(1, 7)}, 80),
    "random:t_path": (lambda: gen_random_with_property(3, 7, "t_path", 3,
                                                       0.15, 24),
                      {a: 0 for a in range(1, 6)}, 24),
    "equal_graphs": (lambda: Schedule(
        Snapshot.from_pairs(6, [(v, v + 1) for v in range(5)])
        for _ in range(24)), {a: a for a in range(1, 5)}, 24),
}


# stateless algorithms on the cycling adversaries: each step hands back
# the states object it was given
STATELESS_RUNS = {
    "alg1_implicit:ct_dispersion": (
        lambda: make_adversary("ct_dispersion", 8, k=6, T=3),
        {a: 0 for a in range(1, 7)}, "alg1_implicit", "global", 360),
    "alg3:sorted_path": (
        lambda: make_adversary("sorted_path", 7, variant="comm"),
        {a: 0 for a in range(1, 7)}, "alg3", "f2f", 60),
}


def _stateless_run(name):
    """The run of ``STATELESS_RUNS[name]`` and the states object that its
    source was handed in each round."""
    make_source, placement, alg, communication, rounds = STATELESS_RUNS[name]
    source, handed = make_source(), []
    emit = source.next_snapshot

    def recording(r, config, states):
        handed.append(states)
        return emit(r, config, states)

    source.next_snapshot = recording
    res = run(source, placement, make_algorithm(alg, T=3),
              communication=communication, max_rounds=rounds, T=3)
    return res, handed


@pytest.mark.parametrize("name", sorted(STATELESS_RUNS))
def test_a_stateless_run_carries_one_states_object(name):
    # the run queries its source until the source's state repeats
    res, handed = _stateless_run(name)
    assert res.rounds == STATELESS_RUNS[name][-1]
    assert len(handed) == {"alg1_implicit:ct_dispersion": 10,
                           "alg3:sorted_path": 3}[name]
    assert handed[0] == {a: AgentState(id=a) for a in res.records[0].before}
    assert all(states is handed[0] for states in handed)


@pytest.mark.parametrize("name", sorted(STATELESS_RUNS))
def test_verify_replays_each_distinct_block_of_a_stateless_run_once(
    monkeypatch, name
):
    text = _stateless_run(name)[0].to_text()
    _, rounds, _ = parse_trace(text)
    distinct = {id(block) for _, block in rounds}
    assert len(distinct) < len(rounds)
    calls = []
    original = harness.round_step
    monkeypatch.setattr(harness, "round_step",
                        lambda *args: calls.append(1) or original(*args))
    assert harness.verify_trace(text).ok
    assert len(calls) == len(distinct)


def _run_text(source, placement, algorithm, **kwargs):
    """``run(...).to_text()``; a schedule's records are its own rounds,
    each starting where the last one led, and the run ends where its last
    round led."""
    res = run(source, placement, algorithm, **kwargs)
    assert res.final is res.records[-1].after
    if isinstance(source, Schedule):
        for r, block in enumerate(res.records):
            assert block.snapshot is source.snapshots[r]
            assert r == 0 or block.before is res.records[r - 1].after
    return res.to_text()


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
                got = _outcome(lambda: _run_text(
                    make_source(), placement,
                    make_algorithm(name, T=3), **kwargs))
                want = _outcome(lambda: oracles.run_text(
                    make_source(), placement,
                    make_algorithm(name, T=3), **kwargs))
                assert got == want, (source, name, visibility, communication)


def test_every_adversary_kind_has_a_memo_source():
    assert set(ADVERSARY_KINDS) <= {name.partition(":")[0]
                                    for name in MEMO_SOURCES}


def _block_walk(state, view, msgs):
    """A lone agent exits through port 0; the agents of a multinode stay on
    a leaf and otherwise leave together through its last port."""
    if view.degree == 0 or len(view.colocated) > 1 and view.degree == 1:
        return STAY, state
    if len(view.colocated) == 1:
        return Action(port=0), state
    return Action(port=view.degree - 1), state


def test_ct_exploration_keys_its_pending_b_round(monkeypatch):
    # the configuration after a B-round need not tell which node the
    # B-round attached, so the key keeps it: under this algorithm a
    # multinode can leave its node whole, and rounds 2 and 10 start from one
    # configuration and partner, node 1, with the B-round at node 2 and at
    # node 0 pending; a key without it repeats round 2 from round 10 on
    make_source = lambda: make_adversary("ct_exploration", 6, k=3, T=2)
    placement = {1: 0, 2: 2, 3: 3}
    algorithm = engine.Algorithm("block_walk", _block_walk)
    kwargs = dict(visibility="zero", communication="f2f", max_rounds=40, T=2)
    want = oracles.run_text(make_source(), placement, algorithm, **kwargs)
    assert _run_text(make_source(), placement, algorithm, **kwargs) == want
    monkeypatch.setattr(adversary.CtExploration, "state_key",
                        lambda self, r: (min(r, 1), r % self.T, self.partner))
    assert _run_text(make_source(), placement, algorithm, **kwargs) != want


def _counted(source):
    """``source``, counting in ``source.queries`` the rounds it is asked
    for."""
    source.queries, emit = 0, source.next_snapshot

    def counting(r, config, states):
        source.queries += 1
        return emit(r, config, states)

    source.next_snapshot = counting
    return source


class _Keyless:
    """A source's node count and rounds, without its state key."""

    def __init__(self, inner):
        self.n, self.next_snapshot = inner.n, inner.next_snapshot


def test_a_cycling_run_queries_its_source_until_its_state_repeats():
    # the keyless copy is queried every round and gives the same trace
    texts = []
    for keyless, queries in ((False, 17), (True, 400)):
        source = make_adversary("ct_dispersion", 10, k=10, T=2)
        source = _counted(_Keyless(source) if keyless else source)
        res = run(source, {a: 0 for a in range(1, 11)},
                  make_algorithm("alg1_implicit"), max_rounds=400, T=2)
        assert res.rounds == 400 and res.budget_exhausted
        assert source.queries == queries
        texts.append(res.to_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("make_source, k", [
    (lambda: oracles.tpath_demo_schedule(24), 3),
    (lambda: RandomRounds(3, 7, "t_path", 3, 0.15, 24), 5),
], ids=["Schedule", "RandomRounds"])
def test_a_keyless_source_is_queried_every_round(make_source, k):
    counted = _counted(make_source())
    placement = {a: 0 for a in range(1, k + 1)}
    kwargs = dict(max_rounds=24, T=3)
    text = run(counted, placement, make_algorithm("disp"), **kwargs).to_text()
    assert counted.queries == 24
    assert text == oracles.run_text(make_source(), placement,
                                    make_algorithm("disp"), **kwargs)


@pytest.mark.parametrize("source", sorted(
    set(MEMO_SOURCES) - {"equal_graphs", "random:t_path"}))
def test_round_memo_computes_equal_rounds_on_a_shared_graph_once(
    monkeypatch, source
):
    # these sources emit a graph that comes again as the same object, and
    # every step ends in the memo's objects, so a round that repeats an
    # earlier one by value is found by identity: neither run nor the
    # verifier's replay computes equal inputs twice on one graph object
    steps = []
    original = engine._step

    def recording(snapshot, config, states, *rest):
        steps.append((snapshot, config, states))  # keeps every id unique
        return original(snapshot, config, states, *rest)

    monkeypatch.setattr(engine, "_step", recording)
    make_source, placement, rounds = MEMO_SOURCES[source]
    for name in ALGORITHM_NAMES:
        for visibility in ("zero", "one"):
            for communication in ("global", "f2f"):
                case = (name, visibility, communication)
                steps.clear()
                res = run(make_source(), placement, make_algorithm(name, T=3),
                          visibility=visibility, communication=communication,
                          max_rounds=rounds, T=3)
                in_run = len(steps)
                harness.verify_trace(res.to_text())
                assert 0 < in_run < len(steps), case
                keys = [(id(snapshot), tuple(config.items()),
                         tuple(states.items()))
                        for snapshot, config, states in steps]
                assert len(set(keys)) == len(keys), case


def test_a_run_ends_its_steps_in_one_states_dict_per_value(monkeypatch):
    # alg1_explicit keeps a round counter, which comes back to its earlier
    # values with the adversary's phases; a states value reached again is
    # the earlier dict, so its rounds are found by identity: run and the
    # verifier's replay each compute 9 of 200 rounds, and run queries its
    # source for 9 of them
    steps = []
    original = engine._step
    monkeypatch.setattr(engine, "_step",
                        lambda *args: steps.append(1) or original(*args))
    source, handed = make_adversary("ct_dispersion", 8, k=5, T=3), []
    emit = source.next_snapshot

    def recording(r, config, states):
        handed.append(states)
        return emit(r, config, states)

    source.next_snapshot = recording
    res = run(source, {a: 0 for a in range(1, 6)},
              make_algorithm("alg1_explicit", T=3), max_rounds=200, T=3)
    assert res.rounds == 200 and len(handed) == 9
    assert len(steps) == 9
    first = {}
    for states in handed:
        assert first.setdefault(tuple(states.items()), states) is states
    assert len(first) < len(handed)
    steps.clear()
    assert harness.verify_trace(res.to_text()).ok
    assert len(steps) == 9
