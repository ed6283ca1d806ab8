"""Sliding plans and the registered agent programs on small fixed graphs."""

from __future__ import annotations

import random

import pytest

from dispersim import algorithms
from dispersim.adversary import gen_random_with_property
from dispersim.algorithms import COOPERATIVE, disp_plan, make_algorithm
from dispersim.engine import (
    COMMUNICATIONS, STAY, VISIBILITIES, Action, AgentState, Broadcast, Bundle,
    Configuration, EngineError, LocalView, NodeKnowledge, deliver,
    node_views, run, stitch_component,
)
from dispersim.graphs import PROPERTIES, Schedule, Snapshot


def ck_of(*nodes):
    return {nd.key: nd for nd in nodes}


def nk(key, ids, holes=(), links=()):
    return NodeKnowledge(key=key, ids=tuple(ids), hole_ports=tuple(holes),
                         links=tuple(links))


def static(snapshot, rounds):
    return Schedule([snapshot] * rounds)


def path4():
    return Snapshot.from_pairs(4, [(0, 1), (1, 2), (2, 3)])


def star(n):
    return Snapshot.from_pairs(n, [(0, i) for i in range(1, n)])


# --- disp_plan ---


def test_plan_none_without_multinode_or_hole():
    assert disp_plan(ck_of(nk(1, (1,), holes=(0,)))) is None
    assert disp_plan(ck_of(nk(1, (1, 2)), nk(3, (3,), links=((0, 1),)))) is None


def test_plan_direct_hole_at_coordinator():
    plan = disp_plan(ck_of(nk(1, (1, 2), holes=(2, 0))))
    assert plan == ((1, 0),)
    assert plan[-1][1] == 0


def test_plan_shifts_along_path():
    ck = ck_of(
        nk(1, (1, 5), links=((0, 2),)),
        nk(2, (2,), holes=(1,), links=((0, 1),)),
    )
    assert disp_plan(ck) == ((1, 0), (2, 1))


def test_plan_prefers_least_key_coordinator_and_target():
    # two multinodes: coordinator is the one holding agent 1;
    # two equal-distance holes: target is the least key
    ck = ck_of(
        nk(1, (1, 9), links=((0, 2), (1, 3))),
        nk(2, (2,), holes=(0,), links=((0, 1),)),
        nk(3, (3, 4), holes=(0,), links=((0, 1),)),
    )
    plan = disp_plan(ck)
    assert plan == ((1, 0), (2, 0))


def test_plan_parent_choice_is_least_key_discoverer():
    # keys 1 and 2 both link to 4; BFS must route 4 through 1
    ck = ck_of(
        nk(1, (1, 8), links=((0, 2), (1, 4))),
        nk(2, (2,), links=((0, 1), (1, 4))),
        nk(4, (4,), holes=(0,), links=((0, 1), (1, 2))),
    )
    plan = disp_plan(ck)
    assert plan == ((1, 1), (4, 0))


# --- algorithm behavior on fixed graphs ---


def test_a_bundle_keeps_whether_it_hears_a_multinode(monkeypatch):
    # every agent of a component asks; the bundle scans its broadcasts once
    scans = []
    monkeypatch.setattr(algorithms, "any", lambda it: scans.append(1) or any(it),
                        raising=False)
    alg2 = make_algorithm("alg2")

    def step_all(s, c, mode):
        views = node_views(s, c, "one")
        inbox = deliver(s, c, mode, views=views)
        for a, bundle in inbox.items():
            alg2.step(AgentState(a), views[c[a]], bundle)
        return inbox

    inbox = step_all(path4(), Configuration(4, {1: 0, 2: 0, 3: 2}), "global")
    assert len({id(b) for b in inbox.values()}) == 1
    assert inbox[1].actions is not False and len(scans) == 1
    quiet = step_all(path4(), Configuration(4, {1: 0, 2: 2}), "f2f")
    assert all(b.actions is False for b in quiet.values())
    # a plain tuple of broadcasts is answered, and keeps nothing
    assert algorithms._kept(tuple(inbox[1]), "actions",
                            algorithms._plan_actions) == inbox[1].actions


def test_no_cooperative_algorithm_stitches_a_quiet_bundle(monkeypatch):
    # conflicting views are an engine fault: a quiet bundle is not stitched,
    # so no step finds them there, and the plan of a bundle that hears a
    # multinode still does
    stitches = []
    stitch = algorithms.stitch_component
    monkeypatch.setattr(algorithms, "stitch_component",
                        lambda m: stitches.append(1) or stitch(m))
    a = LocalView(degree=1, colocated=(1,), per_port=((),))
    b = LocalView(degree=2, colocated=(1,), per_port=((), ()))
    for name in COOPERATIVE:
        make_algorithm(name, T=1).step(
            AgentState(1), a, Bundle((Broadcast(1, a), Broadcast(2, b))))
    assert stitches == []
    a, b = (LocalView(degree=d, colocated=(1, 2), per_port=((),) * d)
            for d in (1, 2))
    with pytest.raises(EngineError, match="conflicting views"):
        make_algorithm("disp").step(
            AgentState(1), a, Bundle((Broadcast(1, a), Broadcast(2, b))))
    assert stitches == [1]


def test_a_cooperative_step_is_the_plan_or_its_quiet_rule():
    # a bundle that hears a multinode gets the sliding plan, and a quiet
    # count goes back to 0; a quiet one gets each algorithm's own rule
    quiet_rules = {"disp": "stay", "alg1_implicit": "stay",
                   "alg2": "dispersed_one_round"}
    heard = set()
    for placement in ({1: 0, 2: 2}, {1: 1, 2: 3, 3: 0}, {1: 0, 2: 0, 3: 2},
                      {1: 1, 2: 1, 3: 1, 4: 2}, {1: 3, 2: 0, 3: 0}):
        c = Configuration(4, placement)
        views = node_views(path4(), c, "one")
        for mode in COMMUNICATIONS:
            for a, bundle in deliver(path4(), c, mode, views=views).items():
                # a plain tuple keeps nothing, so each step computes afresh
                msgs, view = tuple(bundle), views[c[a]]
                multi = any(len(b.view.colocated) > 1 for b in msgs)
                heard.add(multi)
                plan = dict(disp_plan(stitch_component(msgs)) or ())
                walkers = [(b.sender, b.view.hole_ports()[0]) for b in msgs
                           if b.view.hole_ports()]
                for name in COOPERATIVE:
                    alg = make_algorithm(name, T=2)
                    for t in (0, 1):
                        if name != "alg1_explicit" and t:
                            continue
                        got = alg.step(AgentState(a, t), view, msgs)
                        if multi:
                            want = (Action(port=plan[a]) if a in plan
                                    else STAY), AgentState(a)
                        elif name == "alg1_explicit":
                            want = (Action(terminate=True) if t else STAY,
                                    AgentState(a, t + 1))
                        elif name == "alg3":
                            want = (Action(port=walkers[0][1])
                                    if walkers and walkers[0][0] == a
                                    else STAY), AgentState(a)
                        else:
                            want = make_algorithm(quiet_rules[name]).step(
                                AgentState(a), view, msgs)
                        assert got == want, (name, placement, mode, a, t)
    assert heard == {False, True}


def test_alg1_implicit_is_disp_under_another_name():
    rng = random.Random(22)
    for prop in PROPERTIES:
        for visibility in VISIBILITIES:
            for communication in COMMUNICATIONS:
                for _ in range(10):
                    n, T = rng.randint(3, 8), rng.randint(1, 3)
                    sched = gen_random_with_property(
                        rng.randrange(10**6), n, prop, T, rng.random() / 2, 16)
                    placement = {a: rng.randrange(n)
                                 for a in range(1, rng.randint(2, n) + 1)}
                    disp, alg1 = (run(sched, placement, make_algorithm(name),
                                      visibility=visibility,
                                      communication=communication,
                                      max_rounds=16).to_text()
                                  for name in ("disp", "alg1_implicit"))
                    assert alg1 == disp.replace(" algorithm=disp ",
                                                " algorithm=alg1_implicit ", 1)


def test_a_quiet_bundle_keeps_its_walker(monkeypatch):
    # agents 1 and 4 both see a hole and no multinode is heard: only the
    # lesser ID walks, through its least hole port, whichever agent asks
    # first, and the bundle scans for its walker once
    scans = []
    walker = algorithms._walker
    monkeypatch.setattr(algorithms, "_walker",
                        lambda m: scans.append(1) or walker(m))
    s = Snapshot.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    c = Configuration(5, {1: 2, 4: 1})
    views = node_views(s, c, "one")
    assert views[2].hole_ports() == (1,) and views[1].hole_ports() == (0,)
    inbox = deliver(s, c, "global", views=views)
    alg3 = make_algorithm("alg3")
    moves = {a: alg3.step(AgentState(a), views[c[a]], inbox[a])[0]
             for a in (4, 1)}
    assert moves == {4: STAY, 1: Action(port=1)}
    assert len(scans) == 1 and inbox[4].walker == {1: Action(port=1)}


def test_alg1_explicit_on_static_path():
    # all four agents start together; plans disperse them in 3 rounds and
    # T=1 lets everyone terminate one quiet round later
    res = run(static(path4(), 10), {1: 1, 2: 1, 3: 1, 4: 1},
              make_algorithm("alg1_explicit", T=1), max_rounds=10, T=1)
    assert res.dispersed_at == 2
    assert res.all_terminated_at == 3
    assert not res.budget_exhausted
    assert sorted(res.final.values()) == [0, 1, 2, 3]


def test_alg1_implicit_never_terminates():
    res = run(static(path4(), 10), {1: 1, 2: 1, 3: 1, 4: 1},
              make_algorithm("alg1_implicit"), max_rounds=10, T=1)
    assert res.dispersed_at == 2
    assert res.all_terminated_at is None
    assert res.budget_exhausted


def test_alg1_explicit_requires_T():
    with pytest.raises(ValueError):
        make_algorithm("alg1_explicit")


def test_alg2_explores_star_and_terminates():
    res = run(static(star(4), 10), {1: 0, 2: 0, 3: 0},
              make_algorithm("alg2"), max_rounds=10)
    assert res.explored_at == 2
    assert res.all_terminated_at == 2
    assert res.dispersed_at == 1
    # the last two movers leave the center for distinct leaves
    assert sorted(res.final.values()) == [1, 2, 3]


def test_alg2_can_end_with_a_multinode():
    # two agents, both seeing the same single hole, may both enter it on
    # their terminating round; exploration still succeeded
    two = Snapshot.from_pairs(3, [(0, 2), (1, 2)])
    res = run(static(two, 5), {1: 0, 2: 1}, make_algorithm("alg2"),
              max_rounds=5)
    assert res.explored_at == 0
    assert res.all_terminated_at == 0
    assert res.final == {1: 2, 2: 2}


def test_dispersed_one_round_full_and_partial():
    # k = n dispersed: nothing to see, everyone terminates in place
    res = run(static(path4(), 3), {1: 0, 2: 1, 3: 2, 4: 3},
              make_algorithm("dispersed_one_round"), max_rounds=3)
    assert res.explored_at == 0
    assert res.all_terminated_at == 0
    assert res.final == {1: 0, 2: 1, 3: 2, 4: 3}
    # k = n-1 dispersed on a star: the center agent fills the last hole
    res = run(static(star(4), 3), {1: 0, 2: 1, 3: 2},
              make_algorithm("dispersed_one_round"), max_rounds=3)
    assert res.explored_at == 0
    assert res.all_terminated_at == 0
    assert res.final[1] == 3


def test_alg3_walks_holes_when_quiet():
    # k = n-1 dispersed: the single hole gets entered on the first quiet
    # round by the least agent beside it, then the walk chases the hole
    res = run(static(path4(), 6), {1: 0, 2: 1, 3: 2},
              make_algorithm("alg3"), max_rounds=6)
    assert res.explored_at == 0
    assert res.all_terminated_at is None
    movers = [a for a, act in res.records[0].actions.items()
              if act.port is not None]
    assert movers == [3]  # only agent 3 sits beside the hole at round 0


def test_greedy_port0_marches():
    res = run(static(path4(), 2), {1: 3}, make_algorithm("greedy_port0"),
              max_rounds=2)
    assert res.records[0].actions[1].port == 0
    assert res.final[1] == 1  # 3 -> 2 -> 1 via port 0


def test_zero_hop_visibility_disables_hole_hunting():
    # without per-port views no plan ever finds a hole: everyone stays
    res = run(static(path4(), 4), {1: 1, 2: 1}, make_algorithm("alg1_implicit"),
              visibility="zero", max_rounds=4)
    assert res.final == {1: 1, 2: 1}
    assert res.dispersed_at is None


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        make_algorithm("alg9")
