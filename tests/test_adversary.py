"""Generators and adaptive adversaries: emitted prefixes carry the claimed
window property, and the attacked outcome bounds hold exactly."""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import pytest

from dispersim.adversary import (
    AdversaryError,
    CtDispersion,
    RandomRounds,
    SortedPath,
    gen_random_with_property,
    make_adversary,
)
from dispersim.algorithms import ALGORITHM_NAMES, make_algorithm
from dispersim.claims import CLAIMS, run_claim
from dispersim.engine import (
    Action, Algorithm, Configuration, STAY, compute_preview, run,
)
from dispersim.graphs import Schedule, Snapshot, check_property

import oracles
from oracles import (
    ctime_demo_schedule,
    perpetual_demo_schedule,
    tpath_demo_schedule,
)

DATA = Path(__file__).parent / "data"


def colocated(k, node=0):
    return {a: node for a in range(1, k + 1)}


def one_per_node(k):
    return {a: a - 1 for a in range(1, k + 1)}


# --- reference builders match the committed files ---


def test_reference_builders_match_committed_files():
    assert tpath_demo_schedule(9).to_text() == (DATA / "tpath_demo.sched").read_text()
    assert ctime_demo_schedule(9).to_text() == (DATA / "ctime_demo.sched").read_text()
    assert (
        perpetual_demo_schedule(18).to_text()
        == (DATA / "perpetual_demo.sched").read_text()
    )


# --- random generator ---


def test_gen_random_guarantees_property():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 8)
        T = rng.randint(1, 5)
        prop = rng.choice(["t_interval", "t_path", "connectivity_time"])
        rounds = rng.randint(T, 3 * T + 4)
        sch = gen_random_with_property(
            rng.randrange(10**6), n, prop, T, rng.uniform(0, 0.6), rounds
        )
        assert check_property(sch, prop, T).holds, (n, prop, T, rounds)


def test_gen_random_is_deterministic():
    a = gen_random_with_property(42, 6, "t_path", 3, 0.3, 12)
    b = gen_random_with_property(42, 6, "t_path", 3, 0.3, 12)
    assert a.to_text() == b.to_text()
    c = gen_random_with_property(43, 6, "t_path", 3, 0.3, 12)
    assert a.to_text() != c.to_text()


@pytest.mark.parametrize("prop", ["t_interval", "t_path", "connectivity_time"])
def test_random_rounds_read_lazily_are_the_full_schedules(prop):
    n, T, density, rounds = 6, 3, 0.3, 14
    for seed in range(20):
        want = [Snapshot.from_pairs(n, pairs) for pairs in
                oracles.random_pairs_reference(seed, n, prop, T, density, rounds)]
        assert list(gen_random_with_property(
            seed, n, prop, T, density, rounds).snapshots) == want
        # a run reads rounds in order and may stop at any of them
        for stop in (1, T, rounds):
            source = RandomRounds(seed, n, prop, T, density, rounds)
            got = [source.next_snapshot(r, None, None) for r in range(stop)]
            assert got == want[:stop]


def test_t_interval_rounds_keep_no_trees_ahead():
    # the trees come first in the stream: reading three rounds of a long
    # schedule steps past all of them but keeps none
    seed, n, T, density, rounds = 0, 4, 2, 0.3, 20000
    want = oracles.random_pairs_reference(seed, n, "t_interval", T, density,
                                          rounds)[:3]
    tracemalloc.start()
    try:
        source = RandomRounds(seed, n, "t_interval", T, density, rounds)
        got = [source.next_snapshot(r, None, None) for r in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [Snapshot.from_pairs(n, pairs) for pairs in want]
    assert peak < 500_000


def test_gen_random_validates():
    for bad in (
        dict(n=0, prop="t_path", T=1, density=0.5, rounds=3),
        dict(n=3, prop="t_path", T=0, density=0.5, rounds=3),
        dict(n=3, prop="t_path", T=4, density=0.5, rounds=3),
        dict(n=3, prop="t_path", T=1, density=1.5, rounds=3),
        dict(n=3, prop="frequent", T=1, density=0.5, rounds=3),
    ):
        with pytest.raises(AdversaryError):
            gen_random_with_property(seed=1, **bad)


# --- kt_lower ---


def test_kt_lower_exact_dispersion_round():
    k, T, n = 5, 4, 7
    adv = make_adversary("kt_lower", n, k=k, T=T)
    res = run(adv, colocated(k), make_algorithm("alg1_explicit", T=T),
              max_rounds=(k - 1) * (T - 1) + T + 2, T=T)
    assert res.dispersed_at == (k - 1) * (T - 1)
    prefix = res.schedule_prefix()
    assert check_property(prefix, "t_path", T).holds
    assert not check_property(prefix, "t_path", T - 1).holds


def test_kt_lower_rejects_spread_start():
    adv = make_adversary("kt_lower", 6, k=3, T=2)
    with pytest.raises(AdversaryError):
        run(adv, one_per_node(3), make_algorithm("alg1_implicit"), max_rounds=4)


# --- ct_dispersion ---


def test_ct_dispersion_blocks_dispersion_forever():
    n, k, T = 6, 4, 3
    adv = make_adversary("ct_dispersion", n, k=k, T=T)
    budget = 20 * k * T
    res = run(adv, colocated(k), make_algorithm("alg1_implicit"),
              max_rounds=budget, T=T)
    assert res.dispersed_at is None
    assert res.rounds == budget
    prefix = res.schedule_prefix()
    assert check_property(prefix, "connectivity_time", T).holds
    assert not check_property(prefix, "connectivity_time", T - 1).holds


def test_ct_dispersion_rejects_dispersed_start():
    adv = make_adversary("ct_dispersion", 6, k=3, T=3)
    with pytest.raises(AdversaryError):
        run(adv, one_per_node(3), make_algorithm("alg1_implicit"), max_rounds=4)


def test_ct_dispersion_raises_again_on_a_configuration_it_refused():
    # a phase graph is kept per configuration and phase parity only when
    # it was built, so a refused configuration is refused every time
    adv = make_adversary("ct_dispersion", 5, k=3, T=2)
    dispersed = Configuration(5, {1: 0, 2: 1, 3: 2})
    for r in range(4):  # each phase parity twice
        with pytest.raises(AdversaryError, match="non-dispersed"):
            adv.next_snapshot(r, dispersed)
    # too few holes for an even phase, a multinode for an odd one
    adv = make_adversary("ct_dispersion", 5, k=3, T=2)
    crowded = Configuration(5, {1: 0, 2: 0, 3: 1, 4: 2})
    for r in range(4):
        if r % 2:
            assert adv.next_snapshot(r, crowded).pairs == frozenset(
                {(1, 2), (1, 3), (1, 4)})
        else:
            with pytest.raises(AdversaryError, match="expected >= 3 holes"):
                adv.next_snapshot(r, crowded)


# --- exploration_star ---


def test_exploration_star_protects_last_node():
    n = 8
    k = n - 2
    adv = make_adversary("exploration_star", n, k=k)
    res = run(adv, one_per_node(k), make_algorithm("alg3"), max_rounds=50 * n)
    visited = set(one_per_node(k).values())
    for rec in res.records:
        visited.update(rec.after.values())
    assert n - 1 not in visited
    assert res.explored_at is None
    assert check_property(res.schedule_prefix(), "t_interval", 1).holds


def test_exploration_star_rejects_k_above_n_minus_2():
    with pytest.raises(AdversaryError):
        make_adversary("exploration_star", 6, k=5)


# --- two_stars_time ---


def test_two_stars_time_forces_n_minus_2_rounds():
    n = 10
    k = n - 1
    adv = make_adversary("two_stars_time", n)
    res = run(adv, colocated(k), make_algorithm("alg2"), max_rounds=2 * n)
    assert res.explored_at == n - 2
    assert res.all_terminated_at == n - 2
    assert check_property(res.schedule_prefix(), "t_interval", 1).holds


def test_two_stars_time_tpath_scales_with_T():
    n, T = 8, 3
    k = n - 1
    adv = make_adversary("two_stars_time_tpath", n, T=T)
    res = run(adv, colocated(k), make_algorithm("alg3"),
              max_rounds=(n + 1) * T, T=T)
    assert res.explored_at == (n - 1) * (T - 1)
    assert res.explored_at >= (n - 2) * (T - 1)
    assert check_property(res.schedule_prefix(), "t_path", T).holds


# --- ct_exploration ---


def test_ct_exploration_protects_target():
    n, T = 7, 3
    k = n - 2
    adv = make_adversary("ct_exploration", n, k=k, T=T)
    res = run(adv, one_per_node(k), make_algorithm("alg3"),
              max_rounds=50 * n * T, T=T)
    target = n - 1  # second least initial hole: holes are n-2, n-1
    visited = set(one_per_node(k).values())
    for rec in res.records:
        visited.update(rec.after.values())
    assert target not in visited
    assert res.explored_at is None
    prefix = res.schedule_prefix()
    assert check_property(prefix, "connectivity_time", T).holds
    assert not check_property(prefix, "connectivity_time", T - 1).holds


def test_ct_exploration_works_for_alg2_too():
    n, T = 6, 2
    k = n - 2
    adv = make_adversary("ct_exploration", n, k=k, T=T)
    res = run(adv, one_per_node(k), make_algorithm("alg2"),
              max_rounds=50 * n * T, T=T)
    visited = set(one_per_node(k).values())
    for rec in res.records:
        visited.update(rec.after.values())
    assert n - 1 not in visited


# --- sorted_path ---


def conveyor() -> Algorithm:
    """Zero-hop test mover: on a path layout it shifts the line rightward
    (min ID stays at a pair), reaching dispersion in one step when the
    layout is (2,1,...,1,0,0)."""

    def step(state, view, msgs):
        if len(view.colocated) == 2 and state.id != min(view.colocated):
            return STAY, state
        if len(view.colocated) > 2:
            return STAY, state
        if view.degree == 0:
            return STAY, state
        port = 0 if view.degree == 1 else 1
        return Action(port=port), state

    return Algorithm("conveyor", step)


def test_sorted_path_swap_preserves_zero_hop_decisions():
    from dispersim.adversary import SortedPath
    from dispersim.engine import AgentState, Configuration

    n = 7
    positions = {1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4}
    config = Configuration(n, positions)
    states = {a: AgentState(id=a) for a in positions}
    order = list(range(n))
    straight = SortedPath._path(order)
    swapped = SortedPath._swapped(order)
    alg = conveyor()
    for snap in (straight, swapped):
        preview = compute_preview(snap, config, states, alg, "zero", "global")
        assert preview == compute_preview(
            straight, config, states, alg, "zero", "global"
        )
    # the identical decisions disperse on the straight layout only
    from dispersim.engine import apply_actions

    acts = compute_preview(straight, config, states, alg, "zero", "global")
    assert apply_actions(straight, config, acts).is_dispersed()
    assert not apply_actions(swapped, config, acts).is_dispersed()


def test_sorted_path_comm_attack_blocks_f2f_explorer():
    n = 7
    k = n - 1
    adv = make_adversary("sorted_path", n, variant="comm")
    res = run(adv, colocated(k), make_algorithm("alg3"),
              visibility="one", communication="f2f", max_rounds=60)
    visited = set()
    for rec in res.records:
        visited.update(rec.after.values())
    assert 6 not in visited  # max initial hole is the protected target
    assert res.explored_at is None


def test_sorted_path_swap_defeats_conveyor():
    n = 7
    adv = make_adversary("sorted_path", n, variant="visibility")
    res = run(adv, {1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4}, conveyor(),
              visibility="zero", communication="global", max_rounds=50)
    # without the swap the very first round would disperse
    assert res.dispersed_at is None
    visited = {0, 1, 2, 3, 4}
    for rec in res.records:
        visited.update(rec.after.values())
    assert 6 not in visited


def test_sorted_path_dispersed_flip_blocks_greedy():
    n = 5
    placement = {1: 1, 2: 2, 3: 3, 4: 4}  # node 0 is the single hole
    adv = make_adversary("sorted_path", n, variant="dispersed")
    res = run(adv, placement, make_algorithm("greedy_port0"),
              visibility="zero", max_rounds=100)
    visited = {1, 2, 3, 4}
    for rec in res.records:
        visited.update(rec.after.values())
    assert 0 not in visited
    assert res.explored_at is None


def test_sorted_path_needs_oracle_and_valid_start():
    adv = make_adversary("sorted_path", 7, variant="comm")
    from dispersim.engine import Configuration

    with pytest.raises(AdversaryError, match="oracle"):
        adv.next_snapshot(0, Configuration(7, {1: 0, 2: 0}), {})
    adv = make_adversary("sorted_path", 7, variant="comm")
    adv.oracle = lambda snap, cfg, sts: {}
    with pytest.raises(AdversaryError, match="non-dispersed"):
        adv.next_snapshot(0, Configuration(7, {1: 0, 2: 1}), {})
    adv2 = make_adversary("sorted_path", 5, variant="dispersed")
    adv2.oracle = lambda snap, cfg, sts: {}
    with pytest.raises(AdversaryError, match="n-1 agents"):
        adv2.next_snapshot(0, Configuration(5, {1: 0, 2: 0, 3: 1, 4: 2}), {})


def test_adversary_enforces_round_order():
    adv = make_adversary("exploration_star", 6, k=3)
    from dispersim.engine import Configuration

    cfg = Configuration(6, {1: 0, 2: 1, 3: 2})
    adv.next_snapshot(0, cfg)
    with pytest.raises(AdversaryError, match="order"):
        adv.next_snapshot(2, cfg)


def test_adaptive_replays_are_byte_identical():
    def go():
        adv = make_adversary("ct_exploration", 7, k=5, T=3)
        return run(adv, one_per_node(5), make_algorithm("alg3"),
                   max_rounds=60, T=3).to_text()

    assert go() == go()

    def go_oracle():
        adv = make_adversary("sorted_path", 7, variant="comm")
        return run(adv, colocated(6), make_algorithm("alg3"),
                   visibility="one", communication="f2f",
                   max_rounds=40).to_text()

    assert go_oracle() == go_oracle()


# --- every claimed bound against every registered algorithm ---

# the outcome round that a lower bound claim bounds from below
LOWER_BOUNDS = {"kt_lower": "dispersed_at", "time_1int": "explored_at",
                "time_tpath": "explored_at"}


def test_no_registered_algorithm_refutes_an_impossibility_or_lower_bound():
    # an impossibility or a lower bound holds for every algorithm, not only
    # for the ones its rows name; dispersed_block is about blind movers
    refuted, runs = [], 0
    for cid, claim in CLAIMS.items():
        if cid == "dispersed_block":
            continue
        for row in claim.rows:
            for name in ALGORITHM_NAMES:
                try:
                    make_algorithm(name, T=row.T)
                except ValueError:
                    continue
                runs += 1
                probe = row._replace(alg=name)
                try:
                    got = run_claim(claim, probe)
                except AdversaryError as exc:
                    refuted.append((cid, probe, str(exc)))
                    continue
                res = got.result
                field = LOWER_BOUNDS.get(cid)
                at = getattr(res, field) if field else None
                if got.prop is False:
                    refuted.append((cid, probe, f"{claim.prop} fails"))
                if got.target_visited:
                    refuted.append((cid, probe, "target visited"))
                if at is not None and at < got.bound:
                    refuted.append((cid, probe, f"{at} < bound {got.bound}"))
                if cid == "ct_dispersion" and res.dispersed_at is not None:
                    refuted.append((cid, probe, "dispersed"))
    assert runs == 269
    assert refuted == []


# --- what the adversaries keep per configuration ---


# (class, method that derives from a configuration, kind, parameters,
# placement, algorithm, communication, rounds between derivations)
@pytest.mark.parametrize("cls, method, kind, kwargs, placement, alg, comm,"
                         " every", [
    (CtDispersion, "_phase_graph", "ct_dispersion", dict(k=4, T=3),
     colocated(4), "alg1_implicit", "global", 2),
    (SortedPath, "_sorted_order", "sorted_path", dict(variant="comm"),
     colocated(6), "alg3", "f2f", 1),
])
def test_adversary_derives_each_configuration_once(
    monkeypatch, cls, method, kind, kwargs, placement, alg, comm, every
):
    # a round memo hit hands a repeated round the configuration object
    # it reached before, so the adversary derives its graph, or its path
    # order, once per configuration object (and phase parity)
    calls = []
    original = getattr(cls, method)

    def counting(self, config, *rest):
        calls.append((config, *rest))  # keeps every id unique
        return original(self, config, *rest)

    monkeypatch.setattr(cls, method, counting)
    res = run(make_adversary(kind, 7, **kwargs), placement,
              make_algorithm(alg), communication=comm, max_rounds=60,
              T=kwargs.get("T"))
    assert res.rounds == 60
    keys = [(id(config), *rest) for config, *rest in calls]
    assert len(set(keys)) == len(keys)
    assert 0 < len(calls) < 60 // every


# --- interned snapshots ---


@pytest.mark.parametrize("kind, kwargs, placement, alg", [
    ("ct_dispersion", dict(k=4, T=3), colocated(4), "alg1_implicit"),
    ("kt_lower", dict(k=4, T=3), colocated(4), "alg1_explicit"),
    ("ct_exploration", dict(k=3, T=3), colocated(3), "alg3"),
    ("sorted_path", dict(variant="comm"), colocated(6), "alg3"),
    ("sorted_path", dict(variant="dispersed"), {a: a for a in range(1, 7)},
     "greedy_port0"),
])
def test_adversary_emits_a_repeated_graph_as_one_snapshot(kind, kwargs,
                                                          placement, alg):
    adv = make_adversary(kind, 7, **kwargs)
    res = run(adv, placement, make_algorithm(alg, T=kwargs.get("T")),
              communication="f2f" if kind == "sorted_path" else "global",
              max_rounds=30, T=kwargs.get("T"))
    snaps = [rec.snapshot for rec in res.records]
    distinct = set(snaps)
    assert len(distinct) < len(snaps)
    # equal graphs are one object
    assert len({id(s) for s in snaps}) == len(distinct)


def test_reference_schedules_share_one_snapshot_per_pattern():
    sch = perpetual_demo_schedule(18)
    assert all(sch.snapshots[r] is sch.snapshots[r % 6] for r in range(18))
