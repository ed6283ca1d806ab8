"""Twelve end-to-end acceptance checks, one test per claim.

Run order matters only for the audit: the algorithm sweeps (c04-c08)
verify every trace they produce and pool the violations, which c11 then
requires to be empty.  The lower bounds (c05-c08) and the blockers (c10)
run the claims of ``claims.CLAIMS`` through ``run_claim``, the table
``dispersim demo`` prints, on grids larger than the demo's.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import oracles
from oracles import perpetual_demo_schedule

from dispersim.adversary import gen_random_with_property
from dispersim.algorithms import make_algorithm
from dispersim.engine import Configuration, outcomes, run
from dispersim.graphs import (
    PROPERTIES,
    Schedule,
    Snapshot,
    check_property,
    minimal_T,
)
from dispersim.claims import CLAIMS, Row, run_claim
from dispersim.harness import verify_trace
from dispersim.scenario import parse_scenario, run_scenario

DATA = Path(__file__).parent / "data"

AUDIT = {"runs": 0, "violations": []}


def _audit(res):
    report = verify_trace(res.to_text())
    AUDIT["runs"] += 1
    AUDIT["violations"].extend(
        f"{res.algorithm} n={res.n} k={res.k} T={res.T}: {v}"
        for v in report.violations
    )
    return report


def _random_pairs(rng, n, density):
    return {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }


def test_c01_reference_traces_classify_exactly():
    tpath = Schedule.load(DATA / "tpath_demo.sched")
    assert minimal_T(tpath, "t_path") == 3
    assert minimal_T(tpath, "t_interval") is None
    assert minimal_T(tpath, "connectivity_time") == 2
    assert check_property(tpath, "t_path", 2).witness == (0, (2, 3))
    assert check_property(tpath, "t_path", 1).witness == (0, (0, 3))
    assert check_property(tpath, "t_interval", 3).witness == (0, (0, 1))

    ctime = Schedule.load(DATA / "ctime_demo.sched")
    assert minimal_T(ctime, "connectivity_time") == 3
    assert minimal_T(ctime, "t_path") is None
    assert minimal_T(ctime, "t_interval") is None
    assert check_property(ctime, "connectivity_time", 2).witness == (0, (0, 3))
    assert check_property(ctime, "t_path", 3).witness == (0, (0, 3))

    perpetual = Schedule.load(DATA / "perpetual_demo.sched")
    assert minimal_T(perpetual, "t_path") == 6
    assert check_property(perpetual, "t_path", 6).holds
    assert not check_property(perpetual, "t_path", 5).holds


def test_c02_checkers_match_bruteforce_oracle():
    rng = random.Random("acceptance-c2")
    schedules = 0
    for _ in range(1000):
        n = rng.randrange(1, 7)
        rounds = rng.randrange(1, 9)
        density = rng.uniform(0.0, 0.7)
        pair_sets = [_random_pairs(rng, n, density) for _ in range(rounds)]
        sched = Schedule(Snapshot.from_pairs(n, p) for p in pair_sets)
        window_lengths = {1, rounds, rng.randrange(1, rounds + 1)}
        for prop in PROPERTIES:
            for T in window_lengths:
                got = check_property(sched, prop, T).holds
                want = oracles.oracle_holds(n, pair_sets, prop, T)
                assert got == want, (n, rounds, prop, T)
        schedules += 1
    assert schedules >= 1000


def test_c03_implication_chain_and_T1_equivalence():
    rng = random.Random("acceptance-c3")
    schedules = 0
    for _ in range(1000):
        n = rng.randrange(2, 8)
        rounds = rng.randrange(2, 11)
        density = rng.uniform(0.05, 0.8)
        sched = Schedule(
            Snapshot.from_pairs(n, _random_pairs(rng, n, density))
            for _ in range(rounds)
        )
        T = rng.randrange(1, min(5, rounds) + 1)
        interval = check_property(sched, "t_interval", T).holds
        path = check_property(sched, "t_path", T).holds
        ctime = check_property(sched, "connectivity_time", T).holds
        if interval:
            assert path, (n, rounds, T)
        if path:
            assert ctime, (n, rounds, T)
        at_one = {check_property(sched, prop, 1).holds for prop in PROPERTIES}
        assert len(at_one) == 1, (n, rounds)
        schedules += 1
    assert schedules >= 1000


def test_c04_alg1_explicit_disperses_and_terminates_within_kT_plus_T():
    rng = random.Random("acceptance-c4")
    for case in range(300):
        n = rng.randrange(2, 21)
        k = rng.randrange(1, n + 1)
        T = rng.randrange(1, 6)
        budget = k * T + T + 1
        sched = gen_random_with_property(
            case, n, "t_path", T, rng.uniform(0.1, 0.6), budget
        )
        if case % 2:
            placement = {a: 0 for a in range(1, k + 1)}
        else:
            prng = random.Random(f"c4-place:{case}")
            placement = {a: prng.randrange(n) for a in range(1, k + 1)}
        res = run(sched, placement, make_algorithm("alg1_explicit", T=T),
                  max_rounds=budget, T=T)
        assert res.dispersed_at is not None, (case, n, k, T)
        assert res.all_terminated_at is not None, (case, n, k, T)
        assert res.all_terminated_at <= k * T + T, (case, n, k, T)
        assert res.dispersed_at <= res.all_terminated_at
        # termination is never premature: a terminate action only ever
        # happens in a round that starts with no multinode anywhere
        for rec in res.records:
            if any(act.terminate for act in rec.actions.values()):
                assert not Configuration(n, rec.before).multinodes(), case
        _audit(res)


def test_c05_kt_lower_forces_k_minus_1_times_T_minus_1_rounds():
    claim = CLAIMS["kt_lower"]
    for k in range(3, 11):
        for T in range(2, 6):
            bound = (k - 1) * (T - 1)
            row = Row(k + 2, k, "alg1_explicit", T)
            assert claim.budget(row) == bound + T + 2
            got = run_claim(claim, row)
            res = got.result
            assert res.dispersed_at is not None, (k, T)
            assert res.dispersed_at >= bound, (k, T)
            assert res.dispersed_at == bound, (k, T)
            assert got.prop is True
            assert got.ok, (k, T)
            _audit(res)


def test_c06_ct_dispersion_blocks_dispersion_on_full_grid():
    claim = CLAIMS["ct_dispersion"]
    for n in range(3, 11):
        for k in range(3, n + 1):
            for T in range(2, 5):
                budget = 20 * k * T
                got = run_claim(claim, Row(n, k, "alg1_implicit", T))
                res = got.result
                assert res.dispersed_at is None, (n, k, T)
                assert res.rounds == budget
                assert got.prop is True, (n, k, T)
                assert got.ok, (n, k, T)
                _audit(res)


def test_c07_alg2_explores_within_2n_and_two_stars_forces_n_minus_2():
    rng = random.Random("acceptance-c7")
    for case in range(300):
        n = rng.randrange(3, 21)
        k = n - 1
        budget = 2 * n + 1
        sched = gen_random_with_property(
            1000 + case, n, "t_interval", 1, rng.uniform(0.1, 0.6), budget
        )
        prng = random.Random(f"c7-place:{case}")
        placement = {a: prng.randrange(n) for a in range(1, k + 1)}
        res = run(sched, placement, make_algorithm("alg2"),
                  max_rounds=budget, T=1)
        assert res.explored_at is not None, (case, n)
        assert res.explored_at <= 2 * n, (case, n)
        assert res.all_terminated_at is not None, (case, n)
        assert res.all_terminated_at <= 2 * n, (case, n)
        _audit(res)
    # unlike the demo rows, these runs declare T=1, so their traces also
    # get the verifier's T=1 window audit, and have one round more
    claim = CLAIMS["time_1int"]._replace(budget=lambda w: 2 * w.n + 1)
    for n in range(4, 21):
        got = run_claim(claim, Row(n, n - 1, "alg2", T=1))
        res = got.result
        assert res.T == 1
        assert res.explored_at is not None, n
        assert res.explored_at >= n - 2, n
        assert res.explored_at == n - 2, n
        assert got.prop is True
        assert got.ok, n
        _audit(res)


def test_c08_alg3_explores_within_n_plus_1_T_and_tpath_lower_bound():
    rng = random.Random("acceptance-c8")
    for case in range(150):
        n = rng.randrange(3, 16)
        T = rng.randrange(2, 5)
        k = n - 1
        budget = (n + 1) * T
        sched = gen_random_with_property(
            2000 + case, n, "t_path", T, rng.uniform(0.1, 0.6), budget
        )
        if case % 2:
            placement = {a: 0 for a in range(1, k + 1)}
        else:
            prng = random.Random(f"c8-place:{case}")
            placement = {a: prng.randrange(n) for a in range(1, k + 1)}
        res = run(sched, placement, make_algorithm("alg3"),
                  max_rounds=budget, T=T)
        assert res.explored_at is not None, (case, n, T)
        assert res.explored_at < (n + 1) * T, (case, n, T)
        _audit(res)
    claim = CLAIMS["time_tpath"]
    for n in range(5, 13):
        for T in (2, 3, 4):
            row = Row(n, n - 1, "alg3", T)
            assert claim.budget(row) == (n + 1) * T
            got = run_claim(claim, row)
            res = got.result
            assert res.explored_at is not None, (n, T)
            assert res.explored_at >= (n - 2) * (T - 1), (n, T)
            assert res.explored_at == (n - 1) * (T - 1), (n, T)
            assert got.prop is True
            assert got.ok, (n, T)
            _audit(res)


def test_c09_perpetual_reference_explores_and_never_stops():
    sched = perpetual_demo_schedule(60)
    res = run(sched, {1: 0, 2: 0, 3: 1}, make_algorithm("alg3"),
              max_rounds=60, T=6)
    assert res.explored_at is not None and res.explored_at <= 6
    assert res.dispersed_at is None
    assert res.all_terminated_at is None
    for r, rec in enumerate(res.records):
        movers = [a for a, act in rec.actions.items() if act.port is not None]
        assert movers == ([3] if r % 6 in (1, 3, 5) else []), r
    assert res.final == {1: 0, 2: 0, 3: 1}
    assert verify_trace(res.to_text()).ok


# alg3 starts dispersed as in the demos; alg2 starts co-located, where the
# demos start it dispersed
C10_PLACEMENTS = (("alg3", "dispersed"), ("alg2", "colocated"))


def test_c10_exploration_blockers_never_let_the_target_fall():
    claim = CLAIMS["exp_n_minus_2"]
    for n in range(4, 13):
        for alg, placement in C10_PLACEMENTS:
            row = Row(n, n - 2, alg)
            assert claim.budget(row) == 50 * n
            got = run_claim(claim._replace(placement=placement), row)
            res = got.result
            assert n - 1 not in outcomes(res.records, res.k).visited, (n, alg)
            assert got.target_visited is False, (n, alg)
            assert res.explored_at is None
            assert got.prop is True
            assert got.ok, (n, alg)
    claim = CLAIMS["ct_exploration"]
    for n in range(6, 13):
        for T in (2, 3, 4):
            for alg, placement in C10_PLACEMENTS:
                row = Row(n, n - 2, alg, T)
                assert claim.budget(row) == 50 * n * T
                got = run_claim(claim._replace(placement=placement), row)
                res = got.result
                # the protected node is the second-least initial hole:
                # n-1 from the dispersed start, node 2 from the co-located
                assert got.target_visited is False, (n, T, alg)
                assert res.explored_at is None
                # a property over T-windows needs at least T rounds of
                # trace; alg2 may terminate earlier than that
                if res.rounds >= T:
                    assert got.prop is True, (n, T, alg)
                else:
                    assert got.prop == "no_window", (n, T, alg)
                assert got.ok, (n, T, alg)


def test_c11_sweeps_produced_zero_verification_violations():
    assert AUDIT["runs"] >= 700
    assert AUDIT["violations"] == []


C12_SCENARIOS = (
    "n = 8\nk = 5\nschedule = random:t_path\nT = 3\n"
    "algorithm = alg1_explicit\nmax_rounds = 40\nseed = 11\n",
    "n = 6\nk = 4\nschedule = ct_dispersion\nT = 3\n"
    "algorithm = alg1_implicit\nmax_rounds = 60\n",
    "n = 7\nk = 6\nschedule = sorted_path:comm\nalgorithm = alg3\n"
    "communication = f2f\nmax_rounds = 80\n",
    "n = 7\nk = 6\nschedule = sorted_path:dispersed\n"
    "algorithm = greedy_port0\nvisibility = zero\nplacement = dispersed\n"
    "max_rounds = 50\n",
)


def test_c12_fixed_adaptive_and_oracle_runs_are_byte_identical():
    for text in C12_SCENARIOS:
        first = run_scenario(parse_scenario(text)).to_text()
        second = run_scenario(parse_scenario(text)).to_text()
        assert first == second
        assert len(first) > 200


# SHA-256 of each C12_SCENARIOS trace: any change to round semantics,
# adversary choices or trace rendering shows up here
C12_TRACE_SHA256 = (
    "db982a3730fbb409b59666c7a59a77b2c5b56dc82ff94254cba91986050b3cac",
    "1b8037032d501b4d1dcd8cafbb59a413e4bdda23adb79b09efd1ca3e7ffc10cc",
    "291cb30db26c4c18408116cc40cb8f5033133ef4df72324f53c613f70c6bb365",
    "5a79ba1b39e864aa178c3029839bab896fdeb10a02a005e7cc6b9bdb058cbda9",
)


def test_c12_traces_match_golden_hashes():
    for text, want in zip(C12_SCENARIOS, C12_TRACE_SHA256, strict=True):
        trace = run_scenario(parse_scenario(text)).to_text()
        assert hashlib.sha256(trace.encode()).hexdigest() == want, text


# kernel paths that c12 does not reach: alg3's quiet walker under
# global/one (a greatest-ID walker changes its hash), alg2, and disp under
# f2f; each hash was recorded before the kernel kept them per bundle
KERNEL_SCENARIOS = (
    "n = 12\nk = 8\nschedule = random:t_path\nT = 3\nalgorithm = alg3\n"
    "max_rounds = 60\nseed = 5\n",
    "n = 12\nk = 8\nschedule = random:t_path\nT = 2\nalgorithm = alg2\n"
    "max_rounds = 40\nseed = 6\n",
    "n = 10\nk = 7\nschedule = random:t_path\nT = 2\nalgorithm = disp\n"
    "max_rounds = 40\nseed = 7\ncommunication = f2f\n",
)
KERNEL_TRACE_SHA256 = (
    "709dc21bc2ea22c7ff4419bd80e44a63e0373e49bfca3214451891a357c70b12",
    "7e1fa6fe7ecd6e1aa34978aa153f33ba77dabc4322eba374c9835cb2952ea9db",
    "847ffeb301988fd0c6358e71352acf675c1fab54e5117f24ad8628cd355c4cff",
)


def test_kernel_paths_match_golden_hashes():
    for text, want in zip(KERNEL_SCENARIOS, KERNEL_TRACE_SHA256, strict=True):
        trace = run_scenario(parse_scenario(text)).to_text()
        assert hashlib.sha256(trace.encode()).hexdigest() == want, text
