"""The four benchmark workloads.

Each workload has a ``setup`` that builds its list of cases from the
workload seed and a ``run_pass`` that drives the public API of
``dispersim`` over a list of cases once, in a closed loop: a run starts only
after the previous run's trace has been verified and its claim predicate
checked.  The benchmark hands ``run_pass`` one case at a time so that it can
time each case on its own.

Both receive ``m``, a namespace holding the ``dispersim`` modules, so that
the benchmark can re-import the package for every set-up repetition and
install tracing wrappers on the modules it finally uses.  Time spent in
the public entry points is added to the ``clock`` phases ``run`` (engine
``run``), ``verify`` (``verify_trace``) and ``check`` (``check_property``,
or ``cli.main`` for ``classify``).
"""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path

# Sizes are chosen so that one pass takes one to two seconds on a 2-core
# x86 host with Python 3.11; ``tiny`` keeps the smoke test fast.
SIZES = {
    "full": {
        # (n, k, T) subset of the c06 acceptance grid
        "ct_grid": [(6, 3, 4), (6, 4, 3), (6, 6, 2), (8, 5, 3), (8, 8, 2),
                    (10, 6, 3), (10, 10, 2)],
        "large_tpath": {"n": 120, "k": 60, "T": 3, "density": 0.035},
        "oracle_f2f": {"path_n": 9, "path_rounds": 120,
                       "dispersed_n": 8, "dispersed_rounds": 60,
                       "placements": 4},
        "classify": {"ct": (10, 8, 4, 300), "kt": (12, 10, 4),
                     "random": (30, 3, 0.05, 120)},
    },
    "tiny": {
        "ct_grid": [(4, 3, 2), (5, 4, 3)],
        "large_tpath": {"n": 16, "k": 8, "T": 2, "density": 0.1},
        "oracle_f2f": {"path_n": 7, "path_rounds": 20,
                       "dispersed_n": 5, "dispersed_rounds": 20,
                       "placements": 1},
        "classify": {"ct": (6, 4, 3, 30), "kt": (6, 4, 3),
                     "random": (8, 3, 0.2, 12)},
    },
}

# Which inputs the workload seed drives.
SEEDED = {
    "ct_grid": "seedless: the ct_dispersion grid is adversarial and fixed",
    "large_tpath": "seeded: the random t_path schedule",
    "oracle_f2f": "seeded: the agent placements",
    "classify": "seeded: the random t_path schedule; the adversarial"
                " prefixes are fixed",
}


class Clock:
    """Seconds spent per phase during one pass."""

    def __init__(self) -> None:
        self.phases = {"run": 0.0, "verify": 0.0, "check": 0.0}

    def time(self, phase, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phases[phase] += time.perf_counter() - t0


class Work:
    """Exact work counters, one digest per output, and failed checks."""

    def __init__(self) -> None:
        self.counters = {"runs": 0, "rounds": 0, "agent_steps": 0,
                         "messages": 0, "trace_bytes": 0}
        self.labels: list[str] = []
        self.digests: list[str] = []
        self.failures: dict[str, str] = {}

    def output(self, label: str, text: str, rounds: int) -> None:
        self.counters["runs"] += 1
        self.counters["rounds"] += rounds
        self.labels.append(label)
        self.digests.append(hashlib.sha256(text.encode()).hexdigest())

    def trace(self, label: str, res, text: str) -> None:
        self.output(label, text, res.rounds)
        c = self.counters
        c["agent_steps"] += sum(len(rec.actions) for rec in res.records)
        c["messages"] += sum(rec.messages for rec in res.records)
        c["trace_bytes"] += len(text)  # traces are ASCII

    def check(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.setdefault(label, detail)


def _visited(res) -> set[int]:
    seen = set(res.records[0].before.values()) if res.records else set()
    for rec in res.records:
        seen.update(rec.after.values())
    return seen


def _simulate(m, clock, work, label, source, placement, alg, *, prop, T,
              max_rounds, visibility="one", communication="global"):
    """One closed-loop run: run, render, verify, check the window property."""
    res = clock.time(
        "run", m.engine.run, source, placement,
        m.algorithms.make_algorithm(alg, T=T), visibility=visibility,
        communication=communication, max_rounds=max_rounds, T=T,
    )
    text = res.to_text()
    work.trace(label, res, text)
    report = clock.time("verify", m.harness.verify_trace, text)
    work.check(label, report.ok, f"{len(report.violations)} violations")
    holds = clock.time(
        "check", m.graphs.check_property, res.schedule_prefix(), prop, T or 1
    ).holds
    work.check(label, holds, f"{prop} fails at T={T or 1}")
    return res


# --- ct_grid ---


def setup_ct_grid(m, seed, size, workdir):
    return SIZES[size]["ct_grid"]


def pass_ct_grid(m, cases, clock, work):
    for n, k, T in cases:
        label = f"ct_dispersion n={n} k={k} T={T}"
        budget = 20 * k * T
        adv = m.adversary.make_adversary("ct_dispersion", n, k=k, T=T)
        res = _simulate(m, clock, work, label, adv,
                        {a: 0 for a in range(1, k + 1)}, "alg1_implicit",
                        prop="connectivity_time", T=T, max_rounds=budget)
        work.check(label, res.dispersed_at is None and res.rounds == budget,
                   f"dispersed_at={res.dispersed_at} rounds={res.rounds}")


# --- large_tpath ---


def setup_large_tpath(m, seed, size, workdir):
    p = SIZES[size]["large_tpath"]
    budget = p["k"] * p["T"] + p["T"] + 1
    sched = m.adversary.gen_random_with_property(
        seed, p["n"], "t_path", p["T"], p["density"], budget
    )
    return [dict(p, schedule=sched, budget=budget)]


def pass_large_tpath(m, cases, clock, work):
    for inp in cases:
        k, T = inp["k"], inp["T"]
        label = f"random:t_path n={inp['n']} k={k} T={T}"
        res = _simulate(m, clock, work, label, inp["schedule"],
                        {a: 0 for a in range(1, k + 1)}, "alg1_explicit",
                        prop="t_path", T=T, max_rounds=inp["budget"])
        done = res.all_terminated_at
        work.check(label, res.dispersed_at is not None and done is not None
                   and done <= k * T + T,
                   f"dispersed_at={res.dispersed_at} all_terminated_at={done}")


# --- oracle_f2f ---


def _placement(seed, n, k, dispersed, index=0):
    """Seeded start: one agent per node, or with at least one multinode."""
    rng = random.Random(
        f"bench:placement:{seed}:{n}:{k}:{dispersed}"
        + (f":{index}" if index else ""))
    if dispersed:
        nodes = list(range(n))
        rng.shuffle(nodes)
        return {a: nodes[a - 1] for a in range(1, k + 1)}
    while True:
        placement = {a: rng.randrange(n) for a in range(1, k + 1)}
        if len(set(placement.values())) < k:
            return placement


def setup_oracle_f2f(m, seed, size, workdir):
    p = SIZES[size]["oracle_f2f"]
    n, nd = p["path_n"], p["dispersed_n"]
    runs = []
    # several seeded placements per run, so that the work of a pass varies
    # little from seed to seed
    for i in range(p["placements"]):
        for variant, algs, vis, comm in (
            ("comm", ("alg2", "alg3"), "one", "f2f"),
            ("visibility", ("alg3", "alg1_implicit", "greedy_port0"),
             "zero", "global"),
        ):
            for alg in algs:
                runs.append((variant, alg, n, vis, comm, p["path_rounds"],
                             _placement(seed, n, n - 1, False, i)))
        runs.append(("dispersed", "greedy_port0", nd, "zero", "global",
                     p["dispersed_rounds"],
                     _placement(seed, nd, nd - 1, True, i)))
    return runs


def pass_oracle_f2f(m, runs, clock, work):
    for variant, alg, n, vis, comm, rounds, placement in runs:
        label = f"sorted_path:{variant} {alg} n={n} start={placement}"
        adv = m.adversary.make_adversary("sorted_path", n, variant=variant)
        res = _simulate(m, clock, work, label, adv, placement, alg,
                        prop="t_interval", T=None, max_rounds=rounds,
                        visibility=vis, communication=comm)
        work.check(label, adv.target not in _visited(res),
                   f"target {adv.target} visited")


# --- classify ---


def _prefix(m, kind, n, k, T, alg, rounds):
    adv = m.adversary.make_adversary(kind, n, k=k, T=T)
    res = m.engine.run(adv, {a: 0 for a in range(1, k + 1)},
                       m.algorithms.make_algorithm(alg, T=T),
                       max_rounds=rounds, T=T)
    return res.schedule_prefix()


def setup_classify(m, seed, size, workdir):
    """Write the three schedule files; returns each path with its text,
    rounds and claim."""
    p = SIZES[size]["classify"]
    n, k, T, rounds = p["ct"]
    ct = _prefix(m, "ct_dispersion", n, k, T, "alg1_implicit", rounds)
    kn, kk, kT = p["kt"]
    kt = _prefix(m, "kt_lower", kn, kk, kT, "alg1_explicit",
                 (kk - 1) * (kT - 1) + kT + 2)
    rn, rT, density, rrounds = p["random"]
    rnd = m.adversary.gen_random_with_property(
        seed, rn, "t_path", rT, density, rrounds
    )
    files = []
    for name, sched, prop, T_claim, cmp in (
        ("ct_dispersion", ct, "connectivity_time", T, "=="),
        ("kt_lower", kt, "t_path", kT, "=="),
        ("random_t_path", rnd, "t_path", rT, "<="),
    ):
        text = sched.to_text()
        path = Path(workdir) / f"{name}.sched"
        path.write_text(text, encoding="utf-8")
        files.append((str(path), text, sched.rounds, prop, T_claim, cmp))
    return files


def pass_classify(m, files, clock, work):
    for path, schedule, rounds, prop, T, cmp in files:
        label = f"classify {Path(path).name}"
        lines: list[str] = []
        code = clock.time("check", m.cli.main, ["classify", path],
                          out=lines.append)
        # the digest covers the schedule too: the output alone is a few
        # minimal T values that many schedules share
        work.output(label, schedule + "\n".join(lines) + "\n", rounds)
        found = dict(line.split(": minimal T = ", 1) for line in lines
                     if ": minimal T = " in line)
        got = found.get(prop, "none")
        ok = code == 0 and got != "none" and (
            int(got) == T if cmp == "==" else int(got) <= T
        )
        work.check(label, ok, f"{prop} minimal T = {got}, claim {cmp} {T}")


WORKLOADS = {
    "ct_grid": (setup_ct_grid, pass_ct_grid),
    "large_tpath": (setup_large_tpath, pass_large_tpath),
    "oracle_f2f": (setup_oracle_f2f, pass_oracle_f2f),
    "classify": (setup_classify, pass_classify),
}
