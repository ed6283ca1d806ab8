"""Scenarios, trace verification, executable claims, and parameter sweeps.

A scenario is a small key=value text file naming a schedule source, an
algorithm, a placement, and budgets.  Runs produce line-oriented traces;
``verify_trace`` re-checks a trace from its text alone.  It replays the
rounds through ``engine.round_step`` with the algorithm the header names,
so the recorded actions, component partitions and message counts must be
exactly what that algorithm does on the recorded snapshots and positions.
It also checks conservation, move legality, termination monotonicity,
multinode monotonicity and per-window hole progress, and recomputes every
outcome round.  A round that repeats a clean round's block from the same
replayed states is neither replayed nor checked again.

``CLAIMS`` holds the executable claims as data: each names an adversary,
the runs that exhibit its bound and the predicate a run must meet.
``run_claim`` makes one run of a claim; ``demo`` runs a claim's small grid
and reports the measured bound next to the claimed one, and the acceptance
tests run the same claims on larger grids.
"""

from __future__ import annotations

import random
import re
from typing import Callable, NamedTuple

from . import adversary as adv_mod
from .adversary import (
    ADVERSARIES, SORTED_PATH_VARIANTS, RandomRounds, make_adversary,
)
from .algorithms import ALGORITHM_NAMES, make_algorithm
from .engine import (
    COMMUNICATIONS,
    VISIBILITIES,
    AgentState,
    EngineError,
    RunResult,
    parse_blocks,
    parse_trace,
    round_step,
    run,
)
from .graphs import PROPERTIES, GraphError, Schedule, check_property, parse_int

# what each schedule kind takes from a scenario: T and the argument after
# its colon; an adversary takes what its ADVERSARIES row names (k is given)
SCHEDULE_PARAMS = {
    "file": ("path",),
    "random": ("property", "T"),
    **{kind: () for kind in adv_mod.DEMOS},
    **{kind: params for kind, (_, params) in ADVERSARIES.items()},
}
SCHEDULE_KINDS = tuple(SCHEDULE_PARAMS)
# the values each argument may take; a path is any text but the empty one
_ARGUMENTS = {"path": None, "property": PROPERTIES, "variant": SORTED_PATH_VARIANTS}

# each placement kind and the argument it takes after its colon: an
# integer with its default, node groups, or none
PLACEMENTS = {"colocated": ("node", 0), "dispersed": None,
              "spread": ("holes", 1), "random": None, "explicit": "groups"}

# algorithms whose traces must keep multinode counts non-increasing and
# fill a hole within every complete T-window that starts with a multinode
COOPERATIVE = ("disp", "alg1_explicit", "alg1_implicit", "alg2", "alg3")

# "node:id,id,...", one group of a placement
_PLACEMENT_TOKEN = re.compile(r"(\d+):(\d+(?:,\d+)*)")


class ScenarioError(ValueError):
    """Malformed scenario file or command line."""


class Scenario(NamedTuple):
    n: int
    k: int
    schedule: str
    algorithm: str
    max_rounds: int
    T: int | None = None
    visibility: str = "one"
    communication: str = "global"
    placement: str = "colocated"
    seed: int = 0
    density: float = 0.3
    dispersed_known: bool = False


_REQUIRED = ("n", "k", "schedule", "algorithm", "max_rounds")
_INT_KEYS = ("n", "k", "max_rounds", "T", "seed")


def read_int(text: str) -> int:
    """The integer a user typed as decimal digits after an optional minus;
    else ValueError.  int() alone also takes "+1", " 1", "1_0"."""
    if not text.removeprefix("-").isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_scenario(text: str) -> Scenario:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {i}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ScenarioError(f"line {i}: duplicate key {key!r}")
        values[key] = value
        lines[key] = i

    def fail(key, msg):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ScenarioError(f"{where}{msg}")

    for key in values:
        if key not in Scenario._fields:
            fail(key, f"unknown key {key!r}")
    parsed: dict = {}
    for key, value in values.items():
        if key in _INT_KEYS:
            try:
                parsed[key] = read_int(value)
            except ValueError:
                fail(key, f"{key} must be an integer, got {value!r}")
        elif key == "density":
            try:
                parsed[key] = float(value)
            except ValueError:
                fail(key, f"density must be a number, got {value!r}")
        elif key == "dispersed_known":
            if value not in ("true", "false"):
                fail(key, f"dispersed_known must be true or false, got {value!r}")
            parsed[key] = value == "true"
        else:
            parsed[key] = value
    for key in _REQUIRED:
        if key not in values:
            raise ScenarioError(f"missing required key {key!r}")
    sc = Scenario(**parsed)

    if sc.n < 1:
        fail("n", f"n must be >= 1, got {sc.n}")
    if sc.k < 1:
        fail("k", f"k must be >= 1, got {sc.k}")
    if sc.k > sc.n:
        fail("k", f"k must be <= n, got k={sc.k} n={sc.n}")
    if sc.max_rounds < 1:
        fail("max_rounds", f"max_rounds must be >= 1, got {sc.max_rounds}")
    if sc.T is not None and sc.T < 1:
        fail("T", f"T must be >= 1, got {sc.T}")
    if sc.visibility not in VISIBILITIES:
        fail("visibility", f"visibility must be {' or '.join(VISIBILITIES)},"
             f" got {sc.visibility!r}")
    if sc.communication not in COMMUNICATIONS:
        fail("communication", "communication must be"
             f" {' or '.join(COMMUNICATIONS)}, got {sc.communication!r}")
    kind, _, arg = sc.schedule.partition(":")
    if kind not in SCHEDULE_KINDS:
        fail("schedule", f"unknown schedule kind {kind!r}; known: {SCHEDULE_KINDS}")
    if sc.algorithm not in ALGORITHM_NAMES:
        fail("algorithm",
             f"unknown algorithm {sc.algorithm!r}; known: {ALGORITHM_NAMES}")
    params = SCHEDULE_PARAMS[kind]
    if sc.T is None and ("T" in params or sc.algorithm == "alg1_explicit"):
        fail("schedule", f"schedule {sc.schedule!r} / algorithm"
             f" {sc.algorithm!r} needs T")
    if sc.algorithm == "dispersed_one_round" and not sc.dispersed_known:
        fail("algorithm", "dispersed_one_round assumes a dispersed start;"
             " set dispersed_known = true")
    pkind, _, parg = sc.placement.partition(":")
    if pkind not in PLACEMENTS:
        fail("placement",
             f"unknown placement {pkind!r}; known: {tuple(PLACEMENTS)}")
    if parg and PLACEMENTS[pkind] is None:
        fail("placement", f"placement {pkind} takes no argument, got {parg!r}")
    takes = next((p for p in params if p in _ARGUMENTS), None)
    values = _ARGUMENTS.get(takes)
    if (arg not in values) if values else (bool(arg) != bool(takes)):
        fail("schedule", f"schedule {kind} takes "
             + (f"a {takes}" if takes else "no argument")
             + (f" in {values}" if values else "") + f", got {arg!r}")
    if not 0.0 <= sc.density <= 1.0:
        fail("density", f"density must be in [0, 1], got {sc.density}")
    try:
        build_placement(sc)
    except (ScenarioError, GraphError) as exc:
        # what building finds keeps its own text, and names the line after it
        raise ScenarioError(f"{exc} (line {lines['placement']})") from None
    return sc


def build_placement(sc: Scenario) -> dict[int, int]:
    kind, _, arg = sc.placement.partition(":")

    def number() -> int:
        try:
            return read_int(arg) if arg else PLACEMENTS[kind][1]
        except ValueError:
            raise ScenarioError(f"bad {kind} placement {arg!r}") from None

    if kind == "colocated":
        node = number()
        if not 0 <= node < sc.n:
            raise ScenarioError(f"colocated node {node} outside 0..{sc.n - 1}")
        return {a: node for a in range(1, sc.k + 1)}
    if kind == "dispersed":
        if sc.k > sc.n:
            raise ScenarioError("dispersed placement needs k <= n")
        return {a: a - 1 for a in range(1, sc.k + 1)}
    if kind == "spread":
        holes = number()
        if not 1 <= holes < sc.n:
            raise ScenarioError(f"spread holes {holes} outside 1..{sc.n - 1}")
        slots = sc.n - holes
        return {
            a: (a - 1) if a <= slots else 0 for a in range(1, sc.k + 1)
        }
    if kind == "random":
        rng = random.Random(f"placement:{sc.seed}:{sc.n}:{sc.k}")
        return {a: rng.randrange(sc.n) for a in range(1, sc.k + 1)}
    # explicit:node:ids;node:ids
    placement: dict[int, int] = {}
    for part in arg.split(";"):
        m = _PLACEMENT_TOKEN.fullmatch(part)
        if not m:
            raise ScenarioError(f"bad explicit placement part {part!r}")
        node = parse_int(m.group(1))
        if node >= sc.n:
            raise ScenarioError(f"explicit node {node} outside 0..{sc.n - 1}")
        for a in map(parse_int, m.group(2).split(",")):
            if a in placement:
                raise ScenarioError(f"agent {a} placed twice")
            placement[a] = node
    if sorted(placement) != list(range(1, sc.k + 1)):
        raise ScenarioError(
            f"explicit placement must cover agents 1..{sc.k}"
        )
    return placement


def build_source(sc: Scenario):
    """The scenario's schedule source; a random or demo schedule is drawn
    only as far as the run reads it."""
    kind, _, arg = sc.schedule.partition(":")
    if kind == "file":
        return Schedule.load(arg)
    if kind == "random":
        return RandomRounds(sc.seed, sc.n, arg, sc.T, sc.density, sc.max_rounds)
    if kind in adv_mod.DEMOS:
        return adv_mod.Periodic(kind)
    return make_adversary(kind, sc.n, k=sc.k, T=sc.T, variant=arg)


def run_scenario(sc: Scenario) -> RunResult:
    source = build_source(sc)
    if source.n != sc.n:
        raise ScenarioError(
            f"schedule has n={source.n} but scenario says n={sc.n}"
        )
    return run(
        source,
        build_placement(sc),
        make_algorithm(sc.algorithm, T=sc.T),
        visibility=sc.visibility,
        communication=sc.communication,
        max_rounds=sc.max_rounds,
        T=sc.T,
    )


# --- trace verification ---


class RunMetrics(NamedTuple):
    n: int
    k: int
    rounds: int
    algorithm: str
    dispersed_at: int | None
    explored_at: int | None
    all_terminated_at: int | None
    budget_exhausted: bool
    final_multinodes: int
    holes_start: int
    holes_end: int
    max_messages: int

    def table(self) -> str:
        """One ``name  value`` line per field in order: None is "-", a bool
        0 or 1."""
        def text(v):
            return "-" if v is None else str(int(v) if type(v) is bool else v)
        width = max(map(len, self._fields))
        return "\n".join(f"  {name.ljust(width)}  {text(value)}"
                         for name, value in zip(self._fields, self))


class TraceReport(NamedTuple):
    metrics: RunMetrics
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_trace(text: str) -> TraceReport:
    """Re-derive everything a trace claims, from the trace text alone.
    Each round is replayed through ``round_step`` on the recorded snapshot
    and positions, carrying the replayed agent states forward.

    A round's transition key is its ``Block``, which ``parse_blocks``
    shares between rounds with equal field lines, the replayed agent
    states it starts from, which the replay's memo shares between equal
    steps, and the number of agents terminated before it.  These fix every
    value the round's checks read: the states fix the replayed step, and
    terminated agents only grow.  So a round whose key passed every check
    before passes again: it calls no ``round_step``, builds no key of
    values, and takes the states it leads to and its multinode count from
    that round; its other outcomes were counted when that round was.  A
    round that failed a check is checked, and reported, every time.  The
    round index and ``pos`` against the previous ``post`` are checked on
    every round.
    """
    header, rounds, trailer = parse_blocks(text)
    n, k = header["n"], header["k"]
    algorithm = header["algorithm"]
    try:
        alg = make_algorithm(algorithm, T=header["T"])
    except ValueError as exc:
        raise EngineError(f"line 1: {exc}") from None
    for key, known in (("visibility", VISIBILITIES),
                       ("communication", COMMUNICATIONS)):
        if header[key] not in known:
            raise EngineError(f"line 1: unknown {key} {header[key]!r}")
    violations: list[str] = []
    note = violations.append

    # parse_blocks bounds k by the first pos: field, and a trace without
    # rounds builds nothing of size k
    all_ids = set(range(1, k + 1)) if rounds else set()
    states = {a: AgentState(id=a) for a in all_ids}
    # the replay's steps by their inputs, as in run: repeated rounds are
    # computed once
    memo: dict = {}
    # each clean round's transition, by its key: the block and the states
    # that keep the key's ids unique, the states it leads to and the
    # multinodes before it
    transitions: dict[tuple, tuple] = {}
    terminated: set[int] = set()
    visited: set[int] = set(rounds[0][1].before.values()) if rounds else set()
    # multinodes at the start of each round, and nodes visited by its end
    multis: list[int] = []
    visited_counts: list[int] = []
    dispersed_at = explored_at = all_terminated_at = None
    max_messages = 0
    prev_after = None

    for idx, (r, block) in enumerate(rounds):
        size = len(violations)
        if r != idx:
            note(f"round {r}: expected round index {idx}")
        snapshot, before, actions, after, comps, messages = block
        follows = idx == 0 or before is prev_after or before == prev_after
        prev_after = after
        key = (id(block), id(states), len(terminated))
        transition = transitions.get(key)
        if transition is not None:
            if not follows:
                note(f"round {r}: pos does not match previous post")
            # terminated, visited, max_messages and the outcome rounds
            # already hold what the round of this key added to them
            _, _, states, multi = transition
        else:
            where = f"round {r}"
            for name, pos in (("pos", before), ("post", after)):
                if set(pos) != all_ids:
                    note(f"{where}: {name} does not cover agents 1..{k}")
            if not follows:
                note(f"{where}: pos does not match previous post")
            live = all_ids - terminated
            if set(actions) != live:
                note(f"{where}: actors {sorted(actions)}"
                     f" != live {sorted(live)}")
            for a in sorted(actions):
                act = actions[a]
                src = before.get(a)
                if src is None:
                    continue
                if act.port is None:
                    dest = src
                else:
                    try:
                        dest = snapshot.neighbor(src, act.port)
                    except GraphError:
                        note(f"{where}: agent {a} used missing port"
                             f" {act.port} at node {src}")
                        continue
                if after.get(a) != dest:
                    note(f"{where}: agent {a} recorded at {after.get(a)},"
                         f" moves say {dest}")
            for a in terminated:
                if after.get(a) != before.get(a):
                    note(f"{where}: terminated agent {a} moved")
            start = states
            if before.keys() <= all_ids:
                step = round_step(
                    snapshot, before, states, alg, header["visibility"],
                    header["communication"], memo,
                )
                states = step.states
                for a in sorted(actions.keys() | step.actions.keys()):
                    got, want = actions.get(a), step.actions.get(a)
                    if got != want:
                        note(f"{where}: agent {a} recorded"
                             f" {got.code() if got else '-'}, {algorithm}"
                             f" computes {want.code() if want else '-'}")
                if comps != step.components:
                    note(f"{where}: component partition mismatch")
                if messages != step.messages:
                    note(f"{where}: msgs={messages},"
                         f" recomputed {step.messages}")
            multi = len(before.multinodes())
            # cooperative moves never create new multinodes; terminal moves
            # may legally stack agents into the same hole, so skip rounds
            # that contain a terminate action
            terminating = {a for a, act in actions.items() if act.terminate}
            if algorithm in COOPERATIVE and not terminating:
                if len(after.multinodes()) > multi:
                    note(f"{where}: multinode count increased")
            terminated |= terminating
            visited.update(after.at)
            max_messages = max(max_messages, messages)
            if dispersed_at is None and after.is_dispersed():
                dispersed_at = r
            if explored_at is None and len(visited) == n:
                explored_at = r
            if all_terminated_at is None and terminated == all_ids:
                all_terminated_at = r
            if len(violations) == size:
                transitions[key] = (block, start, states, multi)
        multis.append(multi)
        visited_counts.append(len(visited))

    # per-window hole progress, only meaningful when the trace's own
    # prefix satisfies t_path at the declared T and agents could actually
    # learn about holes (global communication, 1-hop visibility)
    T = header["T"]
    if (
        rounds
        and T is not None
        and algorithm in COOPERATIVE
        and header["communication"] == "global"
        and header["visibility"] == "one"
    ):
        prefix = Schedule(block.snapshot for _, block in rounds)
        if prefix.rounds >= T and check_property(prefix, "t_path", T).holds:
            for r in range(len(rounds) - T + 1):
                if multis[r] == 0:
                    continue
                before = n - len(rounds[r][1].before.at)
                after = n - len(rounds[r + T - 1][1].after.at)
                explored_by_then = visited_counts[r + T - 1] == n
                if after >= before and not (
                    algorithm == "alg3" and explored_by_then
                ):
                    note(
                        f"window [{r}, {r + T - 1}]: started with a multinode"
                        f" but holes went {before} -> {after}"
                    )

    for key, got in (
        ("rounds", len(rounds)),
        ("dispersed_at", dispersed_at),
        ("explored_at", explored_at),
        ("all_terminated_at", all_terminated_at),
    ):
        if trailer[key] != got:
            note(f"end line says {key}={trailer[key]}, recomputed {got}")
    if trailer["budget_exhausted"] == (all_terminated_at is not None):
        note("end line budget_exhausted inconsistent with terminations")

    final = rounds[-1][1].after if rounds else None
    metrics = RunMetrics(
        n=n,
        k=k,
        rounds=len(rounds),
        algorithm=algorithm,
        dispersed_at=dispersed_at,
        explored_at=explored_at,
        all_terminated_at=all_terminated_at,
        budget_exhausted=trailer["budget_exhausted"],
        final_multinodes=len(final.multinodes()) if rounds else 0,
        holes_start=n - len(rounds[0][1].before.at) if rounds else n,
        holes_end=n - len(final.at) if rounds else n,
        max_messages=max_messages,
    )
    return TraceReport(metrics=metrics, violations=violations)


# --- claims: each claimed bound as data ---


class Row(NamedTuple):
    """One run of a claim.  ``T`` goes to the algorithm, the adversary and
    the run; ``placement`` and ``rounds`` override the claim's own."""

    n: int
    k: int
    alg: str
    T: int | None = None
    placement: str | None = None
    rounds: int | None = None


# the start node of agent a; "shifted" leaves node 0 the only hole
PLACEMENT_OF = {"colocated": lambda a: 0, "dispersed": lambda a: a - 1,
                "shifted": lambda a: a}


class Claim(NamedTuple):
    """A claimed bound and the adversarial runs that exhibit it.

    A row passes when the run's graphs keep ``prop`` at the row's T (at 1
    when it has none), the adversary's target, if it has one, is never
    visited, and ``holds(result, bound)`` is true.  ``fmt`` renders a row
    from its Row and ClaimRun fields.
    """

    id: str
    statement: str
    rows: tuple[Row, ...]
    adversary: str
    budget: Callable[[Row], int]
    fmt: str
    holds: Callable[[RunResult, int | None], bool] = lambda res, bound: True
    variant: str | None = None
    placement: str = "colocated"
    visibility: str = "one"
    communication: str = "global"
    prop: str | None = None
    bound: Callable[[Row], int] | None = None


class ClaimRun(NamedTuple):
    result: RunResult
    bound: int | None
    # None when the adversary protects no target
    target_visited: bool | None
    # "no_window" when the run is shorter than the window; None without prop
    prop: bool | str | None
    ok: bool


def run_claim(claim: Claim, row: Row) -> ClaimRun:
    """One run of a claim's row, judged as ``demo`` reports it."""
    adv = make_adversary(claim.adversary, row.n, k=row.k, T=row.T,
                         variant=claim.variant)
    start = PLACEMENT_OF[row.placement or claim.placement]
    res = run(adv, {a: start(a) for a in range(1, row.k + 1)},
              make_algorithm(row.alg, T=row.T), visibility=claim.visibility,
              communication=claim.communication,
              max_rounds=row.rounds or claim.budget(row), T=row.T)
    seen = set(res.records[0].before.values())
    seen.update(*(rec.after.values() for rec in res.records))
    target = getattr(adv, "target", None)
    visited = None if target is None else target in seen
    T = row.T or 1
    prop = None if claim.prop is None else "no_window"
    if claim.prop is not None and res.rounds >= T:
        prop = check_property(res.schedule_prefix(), claim.prop, T).holds
    bound = claim.bound(row) if claim.bound else None
    ok = prop is not False and not visited and claim.holds(res, bound)
    return ClaimRun(res, bound, visited, prop, ok)


CLAIMS = {claim.id: claim for claim in (
    Claim(
        "kt_lower",
        "dispersion on T-Path graphs needs at least (k-1)(T-1) rounds",
        tuple(Row(k + 2, k, "alg1_explicit", T)
              for k in (3, 5, 8) for T in (2, 4)),
        "kt_lower", prop="t_path", bound=lambda w: (w.k - 1) * (w.T - 1),
        budget=lambda w: (w.k - 1) * (w.T - 1) + w.T + 2,
        holds=lambda res, bound: (
            res.dispersed_at is not None and res.dispersed_at >= bound
        ),
        fmt="k={k}  T={T}  dispersed_at={result.dispersed_at}  bound={bound}"
            "  t_path@{T}={prop}",
    ),
    Claim(
        "ct_dispersion", "no algorithm disperses on Connectivity Time graphs",
        tuple(Row(n, k, "alg1_implicit", T)
              for n, k, T in ((4, 3, 2), (6, 4, 3), (8, 8, 3))),
        "ct_dispersion", prop="connectivity_time",
        budget=lambda w: 20 * w.k * w.T,
        holds=lambda res, bound: res.dispersed_at is None,
        fmt="n={n}  k={k}  T={T}  rounds={result.rounds}"
            "  dispersed_at={result.dispersed_at}  ct@{T}={prop}",
    ),
    Claim(
        "exp_n_minus_2",
        "n-2 agents cannot explore even 1-interval connected graphs",
        tuple(Row(n, n - 2, alg)
              for n in (5, 8, 12) for alg in ("alg3", "alg2")),
        "exploration_star", placement="dispersed", prop="t_interval",
        budget=lambda w: 50 * w.n,
        fmt="n={n}  k={k}  {alg}  rounds={result.rounds}"
            "  target_visited={target_visited}  1_interval={prop}",
    ),
    Claim(
        "path_comm",
        "n-1 agents with face-to-face communication cannot explore",
        tuple(Row(n, n - 1, alg) for n in (7, 9) for alg in ("alg3", "alg2")),
        "sorted_path", variant="comm", communication="f2f", prop="t_interval",
        budget=lambda w: 60 * w.n,
        fmt="n={n}  k={k}  {alg}  target_visited={target_visited}"
            "  1_interval={prop}",
    ),
    Claim(
        "path_visibility", "without 1-hop visibility agents cannot explore",
        tuple(Row(n, n - 1, alg) for n in (7, 9)
              for alg in ("alg3", "alg1_implicit", "greedy_port0")),
        "sorted_path", variant="visibility", visibility="zero",
        prop="t_interval", budget=lambda w: 60 * w.n,
        fmt="n={n}  k={k}  {alg}  target_visited={target_visited}"
            "  1_interval={prop}",
    ),
    Claim(
        "dispersed_block",
        "a blind mover from a dispersed start never completes exploration",
        tuple(Row(n, n - 1, "greedy_port0") for n in (5, 8)),
        "sorted_path", variant="dispersed", placement="shifted",
        visibility="zero", budget=lambda w: 100,
        holds=lambda res, bound: res.explored_at is None,
        fmt="n={n}  k={k}  {alg}  rounds={result.rounds}"
            "  hole_visited={target_visited}",
    ),
    Claim(
        "time_1int",
        "exploring 1-interval connected graphs takes at least n-2 rounds",
        tuple(Row(n, n - 1, "alg2") for n in (6, 10, 14)),
        "two_stars_time", prop="t_interval", bound=lambda w: w.n - 2,
        budget=lambda w: 2 * w.n,
        holds=lambda res, bound: (
            res.explored_at is not None
            and bound <= res.explored_at <= 2 * res.n
            and res.all_terminated_at is not None
        ),
        fmt="n={n}  k={k}  explored_at={result.explored_at}  bound>={bound}"
            "  1_interval={prop}",
    ),
    Claim(
        "time_tpath",
        "exploring T-Path graphs takes at least (n-2)(T-1) rounds",
        tuple(Row(n, n - 1, "alg3", T) for n in (6, 9) for T in (2, 4)),
        "two_stars_time_tpath", prop="t_path",
        bound=lambda w: (w.n - 2) * (w.T - 1),
        budget=lambda w: (w.n + 1) * w.T,
        holds=lambda res, bound: (
            res.explored_at is not None
            and bound <= res.explored_at <= (res.n + 1) * res.T
        ),
        fmt="n={n}  T={T}  explored_at={result.explored_at}  bound>={bound}"
            "  t_path@{T}={prop}",
    ),
    Claim(
        "ct_exploration", "no agent team explores Connectivity Time graphs",
        tuple(Row(n, n - 2, alg, T) for n, T in ((6, 2), (9, 3))
              for alg in ("alg3", "alg2")),
        # alg2 may terminate before T rounds; a shorter trace has no
        # complete window, so only the target decides its row
        "ct_exploration", placement="dispersed", prop="connectivity_time",
        budget=lambda w: 50 * w.n * w.T,
        fmt="n={n}  T={T}  {alg}  target_visited={target_visited}"
            "  ct@{T}={prop}",
    ),
)}


def demo(demo_id: str, out=print) -> bool:
    """Run a claim's rows, one line each, and report whether all pass."""
    claim = CLAIMS.get(demo_id)
    if claim is None:
        raise ScenarioError(f"unknown demo {demo_id!r}; known: {tuple(CLAIMS)}")
    out(claim.statement)
    ok = True
    for row in claim.rows:
        got = run_claim(claim, row)
        ok &= got.ok
        cells = claim.fmt.format(**row._asdict(), **got._asdict())
        out(f"  {cells}  {'PASS' if got.ok else 'FAIL'}")
    out(f"demo {demo_id}: {'PASS' if ok else 'FAIL'}")
    return ok


# --- sweeps ---


def sweep(template_text: str, seeds, out=print):
    """Run a scenario template once per seed, verifying every trace."""
    metrics: list[RunMetrics] = []
    violations: list[str] = []
    for seed in seeds:
        sc = parse_scenario(template_text)._replace(seed=seed)
        res = run_scenario(sc)
        report = verify_trace(res.to_text())
        metrics.append(report.metrics)
        violations.extend(f"seed {seed}: {v}" for v in report.violations)

    def stats(values):
        known = [v for v in values if v is not None]
        if not known:
            return "never"
        lo, hi = min(known), max(known)
        tag = f"{lo}..{hi}" if lo != hi else str(lo)
        if len(known) < len(values):
            tag += f" ({len(values) - len(known)} never)"
        return tag

    out(f"runs: {len(metrics)}")
    out(f"dispersed_at: {stats([m.dispersed_at for m in metrics])}")
    out(f"explored_at: {stats([m.explored_at for m in metrics])}")
    out(f"all_terminated_at: {stats([m.all_terminated_at for m in metrics])}")
    out(f"violations: {len(violations)}")
    for v in violations[:20]:
        out(f"  {v}")
    return metrics, violations
