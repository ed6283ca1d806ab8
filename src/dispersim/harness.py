"""Scenarios, trace verification, demo claims, and parameter sweeps.

A scenario is a small key=value text file naming a schedule source, an
algorithm, a placement, and budgets.  Runs produce line-oriented traces;
``verify_trace`` re-checks a trace from its text alone.  It replays every
round through ``engine.round_step`` with the algorithm the header names,
so the recorded actions, component partitions and message counts must be
exactly what that algorithm does on the recorded snapshots and positions.
It also checks conservation, move legality, termination monotonicity,
multinode monotonicity and per-window hole progress, and recomputes every
outcome round.

``demo`` packages the executable claims: each registered id runs a small
grid and reports the measured bound next to the claimed one.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from . import adversary as adv_mod
from .adversary import AdversaryError, gen_random_with_property, make_adversary
from .algorithms import ALGORITHM_NAMES, make_algorithm
from .engine import (
    Action,
    AgentState,
    Configuration,
    EngineError,
    RunResult,
    round_step,
    run,
)
from .graphs import (
    GraphError,
    Memo,
    Schedule,
    Snapshot,
    check_property,
    parse_int,
    snapshot_cache,
)

SCHEDULE_KINDS = (
    "file",
    "random",
    "tpath_demo",
    "ctime_demo",
    "perpetual_demo",
) + adv_mod.ADVERSARY_KINDS

PLACEMENTS = ("colocated", "dispersed", "spread", "random", "explicit")

# algorithms whose traces must keep multinode counts non-increasing and
# fill a hole within every complete T-window that starts with a multinode
COOPERATIVE = ("disp", "alg1_explicit", "alg1_implicit", "alg2", "alg3")

# "node:id,id,...", one group of a placement
_PLACEMENT_TOKEN = re.compile(r"(\d+):(\d+(?:,\d+)*)")
_ROUND_LINE = re.compile(r"round r=(\d+)")
_COMP_FIELD = re.compile(r"\d+(?:,\d+)*(?:\|\d+(?:,\d+)*)*")


class ScenarioError(ValueError):
    """Malformed scenario file."""


@dataclass
class Scenario:
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

    known = {
        "n", "k", "schedule", "algorithm", "max_rounds", "T", "visibility",
        "communication", "placement", "seed", "density", "dispersed_known",
    }
    for key in values:
        if key not in known:
            fail(key, f"unknown key {key!r}")
    parsed: dict = {}
    for key, value in values.items():
        if key in _INT_KEYS:
            try:
                parsed[key] = int(value)
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
    if sc.visibility not in ("zero", "one"):
        fail("visibility", f"visibility must be zero or one, got {sc.visibility!r}")
    if sc.communication not in ("global", "f2f"):
        fail("communication",
             f"communication must be global or f2f, got {sc.communication!r}")
    kind = sc.schedule.split(":", 1)[0]
    if kind not in SCHEDULE_KINDS:
        fail("schedule", f"unknown schedule kind {kind!r}; known: {SCHEDULE_KINDS}")
    if sc.algorithm not in ALGORITHM_NAMES:
        fail("algorithm",
             f"unknown algorithm {sc.algorithm!r}; known: {ALGORITHM_NAMES}")
    needs_T = kind in (
        "random", "kt_lower", "ct_dispersion", "two_stars_time_tpath",
        "ct_exploration",
    ) or sc.algorithm == "alg1_explicit"
    if needs_T and sc.T is None:
        fail("schedule", f"schedule {sc.schedule!r} / algorithm"
             f" {sc.algorithm!r} needs T")
    if sc.algorithm == "dispersed_one_round" and not sc.dispersed_known:
        fail("algorithm", "dispersed_one_round assumes a dispersed start;"
             " set dispersed_known = true")
    pkind = sc.placement.split(":", 1)[0]
    if pkind not in PLACEMENTS:
        fail("placement",
             f"unknown placement {pkind!r}; known: {PLACEMENTS}")
    return sc


def build_placement(sc: Scenario) -> dict[int, int]:
    kind, _, arg = sc.placement.partition(":")
    if kind == "colocated":
        node = int(arg) if arg else 0
        if not 0 <= node < sc.n:
            raise ScenarioError(f"colocated node {node} outside 0..{sc.n - 1}")
        return {a: node for a in range(1, sc.k + 1)}
    if kind == "dispersed":
        if sc.k > sc.n:
            raise ScenarioError("dispersed placement needs k <= n")
        return {a: a - 1 for a in range(1, sc.k + 1)}
    if kind == "spread":
        holes = int(arg) if arg else 1
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
        node = int(m.group(1))
        for a in (int(x) for x in m.group(2).split(",")):
            if a in placement:
                raise ScenarioError(f"agent {a} placed twice")
            placement[a] = node
    if sorted(placement) != list(range(1, sc.k + 1)):
        raise ScenarioError(
            f"explicit placement must cover agents 1..{sc.k}"
        )
    return placement


def build_source(sc: Scenario):
    kind, _, arg = sc.schedule.partition(":")
    if kind == "file":
        if not arg:
            raise ScenarioError("schedule file: needs a path")
        return Schedule.load(arg)
    if kind == "random":
        return gen_random_with_property(
            sc.seed, sc.n, arg, sc.T, sc.density, sc.max_rounds
        )
    if kind == "tpath_demo":
        return adv_mod.tpath_demo_schedule(max(sc.max_rounds, 3))
    if kind == "ctime_demo":
        return adv_mod.ctime_demo_schedule(max(sc.max_rounds, 3))
    if kind == "perpetual_demo":
        return adv_mod.perpetual_demo_schedule(max(sc.max_rounds, 6))
    if kind == "sorted_path":
        return make_adversary("sorted_path", sc.n, variant=arg)
    return make_adversary(kind, sc.n, k=sc.k, T=sc.T)


def run_scenario(sc: Scenario) -> RunResult:
    source = build_source(sc)
    if isinstance(source, Schedule) and source.n != sc.n:
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


@dataclass
class RunMetrics:
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

    def lines(self) -> list[str]:
        out = lambda v: "-" if v is None else str(v)
        return [
            f"n={self.n}",
            f"k={self.k}",
            f"rounds={self.rounds}",
            f"algorithm={self.algorithm}",
            f"dispersed_at={out(self.dispersed_at)}",
            f"explored_at={out(self.explored_at)}",
            f"all_terminated_at={out(self.all_terminated_at)}",
            f"budget_exhausted={int(self.budget_exhausted)}",
            f"final_multinodes={self.final_multinodes}",
            f"holes_start={self.holes_start}",
            f"holes_end={self.holes_end}",
            f"max_messages={self.max_messages}",
        ]

    def table(self) -> str:
        rows = [line.replace("=", "  ", 1) for line in self.lines()]
        width = max(len(r.split("  ")[0]) for r in rows)
        pretty = []
        for line in self.lines():
            key, value = line.split("=", 1)
            pretty.append(f"  {key.ljust(width)}  {value}")
        return "\n".join(pretty)


@dataclass
class TraceReport:
    metrics: RunMetrics
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class _TraceRound(NamedTuple):
    r: int
    snapshot: Snapshot
    pos: dict[int, int]
    actions: dict[int, Action]
    post: dict[int, int]
    comp: list[list[int]]
    msgs: int


def _parse_placement(text: str, n: int) -> dict[int, int]:
    placement: dict[int, int] = {}
    for tok in text.split():
        node, sep, ids = tok.partition(":")
        agents = ids.split(",")
        # isdecimal accepts exactly what the regex \d+ matches; int() alone
        # would also take "+1", " 1" and "1_0"
        if not (sep and node.isdecimal() and all(a.isdecimal() for a in agents)):
            raise EngineError(f"bad placement token {tok!r}")
        node = parse_int(node)
        for a in agents:
            placement[parse_int(a)] = node
    if placement and max(placement.values()) >= n:
        a = min(a for a, v in placement.items() if v >= n)
        raise EngineError(f"agent {a} placed on node {placement[a]}, n={n}")
    return placement


def _parse_actions(text: str, codes: Memo) -> dict[int, Action]:
    actions = {}
    for tok in text.split():
        agent, sep, code = tok.partition(":")
        if not (sep and agent.isdecimal() and code):
            raise EngineError(f"bad action token {tok!r}")
        actions[parse_int(agent)] = codes[code]
    return actions


def _parse_comp(text: str) -> list[list[int]]:
    if not text:
        return []
    if not _COMP_FIELD.fullmatch(text):
        raise EngineError(f"bad comp field {text!r}")
    return [[parse_int(x) for x in part.split(",")] for part in text.split("|")]


def _parse_msgs(text: str) -> int:
    if not text.isdecimal():
        raise EngineError(f"bad msgs field {text!r}")
    return parse_int(text)


# a round block's field lines, in line order and in _TraceRound order
_FIELDS = ("edges:", "pos:", "act:", "post:", "comp:", "msgs:")
# the order in which they are parsed, which decides the error reported for
# a block with more than one malformed field
_PARSE_ORDER = tuple(
    _FIELDS.index(f) for f in ("edges:", "act:", "msgs:", "pos:", "post:", "comp:")
)


def parse_trace(text: str):
    """Header, rounds and trailer of a trace.

    Each distinct field text is parsed once and its value shared by every
    line that repeats it: rounds on the same graph share one Snapshot, and
    a ``pos:`` that repeats the previous ``post:`` is the same dict.  A
    malformed text raises at its first line.  Shared values must not be
    mutated.
    """
    lines = text.splitlines()
    if not lines:
        raise EngineError("empty trace")
    m = re.fullmatch(
        r"trace v=1 n=(\d+) k=(\d+) T=(\d+|-) algorithm=(\S+)"
        r" visibility=(\S+) communication=(\S+)",
        lines[0],
    )
    if not m:
        raise EngineError(f"bad trace header: {lines[0]!r}")
    try:
        header = {
            "n": parse_int(m.group(1)),
            "k": parse_int(m.group(2)),
            "T": None if m.group(3) == "-" else parse_int(m.group(3)),
            "algorithm": m.group(4),
            "visibility": m.group(5),
            "communication": m.group(6),
        }
    except GraphError as exc:
        raise EngineError(f"line 1: {exc}") from None
    n = header["n"]
    codes = Memo(Action.from_code)
    placements = Memo(lambda text: _parse_placement(text, n))
    parsers = (
        snapshot_cache(n),
        placements,
        Memo(lambda text: _parse_actions(text, codes)),
        placements,
        Memo(_parse_comp),
        Memo(_parse_msgs),
    )
    rounds: list[_TraceRound] = []
    i = 1
    while i < len(lines) and lines[i].startswith("round "):
        if i + 6 >= len(lines):
            raise EngineError(f"truncated round block at line {i + 1}")
        rm = _ROUND_LINE.fullmatch(lines[i])
        if not rm:
            raise EngineError(f"line {i + 1}: bad round line")
        try:
            r = parse_int(rm.group(1))
        except GraphError as exc:
            raise EngineError(f"line {i + 1}: {exc}") from None
        texts = []
        for f, want in enumerate(_FIELDS):
            line = lines[i + 1 + f]
            if not line.startswith(want):
                raise EngineError(f"line {i + 2 + f}: expected {want}")
            texts.append(line[len(want):].strip())
        values = [None] * len(_FIELDS)
        for f in _PARSE_ORDER:
            try:
                values[f] = parsers[f][texts[f]]
            except (GraphError, EngineError) as exc:
                raise EngineError(f"line {i + 2 + f}: {exc}") from None
        rounds.append(_TraceRound(r, *values))
        i += 7
    if i >= len(lines) or not lines[i].startswith("end "):
        raise EngineError("trace missing end line")
    em = re.fullmatch(
        r"end rounds=(\d+) dispersed_at=(\d+|-) explored_at=(\d+|-)"
        r" all_terminated_at=(\d+|-) budget_exhausted=([01])",
        lines[i],
    )
    if not em:
        raise EngineError(f"bad end line: {lines[i]!r}")
    opt = lambda s: None if s == "-" else parse_int(s)
    try:
        trailer = {
            "rounds": parse_int(em.group(1)),
            "dispersed_at": opt(em.group(2)),
            "explored_at": opt(em.group(3)),
            "all_terminated_at": opt(em.group(4)),
            "budget_exhausted": em.group(5) == "1",
        }
    except GraphError as exc:
        raise EngineError(f"line {i + 1}: {exc}") from None
    return header, rounds, trailer


def _hole_count(n: int, pos: dict[int, int]) -> int:
    return n - len(set(pos.values()))


def verify_trace(text: str) -> TraceReport:
    """Re-derive everything a trace claims, from the trace text alone.
    Each round is replayed through ``round_step`` on the recorded snapshot
    and positions, carrying the replayed agent states forward."""
    header, rounds, trailer = parse_trace(text)
    n, k = header["n"], header["k"]
    algorithm = header["algorithm"]
    try:
        alg = make_algorithm(algorithm, T=header["T"])
    except ValueError as exc:
        raise EngineError(f"line 1: {exc}") from None
    violations: list[str] = []
    note = violations.append

    all_ids = set(range(1, k + 1))
    states = {a: AgentState(id=a) for a in all_ids}
    # the replay's steps by their inputs, as in run: repeated rounds are
    # computed once
    memo: dict = {}
    # parse_trace shares equal placements, so one Configuration per dict;
    # rounds keeps every dict alive, so its id is its own
    configs: dict[int, Configuration] = {}

    def configuration(pos: dict[int, int]) -> Configuration:
        config = configs.get(id(pos))
        if config is None:
            config = configs[id(pos)] = Configuration(n, pos)
        return config
    terminated: set[int] = set()
    visited: set[int] = set(rounds[0].pos.values()) if rounds else set()
    # multinodes at the start of each round
    multis: list[int] = []
    dispersed_at = None
    explored_at = None
    all_terminated_at = None
    max_messages = 0

    for idx, tr in enumerate(rounds):
        where = f"round {tr.r}"
        if tr.r != idx:
            note(f"{where}: expected round index {idx}")
        for name, pos in (("pos", tr.pos), ("post", tr.post)):
            if set(pos) != all_ids:
                note(f"{where}: {name} does not cover agents 1..{k}")
        if idx > 0 and tr.pos != rounds[idx - 1].post:
            note(f"{where}: pos does not match previous post")
        live = all_ids - terminated
        if set(tr.actions) != live:
            note(f"{where}: actors {sorted(tr.actions)} != live {sorted(live)}")
        for a in sorted(tr.actions):
            act = tr.actions[a]
            src = tr.pos.get(a)
            if src is None:
                continue
            if act.port is None:
                dest = src
            else:
                try:
                    dest = tr.snapshot.neighbor(src, act.port)
                except GraphError:
                    note(f"{where}: agent {a} used missing port {act.port}"
                         f" at node {src}")
                    continue
            if tr.post.get(a) != dest:
                note(f"{where}: agent {a} recorded at {tr.post.get(a)},"
                     f" moves say {dest}")
        for a in terminated:
            if tr.post.get(a) != tr.pos.get(a):
                note(f"{where}: terminated agent {a} moved")
        config = configuration(tr.pos)
        if tr.pos.keys() <= all_ids:
            step = round_step(
                tr.snapshot, config, states, alg,
                header["visibility"], header["communication"], memo,
            )
            states = step.states
            for a in sorted(tr.actions.keys() | step.actions.keys()):
                got, want = tr.actions.get(a), step.actions.get(a)
                if got != want:
                    note(f"{where}: agent {a} recorded"
                         f" {got.code() if got else '-'}, {algorithm}"
                         f" computes {want.code() if want else '-'}")
            if tr.comp != step.components:
                note(f"{where}: component partition mismatch")
            if tr.msgs != step.messages:
                note(f"{where}: msgs={tr.msgs}, recomputed {step.messages}")
        max_messages = max(max_messages, tr.msgs)
        post_config = configuration(tr.post)
        multis.append(len(config.multinodes()))
        # cooperative moves never create new multinodes; terminal moves may
        # legally stack agents into the same hole, so skip rounds that
        # contain a terminate action
        terminating_now = any(act.terminate for act in tr.actions.values())
        if algorithm in COOPERATIVE and not terminating_now:
            if len(post_config.multinodes()) > multis[-1]:
                note(f"{where}: multinode count increased")
        terminated |= {a for a, act in tr.actions.items() if act.terminate}
        visited |= set(tr.post.values())
        if dispersed_at is None and post_config.is_dispersed():
            dispersed_at = tr.r
        if explored_at is None and len(visited) == n:
            explored_at = tr.r
        if all_terminated_at is None and terminated == all_ids:
            all_terminated_at = tr.r

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
        prefix = Schedule(tr.snapshot for tr in rounds)
        if prefix.rounds >= T and check_property(prefix, "t_path", T).holds:
            seen: set[int] = set(rounds[0].pos.values())
            seen_by_round = []
            for tr in rounds:
                seen |= set(tr.post.values())
                seen_by_round.append(len(seen))
            for r in range(len(rounds) - T + 1):
                if multis[r] == 0:
                    continue
                before = _hole_count(n, rounds[r].pos)
                after = _hole_count(n, rounds[r + T - 1].post)
                explored_by_then = seen_by_round[r + T - 1] == n
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

    final_pos = rounds[-1].post if rounds else {}
    metrics = RunMetrics(
        n=n,
        k=k,
        rounds=len(rounds),
        algorithm=algorithm,
        dispersed_at=dispersed_at,
        explored_at=explored_at,
        all_terminated_at=all_terminated_at,
        budget_exhausted=trailer["budget_exhausted"],
        final_multinodes=len(post_config.multinodes()) if final_pos else 0,
        holes_start=_hole_count(n, rounds[0].pos) if rounds else n,
        holes_end=_hole_count(n, final_pos) if final_pos else n,
        max_messages=max_messages,
    )
    return TraceReport(metrics=metrics, violations=violations)


def verify_result(result: RunResult) -> TraceReport:
    return verify_trace(result.to_text())


# --- demos: executable claims ---


def _never_visits(res: RunResult, target: int) -> bool:
    visited = set(res.records[0].before.values()) if res.records else set()
    for rec in res.records:
        visited.update(rec.after.values())
    return target not in visited


def _row(out, cells) -> None:
    out("  " + "  ".join(str(c) for c in cells))


def demo_kt_lower(out) -> bool:
    out("dispersion on T-Path graphs needs at least (k-1)(T-1) rounds")
    ok = True
    for k in (3, 5, 8):
        for T in (2, 4):
            n = k + 2
            bound = (k - 1) * (T - 1)
            adv = make_adversary("kt_lower", n, k=k, T=T)
            res = run(adv, {a: 0 for a in range(1, k + 1)},
                      make_algorithm("alg1_explicit", T=T),
                      max_rounds=bound + T + 2, T=T)
            prop = check_property(res.schedule_prefix(), "t_path", T).holds
            good = (res.dispersed_at is not None
                    and res.dispersed_at >= bound and prop)
            ok &= good
            _row(out, [f"k={k}", f"T={T}", f"dispersed_at={res.dispersed_at}",
                       f"bound={bound}", f"t_path@{T}={prop}",
                       "PASS" if good else "FAIL"])
    return ok


def demo_ct_dispersion(out) -> bool:
    out("no algorithm disperses on Connectivity Time graphs")
    ok = True
    for n, k, T in ((4, 3, 2), (6, 4, 3), (8, 8, 3)):
        budget = 20 * k * T
        adv = make_adversary("ct_dispersion", n, k=k, T=T)
        res = run(adv, {a: 0 for a in range(1, k + 1)},
                  make_algorithm("alg1_implicit"), max_rounds=budget, T=T)
        prop = check_property(res.schedule_prefix(), "connectivity_time", T).holds
        good = res.dispersed_at is None and prop
        ok &= good
        _row(out, [f"n={n}", f"k={k}", f"T={T}", f"rounds={res.rounds}",
                   f"dispersed_at={res.dispersed_at}", f"ct@{T}={prop}",
                   "PASS" if good else "FAIL"])
    return ok


def demo_exp_n_minus_2(out) -> bool:
    out("n-2 agents cannot explore even 1-interval connected graphs")
    ok = True
    for n in (5, 8, 12):
        k = n - 2
        for alg in ("alg3", "alg2"):
            adv = make_adversary("exploration_star", n, k=k)
            res = run(adv, {a: a - 1 for a in range(1, k + 1)},
                      make_algorithm(alg), max_rounds=50 * n)
            prop = check_property(res.schedule_prefix(), "t_interval", 1).holds
            good = _never_visits(res, n - 1) and prop
            ok &= good
            _row(out, [f"n={n}", f"k={k}", alg, f"rounds={res.rounds}",
                       f"target_visited={not _never_visits(res, n - 1)}",
                       f"1_interval={prop}", "PASS" if good else "FAIL"])
    return ok


def demo_path_comm(out) -> bool:
    out("n-1 agents with face-to-face communication cannot explore")
    ok = True
    for n in (7, 9):
        for alg in ("alg3", "alg2"):
            adv = make_adversary("sorted_path", n, variant="comm")
            res = run(adv, {a: 0 for a in range(1, n)},
                      make_algorithm(alg), visibility="one",
                      communication="f2f", max_rounds=60 * n)
            prop = check_property(res.schedule_prefix(), "t_interval", 1).holds
            good = _never_visits(res, n - 1) and prop
            ok &= good
            _row(out, [f"n={n}", f"k={n - 1}", alg,
                       f"target_visited={not _never_visits(res, n - 1)}",
                       f"1_interval={prop}", "PASS" if good else "FAIL"])
    return ok


def demo_path_visibility(out) -> bool:
    out("without 1-hop visibility agents cannot explore")
    ok = True
    for n in (7, 9):
        for alg in ("alg3", "alg1_implicit", "greedy_port0"):
            adv = make_adversary("sorted_path", n, variant="visibility")
            res = run(adv, {a: 0 for a in range(1, n)},
                      make_algorithm(alg), visibility="zero",
                      communication="global", max_rounds=60 * n)
            prop = check_property(res.schedule_prefix(), "t_interval", 1).holds
            good = _never_visits(res, n - 1) and prop
            ok &= good
            _row(out, [f"n={n}", f"k={n - 1}", alg,
                       f"target_visited={not _never_visits(res, n - 1)}",
                       f"1_interval={prop}", "PASS" if good else "FAIL"])
    return ok


def demo_dispersed_block(out) -> bool:
    out("a blind mover from a dispersed start never completes exploration")
    ok = True
    for n in (5, 8):
        placement = {a: a for a in range(1, n)}  # node 0 stays the hole
        adv = make_adversary("sorted_path", n, variant="dispersed")
        res = run(adv, placement, make_algorithm("greedy_port0"),
                  visibility="zero", max_rounds=100)
        good = _never_visits(res, 0) and res.explored_at is None
        ok &= good
        _row(out, [f"n={n}", f"k={n - 1}", "greedy_port0",
                   f"rounds={res.rounds}",
                   f"hole_visited={not _never_visits(res, 0)}",
                   "PASS" if good else "FAIL"])
    return ok


def demo_time_1int(out) -> bool:
    out("exploring 1-interval connected graphs takes at least n-2 rounds")
    ok = True
    for n in (6, 10, 14):
        k = n - 1
        adv = make_adversary("two_stars_time", n)
        res = run(adv, {a: 0 for a in range(1, k + 1)},
                  make_algorithm("alg2"), max_rounds=2 * n)
        prop = check_property(res.schedule_prefix(), "t_interval", 1).holds
        good = (res.explored_at is not None
                and n - 2 <= res.explored_at <= 2 * n
                and res.all_terminated_at is not None and prop)
        ok &= good
        _row(out, [f"n={n}", f"k={k}", f"explored_at={res.explored_at}",
                   f"bound>={n - 2}", f"1_interval={prop}",
                   "PASS" if good else "FAIL"])
    return ok


def demo_time_tpath(out) -> bool:
    out("exploring T-Path graphs takes at least (n-2)(T-1) rounds")
    ok = True
    for n in (6, 9):
        for T in (2, 4):
            k = n - 1
            adv = make_adversary("two_stars_time_tpath", n, T=T)
            res = run(adv, {a: 0 for a in range(1, k + 1)},
                      make_algorithm("alg3"), max_rounds=(n + 1) * T, T=T)
            prop = check_property(res.schedule_prefix(), "t_path", T).holds
            bound = (n - 2) * (T - 1)
            good = (res.explored_at is not None
                    and bound <= res.explored_at <= (n + 1) * T and prop)
            ok &= good
            _row(out, [f"n={n}", f"T={T}", f"explored_at={res.explored_at}",
                       f"bound>={bound}", f"t_path@{T}={prop}",
                       "PASS" if good else "FAIL"])
    return ok


def demo_ct_exploration(out) -> bool:
    out("no agent team explores Connectivity Time graphs")
    ok = True
    for n, T in ((6, 2), (9, 3)):
        k = n - 2
        for alg in ("alg3", "alg2"):
            adv = make_adversary("ct_exploration", n, k=k, T=T)
            res = run(adv, {a: a - 1 for a in range(1, k + 1)},
                      make_algorithm(alg), max_rounds=50 * n * T, T=T)
            # alg2 may terminate before T rounds; a shorter trace has no
            # complete window, so only the target decides its row
            prop = "no_window"
            if res.rounds >= T:
                prop = check_property(
                    res.schedule_prefix(), "connectivity_time", T
                ).holds
            good = _never_visits(res, n - 1) and prop is not False
            ok &= good
            _row(out, [f"n={n}", f"T={T}", alg,
                       f"target_visited={not _never_visits(res, n - 1)}",
                       f"ct@{T}={prop}", "PASS" if good else "FAIL"])
    return ok


DEMOS = {
    "kt_lower": demo_kt_lower,
    "ct_dispersion": demo_ct_dispersion,
    "exp_n_minus_2": demo_exp_n_minus_2,
    "path_comm": demo_path_comm,
    "path_visibility": demo_path_visibility,
    "dispersed_block": demo_dispersed_block,
    "time_1int": demo_time_1int,
    "time_tpath": demo_time_tpath,
    "ct_exploration": demo_ct_exploration,
}


def demo(demo_id: str, out=print) -> bool:
    if demo_id not in DEMOS:
        raise ScenarioError(
            f"unknown demo {demo_id!r}; known: {tuple(DEMOS)}"
        )
    ok = DEMOS[demo_id](out)
    out(f"demo {demo_id}: {'PASS' if ok else 'FAIL'}")
    return ok


# --- sweeps ---


def sweep(template_text: str, seeds, out=print):
    """Run a scenario template once per seed, verifying every trace."""
    metrics: list[RunMetrics] = []
    violations: list[str] = []
    for seed in seeds:
        sc = parse_scenario(template_text)
        sc.seed = seed
        res = run_scenario(sc)
        report = verify_result(res)
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
