"""Trace verification.

``verify_trace`` re-checks a trace from its text alone.  It replays the
rounds through ``engine.round_step`` with the algorithm the header names,
so the recorded actions, component partitions and message counts must be
exactly what that algorithm does on the recorded snapshots and positions.
It also checks conservation, move legality, termination monotonicity,
multinode monotonicity and per-window hole progress, and recomputes every
outcome round.  A round that repeats a clean round's block from the same
replayed states is neither replayed nor checked again.

``ScenarioError`` and ``read_int`` live here, beside the verifier, so that
``cli`` reads user input without importing ``scenario``.
"""

from __future__ import annotations

from typing import NamedTuple

from .algorithms import make_algorithm
from .engine import (
    COMMUNICATIONS,
    VISIBILITIES,
    AgentState,
    EngineError,
    parse_blocks,
    # unused here, but bench/tracer.py times parse_trace by this name
    parse_trace,
    round_step,
)
from .graphs import GraphError, Schedule, check_property

# algorithms whose traces must keep multinode counts non-increasing and
# fill a hole within every complete T-window that starts with a multinode
COOPERATIVE = ("disp", "alg1_explicit", "alg1_implicit", "alg2", "alg3")


class ScenarioError(ValueError):
    """Malformed scenario file or command line."""


def read_int(text: str) -> int:
    """The integer a user typed as decimal digits after an optional minus;
    else ValueError.  int() alone also takes "+1", " 1", "1_0"."""
    if not text.removeprefix("-").isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
