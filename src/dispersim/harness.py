"""Trace verification.

``verify_trace`` re-checks a trace from its text alone.  It replays the
rounds through ``engine.round_step``, the kernel that ``run`` calls, with
the algorithm the header names and a memo of its own, so the recorded
actions, component partitions and message counts must be exactly those
of the replayed step's block on the recorded snapshots and positions.
It also checks conservation, move legality, termination monotonicity,
multinode monotonicity and per-window hole progress, and recomputes the
outcome rounds with ``engine.outcomes``, as ``run`` computes them.  A
round that repeats a clean round's block from the same replayed states
is neither replayed nor checked again, and a run of such rounds that
repeats a clean period is confirmed by comparing its blocks.

``ScenarioError`` and ``read_int`` live here, beside the verifier, so that
``cli`` reads user input without importing ``scenario``.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import NamedTuple

from .algorithms import make_algorithm
from .engine import (
    COMMUNICATIONS,
    VISIBILITIES,
    AgentState,
    EngineError,
    outcomes,
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


def _repeats(blocks: list, start: int, period: int) -> int:
    """The number of consecutive blocks from ``start`` on that each equal
    the block ``period`` places before it.  Slices compare in C, identity
    first, in chunks that double from one block while they match and halve
    past a mismatch, so each block is compared O(1) times, amortized."""
    lo, size = start, 1
    while size:
        hi = min(lo + size, len(blocks))
        if lo < hi and blocks[lo:hi] == blocks[lo - period:hi - period]:
            lo, size = hi, 2 * size
        else:
            size //= 2
    return lo - start


def verify_trace(text: str) -> TraceReport:
    """Re-derive everything a trace claims, from the trace text alone.
    Each round is replayed through ``round_step`` on the recorded snapshot
    and positions, carrying the replayed agent states forward.

    A replayed round is clean when its ``pos`` follows the previous
    ``post`` and places agents 1..k, its actors are the live agents, and
    its actions, ``post``, components and message count equal the replayed
    block's.  Then ``apply_actions`` of the recorded actions gives the
    recorded ``post``, so every move is legal and no terminated agent,
    having no action, moves: a clean round skips the per-agent checks, and
    any other round runs them all on the step already replayed.  Every
    replayed round checks its multinode count.

    A round's transition key is its ``Block``, which ``parse_trace``
    shares between rounds with equal field lines, the replayed states it
    starts from, one dict per value as the round memo keeps them, and the
    number of agents terminated before it.  These fix every value the
    round's checks read, so a round whose key passed every check before
    passes again: it calls no ``round_step`` and takes the states it leads
    to from that round.
    A round that failed a check is checked, and reported, every time, and
    every round checks its index and ``pos`` against the previous ``post``.
    When round i takes the key of round s and rounds s..i passed every
    check, each later round whose block is that of the round i - s before
    it takes that round's key too, and its index and ``pos`` pass as that
    round's did: ``_repeats`` counts them at once, in a trace whose every
    round index is its position.  When such a tail reaches the end of the
    trace, each round from its round i on repeats the round i - s before
    it, so ``engine.outcomes`` reads the rounds up to i alone, and the
    hole-progress precondition checks ``t_path`` on the rounds up to
    i + T - 1.  An outcome round is reported as its recorded index.
    """
    header, rounds, trailer = parse_trace(text)
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
    if header["T"] == 0:
        # to_text writes a T of 0 as "-", so only a forged header has T=0
        raise EngineError("line 1: T must be >= 1, got 0")
    violations: list[str] = []
    note = violations.append

    # parse_trace bounds k by the first pos: field, and a trace without
    # rounds builds nothing of size k
    all_ids = set(range(1, k + 1)) if rounds else set()
    states = {a: AgentState(id=a) for a in all_ids}
    # the replay's steps by the ids of their inputs, as in run: a parsed
    # placement and the replayed states are one object per value, so
    # repeated rounds are computed once
    memo: dict = {}
    # each clean round's transition by its key, whose ids blocks and
    # starts keep unique: the states it leads to and the round that
    # stored it or last took it after a failed round
    transitions: dict[tuple, tuple] = {}
    terminated: set[int] = set()
    # the replayed states each round starts from
    starts: list[dict] = []
    prev_after = None
    blocks = [block for _, block in rounds]
    # the last round that added a violation; past the end, so that no
    # round takes a tail, when a round index is not its position
    in_order = [r for r, _ in rounds] == list(range(len(rounds)))
    failed = -1 if in_order else len(rounds)
    # the first round of a tail that reaches the end of the trace
    settled = len(rounds)

    idx = 0
    while idx < len(rounds):
        r, block = rounds[idx]
        if r != idx:
            note(f"round {r}: expected round index {idx}")
        size = len(violations)
        before = block.before
        follows = idx == 0 or before is prev_after or before == prev_after
        prev_after = block.after
        key = (id(block), id(states), len(terminated))
        starts.append(states)
        transition = transitions.get(key)
        if transition is not None:
            if not follows:
                note(f"round {r}: pos does not match previous post")
            # terminated already holds what the round of this key added
            states, last = transition
        else:
            snapshot, _, actions, after, comps, messages = block
            where = f"round {r}"
            live = all_ids - terminated
            step = None
            if before.keys() <= all_ids:
                step = round_step(
                    snapshot, before, states, alg, header["visibility"],
                    header["communication"], memo,
                )
                states = step.states
            if not (step is not None and follows and before.keys() == all_ids
                    and actions.keys() == live
                    and block[2:] == step.block[2:]):
                for name, pos in (("pos", before), ("post", after)):
                    if set(pos) != all_ids:
                        note(f"{where}: {name} does not cover agents 1..{k}")
                if not follows:
                    note(f"{where}: pos does not match previous post")
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
                        note(f"{where}: agent {a} recorded at"
                             f" {after.get(a)}, moves say {dest}")
                for a in terminated:
                    if after.get(a) != before.get(a):
                        note(f"{where}: terminated agent {a} moved")
                if step is not None:
                    replayed = step.block
                    for a in sorted(actions.keys() | replayed.actions.keys()):
                        got, want = actions.get(a), replayed.actions.get(a)
                        if got != want:
                            note(f"{where}: agent {a} recorded"
                                 f" {got.code() if got else '-'}, {algorithm}"
                                 f" computes {want.code() if want else '-'}")
                    if comps != replayed.components:
                        note(f"{where}: component partition mismatch")
                    if messages != replayed.messages:
                        note(f"{where}: msgs={messages},"
                             f" recomputed {replayed.messages}")
            # cooperative moves never create new multinodes; terminal moves
            # may legally stack agents into the same hole, so skip rounds
            # that contain a terminate action
            terminating = {a for a, act in actions.items() if act.terminate}
            if algorithm in COOPERATIVE and not terminating:
                if len(after.multinodes()) > len(before.multinodes()):
                    note(f"{where}: multinode count increased")
            terminated |= terminating
        if len(violations) > size:
            failed = idx
        elif transition is None or last <= failed:
            transitions[key] = (states, idx)
        else:
            # rounds last..idx passed every check: each later round whose
            # block is that of the round a period before takes its key
            period = idx - last
            tail = _repeats(blocks, idx + 1, period)
            if idx + tail + 1 == len(rounds):
                settled = idx
            starts += islice(cycle(starts[-period:]), tail)
            idx += tail
            states = starts[idx + 1 - period]
            prev_after = blocks[idx].after
        idx += 1

    decided = outcomes(blocks[:settled + 1], k)
    index = lambda i: None if i is None else rounds[i][0]
    dispersed_at, explored_at, all_terminated_at = map(index, decided[:3])

    # per-window hole progress, only meaningful when the trace's own
    # prefix satisfies t_path at the declared T and agents could actually
    # learn about holes (global communication, 1-hop visibility)
    T = header["T"]
    if (
        T is not None
        and len(rounds) >= T
        and algorithm in COOPERATIVE
        and header["communication"] == "global"
        and header["visibility"] == "one"
    ):
        prefix = Schedule(block.snapshot for block in blocks[:settled + T - 1])
        if check_property(prefix, "t_path", T).holds:
            # alg3 owes no hole progress once every node has been visited
            explored = decided.explored_at if algorithm == "alg3" else None
            for r in range(len(rounds) - T + 1):
                start, end = blocks[r].before, blocks[r + T - 1].after
                before, after = n - len(start.at), n - len(end.at)
                excused = explored is not None and explored <= r + T - 1
                if not (start.is_dispersed() or after < before or excused):
                    note(f"window [{r}, {r + T - 1}]: started with a multinode"
                         f" but holes went {before} -> {after}")

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
        max_messages=decided.max_messages,
    )
    return TraceReport(metrics=metrics, violations=violations)
