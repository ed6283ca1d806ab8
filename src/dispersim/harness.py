"""Trace verification.

``verify_trace`` re-checks a trace from its text alone, in stages:
``parse_trace`` and ``_algorithm`` read it and check its header;
``_integrity`` replays it through ``engine.round_step``, the kernel
``run`` calls, and decides whether it is exactly what the named algorithm
does; ``engine.outcomes`` recomputes its outcome rounds, as ``run`` does;
the lemma stages ``_multinode_increases`` and ``_hole_progress`` check
the paper's lemmas, and only they hold the lemmas' scopes; ``_trailer``
checks the end line.  Lines come by round, integrity before lemma, then
the windows' and the end line's.

``ScenarioError`` and ``read_int`` live here, beside the verifier, so that
``cli`` reads user input without importing ``scenario``.
"""

from __future__ import annotations

from itertools import cycle, islice
from operator import itemgetter
from typing import NamedTuple

from .algorithms import make_algorithm
from .engine import (
    COMMUNICATIONS, VISIBILITIES, AgentState, EngineError, outcomes,
    parse_trace, round_step,
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


def _algorithm(header: dict):
    """The algorithm a trace header names, after the header checks."""
    try:
        alg = make_algorithm(header["algorithm"], T=header["T"])
    except ValueError as exc:
        raise EngineError(f"line 1: {exc}") from None
    for key, known in (("visibility", VISIBILITIES),
                       ("communication", COMMUNICATIONS)):
        if header[key] not in known:
            raise EngineError(f"line 1: unknown {key} {header[key]!r}")
    if header["T"] == 0:
        # to_text writes a T of 0 as "-", so only a forged header has T=0
        raise EngineError("line 1: T must be >= 1, got 0")
    return alg


def _integrity(header: dict, alg, rounds: list, blocks: list):
    """Each round's integrity lines, as (position, line) pairs in round
    order, and ``settled``: the first round of a tail that reaches the end
    of the trace, else ``len(rounds)``.  Each round is replayed through
    ``round_step`` on the recorded snapshot and positions, carrying the
    replayed agent states forward.

    A replayed round is clean when its ``pos`` follows the previous
    ``post`` and places agents 1..k, its actors are the live agents, and
    its actions, ``post``, components and message count equal the replayed
    block's.  Then ``apply_actions`` of the recorded actions gives the
    recorded ``post``, so every move is legal and no terminated agent,
    having no action, moves: a clean round skips the per-agent checks, and
    any other round runs them all on the step already replayed.

    A round's transition key is its ``Block``, the replayed states it
    starts from (one dict per value, as the round memo keeps them) and the
    number of agents terminated before it.  These fix every value its
    checks read, so a round whose key passed them before takes the states
    it leads to from that round, and only its index and ``pos`` are
    checked.  When round i takes the key of round s and rounds s..i passed,
    each later round with the block of the round i - s before it passes as
    that round did: ``_repeats`` counts them at once, in a trace whose
    every round index is its position, and i is ``settled`` if they end it.
    """
    k, algorithm = header["k"], header["algorithm"]
    lines: list[tuple[int, str]] = []
    note = lambda line: lines.append((idx, line))
    # parse_trace bounds k by the first pos: field, and a trace without
    # rounds builds nothing of size k
    all_ids = set(range(1, k + 1)) if rounds else set()
    states = {a: AgentState(id=a) for a in all_ids}
    # the replay's steps by the ids of their inputs, as in run: a failed
    # round takes no transition, yet its step is computed once
    memo: dict = {}
    # each clean round's transition by its key, whose ids blocks and
    # starts keep unique: the states it leads to and the round that
    # stored it or last took it after a failed round
    transitions: dict[tuple, tuple] = {}
    terminated: set[int] = set()
    # the replayed states each round starts from
    starts: list[dict] = []
    prev_after = None
    # the last round that added a line; past the end, so that no round
    # takes a tail, when a round index is not its position
    in_order = [r for r, _ in rounds] == list(range(len(rounds)))
    failed = -1 if in_order else len(rounds)
    settled = len(rounds)

    idx = 0
    while idx < len(rounds):
        r, block = rounds[idx]
        if r != idx:
            note(f"round {r}: expected round index {idx}")
        size = len(lines)
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
                for a, act in sorted(actions.items()):
                    dest = src = before.get(a)
                    if src is None:
                        continue
                    if act.port is not None:
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
            terminated |= {a for a, act in actions.items() if act.terminate}
        if len(lines) > size:
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
    return lines, settled


def _adding_multinodes(blocks: list) -> set:
    """The ids of the distinct blocks that add a multinode.  Terminal moves
    may legally stack agents into the same hole, so a block with a
    terminate is skipped."""
    return {key for key, b in dict(zip(map(id, blocks), blocks)).items()
            if not any(act.terminate for act in b.actions.values())
            and len(b.after.multinodes()) > len(b.before.multinodes())}


def _multinode_increases(header: dict, rounds: list, blocks: list, settled):
    """(position, line) for each round whose block adds a multinode,
    checked once per distinct block."""
    if header["algorithm"] not in COOPERATIVE:
        return []
    # each round after settled has the block value of a round before it
    bad = (_adding_multinodes(blocks[:settled + 1])
           and _adding_multinodes(blocks))
    return [(i, f"round {r}: multinode count increased") for i, (r, block)
            in enumerate(rounds if bad else ()) if id(block) in bad]


def _hole_progress(header: dict, blocks: list, settled: int, explored):
    """A line for each complete T-window that starts with a multinode and
    fills no hole, when the trace keeps t_path at the declared T and agents
    can learn about holes (global communication, 1-hop visibility).  From
    round ``settled`` on each round repeats the round a period before it,
    so t_path is checked on the rounds up to ``settled`` + T - 1."""
    n, T, algorithm = header["n"], header["T"], header["algorithm"]
    if not (T is not None and len(blocks) >= T and algorithm in COOPERATIVE
            and header["communication"] == "global"
            and header["visibility"] == "one" and check_property(Schedule(
                b.snapshot for b in blocks[:settled + T - 1]), "t_path",
                T).holds):
        return []
    # alg3 owes no hole progress once every node has been visited
    if explored is None or algorithm != "alg3":
        explored = len(blocks)
    lines = []
    for r in range(explored - T + 1):
        start, end = blocks[r].before, blocks[r + T - 1].after
        before, after = n - len(start.at), n - len(end.at)
        if not (start.is_dispersed() or after < before):
            lines.append(f"window [{r}, {r + T - 1}]: started with a"
                         f" multinode but holes went {before} -> {after}")
    return lines


def _trailer(header: dict, rounds: list, trailer: dict, decided):
    """The trace's ``RunMetrics``, and a line for each end line field that
    differs from what its rounds give."""
    # the outcome rounds by their recorded index, as the end line names them
    got = {"rounds": len(rounds)}
    for key, i in zip(decided._fields[:3], decided):
        got[key] = None if i is None else rounds[i][0]
    lines = [f"end line says {key}={trailer[key]}, recomputed {value}"
             for key, value in got.items() if trailer[key] != value]
    if trailer["budget_exhausted"] == (got["all_terminated_at"] is not None):
        lines += ["end line budget_exhausted inconsistent with terminations"]
    n, final = header["n"], rounds[-1][1].after if rounds else None
    return RunMetrics(
        n=n, k=header["k"], algorithm=header["algorithm"], **got,
        budget_exhausted=trailer["budget_exhausted"],
        final_multinodes=len(final.multinodes()) if rounds else 0,
        holes_start=n - len(rounds[0][1].before.at) if rounds else n,
        holes_end=n - len(final.at) if rounds else n,
        max_messages=decided.max_messages,
    ), lines


def verify_trace(text: str) -> TraceReport:
    """Re-derive everything a trace claims from its text, in stages."""
    header, rounds, trailer = parse_trace(text)
    blocks = [block for _, block in rounds]
    integrity, settled = _integrity(header, _algorithm(header), rounds, blocks)
    # the rounds up to settled decide every outcome
    decided = outcomes(blocks[:settled + 1], header["k"])
    lemmas = _multinode_increases(header, rounds, blocks, settled)
    # a stable sort: a round's integrity lines, then its lemma line
    violations = list(map(itemgetter(1), sorted(integrity + lemmas,
                                                key=itemgetter(0))))
    violations += _hole_progress(header, blocks, settled, decided.explored_at)
    metrics, lines = _trailer(header, rounds, trailer, decided)
    return TraceReport(metrics, violations + lines)
