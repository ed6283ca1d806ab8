"""Brute-force reference implementations used only by tests.

Deliberately naive and structurally different from the package code:
reachability via boolean matrix closure, partitions as frozensets, a
``t_path`` check over every node pair of every window, a minimal T found
by trying every T in turn, a trace parser that matches every token with its
own regex, refuses an agent listed twice in one field and builds a fresh
Snapshot for every round, and a run loop that computes every round afresh.
"""

from __future__ import annotations

import re

from dispersim.engine import (
    Action,
    AgentState,
    Configuration,
    EngineError,
    ScheduleSource,
    apply_actions,
    round_step,
)
from dispersim.graphs import GraphError, Schedule, Snapshot, components, parse_edges


def reach_matrix(n, pairs):
    """Boolean reachability closure of one edge set."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for u, v in pairs:
        reach[u][v] = reach[v][u] = True
    for _ in range(n):
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(
                    reach[i][k] and reach[k][j] for k in range(n)
                ):
                    reach[i][j] = True
                    changed = True
        if not changed:
            break
    return reach


def partition(n, pairs):
    """Components as a frozenset of frozensets."""
    reach = reach_matrix(n, pairs)
    return frozenset(
        frozenset(j for j in range(n) if reach[i][j]) for i in range(n)
    )


def is_connected(n, pairs):
    return len(partition(n, pairs)) == 1


def window_pairs(pair_sets, r, T, union):
    acc = set(pair_sets[r])
    for i in range(r + 1, r + T):
        if union:
            acc |= pair_sets[i]
        else:
            acc &= pair_sets[i]
    return acc


def oracle_holds(n, pair_sets, prop, T):
    """Exhaustive window-by-window property check."""
    R = len(pair_sets)
    assert 1 <= T <= R
    for r in range(R - T + 1):
        if prop == "t_interval":
            if not is_connected(n, window_pairs(pair_sets, r, T, union=False)):
                return False
        elif prop == "connectivity_time":
            if not is_connected(n, window_pairs(pair_sets, r, T, union=True)):
                return False
        elif prop == "t_path":
            reaches = [
                reach_matrix(n, pair_sets[i]) for i in range(r, r + T)
            ]
            for u in range(n):
                for v in range(u + 1, n):
                    if not any(m[u][v] for m in reaches):
                        return False
        else:
            raise AssertionError(prop)
    return True


def minimal_T_reference(n, pair_sets, prop):
    """Least T at which ``oracle_holds``, trying every T from 1 up, or None."""
    for T in range(1, len(pair_sets) + 1):
        if oracle_holds(n, pair_sets, prop, T):
            return T
    return None


def t_path_witness(schedule, T):
    """First failing window of ``t_path`` at T and the least pair it splits,
    or None: the pair loop over per-round component labels."""
    n = schedule.n
    labels = []
    for s in schedule.snapshots:
        lab = [0] * n
        for comp in components(s):
            for v in comp:
                lab[v] = comp[0]
        labels.append(lab)
    for r in range(schedule.rounds - T + 1):
        win = labels[r : r + T]
        for u in range(n):
            for v in range(u + 1, n):
                if not any(lab[u] == lab[v] for lab in win):
                    return (r, (u, v))
    return None


# --- runs ---


def run_text(source, placement, algorithm, *, visibility="one",
             communication="global", max_rounds, T=None):
    """Trace text of a run in which nothing is shared between rounds: every
    round, and every oracle preview, calls ``round_step`` without a memo on
    a fresh copy of the snapshot, and every line is formatted on its own."""
    if isinstance(source, Schedule):
        source = ScheduleSource(source)

    def fresh(snap):
        return Snapshot(snap.n, snap.edges)

    if getattr(source, "needs_oracle", False):
        source.oracle = lambda snap, cfg, sts: dict(round_step(
            fresh(snap), cfg, sts, algorithm, visibility, communication
        ).actions)

    def placement_text(pos):
        return " ".join(
            f"{node}:{','.join(str(a) for a in sorted(pos) if pos[a] == node)}"
            for node in sorted(set(pos.values()))
        )

    config = Configuration(source.n, placement)
    states = {a: AgentState(id=a) for a in sorted(placement)}
    lines = [
        f"trace v=1 n={source.n} k={len(placement)} T={T if T else '-'}"
        f" algorithm={algorithm.name} visibility={visibility}"
        f" communication={communication}"
    ]
    visited = set(config.positions.values())
    dispersed = explored = terminated = None
    rounds = 0
    for r in range(max_rounds):
        snap = fresh(source.next_snapshot(r, config, states))
        step = round_step(snap, config, states, algorithm, visibility,
                          communication)
        after = apply_actions(snap, config, step.actions)
        lines += [
            f"round r={r}",
            "edges:" + "".join(f" {e.u}-{e.v}:{e.port_u},{e.port_v}"
                               for e in snap.edges),
            "pos: " + placement_text(config.positions),
            "act: " + " ".join(f"{a}:{step.actions[a].code()}"
                               for a in sorted(step.actions)),
            "post: " + placement_text(after.positions),
            "comp: " + "|".join(",".join(str(v) for v in c)
                                for c in step.components),
            f"msgs: {step.messages}",
        ]
        rounds += 1
        config, states = after, step.states
        visited |= set(config.positions.values())
        if dispersed is None and len(set(config.positions.values())) == len(placement):
            dispersed = r
        if explored is None and len(visited) == source.n:
            explored = r
        if all(st.terminated for st in states.values()):
            terminated = r
            break
    out = lambda v: "-" if v is None else str(v)
    lines.append(
        f"end rounds={rounds} dispersed_at={out(dispersed)}"
        f" explored_at={out(explored)} all_terminated_at={out(terminated)}"
        f" budget_exhausted={int(terminated is None)}"
    )
    return "\n".join(lines) + "\n"


# --- trace text ---

_HEADER = re.compile(
    r"trace v=1 n=(\d+) k=(\d+) T=(\d+|-) algorithm=(\S+)"
    r" visibility=(\S+) communication=(\S+)"
)
_END = re.compile(
    r"end rounds=(\d+) dispersed_at=(\d+|-) explored_at=(\d+|-)"
    r" all_terminated_at=(\d+|-) budget_exhausted=([01])"
)
_PLACEMENT = re.compile(r"(\d+):(\d+(?:,\d+)*)")
_ACTION = re.compile(r"(\d+):(\S+)")
_COMP = re.compile(r"\d+(?:,\d+)*(?:\|\d+(?:,\d+)*)*")


def _ref_placement(text, n, lineno):
    placement = {}
    for tok in text.split():
        m = _PLACEMENT.fullmatch(tok)
        if not m:
            raise EngineError(f"line {lineno}: bad placement token {tok!r}")
        for a in m.group(2).split(","):
            if int(a) in placement:
                raise EngineError(f"line {lineno}: agent {int(a)} listed twice")
            placement[int(a)] = int(m.group(1))
    for a in sorted(placement):
        if not 0 <= placement[a] < n:
            raise EngineError(
                f"line {lineno}: agent {a} placed on node {placement[a]}, n={n}"
            )
    return placement


def parse_trace_reference(text):
    """(header, rounds, trailer) of a trace, one regex per token and a
    fresh Snapshot for every round; each round is the tuple
    (r, snapshot, pos, actions, post, comp, msgs)."""
    lines = text.splitlines()
    if not lines:
        raise EngineError("empty trace")
    m = _HEADER.fullmatch(lines[0])
    if not m:
        raise EngineError(f"bad trace header: {lines[0]!r}")
    n = int(m.group(1))
    header = {
        "n": n,
        "k": int(m.group(2)),
        "T": None if m.group(3) == "-" else int(m.group(3)),
        "algorithm": m.group(4),
        "visibility": m.group(5),
        "communication": m.group(6),
    }
    rounds = []
    i = 1
    while i < len(lines) and lines[i].startswith("round "):
        if i + 6 >= len(lines):
            raise EngineError(f"truncated round block at line {i + 1}")
        rm = re.fullmatch(r"round r=(\d+)", lines[i])
        if not rm:
            raise EngineError(f"line {i + 1}: bad round line")
        fields, at = {}, {}
        for offset, want in enumerate(
            ("edges:", "pos:", "act:", "post:", "comp:", "msgs:"), start=2
        ):
            line = lines[i + offset - 1]
            if not line.startswith(want):
                raise EngineError(f"line {i + offset}: expected {want}")
            fields[want[:-1]] = line[len(want):].strip()
            at[want[:-1]] = i + offset
        try:
            snapshot = Snapshot(n, parse_edges(fields["edges"]))
        except GraphError as exc:
            raise EngineError(f"line {at['edges']}: {exc}") from None
        actions = {}
        for tok in fields["act"].split():
            am = _ACTION.fullmatch(tok)
            if not am:
                raise EngineError(f"line {at['act']}: bad action token {tok!r}")
            if int(am.group(1)) in actions:
                raise EngineError(
                    f"line {at['act']}: agent {int(am.group(1))} listed twice"
                )
            try:
                actions[int(am.group(1))] = Action.from_code(am.group(2))
            except EngineError as exc:
                raise EngineError(f"line {at['act']}: {exc}") from None
        if not re.fullmatch(r"\d+", fields["msgs"]):
            raise EngineError(
                f"line {at['msgs']}: bad msgs field {fields['msgs']!r}"
            )
        pos = _ref_placement(fields["pos"], n, at["pos"])
        post = _ref_placement(fields["post"], n, at["post"])
        comp = []
        if fields["comp"]:
            if not _COMP.fullmatch(fields["comp"]):
                raise EngineError(
                    f"line {at['comp']}: bad comp field {fields['comp']!r}"
                )
            comp = [[int(x) for x in part.split(",")]
                    for part in fields["comp"].split("|")]
        rounds.append((int(rm.group(1)), snapshot, pos, actions, post, comp,
                       int(fields["msgs"])))
        i += 7
    if i >= len(lines) or not lines[i].startswith("end "):
        raise EngineError("trace missing end line")
    em = _END.fullmatch(lines[i])
    if not em:
        raise EngineError(f"bad end line: {lines[i]!r}")
    opt = lambda s: None if s == "-" else int(s)
    trailer = {
        "rounds": int(em.group(1)),
        "dispersed_at": opt(em.group(2)),
        "explored_at": opt(em.group(3)),
        "all_terminated_at": opt(em.group(4)),
        "budget_exhausted": em.group(5) == "1",
    }
    return header, rounds, trailer
