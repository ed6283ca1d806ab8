"""Brute-force reference implementations used only by tests.

Deliberately naive and structurally different from the package code:
reachability via boolean matrix closure, partitions as frozensets, and a
trace parser that matches every token with its own regex and builds a
fresh Snapshot for every round.
"""

from __future__ import annotations

import re

from dispersim.engine import Action, EngineError
from dispersim.graphs import GraphError, Snapshot, parse_edges


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
