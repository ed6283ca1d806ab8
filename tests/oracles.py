"""Brute-force reference implementations used only by tests.

Deliberately naive and structurally different from the package code:
reachability via boolean matrix closure, partitions as frozensets, a
``t_path`` check over every node pair of every window, a minimal T found
by trying every T in turn, a trace parser that matches every token with its
own regex (edge tokens too, so the package's one-pass edge parser is checked
against it), refuses an agent listed twice in one field, a partition that
does not list every node once or a header k above the number of agents the
first pos field places, and builds a fresh Snapshot for every round,
a snapshot check that tests every edge in turn, a schedule reader that
reads and checks every round line afresh, a window's reach grown by
sweeping its pairs, a run loop that computes every round afresh, and a
trace verifier that replays and checks every round afresh.  An edge field
is matched whole by one regex, where the package's edge parser checks it
by string operations.  A diameter is found by Floyd-Warshall.  The fixed
demo schedules the tests read live here too.
"""

from __future__ import annotations

import math
import random
import re

from dispersim.engine import (
    Action,
    AgentState,
    Configuration,
    EngineError,
    apply_actions,
    round_step,
)
from dispersim.adversary import DEMOS
from dispersim.algorithms import make_algorithm
from dispersim.graphs import (
    GraphError,
    Schedule,
    Snapshot,
    check_property,
    components,
)
from dispersim.harness import COOPERATIVE, RunMetrics, TraceReport


def random_pairs_reference(seed, n, prop, T, density, rounds):
    """The pair set of every round of a seeded random schedule, all drawn up
    front in the order of the seeded stream: the spanning trees of
    ``t_interval`` first, then round by round a tree where one is due and
    the random extras."""
    rng = random.Random(f"{seed}:{n}:{prop}:{T}:{density}:{rounds}")

    def tree():
        order = list(range(n))
        rng.shuffle(order)
        return {(order[i], order[rng.randrange(i)]) for i in range(1, n)}

    def extras():
        return {(u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < density}

    trees = ([tree() for _ in range(rounds // T + 1)]
             if prop == "t_interval" else None)
    out = []
    for r in range(rounds):
        pairs = set()
        if trees is not None:
            pairs |= trees[r // T]
            if r >= T:
                pairs |= trees[r // T - 1]
        elif r % T == T - 1:
            pairs |= tree()
        out.append(pairs | extras())
    return out


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


def diameter_reference(n, pairs):
    """Longest shortest path of one edge set by Floyd-Warshall, or
    math.inf when some pair is not connected."""
    dist = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v in pairs:
        dist[u][v] = dist[v][u] = 1
    for m in range(n):
        for u in range(n):
            for v in range(n):
                dist[u][v] = min(dist[u][v], dist[u][m] + dist[m][v])
    return max(map(max, dist))


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


def edges_of(snapshot):
    """The snapshot's edges as sorted ``(u, v, pu, pv)`` tuples, read from
    its port maps by searching each neighbor's map for the way back."""
    return sorted(
        (u, v, pu, pv)
        for u, pmap in snapshot.ports.items()
        for pu, v in pmap.items() if u < v
        for pv, w in snapshot.ports[v].items() if w == u
    )


def snapshot_reference(n, edges):
    """``(n, pairs, ports)`` of a snapshot, or the GraphError of its first
    fault, found by checking every edge in turn: range and self-loop faults
    in input order, then duplicates and reused ports in (u, v) order, then
    port gaps by node."""
    if n < 1:
        raise GraphError(f"snapshot needs at least one node, got n={n}")
    normalized = []
    for u, v, pu, pv in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        normalized.append((u, v, pu, pv) if u < v else (v, u, pv, pu))
    normalized.sort(key=lambda e: (e[0], e[1]))
    pairs = set()
    ports = {}
    for u, v, pu, pv in normalized:
        if (u, v) in pairs:
            raise GraphError(f"duplicate edge {u}-{v}")
        pairs.add((u, v))
        for a, pa, b in ((u, pu, v), (v, pv, u)):
            pmap = ports.setdefault(a, {})
            if pa in pmap:
                raise GraphError(f"node {a} uses port {pa} twice")
            pmap[pa] = b
    for v in sorted(ports):
        pmap = ports[v]
        if sorted(pmap) != list(range(len(pmap))):
            raise GraphError(
                f"node {v} ports {sorted(pmap)} are not 0..{len(pmap) - 1}"
            )
    return n, frozenset(pairs), ports


def window_witness_reference(schedule, prop, T):
    """First window of ``t_interval`` or ``connectivity_time`` at T that is
    not connected, with the least node pair it splits, or None.

    Node 0 belongs to the least pair of every disconnected window, with the
    least node it cannot reach, so the reach of node 0 is grown here by
    sweeping every pair of the window's intersection or union until a
    sweep adds nothing."""
    pair_sets = [s.pairs for s in schedule.snapshots]
    union = prop == "connectivity_time"
    for r in range(schedule.rounds - T + 1):
        pairs = window_pairs(pair_sets, r, T, union)
        reached = {0}
        grew = True
        while grew:
            grew = False
            for u, v in pairs:
                if (u in reached) != (v in reached):
                    reached |= {u, v}
                    grew = True
        if len(reached) < schedule.n:
            return r, (0, min(set(range(schedule.n)) - reached))
    return None


# the 4-node reference traces of ``adversary.DEMOS`` cut to a length, one
# Snapshot per graph of the period as ``adversary.Periodic`` hands them out


def _periodic(demo, rounds):
    period = [Snapshot.from_pairs(4, pairs) for pairs in DEMOS[demo]]
    return Schedule(period[r % len(period)] for r in range(rounds))


def tpath_demo_schedule(rounds=9):
    return _periodic("tpath_demo", rounds)


def ctime_demo_schedule(rounds=9):
    return _periodic("ctime_demo", rounds)


def perpetual_demo_schedule(rounds=18):
    return _periodic("perpetual_demo", rounds)


# --- runs ---


def run_text(source, placement, algorithm, *, visibility="one",
             communication="global", max_rounds, T=None):
    """Trace text of a run in which nothing is shared between rounds: every
    round, and every oracle preview, calls ``round_step`` with a fresh memo
    on a fresh copy of the snapshot, the moves are applied again outside the
    kernel, and every line is formatted on its own."""
    def fresh(snap):
        return Snapshot(snap.n, edges_of(snap))

    if getattr(source, "needs_oracle", False):
        source.oracle = lambda snap, cfg, sts: round_step(
            fresh(snap), cfg, sts, algorithm, visibility, communication, {}
        )

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
    visited = set(config.values())
    dispersed = explored = terminated = None
    rounds = 0
    for r in range(max_rounds):
        snap = fresh(source.next_snapshot(r, config, states))
        step = round_step(snap, config, states, algorithm, visibility,
                          communication, {})
        after = apply_actions(snap, config, step.block.actions)
        lines += [
            f"round r={r}",
            "edges:" + "".join(f" {u}-{v}:{pu},{pv}"
                               for u, v, pu, pv in edges_of(snap)),
            "pos: " + placement_text(config),
            "act: " + " ".join(f"{a}:{step.block.actions[a].code()}"
                               for a in sorted(step.block.actions)),
            "post: " + placement_text(after),
            "comp: " + "|".join(",".join(str(v) for v in c)
                                for c in step.block.components),
            f"msgs: {step.block.messages}",
        ]
        rounds += 1
        config, states = after, step.states
        visited |= set(config.values())
        if dispersed is None and len(set(config.values())) == len(placement):
            dispersed = r
        if explored is None and len(visited) == source.n:
            explored = r
        if not states:
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
_EDGE = re.compile(r"(\d+)-(\d+):(\d+),(\d+)")
_PLACEMENT = re.compile(r"(\d+):(\d+(?:,\d+)*)")
_ACTION = re.compile(r"(\d+):(\S+)")
_COMP = re.compile(r"\d+(?:,\d+)*(?:\|\d+(?:,\d+)*)*")
# a whole edge field as one regex: whitespace-separated edge tokens, each
# ending at whitespace as str.split ends it, so "0-1:0,01-2:0,0" is one
# bad token
EDGE_FIELD = re.compile(r"(?:\s*\d+-\d+:\d+,\d+(?!\S))*\s*")


def number(digits):
    """The value of a digit run; one too long for ``int`` is a GraphError."""
    try:
        return int(digits)
    except ValueError:
        raise GraphError(
            f"number of {len(digits)} digits is too long") from None


def parse_edges_reference(field):
    """``(u, v, pu, pv)`` edges of an edge field, or the GraphError of its
    first fault in reading order: a bad token, or a number too long for
    ``int``.  A field that ``EDGE_FIELD`` matches is read as its digit
    runs, four an edge; any other is read token by token."""
    if EDGE_FIELD.fullmatch(field):
        numbers = [number(d) for d in re.findall(r"\d+", field)]
        return [tuple(numbers[i:i + 4]) for i in range(0, len(numbers), 4)]
    edges = []
    for tok in field.split():
        m = _EDGE.fullmatch(tok)
        if not m:
            raise GraphError(f"bad edge token {tok!r}")
        edges.append(tuple(number(d) for d in m.groups()))
    return edges


def schedule_from_text_reference(text):
    """Each round's ``(n, pairs, ports)`` of a schedule text, or the
    GraphError of its first fault, prefixed by its line: comments and
    blank lines are dropped, the first line left is the header, and every
    other is one round, its edge field read afresh by
    ``parse_edges_reference`` and checked by ``snapshot_reference``."""
    lines = [(i, raw.split("#", 1)[0].strip())
             for i, raw in enumerate(text.splitlines(), start=1)]
    lines = [(i, line) for i, line in lines if line]
    if not lines:
        raise GraphError("empty schedule file")
    (at, header), body = lines[0], lines[1:]
    rounds = {}

    def read_header():
        m = re.fullmatch(r"n=(\d+) rounds=(\d+)", header)
        if not m:
            raise GraphError(f"bad header {header!r}")
        n, count = number(m.group(1)), number(m.group(2))
        for name, value in (("n", n), ("rounds", count)):
            if value < 1:
                raise GraphError(f"{name} must be >= 1, got {value}")
        if count > len(body):
            raise GraphError(f"missing rounds: header says rounds={count}"
                             f" but only {len(body)} round lines follow")
        return n, count

    def read_round(line):
        m = re.fullmatch(r"r=(\d+):(.*)", line)
        if not m:
            raise GraphError("expected 'r=<r>: <edges>'")
        r = number(m.group(1))
        if not 0 <= r < count:
            raise GraphError(f"round {r} outside 0..{count - 1}")
        if r in rounds:
            raise GraphError(f"round {r} listed twice")
        rounds[r] = snapshot_reference(n, parse_edges_reference(m.group(2)))

    def at_line(lineno, read, *args):
        try:
            return read(*args)
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None

    n, count = at_line(at, read_header)
    for lineno, line in body:
        at_line(lineno, read_round, line)
    return [rounds[r] for r in range(count)]


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
    fresh Snapshot for every round; each round is the pair
    (r, (snapshot, before, actions, after, components, messages))."""
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
    for name in ("n", "k"):
        if header[name] < 1:
            raise EngineError(
                f"line 1: {name} must be >= 1, got {header[name]}")
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
        edges = []
        for tok in fields["edges"].split():
            em = _EDGE.fullmatch(tok)
            if not em:
                raise EngineError(
                    f"line {at['edges']}: bad edge token {tok!r}"
                )
            edges.append(tuple(int(x) for x in em.groups()))
        try:
            snapshot = Snapshot(n, edges)
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
        nodes = re.findall(r"\d+", fields["comp"])
        if len(nodes) != n or sorted(map(int, nodes)) != list(range(n)):
            raise EngineError(
                f"line {at['comp']}: comp field must list each of the {n}"
                " nodes once"
            )
        if not rounds and header["k"] > len(pos):
            raise EngineError(
                f"line {at['pos']}: header k={header['k']} exceeds the"
                f" {len(pos)} agents of the first pos field"
            )
        rounds.append((int(rm.group(1)), (snapshot, pos, actions, post, comp,
                                          int(fields["msgs"]))))
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


def verify_trace_reference(text):
    """``harness.verify_trace`` without sharing: the trace is read by
    ``parse_trace_reference``, and every round gets a fresh Configuration,
    a replay with a fresh memo and every check."""
    header, rounds, trailer = parse_trace_reference(text)
    rounds = [(r, *block) for r, block in rounds]
    n, k = header["n"], header["k"]
    algorithm = header["algorithm"]
    try:
        alg = make_algorithm(algorithm, T=header["T"])
    except ValueError as exc:
        raise EngineError(f"line 1: {exc}") from None
    if header["T"] == 0:
        raise EngineError("line 1: T must be >= 1, got 0")
    violations = []
    note = violations.append
    all_ids = set(range(1, k + 1))
    states = {a: AgentState(id=a) for a in all_ids}
    terminated = set()
    visited = set(rounds[0][2].values()) if rounds else set()
    multis, visited_counts = [], []
    dispersed_at = explored_at = all_terminated_at = None
    max_messages = 0
    for idx, (r, snapshot, pos, actions, post, comp, msgs) in enumerate(rounds):
        where = f"round {r}"
        if r != idx:
            note(f"{where}: expected round index {idx}")
        for name, placement in (("pos", pos), ("post", post)):
            if set(placement) != all_ids:
                note(f"{where}: {name} does not cover agents 1..{k}")
        if idx > 0 and pos != rounds[idx - 1][4]:
            note(f"{where}: pos does not match previous post")
        live = all_ids - terminated
        if set(actions) != live:
            note(f"{where}: actors {sorted(actions)} != live {sorted(live)}")
        for a in sorted(actions):
            src = pos.get(a)
            if src is None:
                continue
            dest = src
            if actions[a].port is not None:
                try:
                    dest = snapshot.neighbor(src, actions[a].port)
                except GraphError:
                    note(f"{where}: agent {a} used missing port"
                         f" {actions[a].port} at node {src}")
                    continue
            if post.get(a) != dest:
                note(f"{where}: agent {a} recorded at {post.get(a)},"
                     f" moves say {dest}")
        for a in terminated:
            if post.get(a) != pos.get(a):
                note(f"{where}: terminated agent {a} moved")
        config = Configuration(n, pos)
        if pos.keys() <= all_ids:
            step = round_step(snapshot, config, states, alg,
                              header["visibility"], header["communication"],
                              {})
            states = step.states
            for a in sorted(actions.keys() | step.block.actions.keys()):
                got, want = actions.get(a), step.block.actions.get(a)
                if got != want:
                    note(f"{where}: agent {a} recorded"
                         f" {got.code() if got else '-'}, {algorithm}"
                         f" computes {want.code() if want else '-'}")
            if comp != step.block.components:
                note(f"{where}: component partition mismatch")
            if msgs != step.block.messages:
                note(f"{where}: msgs={msgs}, recomputed {step.block.messages}")
        max_messages = max(max_messages, msgs)
        post_config = Configuration(n, post)
        multis.append(len(config.multinodes()))
        terminating = any(act.terminate for act in actions.values())
        if algorithm in COOPERATIVE and not terminating:
            if len(post_config.multinodes()) > multis[-1]:
                note(f"{where}: multinode count increased")
        terminated |= {a for a, act in actions.items() if act.terminate}
        visited |= set(post.values())
        visited_counts.append(len(visited))
        if dispersed_at is None and post_config.is_dispersed():
            dispersed_at = r
        if explored_at is None and len(visited) == n:
            explored_at = r
        if all_terminated_at is None and terminated == all_ids:
            all_terminated_at = r

    def holes(placement):
        return n - len(set(placement.values()))

    T = header["T"]
    if (rounds and T is not None and algorithm in COOPERATIVE
            and header["communication"] == "global"
            and header["visibility"] == "one"):
        prefix = Schedule(rnd[1] for rnd in rounds)
        if prefix.rounds >= T and check_property(prefix, "t_path", T).holds:
            for r in range(len(rounds) - T + 1):
                if multis[r] == 0:
                    continue
                before = holes(rounds[r][2])
                after = holes(rounds[r + T - 1][4])
                if after >= before and not (
                    algorithm == "alg3" and visited_counts[r + T - 1] == n
                ):
                    note(f"window [{r}, {r + T - 1}]: started with a"
                         f" multinode but holes went {before} -> {after}")
    for key, got in (("rounds", len(rounds)), ("dispersed_at", dispersed_at),
                     ("explored_at", explored_at),
                     ("all_terminated_at", all_terminated_at)):
        if trailer[key] != got:
            note(f"end line says {key}={trailer[key]}, recomputed {got}")
    if trailer["budget_exhausted"] == (all_terminated_at is not None):
        note("end line budget_exhausted inconsistent with terminations")
    final = rounds[-1][4] if rounds else {}
    return TraceReport(
        RunMetrics(
            n=n, k=k, rounds=len(rounds), algorithm=algorithm,
            dispersed_at=dispersed_at, explored_at=explored_at,
            all_terminated_at=all_terminated_at,
            budget_exhausted=trailer["budget_exhausted"],
            final_multinodes=(len(Configuration(n, final).multinodes())
                              if final else 0),
            holes_start=holes(rounds[0][2]) if rounds else n,
            holes_end=holes(final) if final else n,
            max_messages=max_messages,
        ),
        violations,
    )
