"""Synchronous round semantics for anonymous port-labeled agent networks.

Each round over the current snapshot:

1. every live agent gets a local view of its node (and under 1-hop
   visibility, the agent IDs on each neighboring node),
2. live agents broadcast (ID, view), the view's co-located IDs giving
   their count; an agent receives the broadcasts of its whole component
   under ``global`` communication or only of its own node under ``f2f``;
   its own broadcast is included,
3. each live agent computes an action from its constant-size state, its
   view, and its received broadcasts (agents never write to nodes),
4. all moves apply simultaneously; an agent whose action sets ``terminate``
   keeps occupying its node forever but stops broadcasting, receiving,
   stepping, and moving, and its state is dropped.

``round_step`` performs all four steps of one round and returns them as a
``RoundStep``: the round's ``Block``, ending in the configuration the
moves lead to, and the agent states after it.  It is the one round
kernel: ``run`` records each round's block, the oracle ``run`` hands an
adaptive adversary returns the step for a candidate snapshot, and the
verifier replays a trace through it.
Runs stop early once every agent has terminated, and fast-forward once
their source's state key, configuration and states repeat.  ``outcomes``
measures outcome rounds on the configuration reached AFTER each round, so
a run that is already dispersed and stays put reports dispersed_at = 0.

``RunResult.to_text`` writes a run as a trace and ``parse_trace`` reads
one back into equal ``Block``s; a block's placements are
``Configuration``s, and one round's ``after`` is the next round's
``before``.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping, NamedTuple

from .graphs import (
    GraphError,
    Memo,
    Schedule,
    Snapshot,
    components,
    format_edges,
    parse_int,
    snapshot_cache,
)

VISIBILITIES = ("zero", "one")
COMMUNICATIONS = ("global", "f2f")


class EngineError(RuntimeError):
    """Integrity fault: inconsistent views, illegal move, or broken trace."""


class LocalView(NamedTuple):
    """Observation of an agent's own node at the start of a round.

    ``per_port[p]`` holds the IDs on the node behind port ``p``; it is None
    under zero-hop visibility.
    """

    degree: int
    colocated: tuple[int, ...]
    per_port: tuple[tuple[int, ...], ...] | None

    def hole_ports(self) -> tuple[int, ...]:
        """Ports leading to unoccupied neighbors (1-hop visibility only)."""
        if self.per_port is None:
            return ()
        return tuple(p for p, ids in enumerate(self.per_port) if not ids)


class Broadcast(NamedTuple):
    """What a live agent sends: its ID and its node's view."""

    sender: int
    view: LocalView


_ACTION_CODE = re.compile(r"(s|m(\d+))(!?)")


class Action(NamedTuple):
    """What an agent does at the end of a round.

    ``port=None`` stays put.  ``terminate`` may combine with a move: the
    agent moves through the port and then halts forever.
    """

    port: int | None = None
    terminate: bool = False

    def code(self) -> str:
        out = "s" if self.port is None else f"m{self.port}"
        return out + ("!" if self.terminate else "")

    @classmethod
    def from_code(cls, code: str, ints: Memo | None = None) -> "Action":
        """The action a code names; ``ints`` is an integer table, as
        ``parse_trace`` keeps one for a whole trace."""
        m = _ACTION_CODE.fullmatch(code)
        if not m:
            raise EngineError(f"bad action code {code!r}")
        if ints is None:
            ints = Memo(parse_int)
        try:
            port = None if m.group(1) == "s" else ints[m.group(2)]
        except GraphError as exc:
            raise EngineError(f"bad action code: {exc}") from None
        return cls(port=port, terminate=bool(m.group(3)))


STAY = Action()


class AgentState(NamedTuple):
    """Constant-size private memory of one live agent; a step returns a new
    one.  A terminated agent has no state."""

    id: int
    t: int = 0


class Configuration(dict):
    """Placement of agents on nodes at the start of a round, agent -> node;
    ``at`` lists each occupied node's agents in order, and ``text`` keeps
    its trace text once written.  Must not be mutated."""

    __slots__ = ("n", "at", "text")

    def __init__(self, n: int, placement: Mapping[int, int]) -> None:
        super().__init__(placement)
        self.n = n
        at: dict[int, list[int]] = {}
        for a, node in sorted(self.items()):
            if not 0 <= node < n:
                raise GraphError(f"agent {a} placed on node {node}, n={n}")
            at.setdefault(node, []).append(a)
        self.at = {node: tuple(ids) for node, ids in at.items()}
        self.text = None

    def ids_at(self, node: int) -> tuple[int, ...]:
        return self.at.get(node, ())

    def holes(self) -> list[int]:
        return [v for v in range(self.n) if v not in self.at]

    def multinodes(self) -> list[int]:
        return sorted(v for v, ids in self.at.items() if len(ids) > 1)

    def is_dispersed(self) -> bool:
        return len(self.at) == len(self)

    def __repr__(self) -> str:
        return f"Configuration({self.n}, {dict.__repr__(self)})"


class Algorithm(NamedTuple):
    """A pure per-agent program: (state, view, broadcasts) -> (action, state)."""

    name: str
    step: Callable[
        [AgentState, LocalView, tuple[Broadcast, ...]],
        tuple[Action, AgentState],
    ]


def node_views(
    snapshot: Snapshot, config: Configuration, visibility: str
) -> dict[int, LocalView]:
    """One shared LocalView per occupied node."""
    if visibility not in VISIBILITIES:
        raise GraphError(f"unknown visibility {visibility!r}")
    ports, at = snapshot.ports, config.at
    one = visibility == "one"
    views = {}
    for node, ids in at.items():
        # the ports at a node are 0..d-1 (Snapshot checks), in port order
        pmap = ports.get(node, ())
        d = len(pmap)
        views[node] = LocalView(
            d, ids, tuple([at.get(pmap[p], ()) for p in range(d)]) if one else None)
    return views


class Bundle(tuple):
    """Broadcasts heard together, by sender.  ``deliver`` hands every agent
    of a component (of a node, under ``f2f``) the same Bundle, so the
    algorithms keep on it each agent's move under its sliding plan, as
    ``plan`` (``disp`` and ``alg1_implicit``, which stitch every bundle)
    or as ``actions`` (False when no multinode is heard), and a quiet
    bundle's walker as ``walker``."""


def deliver(
    snapshot: Snapshot,
    config: Configuration,
    mode: str,
    *,
    views: Mapping[int, LocalView],
    terminated: frozenset[int] | set[int] = frozenset(),
) -> dict[int, Bundle]:
    """Broadcasts each live agent receives this round, sorted by sender;
    ``views`` are this round's node views.

    Terminated agents neither broadcast nor receive, but they still appear
    in views (they physically occupy their node).
    """
    if mode not in COMMUNICATIONS:
        raise GraphError(f"unknown communication mode {mode!r}")
    at = config.at
    inbox: dict[int, Bundle] = {}
    # the nodes whose agents hear each other: a node, or a component
    for group in ([v] for v in at) if mode == "f2f" else components(snapshot):
        casts: list[Broadcast] = []
        for node in group:
            ids = at.get(node)
            if ids is not None:
                view = views[node]
                if terminated:
                    ids = [a for a in ids if a not in terminated]
                casts += [Broadcast(a, view) for a in ids]
        if not casts:
            continue
        if len(group) > 1:
            casts.sort()  # senders are distinct, so only they are compared
        bundle = Bundle(casts)
        for b in casts:
            inbox[b.sender] = bundle
    return inbox


class NodeKnowledge(NamedTuple):
    """One occupied node as reconstructed from broadcasts.

    The key is the least co-located agent ID; links lead to other occupied
    nodes by their keys; hole_ports lead to unoccupied neighbors.
    """

    key: int
    ids: tuple[int, ...]
    hole_ports: tuple[int, ...]
    links: tuple[tuple[int, int], ...]  # (port, neighbor key)


def stitch_component(broadcasts: Iterable[Broadcast]) -> dict[int, NodeKnowledge]:
    """Assemble the occupied-node graph visible in a set of broadcasts,
    each node by its key.

    Raises EngineError on inconsistency (same node described twice with
    different views, or asymmetric links): those are engine bugs, not
    adversary moves.
    """
    by_node: dict[tuple[int, ...], LocalView] = {}
    for b in broadcasts:
        prev = by_node.get(b.view.colocated)
        if prev is None:
            by_node[b.view.colocated] = b.view
        elif prev is not b.view and prev != b.view:
            raise EngineError(
                f"agents {b.view.colocated} report conflicting views"
            )
    nodes = {}
    directed = set()
    for colocated, view in by_node.items():
        key = colocated[0]
        links, holes = [], []
        for port, ids in enumerate(view.per_port or ()):
            if ids:
                links.append((port, ids[0]))
                directed.add((key, ids[0]))
            else:
                holes.append(port)
        nodes[key] = NodeKnowledge(key, colocated, tuple(holes), tuple(links))
    for a, b in directed:
        if b in nodes and (b, a) not in directed:
            raise EngineError(f"link {a}->{b} has no back link")
    return nodes


def apply_actions(
    snapshot: Snapshot,
    config: Configuration,
    actions: Mapping[int, Action],
) -> Configuration:
    """Simultaneously apply moves; illegal ports are engine faults.  When
    no agent moves, the result is ``config`` itself."""
    positions = None
    ports = snapshot.ports
    for a, act in actions.items():
        if act.port is None:
            continue
        positions = positions or dict(config)
        node = config[a]
        try:
            positions[a] = ports[node][act.port]
        except KeyError:
            raise EngineError(
                f"agent {a} at node {node} moved through missing port {act.port}"
            ) from None
    return config if positions is None else Configuration(config.n, positions)


class Block(NamedTuple):
    """One round of a run or of a parsed trace, in ``FIELDS`` order; one
    round's ``after`` is the next round's ``before``.  A run's rounds that
    repeat a step from the same objects, and a trace's rounds with the same
    six field lines, share this tuple and its values, which must not be
    mutated."""

    snapshot: Snapshot
    before: Configuration
    actions: dict[int, Action]
    after: Configuration
    components: list[list[int]]
    messages: int


class RoundStep(NamedTuple):
    """One round on one snapshot: its ``Block`` and the agent states after
    it, which leave out every agent that has terminated."""

    block: Block
    states: dict[int, AgentState]


def round_step(
    snapshot: Snapshot,
    config: Configuration,
    states: Mapping[int, AgentState],
    algorithm: Algorithm,
    visibility: str,
    communication: str,
    memo: dict,
) -> RoundStep:
    """Look, Broadcast, Compute and Move for one round.

    Components and node views are built once and shared by delivery and
    every agent.  Returns the round's ``Block``, which starts from the
    caller's ``snapshot`` and ``config`` objects, and the states after the
    round; steps are pure, so the caller's ``config`` and ``states`` are
    left untouched.

    ``memo`` is a dict that one caller keeps for one algorithm,
    visibility and communication; a fresh ``{}`` shares nothing.  It finds
    a round by the ids of its snapshot, configuration and states alone,
    and its entry holds those objects, so the ids stay theirs.  A repeated
    round arrives with the objects of the earlier one because every step
    ends in canonical objects: the memo keeps one Configuration per
    placement and one states dict per value, each the first it meets, as
    input or as result.  A hit returns the earlier step, whose values are
    shared; the memo keeps every input, so none may be mutated.
    """
    key = id(snapshot), id(config), id(states)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = snapshot, config, states, _step(
            snapshot, config, states, algorithm, visibility, communication,
            memo.setdefault(Configuration, {}), memo.setdefault(AgentState, {}))
    return hit[3]


def _step(snapshot, config, states, algorithm, visibility, communication,
          placements, values):
    """``round_step`` without a memo.  The agents of ``config`` without a
    state have terminated; an agent that ``config`` leaves out keeps its
    state.  When no agent's state changes, the states returned are the
    caller's ``states`` object.  ``placements`` maps each placement, its
    items in order, to one Configuration, and ``values`` each states value,
    its items in order, to one dict; both take the step's inputs, and the
    step ends in their objects: one in which no agent moves, in the one
    it looked up for ``config``."""
    canonical = placements.setdefault(tuple(config.items()), config)
    values.setdefault(tuple(states.items()), states)
    comps = components(snapshot)
    views = node_views(snapshot, config, visibility)
    inbox = deliver(snapshot, config, communication,
                    terminated=config.keys() - states.keys(), views=views)
    actions: dict[int, Action] = {}
    new_states = states
    for a in sorted(config.keys() & states.keys()):
        state = states[a]
        action, new = algorithm.step(state, views[config[a]], inbox[a])
        actions[a] = action
        if new is not state or action.terminate:
            if new_states is states:
                new_states = dict(states)
            new_states[a] = new
            if action.terminate:
                del new_states[a]
    if new_states is not states:
        new_states = values.setdefault(tuple(new_states.items()), new_states)
    messages = sum(map(len, inbox.values()))
    after = apply_actions(snapshot, config, actions)
    after = canonical if after is config else placements.setdefault(
        tuple(after.items()), after)
    block = Block(snapshot, config, actions, after, comps, messages)
    return RoundStep(block, new_states)


def compute_preview(
    snapshot: Snapshot,
    config: Configuration,
    states: Mapping[int, AgentState],
    algorithm: Algorithm,
    visibility: str,
    communication: str,
) -> dict[int, Action]:
    """Side-effect-free compute phase: what every live agent would do on
    this snapshot.  States are not advanced."""
    return round_step(
        snapshot, config, states, algorithm, visibility, communication, {}
    ).block.actions


class Outcomes(NamedTuple):
    dispersed_at: int | None
    explored_at: int | None
    all_terminated_at: int | None
    visited: set[int]
    max_messages: int


def outcomes(blocks: list[Block], k: int) -> Outcomes:
    """What consecutive rounds of agents 1..k decide, each round by its
    position: the first after which the agents are dispersed, every node
    has been visited and agents 1..k have terminated; the nodes visited,
    the start included; and the most messages of a round.  A block seen
    before leads where it did and changes no outcome, so each distinct
    block object is read once, at its first round."""
    if not blocks:  # build nothing of size k: no pos: field bounds it
        return Outcomes(None, None, None, set(), 0)
    dispersed_at = explored_at = all_terminated_at = None
    visited, terminated = set(blocks[0].before.at), set()
    everyone = set(range(1, k + 1))
    firsts: dict[int, tuple[int, Block]] = {}
    for r, block in enumerate(blocks):
        firsts.setdefault(id(block), (r, block))
    for r, block in firsts.values():
        visited.update(block.after.at)
        terminated.update(a for a, act in block.actions.items() if act.terminate)
        if dispersed_at is None and block.after.is_dispersed():
            dispersed_at = r
        if explored_at is None and len(visited) == block.after.n:
            explored_at = r
        if all_terminated_at is None and terminated == everyone:
            all_terminated_at = r
    return Outcomes(dispersed_at, explored_at, all_terminated_at, visited,
                    max(block.messages for _, block in firsts.values()))


class RunResult(NamedTuple):
    n: int
    k: int
    T: int | None
    algorithm: str
    visibility: str
    communication: str
    records: list[Block]
    dispersed_at: int | None
    explored_at: int | None
    all_terminated_at: int | None
    budget_exhausted: bool
    final: Configuration
    # (start, period) when the run fast-forwarded: every record from start
    # on is the one a period before it
    cycle: tuple[int, int] | None = None

    @property
    def rounds(self) -> int:
        return len(self.records)

    def schedule_prefix(self) -> Schedule:
        return Schedule((rec.snapshot for rec in self.records), self.cycle)

    def to_text(self) -> str:
        # the round memo shares a Block between rounds from the same
        # objects, and parse_trace between equal rounds; the records keep it
        # alive, so its id is its own: each distinct block is formatted once
        blocks: dict[int, str] = {}
        lines = [
            f"trace v=1 n={self.n} k={self.k} T={self.T if self.T else '-'}"
            f" algorithm={self.algorithm} visibility={self.visibility}"
            f" communication={self.communication}"
        ]
        for r, block in enumerate(self.records):
            text = blocks.get(id(block))
            if text is None:
                text = blocks[id(block)] = "\n".join(
                    prefix + fmt(value)
                    for prefix, value, fmt in zip(FIELDS, block, _FORMATS))
            lines.append(f"round r={r}")
            lines.append(text)
        out = lambda v: "-" if v is None else str(v)
        lines.append(
            f"end rounds={self.rounds} dispersed_at={out(self.dispersed_at)}"
            f" explored_at={out(self.explored_at)}"
            f" all_terminated_at={out(self.all_terminated_at)}"
            f" budget_exhausted={int(self.budget_exhausted)}"
        )
        return "\n".join(lines) + "\n"


# --- trace text ---

# the field lines of a round block, in order and in Block order; a
# line is its prefix, then its text after a space (format_edges puts one
# before each edge)
FIELDS = ("edges:", "pos:", "act:", "post:", "comp:", "msgs:")
# the order in which they are parsed, which decides the error reported for
# a block with more than one malformed field
_PARSE_ORDER = tuple(
    FIELDS.index(f) for f in ("edges:", "act:", "msgs:", "pos:", "post:", "comp:")
)
_HEADER_LINE = re.compile(
    r"trace v=1 n=(\d+) k=(\d+) T=(\d+|-) algorithm=(\S+)"
    r" visibility=(\S+) communication=(\S+)"
)
_END_LINE = re.compile(
    r"end rounds=(\d+) dispersed_at=(\d+|-) explored_at=(\d+|-)"
    r" all_terminated_at=(\d+|-) budget_exhausted=([01])"
)
_ROUND_LINE = re.compile(r"round r=(\d+)")
_COMP_FIELD = re.compile(r"\d+(?:,\d+)*(?:\|\d+(?:,\d+)*)*")


def _placement_text(config: Configuration) -> str:
    """Written once per configuration, which one round's ``post:`` and the
    next round's ``pos:`` share."""
    if config.text is None:
        config.text = " " + " ".join(f"{node}:{','.join(map(str, ids))}"
                                     for node, ids in sorted(config.at.items()))
    return config.text


# how each field's value is written, in FIELDS order
_FORMATS = (
    format_edges,
    _placement_text,
    lambda actions: " " + " ".join(
        f"{a}:{actions[a].code()}" for a in sorted(actions)),
    _placement_text,
    lambda comps: " " + "|".join(",".join(map(str, c)) for c in comps),
    lambda messages: f" {messages}",
)


def _parse_placement(text: str, n: int, ints: Memo) -> Configuration:
    placement: dict[int, int] = {}
    for tok in text.split():
        node, sep, ids = tok.partition(":")
        agents = ids.split(",")
        # isdecimal accepts exactly what the regex \d+ matches; int() alone
        # would also take "+1", " 1" and "1_0"
        if not (sep and node.isdecimal() and all(a.isdecimal() for a in agents)):
            raise EngineError(f"bad placement token {tok!r}")
        node = ints[node]
        for a in map(ints.__getitem__, agents):
            if a in placement:
                raise EngineError(f"agent {a} listed twice")
            placement[a] = node
    return Configuration(n, placement)


def _parse_actions(text: str, codes: Memo, ints: Memo) -> dict[int, Action]:
    actions = {}
    for tok in text.split():
        agent, sep, code = tok.partition(":")
        if not (sep and agent.isdecimal() and code):
            raise EngineError(f"bad action token {tok!r}")
        a = ints[agent]
        if a in actions:
            raise EngineError(f"agent {a} listed twice")
        actions[a] = codes[code]
    return actions


def _parse_comp(text: str, n: int, ints: Memo) -> list[list[int]]:
    """A partition that lists each node 0..n-1 exactly once.  Its nodes
    are counted before anything of size n is built: an honest field takes
    about 2n bytes, so the header's n cannot outgrow the trace."""
    if not text:
        comp = []
    elif not _COMP_FIELD.fullmatch(text):
        raise EngineError(f"bad comp field {text!r}")
    else:
        comp = [list(map(ints.__getitem__, part.split(",")))
                for part in text.split("|")]
    if sum(map(len, comp)) != n or set().union(*comp) != set(range(n)):
        raise EngineError(f"comp field must list each of the {n} nodes once")
    return comp


def _parse_msgs(text: str, ints: Memo) -> int:
    if not text.isdecimal():
        raise EngineError(f"bad msgs field {text!r}")
    return ints[text]


def parse_trace(text: str):
    """Header, rounds and trailer of a trace; each round is its recorded
    index, which a forged trace may get wrong, and its ``Block``.

    Each distinct field text is parsed once and its value shared by every
    line that repeats it: rounds on the same graph share one Snapshot, and
    a ``pos:`` that repeats the previous ``post:`` is the same
    Configuration.  Below the fields, the trace keeps one integer table,
    a ``Memo(parse_int)`` that every field's parser, the header and the
    end line read, so each distinct number text is converted once.  A
    block whose six field lines repeat an earlier block's is that
    block's ``Block``.  In the shape ``to_text`` writes
    (every line ended by "\\n" alone, round ``r`` on the line
    ``round r=<r>`` and the end line last) such a block is found with one
    lookup on its text; from the first line out of that shape on, the
    trace is read line by line.  A malformed text raises at its first
    line, and so does a header ``k`` larger than the number of agents the
    first ``pos:`` places.  Shared values must not be mutated.
    """
    rest, _, end = text.removesuffix("\n").rpartition("\n")
    head, *chunks = rest.split("\nround r=")
    lines = None
    m = _HEADER_LINE.fullmatch(head)
    if not m:
        lines = text.splitlines()
        if not lines:
            raise EngineError("empty trace")
        m = _HEADER_LINE.fullmatch(lines[0])
        if not m:
            raise EngineError(f"bad trace header: {lines[0]!r}")
        chunks = ()
    # the trace's integer table: each distinct number text is converted once
    ints = Memo(parse_int)
    try:
        header = {
            "n": ints[m.group(1)],
            "k": ints[m.group(2)],
            "T": None if m.group(3) == "-" else ints[m.group(3)],
            "algorithm": m.group(4),
            "visibility": m.group(5),
            "communication": m.group(6),
        }
        for name in ("n", "k"):
            if header[name] < 1:
                raise GraphError(f"{name} must be >= 1, got {header[name]}")
    except GraphError as exc:
        raise EngineError(f"line 1: {exc}") from None
    n = header["n"]
    codes = Memo(lambda code: Action.from_code(code, ints))
    placements = Memo(lambda text: _parse_placement(text, n, ints))
    parsers = (
        snapshot_cache(n, ints),
        placements,
        Memo(lambda text: _parse_actions(text, codes, ints)),
        placements,
        Memo(lambda text: _parse_comp(text, n, ints)),
        Memo(lambda text: _parse_msgs(text, ints)),
    )
    # each distinct block's six field lines, joined by "\n", and its Block;
    # only a block that parsed cleanly is stored, so errors keep their lines
    blocks: dict[str, Block] = {}
    rounds: list[tuple[int, Block]] = []

    def parse(key: str, fields: list[str], line: int) -> Block:
        """The Block of six field lines, the first on line ``line``."""
        texts = []
        for f, want in enumerate(FIELDS):
            if not fields[f].startswith(want):
                raise EngineError(f"line {line + f}: expected {want}")
            texts.append(fields[f][len(want):].strip())
        values = [None] * len(FIELDS)
        for f in _PARSE_ORDER:
            try:
                values[f] = parsers[f][texts[f]]
            except (GraphError, EngineError) as exc:
                raise EngineError(f"line {line + f}: {exc}") from None
        if not rounds and header["k"] > len(values[1]):
            # an honest first pos: names every agent, so the header's k
            # cannot outgrow the trace either
            raise EngineError(
                f"line {line + 1}: header k={header['k']} exceeds the"
                f" {len(values[1])} agents of the first pos field"
            )
        blocks[key] = block = Block(*values)
        return block

    # round r's "round r=" line is line 7r + 2, its fields the next six
    for r, chunk in enumerate(chunks):
        index, _, key = chunk.partition("\n")
        if index != str(r):
            break
        block = blocks.get(key)
        if block is None:
            fields = key.split("\n")
            if len(fields) != len(FIELDS) or key.splitlines() != fields:
                break
            block = parse(key, fields, 7 * r + 3)
        rounds.append((r, block))
    else:
        # every block has the shape, and so has the trace if its end line
        # is its last
        em = lines is None and _END_LINE.fullmatch(end)
        if em:
            return header, rounds, _trailer(em, 7 * len(rounds) + 2, ints)
    if lines is None:
        lines = text.splitlines()
    i = 7 * len(rounds) + 1
    while i < len(lines) and lines[i].startswith("round "):
        if i + 6 >= len(lines):
            raise EngineError(f"truncated round block at line {i + 1}")
        r = len(rounds)
        if lines[i] != f"round r={r}":
            rm = _ROUND_LINE.fullmatch(lines[i])
            if not rm:
                raise EngineError(f"line {i + 1}: bad round line")
            try:
                r = ints[rm.group(1)]
            except GraphError as exc:
                raise EngineError(f"line {i + 1}: {exc}") from None
        fields = lines[i + 1:i + 7]
        key = "\n".join(fields)
        block = blocks.get(key) or parse(key, fields, i + 2)
        rounds.append((r, block))
        i += 7
    if i >= len(lines) or not lines[i].startswith("end "):
        raise EngineError("trace missing end line")
    em = _END_LINE.fullmatch(lines[i])
    if not em:
        raise EngineError(f"bad end line: {lines[i]!r}")
    return header, rounds, _trailer(em, i + 1, ints)


def _trailer(em: re.Match, line: int, ints: Memo) -> dict:
    """The outcomes an end line states; ``line`` is its line number."""
    opt = lambda s: None if s == "-" else ints[s]
    try:
        return {
            "rounds": ints[em.group(1)],
            "dispersed_at": opt(em.group(2)),
            "explored_at": opt(em.group(3)),
            "all_terminated_at": opt(em.group(4)),
            "budget_exhausted": em.group(5) == "1",
        }
    except GraphError as exc:
        raise EngineError(f"line {line}: {exc}") from None


def run(
    source,
    placement: Mapping[int, int],
    algorithm: Algorithm,
    *,
    visibility: str = "one",
    communication: str = "global",
    max_rounds: int,
    T: int | None = None,
) -> RunResult:
    """Drive one run to completion or budget exhaustion.

    ``source`` has ``n`` and ``next_snapshot(r, config, states) ->
    Snapshot``: a Schedule is one, and so is an adversary; adversaries
    that declare ``needs_oracle`` get wired to this run's compute phase.
    A source may have ``state_key(r)``, a hashable value that with the
    configuration and states objects fixes every snapshot from round r on:
    once round r repeats an earlier round s's key and objects, rounds
    s..r-1 repeat up to ``max_rounds``, unqueried, changing no outcome.
    """
    if max_rounds < 1:
        raise GraphError(f"max_rounds must be >= 1, got {max_rounds}")
    if visibility not in VISIBILITIES:
        raise GraphError(f"unknown visibility {visibility!r}")
    if communication not in COMMUNICATIONS:
        raise GraphError(f"unknown communication mode {communication!r}")
    ids = sorted(placement)
    if not ids or ids != list(range(1, len(ids) + 1)):
        raise GraphError(f"agent ids must be 1..k, got {ids}")
    n = getattr(source, "n", None)
    if n is None:
        raise GraphError("schedule source must expose its node count n")
    config = Configuration(n, placement)
    states = {a: AgentState(id=a) for a in ids}
    # every step of this run, by the ids of its inputs: an adversary emits a
    # graph again as the same object and each step ends in the memo's
    # objects, so a repeated round is found by identity; the oracle's
    # previews share the memo, so a round that follows its preview is
    # served from it
    memo: dict = {}
    if getattr(source, "needs_oracle", False) and getattr(source, "oracle", None) is None:
        source.oracle = lambda snap, cfg, sts: round_step(
            snap, cfg, sts, algorithm, visibility, communication, memo
        )

    records: list[Block] = []
    # each stepped round by its state key and the ids of its configuration
    # and states; the entry keeps those objects, so the ids stay theirs
    state_key = getattr(source, "state_key", None)
    starts: dict = {}
    cycle = None

    for r in range(max_rounds):
        if state_key is not None:
            key = state_key(r), id(config), id(states)
            start = starts.setdefault(key, (r, config, states))[0]
            if start < r:
                cycle = start, r - start
                break
        snapshot = source.next_snapshot(r, config, states)
        if snapshot.n != config.n:
            raise GraphError(
                f"round {r}: snapshot has n={snapshot.n}, expected {config.n}"
            )
        step = round_step(snapshot, config, states, algorithm, visibility,
                          communication, memo)
        records.append(step.block)
        config, states = step.block.after, step.states
        if not states:
            break

    got = outcomes(records, len(ids))
    if cycle is not None:
        start, period = cycle
        records += records[start:] * ((max_rounds - start) // period)
        del records[max_rounds:]
    return RunResult(
        n=config.n,
        k=len(ids),
        T=T,
        algorithm=algorithm.name,
        visibility=visibility,
        communication=communication,
        records=records,
        dispersed_at=got.dispersed_at,
        explored_at=got.explored_at,
        all_terminated_at=got.all_terminated_at,
        budget_exhausted=got.all_terminated_at is None,
        final=records[-1].after,
        cycle=cycle,
    )
