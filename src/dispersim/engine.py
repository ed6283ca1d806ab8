"""Synchronous round semantics for anonymous port-labeled agent networks.

Each round over the current snapshot:

1. every live agent gets a local view of its node (and under 1-hop
   visibility, the agent IDs on each neighboring node),
2. live agents broadcast (ID, co-located count, view); an agent receives
   the broadcasts of its whole component under ``global`` communication or
   only of its own node under ``f2f``; its own broadcast is included,
3. each live agent computes an action from its constant-size state, its
   view, and its received broadcasts (agents never write to nodes),
4. all moves apply simultaneously; an agent whose action sets ``terminate``
   keeps occupying its node forever but stops broadcasting, receiving,
   stepping, and moving.

``round_step`` performs steps 1-3 of one round; ``run`` applies the moves
and records the round.  Runs stop early once every agent has terminated.
Outcome rounds are measured on the configuration reached AFTER each round,
so a run that is already dispersed and stays put reports dispersed_at = 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

from .graphs import (
    GraphError,
    Schedule,
    Snapshot,
    components,
    format_edges,
    parse_int,
)

VISIBILITIES = ("zero", "one")
COMMUNICATIONS = ("global", "f2f")


class EngineError(RuntimeError):
    """Integrity fault: inconsistent views, illegal move, or broken trace."""


@dataclass(frozen=True)
class PortView:
    """What an agent sees through one port: the IDs on the far node."""

    port: int
    occupants: tuple[int, ...]


@dataclass(frozen=True)
class LocalView:
    """Observation of an agent's own node at the start of a round.

    ``per_port`` is None under zero-hop visibility.
    """

    degree: int
    colocated: tuple[int, ...]
    per_port: tuple[PortView, ...] | None

    def hole_ports(self) -> tuple[int, ...]:
        """Ports leading to unoccupied neighbors (1-hop visibility only)."""
        if self.per_port is None:
            return ()
        return tuple(pv.port for pv in self.per_port if not pv.occupants)


@dataclass(frozen=True)
class Broadcast:
    sender: int
    count: int
    view: LocalView


_ACTION_CODE = re.compile(r"(s|m(\d+))(!?)")


@dataclass(frozen=True)
class Action:
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
    def from_code(cls, code: str) -> "Action":
        m = _ACTION_CODE.fullmatch(code)
        if not m:
            raise EngineError(f"bad action code {code!r}")
        try:
            port = None if m.group(1) == "s" else parse_int(m.group(2))
        except GraphError as exc:
            raise EngineError(f"bad action code: {exc}") from None
        return cls(port=port, terminate=bool(m.group(3)))


STAY = Action()


@dataclass
class AgentState:
    """Constant-size private memory of one agent."""

    id: int
    t: int = 0
    terminated: bool = False


class Configuration:
    """Placement of agents on nodes at the start of a round."""

    __slots__ = ("n", "positions", "at")

    def __init__(self, n: int, positions: Mapping[int, int]) -> None:
        self.n = n
        self.positions = dict(positions)
        at: dict[int, list[int]] = {}
        for a in sorted(self.positions):
            node = self.positions[a]
            if not 0 <= node < n:
                raise GraphError(f"agent {a} placed on node {node}, n={n}")
            at.setdefault(node, []).append(a)
        self.at = {node: tuple(ids) for node, ids in at.items()}

    def ids_at(self, node: int) -> tuple[int, ...]:
        return self.at.get(node, ())

    def occupied(self) -> list[int]:
        return sorted(self.at)

    def holes(self) -> list[int]:
        return [v for v in range(self.n) if v not in self.at]

    def multinodes(self) -> list[int]:
        return sorted(v for v, ids in self.at.items() if len(ids) > 1)

    def is_dispersed(self) -> bool:
        return all(len(ids) == 1 for ids in self.at.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self.n == other.n
            and self.positions == other.positions
        )

    def __repr__(self) -> str:
        return f"Configuration(n={self.n}, positions={self.positions})"


@dataclass(frozen=True)
class Algorithm:
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
    views = {}
    for node, ids in config.at.items():
        per_port = None
        if visibility == "one":
            per_port = tuple(
                PortView(port, config.ids_at(nbr))
                for port, nbr in snapshot.port_items(node)
            )
        views[node] = LocalView(
            degree=snapshot.degree(node), colocated=ids, per_port=per_port
        )
    return views


class Bundle(tuple):
    """Broadcasts heard together, by sender.  ``deliver`` hands every agent
    of a component (of a node, under ``f2f``) the same Bundle, so the
    algorithms keep the bundle's sliding plan on it as ``plan``."""


def deliver(
    snapshot: Snapshot,
    config: Configuration,
    mode: str,
    *,
    visibility: str = "one",
    terminated: frozenset[int] | set[int] = frozenset(),
    views: Mapping[int, LocalView] | None = None,
) -> dict[int, Bundle]:
    """Broadcasts each live agent receives this round, sorted by sender.

    Terminated agents neither broadcast nor receive, but they still appear
    in views (they physically occupy their node).  ``views`` takes this
    round's node views when the caller already has them.
    """
    if mode not in COMMUNICATIONS:
        raise GraphError(f"unknown communication mode {mode!r}")
    if views is None:
        views = node_views(snapshot, config, visibility)
    node_casts: dict[int, list[Broadcast]] = {}
    for node, ids in config.at.items():
        node_casts[node] = [
            Broadcast(a, len(ids), views[node]) for a in ids if a not in terminated
        ]
    inbox: dict[int, Bundle] = {}
    if mode == "f2f":
        for node, casts in node_casts.items():
            bundle = Bundle(casts)
            for a in config.ids_at(node):
                if a not in terminated:
                    inbox[a] = bundle
    else:
        for comp in components(snapshot):
            casts = []
            for node in comp:
                casts.extend(node_casts.get(node, ()))
            casts.sort(key=lambda b: b.sender)
            bundle = Bundle(casts)
            for node in comp:
                for a in config.ids_at(node):
                    if a not in terminated:
                        inbox[a] = bundle
    return inbox


@dataclass(frozen=True)
class NodeKnowledge:
    """One occupied node as reconstructed from broadcasts.

    The key is the least co-located agent ID; links lead to other occupied
    nodes by their keys; hole_ports lead to unoccupied neighbors.
    """

    key: int
    ids: tuple[int, ...]
    hole_ports: tuple[int, ...]
    links: tuple[tuple[int, int], ...]  # (port, neighbor key)


@dataclass(frozen=True)
class ComponentKnowledge:
    nodes: Mapping[int, NodeKnowledge]

    def multinode_keys(self) -> list[int]:
        return sorted(k for k, nd in self.nodes.items() if len(nd.ids) > 1)


def stitch_component(broadcasts: Iterable[Broadcast]) -> ComponentKnowledge:
    """Assemble the occupied-node graph visible in a set of broadcasts.

    Raises EngineError on inconsistency (same node described twice with
    different views, or asymmetric links): those are engine bugs, not
    adversary moves.
    """
    by_node: dict[tuple[int, ...], LocalView] = {}
    for b in broadcasts:
        prev = by_node.get(b.view.colocated)
        if prev is None:
            by_node[b.view.colocated] = b.view
        elif prev != b.view:
            raise EngineError(
                f"agents {b.view.colocated} report conflicting views"
            )
    nodes = {}
    for colocated, view in by_node.items():
        key = colocated[0]
        hole_ports = []
        links = []
        if view.per_port is not None:
            for pv in view.per_port:
                if pv.occupants:
                    links.append((pv.port, pv.occupants[0]))
                else:
                    hole_ports.append(pv.port)
        nodes[key] = NodeKnowledge(
            key=key,
            ids=colocated,
            hole_ports=tuple(hole_ports),
            links=tuple(links),
        )
    directed = {
        (nd.key, nb) for nd in nodes.values() for _, nb in nd.links
    }
    for a, b in directed:
        if b in nodes and (b, a) not in directed:
            raise EngineError(f"link {a}->{b} has no back link")
    return ComponentKnowledge(nodes=nodes)


def apply_actions(
    snapshot: Snapshot,
    config: Configuration,
    actions: Mapping[int, Action],
) -> Configuration:
    """Simultaneously apply moves; illegal ports are engine faults."""
    positions = dict(config.positions)
    for a, act in actions.items():
        if act.port is None:
            continue
        node = config.positions[a]
        try:
            positions[a] = snapshot.neighbor(node, act.port)
        except GraphError:
            raise EngineError(
                f"agent {a} at node {node} moved through missing port {act.port}"
            ) from None
    return Configuration(config.n, positions)


class RoundStep(NamedTuple):
    """What the live agents do in one round on one snapshot."""

    actions: dict[int, Action]
    states: dict[int, AgentState]
    components: list[list[int]]
    messages: int


def round_step(
    snapshot: Snapshot,
    config: Configuration,
    states: Mapping[int, AgentState],
    algorithm: Algorithm,
    visibility: str,
    communication: str,
    memo: dict | None = None,
) -> RoundStep:
    """Look, Broadcast and Compute for one round.

    Components and node views are built once and shared by delivery and
    every agent.  Returns each live agent's action and the states after
    the round; steps are pure, so the caller's ``states`` are left
    untouched.

    ``memo`` is a dict that one caller keeps for one algorithm,
    visibility and communication.  It maps the round's inputs (snapshot,
    positions and agent states, each in its order) to their step, so a
    round that repeats an earlier one returns the earlier step itself:
    its dicts and lists are shared and must not be mutated.  A graph's
    first round is kept with its configuration and states themselves, and
    keyed only when the graph comes again with other inputs, so a run
    whose graphs never repeat, and a round that follows its own preview,
    build no key; those inputs must not be mutated either.
    """
    if memo is None:
        return _step(snapshot, config, states, algorithm, visibility,
                     communication)
    steps = memo.get(snapshot)
    if steps is None:
        step = _step(snapshot, config, states, algorithm, visibility,
                     communication)
        memo[snapshot] = (config, states, step)
        return step
    if type(steps) is tuple:
        first_config, first_states, first = steps
        if first_config is config and first_states is states:
            return first
        steps = memo[snapshot] = {_inputs(first_config, first_states): first}
    key = _inputs(config, states)
    step = steps.get(key)
    if step is None:
        step = steps[key] = _step(
            snapshot, config, states, algorithm, visibility, communication
        )
    return step


def _inputs(config: Configuration, states: Mapping[int, AgentState]) -> tuple:
    """Memo key of a round on a given graph: positions and agent states,
    each in its order."""
    return (
        tuple(config.positions.items()),
        tuple((a, st.id, st.t, st.terminated) for a, st in states.items()),
    )


def _step(snapshot, config, states, algorithm, visibility, communication):
    """``round_step`` without a memo."""
    comps = components(snapshot)
    views = node_views(snapshot, config, visibility)
    terminated = {a for a, st in states.items() if st.terminated}
    inbox = deliver(
        snapshot, config, communication, terminated=terminated, views=views
    )
    actions: dict[int, Action] = {}
    new_states = dict(states)
    for a in sorted(config.positions):
        if a in terminated:
            continue
        action, state = algorithm.step(
            states[a], views[config.positions[a]], inbox[a]
        )
        if state.terminated != action.terminate:
            state = AgentState(state.id, state.t, action.terminate)
        new_states[a] = state
        actions[a] = action
    messages = sum(len(bundle) for bundle in inbox.values())
    return RoundStep(actions, new_states, comps, messages)


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
        snapshot, config, states, algorithm, visibility, communication
    ).actions


@dataclass
class RoundRecord:
    r: int
    snapshot: Snapshot
    before: dict[int, int]
    actions: dict[int, Action]
    after: dict[int, int]
    components: list[list[int]]
    messages: int


@dataclass
class RunResult:
    n: int
    k: int
    T: int | None
    algorithm: str
    visibility: str
    communication: str
    records: list[RoundRecord]
    dispersed_at: int | None
    explored_at: int | None
    all_terminated_at: int | None
    budget_exhausted: bool
    final: Configuration

    @property
    def rounds(self) -> int:
        return len(self.records)

    def schedule_prefix(self) -> Schedule:
        return Schedule(rec.snapshot for rec in self.records)

    def to_text(self) -> str:
        # a record's components are its snapshot's, so the edges: and comp:
        # lines are formatted once per distinct graph, and pos: and post:
        # once per distinct placement
        graph_texts: dict[Snapshot, tuple[str, str]] = {}
        placement_texts: dict[tuple, str] = {}

        def fmt_placement(pos: dict[int, int]) -> str:
            key = tuple(pos.items())
            text = placement_texts.get(key)
            if text is None:
                at: dict[int, list[int]] = {}
                for a in sorted(pos):
                    at.setdefault(pos[a], []).append(a)
                text = placement_texts[key] = " ".join(
                    f"{node}:{','.join(map(str, ids))}"
                    for node, ids in sorted(at.items())
                )
            return text

        lines = [
            f"trace v=1 n={self.n} k={self.k} T={self.T if self.T else '-'}"
            f" algorithm={self.algorithm} visibility={self.visibility}"
            f" communication={self.communication}"
        ]
        for rec in self.records:
            graph = graph_texts.get(rec.snapshot)
            if graph is None:
                graph = graph_texts[rec.snapshot] = (
                    "edges:" + format_edges(rec.snapshot),
                    "comp: "
                    + "|".join(",".join(map(str, c)) for c in rec.components),
                )
            lines.append(f"round r={rec.r}")
            lines.append(graph[0])
            lines.append("pos: " + fmt_placement(rec.before))
            lines.append(
                "act: "
                + " ".join(
                    f"{a}:{rec.actions[a].code()}" for a in sorted(rec.actions)
                )
            )
            lines.append("post: " + fmt_placement(rec.after))
            lines.append(graph[1])
            lines.append(f"msgs: {rec.messages}")
        out = lambda v: "-" if v is None else str(v)
        lines.append(
            f"end rounds={self.rounds} dispersed_at={out(self.dispersed_at)}"
            f" explored_at={out(self.explored_at)}"
            f" all_terminated_at={out(self.all_terminated_at)}"
            f" budget_exhausted={int(self.budget_exhausted)}"
        )
        return "\n".join(lines) + "\n"


class ScheduleSource:
    """Fixed-schedule adapter for run()."""

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.n = schedule.n

    def next_snapshot(self, r: int, config, states) -> Snapshot:
        if r >= self.schedule.rounds:
            raise GraphError(
                f"fixed schedule exhausted at round {r}"
                f" (has {self.schedule.rounds})"
            )
        return self.schedule.snapshot(r)


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

    ``source`` is a Schedule or any object with
    ``next_snapshot(r, config, states) -> Snapshot``; adaptive adversaries
    that declare ``needs_oracle`` get wired to this run's compute phase.
    """
    if max_rounds < 1:
        raise GraphError(f"max_rounds must be >= 1, got {max_rounds}")
    if visibility not in VISIBILITIES:
        raise GraphError(f"unknown visibility {visibility!r}")
    if communication not in COMMUNICATIONS:
        raise GraphError(f"unknown communication mode {communication!r}")
    if isinstance(source, Schedule):
        source = ScheduleSource(source)
    ids = sorted(placement)
    if not ids or ids != list(range(1, len(ids) + 1)):
        raise GraphError(f"agent ids must be 1..k, got {ids}")
    n = getattr(source, "n", None)
    if n is None:
        raise GraphError("schedule source must expose its node count n")
    config = Configuration(n, placement)
    states = {a: AgentState(id=a) for a in ids}
    # every step of this run, by its inputs: the adversaries repeat their
    # graphs, so rounds repeat, and the oracle's previews share the memo, so
    # a round that follows its preview is served from it.  A step's inputs
    # fix where its moves lead, so the configuration after it is kept by
    # the step's id (the memo keeps every step alive).
    memo: dict = {}
    afters: dict[int, Configuration] = {}
    if getattr(source, "needs_oracle", False) and getattr(source, "oracle", None) is None:
        source.oracle = lambda snap, cfg, sts: dict(round_step(
            snap, cfg, sts, algorithm, visibility, communication, memo
        ).actions)

    visited = set(config.at)
    dispersed_at = explored_at = all_terminated_at = None
    records: list[RoundRecord] = []
    budget_exhausted = True

    for r in range(max_rounds):
        snapshot = source.next_snapshot(r, config, states)
        if snapshot.n != config.n:
            raise GraphError(
                f"round {r}: snapshot has n={snapshot.n}, expected {config.n}"
            )
        step = round_step(
            snapshot, config, states, algorithm, visibility, communication,
            memo,
        )
        states = step.states
        after = afters.get(id(step))
        if after is None:
            after = afters[id(step)] = apply_actions(
                snapshot, config, step.actions
            )
        records.append(
            RoundRecord(
                r=r,
                snapshot=snapshot,
                before=dict(config.positions),
                actions=step.actions,
                after=dict(after.positions),
                components=step.components,
                messages=step.messages,
            )
        )
        config = after
        visited.update(config.at)
        if dispersed_at is None and config.is_dispersed():
            dispersed_at = r
        if explored_at is None and len(visited) == config.n:
            explored_at = r
        if all(st.terminated for st in states.values()):
            if all_terminated_at is None:
                all_terminated_at = r
            budget_exhausted = False
            break

    return RunResult(
        n=config.n,
        k=len(ids),
        T=T,
        algorithm=algorithm.name,
        visibility=visibility,
        communication=communication,
        records=records,
        dispersed_at=dispersed_at,
        explored_at=explored_at,
        all_terminated_at=all_terminated_at,
        budget_exhausted=budget_exhausted,
        final=config,
    )
