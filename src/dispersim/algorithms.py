"""Agent programs: dispersion and exploration on dynamic graphs.

All of them are pure functions of (private state, local view, received
broadcasts).  The cooperative ones share one subroutine: from the
broadcasts they stitch the occupied part of their component and compute a
sliding plan that shifts one agent each along a shortest occupied path
from the coordinating multinode to the nearest hole, filling exactly one
hole per executed plan.  Every agent of the component computes the same
plan from the same broadcasts and moves only if the plan names it.

Registered names:

* ``disp``               execute a sliding plan whenever one exists, else stay
* ``alg1_explicit``      dispersion that terminates after T quiet rounds
* ``alg1_implicit``      ``disp``'s rule under its own name: dispersion
                         without termination
* ``alg2``               exploration with termination (needs 1-hop views)
* ``alg3``               perpetual exploration: dispersion plans plus a
                         least-ID hole walker when no multinode is around
* ``dispersed_one_round``one-shot exploration from a dispersed start
* ``greedy_port0``       strawman: always exit through port 0
* ``stay``               strawman: never move
"""

from __future__ import annotations

from typing import Mapping

from .engine import (
    Action,
    Algorithm,
    AgentState,
    Broadcast,
    Bundle,
    LocalView,
    NodeKnowledge,
    STAY,
    stitch_component,
)


def disp_plan(
    nodes: Mapping[int, NodeKnowledge],
) -> tuple[tuple[int, int], ...] | None:
    """Shortest shift from the coordinating multinode to the nearest hole,
    as ordered (agent ID, exit port) moves along an occupied path; the last
    move exits through the terminal hole port.

    Coordinator = occupied node whose least co-located agent ID is least
    among multinodes.  BFS over known occupied nodes processes keys in
    ascending order, so parents and the target (least key at minimal
    distance owning a hole port) are deterministic.  Returns None when the
    knowledge holds no multinode or no hole port.
    """
    multis = [key for key, nd in nodes.items() if len(nd.ids) > 1]
    if not multis:
        return None
    start = min(multis)
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    target = None
    while frontier:
        frontier.sort()
        for key in frontier:
            if nodes[key].hole_ports:
                target = key
                break
        if target is not None:
            break
        nxt = []
        for key in frontier:
            for _, nb in nodes[key].links:
                if nb in nodes and nb not in parent:
                    parent[nb] = key
                    nxt.append(nb)
        frontier = nxt
    if target is None:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # coordinator .. target
    moves = []
    for here, there in zip(path, path[1:]):
        port = next(p for p, nb in nodes[here].links if nb == there)
        moves.append((nodes[here].ids[0], port))
    moves.append((nodes[target].ids[0], min(nodes[target].hole_ports)))
    return tuple(moves)


def _kept(msgs: tuple[Broadcast, ...], name: str, compute):
    """``compute(msgs)``, a pure function of the broadcasts: a ``Bundle``
    keeps it as ``name``, so the agents that share it compute it once."""
    value = getattr(msgs, name, None)
    if value is None:
        value = compute(msgs)
        if isinstance(msgs, Bundle):
            setattr(msgs, name, value)
    return value


def _plan(msgs: tuple[Broadcast, ...]) -> dict[int, Action]:
    """Each agent's ``Action`` under the sliding plan stitched from the
    broadcasts, none when there is no plan; ``disp`` and ``alg1_implicit``
    keep it as ``plan``."""
    plan = disp_plan(stitch_component(msgs)) or ()
    return {a: Action(port=p) for a, p in plan}


def _plan_actions(msgs: tuple[Broadcast, ...]) -> dict[int, Action] | bool:
    """``_plan``, or False when no multinode is heard (nothing is then
    stitched); ``alg1_explicit``, ``alg2`` and ``alg3`` keep it as
    ``actions``."""
    return any(len(b.view.colocated) > 1 for b in msgs) and _plan(msgs)


def _walker(msgs: tuple[Broadcast, ...]) -> dict[int, Action]:
    """A quiet bundle's walker, the least-ID sender whose view has a hole,
    and its move through the least hole port; kept as ``walker``."""
    for b in msgs:  # by sender
        holes = b.view.hole_ports()
        if holes:
            return {b.sender: Action(port=holes[0])}
    return {}


def _make_alg1(T: int | None) -> Algorithm:
    if T is None or T < 1:
        raise ValueError("alg1_explicit needs the window length T >= 1")

    def step(state: AgentState, view: LocalView, msgs):
        actions = _kept(msgs, "actions", _plan_actions)
        if actions is not False:
            if state.t:
                state = AgentState(state.id, 0)
            return actions.get(state.id, STAY), state
        t = state.t + 1
        return (Action(terminate=True) if t >= T else STAY,
                AgentState(state.id, t))

    return Algorithm("alg1_explicit", step)


def _alg2_step(state: AgentState, view: LocalView, msgs):
    actions = _kept(msgs, "actions", _plan_actions)
    if actions is False:
        return _one_round_step(state, view, msgs)
    return actions.get(state.id, STAY), state


def _alg3_step(state: AgentState, view: LocalView, msgs):
    actions = _kept(msgs, "actions", _plan_actions)
    if actions is False:
        actions = _kept(msgs, "walker", _walker)
    return actions.get(state.id, STAY), state


def _disp_step(state: AgentState, view: LocalView, msgs):
    return _kept(msgs, "plan", _plan).get(state.id, STAY), state


def _one_round_step(state: AgentState, view: LocalView, msgs):
    holes = view.hole_ports()
    if holes:
        return Action(port=min(holes), terminate=True), state
    return Action(terminate=True), state


def _greedy_step(state: AgentState, view: LocalView, msgs):
    if view.degree > 0:
        return Action(port=0), state
    return STAY, state


def _stay_step(state: AgentState, view: LocalView, msgs):
    return STAY, state


# each name's builder of the window length T; only alg1_explicit needs it
ALGORITHMS = {
    "disp": lambda T: Algorithm("disp", _disp_step),
    "alg1_explicit": _make_alg1,
    "alg1_implicit": lambda T: Algorithm("alg1_implicit", _disp_step),
    "alg2": lambda T: Algorithm("alg2", _alg2_step),
    "alg3": lambda T: Algorithm("alg3", _alg3_step),
    "dispersed_one_round": lambda T: Algorithm(
        "dispersed_one_round", _one_round_step),
    "greedy_port0": lambda T: Algorithm("greedy_port0", _greedy_step),
    "stay": lambda T: Algorithm("stay", _stay_step),
}
ALGORITHM_NAMES = tuple(ALGORITHMS)


def make_algorithm(name: str, *, T: int | None = None) -> Algorithm:
    """Instantiate a registered algorithm; only alg1_explicit consumes T."""
    build = ALGORITHMS.get(name)
    if build is None:
        raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHM_NAMES}")
    return build(T)
