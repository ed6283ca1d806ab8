"""Schedule generators and adaptive adversaries.

Fixed generators: the three 4-node reference traces, each a period of
graphs repeated forever, and a seeded random generator of finite schedules
that guarantees a requested window property at a requested T.

Adaptive adversaries build each round's snapshot from the live
configuration (and, for the sorted-path attack, from an oracle that
returns the attacked algorithm's round on a candidate snapshot: its
actions and the configuration they lead to).  Every choice ties to least
indices or least agent IDs, so replays are exact.

All constructions keep one designated claim checkable on the emitted
prefix: which property holds at which T, and which outcome the attacked
algorithm cannot reach.
"""

from __future__ import annotations

import random

from .graphs import (
    PROPERTIES, AdversaryError, GraphError, Memo, Schedule, Snapshot,
)


# --- fixed reference traces ---


# the 4-node reference traces, each a period of graphs repeated forever
DEMOS = {
    # T-Path holds first at T=3, interval never
    "tpath_demo": ({(0, 1), (0, 2)}, {(0, 1), (1, 3)}, {(0, 2), (2, 3)}),
    # connectivity time 3, no finite T-Path T
    "ctime_demo": ({(0, 1), (0, 2)}, {(0, 1), (0, 2)}, {(1, 3), (2, 3)}),
    # 6-periodic (T-Path at 6): the perpetual explorer tours the three
    # right-hand nodes forever while the pair on node 0 never splits, so
    # exploration succeeds and dispersion never happens
    "perpetual_demo": (
        {(0, 1), (2, 3)},
        {(1, 2), (2, 3)},
        {(0, 2), (1, 3)},
        {(1, 3), (2, 3)},
        {(0, 3), (1, 2)},
        {(1, 2), (1, 3)},
    ),
}


class Periodic:
    """The rounds of a ``DEMOS`` trace without end, one Snapshot per graph
    of its period, each read as the run reads it."""

    def __init__(self, demo: str) -> None:
        self.n = 4
        self._snaps = [Snapshot.from_pairs(4, pairs) for pairs in DEMOS[demo]]

    def next_snapshot(self, r: int, config, states) -> Snapshot:
        return self._snaps[r % len(self._snaps)]

    def state_key(self, r: int):
        return r % len(self._snaps)


# --- seeded random generator with a guaranteed property ---


def _random_tree(rng: random.Random, n: int) -> set[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    return {
        (order[i], order[rng.randrange(i)]) for i in range(1, n)
    }


def _random_extras(rng: random.Random, n: int, density: float):
    return {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }


class RandomRounds:
    """The rounds of ``gen_random_with_property``, each drawn from the seeded
    stream when it is read, so ``engine.run`` draws no round it does not
    reach.  The rounds // T + 1 spanning trees of ``t_interval`` come first
    in the stream: the first read steps past them, keeping none, and each
    is drawn again from a copy of the stream when its block is reached.
    """

    def __init__(
        self, seed: int, n: int, prop: str, T: int, density: float, rounds: int
    ) -> None:
        if n < 1:
            raise AdversaryError(f"n must be >= 1, got {n}")
        if T < 1:
            raise AdversaryError(f"T must be >= 1, got {T}")
        if rounds < T:
            raise AdversaryError(f"need rounds >= T, got {rounds} < {T}")
        if not 0.0 <= density <= 1.0:
            raise AdversaryError(f"density must be in [0, 1], got {density}")
        if prop not in PROPERTIES:
            raise AdversaryError(f"unknown property {prop!r}")
        self.n, self.rounds = n, rounds
        rng = random.Random(f"{seed}:{n}:{prop}:{T}:{density}:{rounds}")
        self._snaps = self._draw(rng, prop, T, density, rounds)

    def _draw(self, rng, prop, T, density, rounds):
        n = self.n
        if prop == "t_interval":
            trees, tree = random.Random(), set()
            trees.setstate(rng.getstate())
            for _ in range(rounds // T + 1):
                _random_tree(rng, n)
        for r in range(rounds):
            if prop == "t_interval":  # the trees of this block and the last
                if r % T == 0:
                    last, tree = tree, _random_tree(trees, n)
                pairs = tree | last
            else:
                pairs = _random_tree(rng, n) if r % T == T - 1 else set()
            yield Snapshot.from_pairs(n, pairs | _random_extras(rng, n, density))

    def __iter__(self):
        return self._snaps

    def next_snapshot(self, r: int, config, states) -> Snapshot:
        snapshot = next(self._snaps, None)
        if snapshot is None:
            raise GraphError(f"random schedule exhausted at round {r}"
                             f" (has {self.rounds})")
        return snapshot


def gen_random_with_property(
    seed: int, n: int, prop: str, T: int, density: float, rounds: int
) -> Schedule:
    """Random schedule guaranteed to satisfy ``prop`` at window length T.

    t_interval: rounds in block b carry spanning trees of blocks b and b-1
    plus random extras, so every T-window's intersection contains a tree.
    t_path / connectivity_time: every round r with r mod T = T-1 is a
    random connected graph; all other rounds are arbitrary.
    """
    return Schedule(RandomRounds(seed, n, prop, T, density, rounds))


# --- adaptive adversaries ---


def _star(nodes) -> set[tuple[int, int]]:
    nodes = sorted(nodes)
    return {(nodes[0], v) for v in nodes[1:]}


class Adversary:
    """Base: deterministic function of the configuration history.

    Subclasses implement _emit(r, config, states) and state_key(r), which
    must cover every attribute that _emit reads or writes.  An adversary
    serves one run, which queries rounds in order, at most once each.  A
    graph the adversary emits again is the same Snapshot object, so its
    components are computed once and the round memo finds it by identity.
    """

    kind = "adversary"
    needs_oracle = False

    def __init__(self, n: int) -> None:
        if n < 1:
            raise AdversaryError(f"n must be >= 1, got {n}")
        self.n = n
        self.oracle = None
        self._next_r = 0
        self._graphs = Memo(lambda pairs: Snapshot.from_pairs(n, pairs))

    def _graph(self, pairs) -> Snapshot:
        """``Snapshot.from_pairs`` on n nodes, one object per pair set."""
        return self._graphs[frozenset(pairs)]

    def next_snapshot(self, r: int, config, states=None) -> Snapshot:
        if r != self._next_r:
            raise AdversaryError(
                f"{self.kind} queried out of order: expected round"
                f" {self._next_r}, got {r}"
            )
        self._next_r += 1
        return self._emit(r, config, states)

    def _emit(self, r, config, states) -> Snapshot:
        raise NotImplementedError


class KtLower(Adversary):
    """Two stars (occupied / unoccupied) bridged only at multiples of T-1.

    T-Path holds at exactly T; from a co-located start at most one new
    node gains agents per bridge round, so no dispersion algorithm beats
    (k-1)(T-1) rounds.
    """

    kind = "kt_lower"

    def __init__(self, n: int, k: int, T: int) -> None:
        super().__init__(n)
        if k < 2:
            raise AdversaryError(f"kt_lower needs k >= 2, got {k}")
        if T < 2:
            raise AdversaryError(f"kt_lower needs T >= 2, got {T}")
        if n <= k:
            raise AdversaryError(f"kt_lower needs n > k, got n={n} k={k}")
        self.T = T

    def state_key(self, r: int):
        return min(r, 1), r % (self.T - 1)

    def _emit(self, r, config, states) -> Snapshot:
        if r == 0 and len(config.at) != 1:
            raise AdversaryError(
                "kt_lower expects all agents co-located at round 0"
            )
        occupied = sorted(config.at)
        rest = config.holes()
        pairs = _star(occupied) | _star(rest)
        if rest and r > 0 and r % (self.T - 1) == 0:
            pairs.add((min(occupied), min(rest)))
        return self._graph(pairs)


class CtDispersion(Adversary):
    """Alternating (T-1)-round phases that always preserve a multinode.

    Even phases star the n-k+1 least unoccupied nodes apart from the rest
    (k agents squeezed onto k-1 nodes); odd phases isolate the least
    multinode.  Connectivity Time holds at exactly T, yet no algorithm
    ever reaches dispersion.
    """

    kind = "ct_dispersion"

    def __init__(self, n: int, k: int, T: int) -> None:
        super().__init__(n)
        if T < 2:
            raise AdversaryError(f"ct_dispersion needs T >= 2, got {T}")
        if not 3 <= k <= n:
            raise AdversaryError(
                f"ct_dispersion needs 3 <= k <= n, got k={k} n={n}"
            )
        self.k = k
        self.T = T
        self._phase_graph: Snapshot | None = None

    def state_key(self, r: int):
        span = self.T - 1
        return r % (2 * span), self._phase_graph if r % span else None

    def _emit(self, r, config, states) -> Snapshot:
        span = self.T - 1
        if r % span == 0:
            self._phase_graph = self._phase(config, r // span % 2)
        return self._phase_graph

    def _phase(self, config, parity: int) -> Snapshot:
        if config.is_dispersed():
            raise AdversaryError(
                "ct_dispersion needs a non-dispersed configuration"
            )
        if parity == 0:
            p = self.n - self.k + 1
            holes = config.holes()
            if len(holes) < p:
                raise AdversaryError(
                    f"ct_dispersion expected >= {p} holes, found {len(holes)}"
                )
            side = holes[:p]
            rest = [v for v in range(self.n) if v not in side]
            return self._graph(_star(side) | _star(rest))
        multis = config.multinodes()
        if not multis:
            raise AdversaryError(
                "ct_dispersion lost its multinode; cannot continue"
            )
        v = multis[0]
        return self._graph(_star([u for u in range(self.n) if u != v]))


class ExplorationStar(Adversary):
    """Keeps node n-1 behind a fresh hole every round.

    All but two nodes form a star; the least non-target hole v hangs off
    the star and is the target's only neighbor.  Entering the target would
    require standing on v, but v is unoccupied at every round start, so
    with k <= n-2 agents node n-1 is never visited while the graph stays
    connected at every round.
    """

    kind = "exploration_star"

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        if n < 4:
            raise AdversaryError(f"exploration_star needs n >= 4, got {n}")
        if not 1 <= k <= n - 2:
            raise AdversaryError(
                f"exploration_star needs 1 <= k <= n-2, got k={k} n={n}"
            )
        self.target = n - 1

    def state_key(self, r: int):
        return ()

    def _emit(self, r, config, states) -> Snapshot:
        holes = config.holes()
        if self.target not in holes:
            raise AdversaryError("exploration_star target was entered")
        v = min(h for h in holes if h != self.target)
        star_nodes = [u for u in range(self.n) if u not in (v, self.target)]
        pairs = _star(star_nodes)
        pairs.add((min(star_nodes), v))
        pairs.add((v, self.target))
        return self._graph(pairs)


class TwoStarsTime(Adversary):
    """Visited star + unvisited star + one bridge: exploration costs a
    round per node.

    The plain variant bridges every round (connected at every round); the
    T-Path variant bridges only at multiples of T-1, scaling the cost to
    (T-1) rounds per node.
    """

    kind = "two_stars_time"

    def __init__(self, n: int, T: int = 1) -> None:
        super().__init__(n)
        if n < 3:
            raise AdversaryError(f"two_stars_time needs n >= 3, got {n}")
        if T < 1:
            raise AdversaryError(f"T must be >= 1, got {T}")
        self.T = T
        if T > 1:
            self.kind = "two_stars_time_tpath"
        self._visited: set[int] = set()

    def state_key(self, r: int):
        return min(r, 1), r % max(self.T - 1, 1), frozenset(self._visited)

    def _emit(self, r, config, states) -> Snapshot:
        if r == 0 and len(config.at) != 1:
            raise AdversaryError(
                f"{self.kind} expects all agents co-located at round 0"
            )
        self._visited |= set(config.at)
        unvisited = [v for v in range(self.n) if v not in self._visited]
        pairs = _star(sorted(self._visited)) | _star(unvisited)
        # T = 1 bridges every round, a larger T at multiples of T-1
        if unvisited and (self.T == 1 or r > 0 and r % (self.T - 1) == 0):
            pairs.add((min(self._visited), min(unvisited)))
        return self._graph(pairs)


class CtExploration(Adversary):
    """Connectivity-Time counterpart of the exploration attack.

    A-rounds: star of everything except the partner hole x and the target
    y, plus the lone edge x-y.  One B-round per T rounds attaches a
    low-occupancy star node w as w-x-y; whether w's agent steps to x
    decides which node returns to the star.  The target's only neighbor is
    always a round-start hole, so it is never visited, while every
    T-window's union is connected.
    """

    kind = "ct_exploration"

    def __init__(self, n: int, k: int, T: int) -> None:
        super().__init__(n)
        if n < 6:
            raise AdversaryError(f"ct_exploration needs n >= 6, got {n}")
        if T < 2:
            raise AdversaryError(f"ct_exploration needs T >= 2, got {T}")
        if not 1 <= k <= 2 * n - 5:
            raise AdversaryError(
                f"ct_exploration needs 1 <= k <= 2n-5, got k={k} n={n}"
            )
        self.T = T
        self.partner: int | None = None
        self.target: int | None = None
        self._pending: tuple[int, int | None] | None = None

    def state_key(self, r: int):
        # the pending B-round too: where a multinode can leave its node
        # whole, one configuration can follow B-rounds at different nodes
        return min(r, 1), r % self.T, self.partner, self._pending

    def _emit(self, r, config, states) -> Snapshot:
        if r == 0:
            holes = config.holes()
            if len(holes) < 2:
                raise AdversaryError(
                    "ct_exploration needs at least two holes at round 0"
                )
            self.partner, self.target = holes[0], holes[1]
        elif r % self.T == 0 and self._pending is not None:
            w, agent = self._pending
            if agent is not None and config[agent] == self.partner:
                self.partner = w  # w's agent stepped onto x; w is the hole now
            self._pending = None
        x, y = self.partner, self.target
        star_nodes = [u for u in range(self.n) if u not in (x, y)]
        if r % self.T == self.T - 1:
            candidates = [
                u for u in star_nodes if len(config.ids_at(u)) <= 1
            ]
            if not candidates:
                raise AdversaryError("ct_exploration found no sparse node")
            w = min(candidates)
            ids = config.ids_at(w)
            self._pending = (w, ids[0] if ids else None)
            pairs = _star([u for u in star_nodes if u != w])
            pairs.add((w, x))
            pairs.add((x, y))
        else:
            pairs = _star(star_nodes)
            pairs.add((x, y))
        return self._graph(pairs)


SORTED_PATH_VARIANTS = ("comm", "visibility", "dispersed")


class SortedPath(Adversary):
    """Oracle-consulting path attack against capability-limited explorers.

    Nodes line up as a path: occupied nodes first (by descending count,
    then ascending least agent ID), unoccupied nodes last with the target
    at the very end, so the target always sits behind a hole.  When the
    oracle predicts that the straight layout would reach dispersion this
    round, the emitted layout rewires w1,w2,w4,w5 so the same decisions
    collide two agents instead.  The ``dispersed`` variant starts from a
    dispersed configuration with the hole FIRST and flips w2's ports
    whenever its occupant would step into the hole.
    """

    kind = "sorted_path"
    needs_oracle = True

    def __init__(self, n: int, variant: str) -> None:
        super().__init__(n)
        if variant not in SORTED_PATH_VARIANTS:
            raise AdversaryError(f"unknown sorted_path variant {variant!r}")
        if variant == "dispersed":
            if n < 3:
                raise AdversaryError("sorted_path dispersed needs n >= 3")
        elif n < 7:
            raise AdversaryError(f"sorted_path {variant} needs n >= 7")
        self.variant = variant
        self.target: int | None = None
        # one snapshot per (layout builder, path order)
        self._layouts = Memo(lambda key: key[0](key[1]))

    @staticmethod
    def _path(order) -> Snapshot:
        n = len(order)
        return Snapshot(n, [(order[i], order[i + 1], 0 if i == 0 else 1, 0)
                            for i in range(n - 1)])

    @staticmethod
    def _swapped(order) -> Snapshot:
        # path w1~w4~w3~w2~w5~w6~...~wn; only w1,w2,w4,w5 rewire,
        # every node keeps its degree and w3 keeps ports AND neighbors
        w = [None, *order]  # 1-based
        n = len(order)
        edges = [
            (w[1], w[4], 0, 1),
            (w[4], w[3], 0, 1),
            (w[3], w[2], 0, 1),
            (w[2], w[5], 0, 0),
        ]
        for i in range(5, n):
            edges.append((w[i], w[i + 1], 1, 0))
        return Snapshot(n, edges)

    @staticmethod
    def _flipped_w2(order) -> Snapshot:
        # straight path, but w2 swaps its two port labels
        n = len(order)
        edges = [(order[0], order[1], 0, 1)]
        if n > 2:
            edges.append((order[1], order[2], 0, 0))
        for i in range(2, n - 1):
            edges.append((order[i], order[i + 1], 1, 0))
        return Snapshot(n, edges)

    def _sorted_order(self, config) -> tuple[int, ...]:
        def key(u: int):
            ids = config.ids_at(u)
            if ids:
                return (0, -len(ids), ids[0])
            if u == self.target:
                return (2, 0, 0)
            return (1, u, 0)

        return tuple(sorted(range(self.n), key=key))

    def state_key(self, r: int):
        return ()

    def _straight(self, config) -> tuple[tuple[int, ...], Snapshot]:
        """The path order for ``config`` and its straight layout; the
        ``dispersed`` variant puts the hole first while it is dispersed."""
        if self.variant == "dispersed" and config.is_dispersed():
            order = (config.holes()[0], *(config[a] for a in sorted(config)))
        else:
            order = self._sorted_order(config)
        return order, self._layouts[self._path, order]

    def _emit(self, r, config, states) -> Snapshot:
        if self.oracle is None:
            raise AdversaryError(
                "sorted_path needs an action oracle before emitting"
            )
        if r == 0 and self.variant == "dispersed":
            if not (config.is_dispersed() and len(config.at) == self.n - 1):
                raise AdversaryError(
                    "sorted_path dispersed needs n-1 agents, one per node"
                )
            self.target = config.holes()[0]
        elif r == 0:
            if config.is_dispersed():
                raise AdversaryError(
                    f"sorted_path {self.variant} needs a non-dispersed start"
                )
            if len(config) >= self.n:
                raise AdversaryError(
                    f"sorted_path {self.variant} needs k <= n-1"
                )
            self.target = max(config.holes())
        order, straight = self._straight(config)
        step = self.oracle(straight, config, states)
        if self.variant == "dispersed" and config.is_dispersed():
            w2_ids = config.ids_at(order[1])
            mover = step.block.actions.get(w2_ids[0]) if w2_ids else None
            if mover is not None and mover.port == 0:
                return self._layouts[self._flipped_w2, order]
        elif step.block.after.is_dispersed() and self.n >= 7:
            return self._layouts[self._swapped, order]
        return straight


# each kind's class and the parameters it takes after n, in order
ADVERSARIES = {
    "kt_lower": (KtLower, ("k", "T")),
    "ct_dispersion": (CtDispersion, ("k", "T")),
    "exploration_star": (ExplorationStar, ("k",)),
    "two_stars_time": (TwoStarsTime, ()),
    "two_stars_time_tpath": (TwoStarsTime, ("T",)),
    "ct_exploration": (CtExploration, ("k", "T")),
    "sorted_path": (SortedPath, ("variant",)),
}
ADVERSARY_KINDS = tuple(ADVERSARIES)


def make_adversary(
    kind: str,
    n: int,
    *,
    k: int | None = None,
    T: int | None = None,
    variant: str | None = None,
) -> Adversary:
    """Instantiate an adversary by registry name, validating parameters."""
    if kind not in ADVERSARIES:
        raise AdversaryError(
            f"unknown adversary {kind!r}; known: {ADVERSARY_KINDS}"
        )
    cls, params = ADVERSARIES[kind]
    given = {"k": k, "T": T, "variant": variant}
    for param in params:
        if given[param] is None:
            raise AdversaryError(f"{kind} needs {param}")
    return cls(n, *(given[param] for param in params))
