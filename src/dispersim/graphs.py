"""Port-labeled dynamic graphs and time-windowed connectivity checks.

A dynamic graph here is a finite sequence of per-round snapshots over a
fixed node set 0..n-1.  Every snapshot is a simple undirected graph whose
edge endpoints are labeled with ports: the ports at a node of degree d are
exactly 0..d-1.  Port labels carry no meaning from one round to the next.

Three properties classify a sequence by sliding windows of T rounds
(only complete windows, i.e. window starts r in [0, rounds-T], are checked):

* ``t_interval``        the intersection of every window is connected
* ``t_path``            every node pair shares a component in at least one
                        round of every window
* ``connectivity_time`` the union of every window is connected
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import attrgetter

PROPERTIES = ("t_interval", "t_path", "connectivity_time")


class GraphError(ValueError):
    """Malformed snapshot, schedule, or window query."""


@dataclass(frozen=True)
class Edge:
    """Undirected edge u-v with the port labels at each endpoint."""

    u: int
    v: int
    port_u: int
    port_v: int


_ENDPOINTS = attrgetter("u", "v")
_PAIRS = attrgetter("pairs")


class Snapshot:
    """One round of a dynamic graph: a simple port-labeled graph on n nodes.

    Validates on construction that endpoints are in range, there are no
    self-loops or duplicate edges, and the ports at every node are exactly
    a permutation of 0..deg-1.  ``ports`` maps only the nodes that have
    edges; the methods treat any other node as having degree 0.
    """

    __slots__ = ("n", "edges", "pairs", "ports", "comps")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise GraphError(f"snapshot needs at least one node, got n={n}")
        normalized = []
        for e in edges:
            u, v = e.u, e.v
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u > v:
                e = Edge(v, u, e.port_v, e.port_u)
            normalized.append(e)
        normalized.sort(key=_ENDPOINTS)
        pairs = set()
        # only nodes with edges get a port map, so memory follows the edges
        ports: dict[int, dict[int, int]] = {}
        for e in normalized:
            if (e.u, e.v) in pairs:
                raise GraphError(f"duplicate edge {e.u}-{e.v}")
            pairs.add((e.u, e.v))
            for a, pa, b in ((e.u, e.port_u, e.v), (e.v, e.port_v, e.u)):
                pmap = ports.get(a)
                if pmap is None:
                    pmap = ports[a] = {}
                elif pa in pmap:
                    raise GraphError(f"node {a} uses port {pa} twice")
                pmap[pa] = b
        for v in sorted(ports):
            pmap = ports[v]
            # the ports at v are distinct, so these bounds make them 0..d-1
            if min(pmap) != 0 or max(pmap) != len(pmap) - 1:
                raise GraphError(
                    f"node {v} ports {sorted(pmap)} are not 0..{len(pmap) - 1}"
                )
        self.n = n
        self.edges = tuple(normalized)
        self.pairs = frozenset(pairs)
        self.ports = ports
        self.comps = None

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Snapshot":
        """Build a snapshot with canonical ports: each node numbers its
        neighbors in ascending node order.

        The canonical layout is valid by construction, so it is built
        directly rather than re-checked by ``__init__``.
        """
        if n < 1:
            raise GraphError(f"snapshot needs at least one node, got n={n}")
        nbrs: dict[int, list[int]] = {}
        seen = set()
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"pair {u}-{v} out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        port_of = {
            v: {w: i for i, w in enumerate(sorted(ws))} for v, ws in nbrs.items()
        }
        snap = cls.__new__(cls)
        snap.n, snap.pairs, snap.comps = n, frozenset(seen), None
        snap.edges = tuple(
            Edge(u, v, port_of[u][v], port_of[v][u]) for u, v in sorted(seen)
        )
        snap.ports = {v: {i: w for w, i in pw.items()} for v, pw in port_of.items()}
        return snap

    def degree(self, v: int) -> int:
        pmap = self.ports.get(v)
        return 0 if pmap is None else len(pmap)

    def neighbor(self, v: int, port: int) -> int:
        """Node reached from v through the given port."""
        try:
            return self.ports[v][port]
        except KeyError:
            raise GraphError(f"node {v} has no port {port}") from None

    def port_items(self, v: int):
        """(port, neighbor) pairs at v in ascending port order."""
        pmap = self.ports.get(v)
        return [] if pmap is None else sorted(pmap.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Snapshot)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        # equal snapshots have equal pairs, and a frozenset hashes in C and
        # keeps its hash, so the round memo never hashes every Edge
        return hash((self.n, self.pairs))

    def __repr__(self) -> str:
        return f"Snapshot(n={self.n}, edges={len(self.edges)})"


def _components_from_pairs(n: int, pairs) -> list[list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def components(snapshot: Snapshot) -> list[list[int]]:
    """Connected components, each sorted, ordered by least member.  They
    are computed once per snapshot and shared: callers must not mutate them."""
    if snapshot.comps is None:
        snapshot.comps = _components_from_pairs(snapshot.n, snapshot.pairs)
    return snapshot.comps


def read_text(path) -> str:
    """A file's text; an unreadable file is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from None


def parse_int(digits: str) -> int:
    """The value of a field already checked to be decimal digits.

    ``int`` refuses a field longer than the interpreter's digit limit
    (4,300 by default) with a bare ValueError; that is malformed input
    like any other, so it raises GraphError.
    """
    try:
        return int(digits)
    except ValueError:
        raise GraphError(f"number of {len(digits)} digits is too long") from None


_EDGE_TOKEN = re.compile(r"(\d+)-(\d+):(\d+),(\d+)")


def parse_edges(field: str) -> list[Edge]:
    """Edges of whitespace-separated ``u-v:pu,pv`` tokens."""
    edges = []
    for tok in field.split():
        m = _EDGE_TOKEN.fullmatch(tok)
        if not m:
            raise GraphError(f"bad edge token {tok!r}")
        edges.append(Edge(*map(parse_int, m.groups())))
    return edges


def format_edges(snapshot: Snapshot) -> str:
    """The snapshot's edges as ``u-v:pu,pv`` tokens, each after a space."""
    return "".join(
        f" {e.u}-{e.v}:{e.port_u},{e.port_v}" for e in snapshot.edges
    )


class Memo(dict):
    """``compute(key)`` of each distinct key, computed at its first lookup.

    Equal keys share one result, which callers must not mutate.  A key
    whose computation raises is not stored, so every lookup of it raises.
    The parsers use it for field texts, the adversaries for their graphs.
    """

    def __init__(self, compute) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def snapshot_cache(n: int) -> Memo:
    """One validated Snapshot on n nodes per distinct edge-token text, so
    rounds that repeat a graph share its Snapshot and its components."""
    return Memo(lambda text: Snapshot(n, parse_edges(text)))


def _diameter(n: int, pairs) -> float:
    """Longest shortest path; math.inf when disconnected."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) < n:
            return math.inf
        best = max(best, max(dist.values()))
    return best


class Schedule:
    """A finite trace of snapshots over a fixed node set."""

    def __init__(self, snapshots) -> None:
        snapshots = list(snapshots)
        if not snapshots:
            raise GraphError("schedule needs at least one round")
        n = snapshots[0].n
        for i, s in enumerate(snapshots):
            if s.n != n:
                raise GraphError(f"round {i} has n={s.n}, expected {n}")
        self.n = n
        self.snapshots = tuple(snapshots)
        self._diameter_cache: float | None = None

    @property
    def rounds(self) -> int:
        return len(self.snapshots)

    def snapshot(self, r: int) -> Snapshot:
        if not 0 <= r < self.rounds:
            raise GraphError(f"round {r} outside trace of {self.rounds} rounds")
        return self.snapshots[r]

    def dynamic_diameter(self) -> float:
        """Max over rounds of the per-round diameter (inf if ever split)."""
        if self._diameter_cache is None:
            self._diameter_cache = max(
                _diameter(self.n, s.pairs) for s in self.snapshots
            )
        return self._diameter_cache

    def to_text(self) -> str:
        lines = [f"n={self.n} rounds={self.rounds}"]
        for r, s in enumerate(self.snapshots):
            lines.append(f"r={r}:" + format_edges(s))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Schedule":
        lines = text.splitlines()
        header = None
        body_start = 0
        for i, raw in enumerate(lines):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            header = line
            body_start = i + 1
            break
        if header is None:
            raise GraphError("empty schedule file")
        m = re.fullmatch(r"n=(\d+) rounds=(\d+)", header)
        if not m:
            raise GraphError(f"line {body_start}: bad header {header!r}")
        try:
            n, rounds = parse_int(m.group(1)), parse_int(m.group(2))
        except GraphError as exc:
            raise GraphError(f"line {body_start}: {exc}") from None
        body = [
            (i + 1, line)
            for i in range(body_start, len(lines))
            if (line := lines[i].split("#", 1)[0].strip())
        ]
        # each round needs its own line, so the body bounds the allocation
        if rounds > len(body):
            raise GraphError(
                f"line {body_start}: missing rounds: header says"
                f" rounds={rounds} but only {len(body)} round lines follow"
            )
        snaps: list[Snapshot | None] = [None] * rounds
        parsed = snapshot_cache(n)
        for lineno, line in body:
            m = re.fullmatch(r"r=(\d+):(.*)", line)
            if not m:
                raise GraphError(f"line {lineno}: expected 'r=<r>: <edges>'")
            try:
                r = parse_int(m.group(1))
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
            if not 0 <= r < rounds:
                raise GraphError(f"line {lineno}: round {r} outside 0..{rounds - 1}")
            if snaps[r] is not None:
                raise GraphError(f"line {lineno}: round {r} listed twice")
            try:
                snaps[r] = parsed[m.group(2)]
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
        # rounds <= len(body), and every body line filled a distinct round
        # in range, so no round is missing
        return cls(snaps)

    @classmethod
    def load(cls, path) -> "Schedule":
        return cls.from_text(read_text(path))

    def __eq__(self, other) -> bool:
        return isinstance(other, Schedule) and self.snapshots == other.snapshots

    def __repr__(self) -> str:
        return f"Schedule(n={self.n}, rounds={self.rounds})"


def _window_pairs(schedule: Schedule, r: int, T: int, mode: str) -> set:
    """Node pairs of the intersection or union of rounds r..r+T-1."""
    if mode not in ("intersection", "union"):
        raise GraphError(f"unknown window mode {mode!r}")
    if T < 1:
        raise GraphError(f"window length must be >= 1, got {T}")
    if not 0 <= r <= schedule.rounds - T:
        raise GraphError(
            f"window [{r}, {r + T - 1}] outside trace of {schedule.rounds} rounds"
        )
    pairs = set(schedule.snapshots[r].pairs)
    for i in range(r + 1, r + T):
        if mode == "intersection":
            pairs &= schedule.snapshots[i].pairs
        else:
            pairs |= schedule.snapshots[i].pairs
    return pairs


def window_graph(schedule: Schedule, r: int, T: int, mode: str) -> Snapshot:
    """Intersection or union of rounds r..r+T-1, ports dropped (the result
    carries canonical ports over the combined edge set)."""
    return Snapshot.from_pairs(schedule.n, _window_pairs(schedule, r, T, mode))


@dataclass(frozen=True)
class ConnectivityReport:
    """Outcome of one property check at one window length."""

    property: str
    T: int
    holds: bool
    witness: tuple[int, tuple[int, int]] | None
    schedule: Schedule = field(repr=False, compare=False)

    @property
    def dynamic_diameter(self) -> float:
        """Dynamic diameter of the checked schedule, computed on first use."""
        return self.schedule.dynamic_diameter()

    def describe(self) -> str:
        verdict = "holds" if self.holds else "fails"
        out = f"{self.property} at T={self.T}: {verdict}"
        if self.witness is not None:
            r, (u, v) = self.witness
            out += f" (window at r={r}, pair {u}-{v})"
        d = self.dynamic_diameter
        out += f"; dynamic diameter {'inf' if d == math.inf else int(d)}"
        return out


def _mask(nodes) -> int:
    return sum(1 << v for v in nodes)


def check_property(schedule: Schedule, prop: str, T: int) -> ConnectivityReport:
    """Check one window property over all complete windows of the trace.

    The witness of a failure is the first failing window start together
    with the least node pair split by it.
    """
    if prop not in PROPERTIES:
        raise GraphError(f"unknown property {prop!r}")
    if T < 1:
        raise GraphError(f"T must be >= 1, got {T}")
    if T > schedule.rounds:
        raise GraphError(
            f"insufficient trace: T={T} but only {schedule.rounds} rounds"
        )
    n = schedule.n
    if prop == "t_path":
        full = (1 << n) - 1
        # per distinct snapshot: its components, each node's component and
        # each component's node bitmask.  A mask is kept only where it costs
        # no more than a list of its members (64 bits a member), so a table
        # stays O(n); a sparser one is rebuilt where it is used
        tables: dict[int, tuple] = {}

        def table(s):
            t = tables.get(id(s))
            if t is None:
                comps = components(s)
                label = [0] * n
                masks = []
                for i, comp in enumerate(comps):
                    for v in comp:
                        label[v] = i
                    masks.append(
                        _mask(comp) if comp[-1] < 64 * len(comp) else None
                    )
                t = tables[id(s)] = (comps, label, masks)
            return t

        def split(snaps):
            ts = [table(s) for s in dict(zip(map(id, snaps), snaps)).values()]
            if any(len(comps) == 1 for comps, _, _ in ts):
                return None  # a connected round joins every pair
            for u in range(n):
                reach = 0
                for comps, label, masks in ts:
                    i = label[u]
                    mask = masks[i]
                    reach |= _mask(comps[i]) if mask is None else mask
                if reach != full:
                    # the first node to miss anyone misses only greater
                    # nodes (a lesser one would miss it back); report its
                    # least miss
                    missing = full & ~reach
                    return u, (missing & -missing).bit_length() - 1
            return None
    else:
        combine = frozenset.intersection if prop == "t_interval" else frozenset.union

        def split(snaps):
            comps = _components_from_pairs(n, combine(*map(_PAIRS, snaps)))
            return (comps[0][0], comps[1][0]) if len(comps) > 1 else None

    # union, intersection and a pair's meeting in some round all ignore
    # repeats and order, so a window's verdict depends only on the set of
    # its snapshots, and a set that held once holds again.  Keys are built
    # only once a window has held: most minimal_T steps fail at the first
    # window, and a key costs O(T)
    witness = None
    held: set[frozenset] = set()
    for r in range(schedule.rounds - T + 1):
        snaps = schedule.snapshots[r : r + T]
        key = frozenset(map(id, snaps)) if held else None
        if key in held:
            continue
        pair = split(snaps)
        if pair is not None:
            witness = (r, pair)
            break
        held.add(key or frozenset(map(id, snaps)))
    return ConnectivityReport(
        property=prop,
        T=T,
        holds=witness is None,
        witness=witness,
        schedule=schedule,
    )


def minimal_T(schedule: Schedule, prop: str) -> int | None:
    """Least T in 1..rounds at which the property holds, or None.

    A T-window's intersection lies inside every shorter window's, so
    ``t_interval`` holds at some T only if it holds at 1.
    """
    Ts = range(1, schedule.rounds + 1)
    for T in Ts[:1] if prop == "t_interval" else Ts:
        if check_property(schedule, prop, T).holds:
            return T
    return None
