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
from functools import partial
from operator import attrgetter, itemgetter, lshift
from typing import NamedTuple

PROPERTIES = ("t_interval", "t_path", "connectivity_time")


class GraphError(ValueError):
    """Malformed snapshot, schedule, or window query."""


class AdversaryError(ValueError):
    """Bad adversary parameters or an unusable starting configuration.
    It is defined here, not in ``adversary``, so that ``cli`` can catch it
    without importing ``adversary``."""


_ENDPOINTS = itemgetter(0, 1)
_PAIRS = attrgetter("pairs")


def _checked(n: int, edges) -> tuple[set, dict]:
    """Check edges one by one and raise the GraphError of the first fault:
    range and self-loop faults in input order, then duplicate edges and
    reused ports in (u, v) order, then port gaps by node.  ``Snapshot``
    runs it only on edges that fail its aggregate checks, so one error
    text names a fault however it was found; valid edges give their pair
    set and port maps."""
    normalized = []
    for u, v, pu, pv in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        normalized.append((u, v, pu, pv) if u < v else (v, u, pv, pu))
    normalized.sort(key=_ENDPOINTS)
    pairs = set()
    ports: dict[int, dict[int, int]] = {}
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
        # the ports at v are distinct, so these bounds make them 0..d-1
        if min(pmap) != 0 or max(pmap) != len(pmap) - 1:
            raise GraphError(
                f"node {v} ports {sorted(pmap)} are not 0..{len(pmap) - 1}"
            )
    return pairs, ports


class Snapshot:
    """One round of a dynamic graph: a simple port-labeled graph on n nodes,
    built from ``(u, v, pu, pv)`` edges, pu being the edge's port at u.

    Validates on construction that endpoints are in range, there are no
    self-loops or duplicate edges, and the ports at every node are exactly
    a permutation of 0..deg-1.  It keeps its pair set and its port maps;
    ``ports`` maps only the nodes that have edges, so a node it lacks has
    degree 0.

    A snapshot is shared by every round that repeats it, so it keeps what
    is derived from it, each computed at its first use: ``comps`` by
    ``components``, ``text`` by ``format_edges`` and ``table`` by
    ``check_property``.
    """

    __slots__ = ("n", "pairs", "ports", "comps", "text", "table")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise GraphError(f"snapshot needs at least one node, got n={n}")
        edges = list(edges)
        pairs = set()
        add = pairs.add
        # only nodes with edges get a port map, so memory follows the edges
        ports: dict[int, dict[int, int]] = {}
        # a map is made with its first port, so an empty one is never found
        get, new = ports.get, ports.setdefault
        for u, v, pu, pv in edges:
            if u < v:
                add((u, v))
            elif v < u:
                add((v, u))
            (get(u) or new(u, {}))[pu] = v
            (get(v) or new(v, {}))[pv] = u
        # A self-loop adds no pair and a repeated pair none either, so the
        # first test finds both.  Every endpoint keys a port map, and a
        # reused port overwrites, so full maps on keys in range are the
        # rest.  The ports at a node are distinct and at least 0, so their
        # greatest is at least d - 1, and the sums pin it to d - 1 at every
        # node: the ports there are 0..d-1.
        maps = ports.values()
        if len(pairs) != len(edges) or ports and not (
            0 <= min(ports) and max(ports) < n
            and sum(map(len, maps)) == 2 * len(edges)
            and min(map(min, maps)) == 0
            and sum(map(max, maps)) == 2 * len(edges) - len(ports)
        ):
            pairs, ports = _checked(n, edges)
        self.n = n
        self.pairs = frozenset(pairs)
        self.ports = ports
        self.comps = self.text = self.table = None

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
        snap = cls.__new__(cls)
        snap.n, snap.pairs = n, frozenset(seen)
        snap.comps = snap.text = snap.table = None
        snap.ports = {v: dict(enumerate(sorted(ws))) for v, ws in nbrs.items()}
        return snap

    def neighbor(self, v: int, port: int) -> int:
        """Node reached from v through the given port."""
        try:
            return self.ports[v][port]
        except KeyError:
            raise GraphError(f"node {v} has no port {port}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Snapshot)
            and self.n == other.n
            and self.ports == other.ports
        )

    def __hash__(self) -> int:
        # equal snapshots have equal pairs, and a frozenset hashes in C and
        # keeps its hash, so dynamic_diameter's set of snapshots (and a
        # test's) never hashes the port maps
        return hash((self.n, self.pairs))

    def __repr__(self) -> str:
        return f"Snapshot(n={self.n}, edges={len(self.pairs)})"


def _components(n: int, ports) -> list[list[int]]:
    """Connected components of the graph of these port maps on n nodes,
    each sorted, ordered by least member."""
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        if root in ports:
            for x in comp:  # the loop reaches what it appends
                for y in ports[x].values():
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
            comp.sort()
        comps.append(comp)
    return comps


def _components_from_pairs(n: int, pairs) -> list[list[int]]:
    """``_components`` of a pair set, where no port maps exist: each
    node's map takes its neighbors as ports."""
    adj: dict[int, dict[int, int]] = {}
    for u, v in pairs:
        adj.setdefault(u, {})[v] = v
        adj.setdefault(v, {})[u] = u
    return _components(n, adj)


def components(snapshot: Snapshot) -> list[list[int]]:
    """Connected components from the port maps, each sorted, ordered by
    least member; computed once per snapshot and shared, not to be mutated."""
    if snapshot.comps is None:
        snapshot.comps = _components(snapshot.n, snapshot.ports)
    return snapshot.comps


def read_text(path) -> str:
    """A file's text; an unreadable or non-UTF-8 file is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
# the separators inside a token, read as whitespace
_EDGE_SEPARATORS = str.maketrans("-:,", "   ")
_ASCII_DIGITS = str.maketrans("", "", "0123456789")
_ROUND_LINE = re.compile(r"r=(\d+):(.*)")


def parse_edges(
    field: str, ints: Memo | None = None
) -> list[tuple[int, int, int, int]]:
    """``(u, v, pu, pv)`` edges of whitespace-separated ``u-v:pu,pv`` tokens,
    read in one pass by string operations; the token loop only reads
    other digits than ASCII ones, or names a bad token or number.
    ``ints`` is the text's integer table, a ``Memo(parse_int)`` that
    converts each distinct number text once; by default the field gets
    its own."""
    if ints is None:
        ints = Memo(parse_int)
    number = ints.__getitem__
    tokens = field.split()
    text = " ".join(tokens)
    numbers = text.translate(_EDGE_SEPARATORS).split()
    # each token is u-v:pu,pv when its separators, in order, are what its
    # ASCII digits leave, and its four numbers are not empty
    if (text.translate(_ASCII_DIGITS) == " ".join(["-:,"] * len(tokens))
            and len(numbers) == 4 * len(tokens)):
        numbers = map(number, numbers)
        try:
            return list(zip(numbers, numbers, numbers, numbers))
        except GraphError:
            pass  # a number too long for int; the loop names it
    edges = []
    for tok in tokens:
        m = _EDGE_TOKEN.fullmatch(tok)
        if not m:
            raise GraphError(f"bad edge token {tok!r}")
        edges.append(tuple(map(number, m.groups())))
    return edges


def format_edges(snapshot: Snapshot) -> str:
    """The edges as ``u-v:pu,pv`` tokens in (u, v) order, each after a space;
    formatted once per snapshot and shared."""
    if snapshot.text is None:
        port_of = {v: {w: p for p, w in pmap.items()}
                   for v, pmap in snapshot.ports.items()}
        snapshot.text = "".join(f" {u}-{v}:{port_of[u][v]},{port_of[v][u]}"
                                for u, v in sorted(snapshot.pairs))
    return snapshot.text


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


def snapshot_cache(n: int, ints: Memo) -> Memo:
    """One validated Snapshot on n nodes per distinct edge-token text, so
    rounds that repeat a graph share its Snapshot and its components.
    ``ints``, the integer table of the text being parsed, converts each
    distinct number text once: node and port numbers repeat on every
    line."""
    return Memo(lambda text: Snapshot(n, parse_edges(text, ints)))


def _diameter(n: int, ports) -> float:
    """Longest shortest path in the graph of these port maps on n nodes;
    math.inf when disconnected."""
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in ports.get(x, {}).values():
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

    @property
    def rounds(self) -> int:
        return len(self.snapshots)

    def next_snapshot(self, r: int, config, states) -> Snapshot:
        """Round r for ``engine.run``: a schedule is its own source, and
        ignores the configuration and states."""
        if r >= self.rounds:
            raise GraphError(
                f"fixed schedule exhausted at round {r} (has {self.rounds})"
            )
        return self.snapshots[r]

    def dynamic_diameter(self) -> float:
        """Max over rounds of the per-round diameter (inf if ever split),
        searched once per distinct snapshot."""
        return max(_diameter(self.n, s.ports) for s in set(self.snapshots))

    def to_text(self) -> str:
        lines = [f"n={self.n} rounds={self.rounds}"]
        for r, s in enumerate(self.snapshots):
            lines.append(f"r={r}:{format_edges(s)}")
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
        ints = Memo(parse_int)
        try:
            m = re.fullmatch(r"n=(\d+) rounds=(\d+)", header)
            if not m:
                raise GraphError(f"bad header {header!r}")
            n, rounds = ints[m.group(1)], ints[m.group(2)]
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
        parsed = snapshot_cache(n, ints)
        for lineno, line in body:
            try:
                m = _ROUND_LINE.fullmatch(line)
                if not m:
                    raise GraphError("expected 'r=<r>: <edges>'")
                r = ints[m.group(1)]
                if not 0 <= r < rounds:
                    raise GraphError(f"round {r} outside 0..{rounds - 1}")
                if snaps[r] is not None:
                    raise GraphError(f"round {r} listed twice")
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


def window_graph(schedule: Schedule, r: int, T: int, mode: str) -> Snapshot:
    """Intersection or union of rounds r..r+T-1, ports dropped (the result
    carries canonical ports over the combined edge set)."""
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
    return Snapshot.from_pairs(schedule.n, pairs)


class ConnectivityReport(NamedTuple):
    """Outcome of one property check at one window length."""

    property: str
    T: int
    holds: bool
    witness: tuple[int, tuple[int, int]] | None
    schedule: Schedule

    @property
    def dynamic_diameter(self) -> float:
        """Dynamic diameter of the checked schedule, computed when read."""
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


def _split_from_0(n: int, port_maps) -> tuple[int, int] | None:
    """``(0, least node 0 does not reach)`` in the union of the graphs of
    these port maps, or None when 0 reaches every node: the search stops
    as soon as it has."""
    seen = [False] * n
    seen[0] = True
    count = 1
    stack = [0]
    while stack:
        x = stack.pop()
        for ports in port_maps:
            pmap = ports.get(x)
            if pmap:
                for y in pmap.values():
                    if not seen[y]:
                        seen[y] = True
                        count += 1
                        stack.append(y)
        if count == n:
            return None
    return 0, seen.index(False)


_BIT = partial(lshift, 1)


def _mask(nodes) -> int:
    return sum(map(_BIT, nodes))


def _table(s: Snapshot) -> tuple:
    """A snapshot's components, each node's component and each component's
    node bitmask, kept on the snapshot for later ``t_path`` checks.  A mask
    is kept only where it costs no more than a list of its members (64
    bits a member), so a table stays O(n); a sparser one is rebuilt where
    it is used."""
    if s.table is None:
        comps = components(s)
        label = [0] * s.n
        masks = []
        for i, comp in enumerate(comps):
            for v in comp:
                label[v] = i
            masks.append(_mask(comp) if comp[-1] < 64 * len(comp) else None)
        s.table = (comps, label, masks)
    return s.table


def _split(prop: str, n: int, distinct) -> tuple[int, int] | None:
    """The least node pair that a window of these distinct snapshots on n
    nodes leaves apart under ``prop``, or None when the window holds.

    Components decide first: under ``t_path`` and ``connectivity_time`` a
    connected round joins every pair, so a window with one holds, and
    under every property a window of one snapshot splits 0 from the least
    member of its second component.  A snapshot that keeps one component
    decides at once; otherwise the others are searched up to the first
    connected one, the last to enter the window first, since later windows
    keep it longest.  Only a window with no connected round builds
    ``t_path`` tables or searches a union or an intersection.
    """
    if prop != "t_interval" or len(distinct) == 1:
        if any(len(s.comps or ()) == 1 for s in distinct) or any(
            len(s.comps or components(s)) == 1 for s in reversed(distinct)
        ):
            return None
        if len(distinct) == 1:
            (s,) = distinct
            return 0, s.comps[1][0]
    if prop == "t_path":
        ts = [_table(s) for s in distinct]
        full = (1 << n) - 1
        for u in range(n):
            reach = 0
            for comps, label, masks in ts:
                i = label[u]
                mask = masks[i]
                reach |= _mask(comps[i]) if mask is None else mask
            if reach != full:
                # the first node to miss anyone misses only greater nodes (a
                # lesser one would miss it back); report its least miss
                missing = full & ~reach
                return u, (missing & -missing).bit_length() - 1
        return None
    if prop == "connectivity_time":
        return _split_from_0(n, [s.ports for s in distinct])
    comps = _components_from_pairs(
        n, frozenset.intersection(*map(_PAIRS, distinct)))
    return (comps[0][0], comps[1][0]) if len(comps) > 1 else None


def check_property(schedule: Schedule, prop: str, T: int) -> ConnectivityReport:
    """Check one window property over all complete windows of the trace.

    The witness of a failure is the first failing window start together
    with the least node pair split by it.  Each distinct window set is
    split once; a window with a connected round, under ``t_path`` and
    ``connectivity_time``, and a window of one snapshot, under every
    property, are decided by the components its snapshots keep, without
    a search.
    """
    if prop not in PROPERTIES:
        raise GraphError(f"unknown property {prop!r}")
    if T < 1:
        raise GraphError(f"T must be >= 1, got {T}")
    if T > schedule.rounds:
        raise GraphError(
            f"insufficient trace: T={T} but only {schedule.rounds} rounds"
        )
    # union, intersection and a pair's meeting in some round all ignore
    # repeats and order, so a window's verdict depends only on the set of
    # its snapshots, and a set that held once holds again; a window whose
    # entering round is its leaving one has the set of the window before,
    # which held.  Keys are built only once a window has held: most
    # minimal_T steps fail at the first window, and a key costs O(T)
    ids = tuple(map(id, schedule.snapshots))
    witness = None
    held: set[frozenset] = set()
    for r in range(schedule.rounds - T + 1):
        if r and ids[r - 1] == ids[r + T - 1]:
            continue
        window = ids[r : r + T]
        key = frozenset(window) if held else None
        if key in held:
            continue
        snaps = schedule.snapshots[r : r + T]
        pair = _split(prop, schedule.n, dict(zip(window, snaps)).values())
        if pair is not None:
            witness = (r, pair)
            break
        held.add(key or frozenset(window))
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
    ``t_interval`` holds at some T only if it holds at 1.  ``t_path`` and
    ``connectivity_time`` hold at T+1 wherever they hold at T, so they
    hold at some T only if they hold at T = rounds.
    """
    last = 1 if prop == "t_interval" else schedule.rounds
    if not check_property(schedule, prop, last).holds:
        return None
    for T in range(1, last):
        if check_property(schedule, prop, T).holds:
            return T
    return last
