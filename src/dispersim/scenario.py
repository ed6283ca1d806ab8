"""Scenarios and parameter sweeps.

A scenario is a small key=value text file naming a schedule source, an
algorithm, a placement, and budgets.  ``run_scenario`` runs one, and
``sweep`` runs a scenario template once per seed and verifies every
trace.  Only the ``run`` and ``sweep`` commands import this module.
"""

from __future__ import annotations

import math
import random
import re
from typing import NamedTuple

from . import adversary as adv_mod
from .adversary import (
    ADVERSARIES, SORTED_PATH_VARIANTS, RandomRounds, make_adversary,
)
from .algorithms import ALGORITHM_NAMES, make_algorithm
from .engine import COMMUNICATIONS, VISIBILITIES, RunResult, run
from .graphs import MAX_NODES, PROPERTIES, GraphError, Schedule, parse_int
from .harness import RunMetrics, ScenarioError, read_int, verify_trace

# what each schedule kind takes from a scenario: T and the argument after
# its colon; an adversary takes what its ADVERSARIES row names (k is given)
SCHEDULE_PARAMS = {
    "file": ("path",),
    "random": ("property", "T"),
    **{kind: () for kind in adv_mod.DEMOS},
    **{kind: params for kind, (_, params) in ADVERSARIES.items()},
}
SCHEDULE_KINDS = tuple(SCHEDULE_PARAMS)
# a random round draws each of its n(n-1)/2 node pairs: at n = 500 one
# round takes about 0.2 s on a 2-core x86 host with Python 3.11, at 1,000
# about 1.2 s and at 2,000 about 5.6 s and 0.5 GB
MAX_RANDOM_NODES = 500
# a random run keeps every round's snapshot, and random rounds never
# repeat, so max_rounds times the edges a round can keep, density *
# n(n-1)/2 plus the n-1 of a spanning tree, is bounded: at n = 500 a whole
# run at this bound peaked at 712 MiB RSS with density 0 (t_interval, whose
# rounds keep two trees, 500 agents on alg3) and 184 MiB with density 1,
# on a 2-core x86 host with Python 3.11
MAX_RANDOM_EDGES = 500_000
# the values each argument may take; a path is any text but the empty one
_ARGUMENTS = {"path": None, "property": PROPERTIES, "variant": SORTED_PATH_VARIANTS}

# each placement kind and the argument it takes after its colon: an
# integer with its default, node groups, or none
PLACEMENTS = {"colocated": ("node", 0), "dispersed": None,
              "spread": ("holes", 1), "random": None, "explicit": "groups"}

# "node:id,id,...", one group of a placement
_PLACEMENT_TOKEN = re.compile(r"(\d+):(\d+(?:,\d+)*)")


class Scenario(NamedTuple):
    n: int
    k: int
    schedule: str
    algorithm: str
    max_rounds: int
    T: int | None = None
    visibility: str = "one"
    communication: str = "global"
    placement: str = "colocated"
    seed: int = 0
    density: float = 0.3
    dispersed_known: bool = False


_REQUIRED = ("n", "k", "schedule", "algorithm", "max_rounds")
_INT_KEYS = ("n", "k", "max_rounds", "T", "seed")


def parse_scenario(text: str) -> Scenario:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {i}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ScenarioError(f"line {i}: duplicate key {key!r}")
        values[key] = value
        lines[key] = i

    def fail(key, msg):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ScenarioError(f"{where}{msg}")

    for key in values:
        if key not in Scenario._fields:
            fail(key, f"unknown key {key!r}")
    parsed: dict = {}
    for key, value in values.items():
        if key in _INT_KEYS:
            try:
                parsed[key] = read_int(value)
            except ValueError:
                fail(key, f"{key} must be an integer, got {value!r}")
        elif key == "density":
            try:
                parsed[key] = float(value)
            except ValueError:
                fail(key, f"density must be a number, got {value!r}")
        elif key == "dispersed_known":
            if value not in ("true", "false"):
                fail(key, f"dispersed_known must be true or false, got {value!r}")
            parsed[key] = value == "true"
        else:
            parsed[key] = value
    for key in _REQUIRED:
        if key not in values:
            raise ScenarioError(f"missing required key {key!r}")
    sc = Scenario(**parsed)

    if sc.n < 1:
        fail("n", f"n must be >= 1, got {sc.n}")
    if sc.n > MAX_NODES:
        fail("n", f"n must be <= {MAX_NODES}, got {sc.n}")
    if sc.k < 1:
        fail("k", f"k must be >= 1, got {sc.k}")
    if sc.k > sc.n:
        fail("k", f"k must be <= n, got k={sc.k} n={sc.n}")
    if sc.max_rounds < 1:
        fail("max_rounds", f"max_rounds must be >= 1, got {sc.max_rounds}")
    if sc.max_rounds > 10**6:  # a cycling run holds max_rounds records
        fail("max_rounds",
             f"max_rounds must be <= 1000000, got {sc.max_rounds}")
    if sc.T is not None and sc.T < 1:
        fail("T", f"T must be >= 1, got {sc.T}")
    if sc.visibility not in VISIBILITIES:
        fail("visibility", f"visibility must be {' or '.join(VISIBILITIES)},"
             f" got {sc.visibility!r}")
    if sc.communication not in COMMUNICATIONS:
        fail("communication", "communication must be"
             f" {' or '.join(COMMUNICATIONS)}, got {sc.communication!r}")
    kind, _, arg = sc.schedule.partition(":")
    if kind not in SCHEDULE_KINDS:
        fail("schedule", f"unknown schedule kind {kind!r}; known: {SCHEDULE_KINDS}")
    if kind == "random" and sc.n > MAX_RANDOM_NODES:
        fail("n", f"a random schedule needs n <= {MAX_RANDOM_NODES},"
             f" got {sc.n}")
    if sc.algorithm not in ALGORITHM_NAMES:
        fail("algorithm",
             f"unknown algorithm {sc.algorithm!r}; known: {ALGORITHM_NAMES}")
    params = SCHEDULE_PARAMS[kind]
    if sc.T is None and ("T" in params or sc.algorithm == "alg1_explicit"):
        fail("schedule", f"schedule {sc.schedule!r} / algorithm"
             f" {sc.algorithm!r} needs T")
    if sc.algorithm == "dispersed_one_round" and not sc.dispersed_known:
        fail("algorithm", "dispersed_one_round assumes a dispersed start;"
             " set dispersed_known = true")
    pkind, _, parg = sc.placement.partition(":")
    if pkind not in PLACEMENTS:
        fail("placement",
             f"unknown placement {pkind!r}; known: {tuple(PLACEMENTS)}")
    if parg and PLACEMENTS[pkind] is None:
        fail("placement", f"placement {pkind} takes no argument, got {parg!r}")
    takes = next((p for p in params if p in _ARGUMENTS), None)
    values = _ARGUMENTS.get(takes)
    if (arg not in values) if values else (bool(arg) != bool(takes)):
        fail("schedule", f"schedule {kind} takes "
             + (f"a {takes}" if takes else "no argument")
             + (f" in {values}" if values else "") + f", got {arg!r}")
    if not 0.0 <= sc.density <= 1.0:
        fail("density", f"density must be in [0, 1], got {sc.density}")
    if kind == "random":
        edges = sc.max_rounds * (sc.density * sc.n * (sc.n - 1) / 2 + sc.n - 1)
        if edges > MAX_RANDOM_EDGES:
            fail("max_rounds", "a random schedule keeps every round, so"
                 " max_rounds * (density * n(n-1)/2 + n-1) must be <="
                 f" {MAX_RANDOM_EDGES}, got {math.ceil(edges)}")
    try:
        build_placement(sc)
    except (ScenarioError, GraphError) as exc:
        # what building finds keeps its own text, and names the line after it
        raise ScenarioError(f"{exc} (line {lines['placement']})") from None
    return sc


def build_placement(sc: Scenario) -> dict[int, int]:
    kind, _, arg = sc.placement.partition(":")

    def number() -> int:
        try:
            return read_int(arg) if arg else PLACEMENTS[kind][1]
        except ValueError:
            raise ScenarioError(f"bad {kind} placement {arg!r}") from None

    if kind == "colocated":
        node = number()
        if not 0 <= node < sc.n:
            raise ScenarioError(f"colocated node {node} outside 0..{sc.n - 1}")
        return {a: node for a in range(1, sc.k + 1)}
    if kind == "dispersed":
        if sc.k > sc.n:
            raise ScenarioError("dispersed placement needs k <= n")
        return {a: a - 1 for a in range(1, sc.k + 1)}
    if kind == "spread":
        holes = number()
        if not 1 <= holes < sc.n:
            raise ScenarioError(f"spread holes {holes} outside 1..{sc.n - 1}")
        slots = sc.n - holes
        return {
            a: (a - 1) if a <= slots else 0 for a in range(1, sc.k + 1)
        }
    if kind == "random":
        rng = random.Random(f"placement:{sc.seed}:{sc.n}:{sc.k}")
        return {a: rng.randrange(sc.n) for a in range(1, sc.k + 1)}
    # explicit:node:ids;node:ids
    placement: dict[int, int] = {}
    for part in arg.split(";"):
        m = _PLACEMENT_TOKEN.fullmatch(part)
        if not m:
            raise ScenarioError(f"bad explicit placement part {part!r}")
        node = parse_int(m.group(1))
        if node >= sc.n:
            raise ScenarioError(f"explicit node {node} outside 0..{sc.n - 1}")
        for a in map(parse_int, m.group(2).split(",")):
            if a in placement:
                raise ScenarioError(f"agent {a} placed twice")
            placement[a] = node
    if sorted(placement) != list(range(1, sc.k + 1)):
        raise ScenarioError(
            f"explicit placement must cover agents 1..{sc.k}"
        )
    return placement


def build_source(sc: Scenario):
    """The scenario's schedule source; a random or demo schedule is drawn
    only as far as the run reads it."""
    kind, _, arg = sc.schedule.partition(":")
    if kind == "file":
        return Schedule.load(arg)
    if kind == "random":
        return RandomRounds(sc.seed, sc.n, arg, sc.T, sc.density, sc.max_rounds)
    if kind in adv_mod.DEMOS:
        return adv_mod.Periodic(kind)
    return make_adversary(kind, sc.n, k=sc.k, T=sc.T, variant=arg)


def run_scenario(sc: Scenario) -> RunResult:
    source = build_source(sc)
    if source.n != sc.n:
        raise ScenarioError(
            f"schedule has n={source.n} but scenario says n={sc.n}"
        )
    return run(
        source,
        build_placement(sc),
        make_algorithm(sc.algorithm, T=sc.T),
        visibility=sc.visibility,
        communication=sc.communication,
        max_rounds=sc.max_rounds,
        T=sc.T,
    )


def sweep(template_text: str, seeds, out=print):
    """Run a scenario template once per seed, verifying every trace."""
    metrics: list[RunMetrics] = []
    violations: list[str] = []
    for seed in seeds:
        sc = parse_scenario(template_text)._replace(seed=seed)
        res = run_scenario(sc)
        report = verify_trace(res.to_text())
        metrics.append(report.metrics)
        violations.extend(f"seed {seed}: {v}" for v in report.violations)

    def stats(values):
        known = [v for v in values if v is not None]
        if not known:
            return "never"
        lo, hi = min(known), max(known)
        tag = f"{lo}..{hi}" if lo != hi else str(lo)
        if len(known) < len(values):
            tag += f" ({len(values) - len(known)} never)"
        return tag

    out(f"runs: {len(metrics)}")
    out(f"dispersed_at: {stats([m.dispersed_at for m in metrics])}")
    out(f"explored_at: {stats([m.explored_at for m in metrics])}")
    out(f"all_terminated_at: {stats([m.all_terminated_at for m in metrics])}")
    out(f"violations: {len(violations)}")
    for v in violations[:20]:
        out(f"  {v}")
    return metrics, violations
