"""Seeded mutation fuzzing of the trace, schedule and scenario parsers.

Each mutant deletes, duplicates or alters one or two whitespace-separated
tokens of a genuine trace or schedule.  An alteration overwrites one
character, so no number grows by more than the digits it already has and
no mutant can ask for a large allocation.  Only the package errors may
escape, and the trace and schedule parsers must agree with the naive
reference parsers in ``oracles``: the same rounds, or the same error.
Field mutants of traces whose rounds repeat alter one or two field lines,
or put another round's line of the same field in their place, and the
verifier must report what the reference verifier, which shares nothing
between rounds, reports.
Scenario mutants delete, duplicate or overwrite one character of a
scenario; they are parsed and their sources built, but never run.
"""

from __future__ import annotations

import random
from pathlib import Path

from dispersim.adversary import (
    AdversaryError, gen_random_with_property, make_adversary,
)
from dispersim.algorithms import make_algorithm
from dispersim.engine import EngineError, run
from dispersim.graphs import (
    PROPERTIES,
    GraphError,
    Schedule,
    Snapshot,
    minimal_T,
)
from dispersim.harness import (
    ScenarioError, TraceReport, parse_trace, verify_trace,
)
from dispersim.scenario import build_source, parse_scenario

import oracles

DATA = Path(__file__).parent / "data"
PACKAGE_ERRORS = (EngineError, GraphError)
ALPHABET = "0123456789:,-|!ms= x"
TRACE_MUTANTS = 450  # per trace
SCHEDULE_MUTANTS = 150  # per schedule file
FIELD_MUTANTS = 60  # per repeated-round trace
SCENARIO_ERRORS = (ScenarioError, GraphError, EngineError, AdversaryError)
# signs, separators, a dot and a non-ASCII decimal digit next to the digits
SCENARIO_ALPHABET = "0123456789+_-.:,; =x\u0663"
SCENARIO_MUTANTS = 700  # per scenario template
SCENARIOS = (
    # a random schedule with an explicit placement
    "n = 6\nk = 4\nschedule = random:t_path\nalgorithm = alg1_explicit\n"
    "T = 2\nmax_rounds = 40\nseed = -3\ndensity = 0.3\n"
    "placement = explicit:0:1,2;3:3;5:4\n",
    # an adversary that consults the algorithm as an oracle
    "n = 7\nk = 6\nschedule = sorted_path:comm\nalgorithm = alg3\n"
    "communication = f2f\nmax_rounds = 20\nplacement = colocated:1\n",
    # an adversary schedule with a spread placement
    "n = 8\nk = 5\nschedule = ct_dispersion\nalgorithm = alg1_implicit\n"
    "T = 3\nmax_rounds = 30\nplacement = spread:4\nseed = 12\n",
)


def seed_traces() -> list[str]:
    """Small genuine traces: a terminating dispersion run, an adversarial
    run with a multinode every round, and a face-to-face exploration."""
    sched = gen_random_with_property(7, 5, "t_path", 2, 0.4, 12)
    colocated = lambda k: {a: 0 for a in range(1, k + 1)}
    return [
        run(sched, colocated(4), make_algorithm("alg1_explicit", T=2),
            max_rounds=12, T=2).to_text(),
        run(make_adversary("ct_dispersion", 4, k=3, T=2), colocated(3),
            make_algorithm("alg1_implicit"), max_rounds=12, T=2).to_text(),
        run(make_adversary("sorted_path", 7, variant="comm"), colocated(6),
            make_algorithm("alg3"), communication="f2f",
            max_rounds=10).to_text(),
    ]


def repeated_round_traces() -> list[str]:
    """Genuine traces whose round blocks repeat: three algorithms against
    the ct_dispersion adversary, a face-to-face exploration, and agents
    that stay twice on a static path and then terminate."""
    colocated = lambda k: {a: 0 for a in range(1, k + 1)}
    path = Snapshot.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    return [
        run(make_adversary("ct_dispersion", 6, k=4, T=3), colocated(4),
            make_algorithm(alg, T=3), max_rounds=30, T=3).to_text()
        for alg in ("alg1_implicit", "alg3", "alg1_explicit")
    ] + [
        run(make_adversary("sorted_path", 7, variant="comm"), colocated(6),
            make_algorithm("alg3"), communication="f2f",
            max_rounds=20).to_text(),
        run(Schedule([path] * 4), {1: 0, 2: 1, 3: 3},
            make_algorithm("alg1_explicit", T=3), max_rounds=4,
            T=3).to_text(),
    ]


def seed_schedules() -> list[str]:
    return [p.read_text() for p in sorted(DATA.glob("*.sched"))]


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        j = rng.randrange(len(toks))
        kind = rng.choice(("delete", "duplicate", "alter"))
        if kind == "delete":
            del toks[j]
        elif kind == "duplicate":
            toks.insert(j, toks[j])
        else:
            tok = toks[j] or " "
            c = rng.randrange(len(tok))
            toks[j] = tok[:c] + rng.choice(ALPHABET) + tok[c + 1:]
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def field_mutant(text: str, rng: random.Random) -> str:
    """One or two field lines of rounds after the first, each altered as
    ``mutate`` alters a line or replaced by another round's line of the
    same field."""
    lines = text.splitlines()
    blocks = [lines[i + 1:i + 7] for i in range(1, len(lines) - 1, 7)]
    for _ in range(rng.randint(1, 2)):
        r = rng.randrange(1, len(blocks))
        f = rng.randrange(6)
        i = 2 + 7 * r + f
        others = sorted({b[f] for b in blocks} - {lines[i]})
        if others and (not lines[i] or rng.random() < 0.7):
            lines[i] = rng.choice(others)
        else:
            lines[i] = mutate(lines[i], rng).rstrip("\n")
    return "\n".join(lines) + "\n"


def mutants(seeds: list[str], count: int, tag: str):
    """(label, mutant text) pairs, the same on every run."""
    for s, text in enumerate(seeds):
        rng = random.Random(f"fuzz:{tag}:{s}")
        for m in range(count):
            yield f"{tag} {s} mutant {m}", mutate(text, rng)


def _outcome(fn, text):
    try:
        return fn(text)
    except PACKAGE_ERRORS as exc:
        return type(exc).__name__, str(exc)


def test_trace_mutants_raise_only_package_errors_and_parse_like_the_reference():
    failures = []
    for label, text in mutants(seed_traces(), TRACE_MUTANTS, "trace"):
        try:
            got = _outcome(parse_trace, text)
            want = _outcome(oracles.parse_trace_reference, text)
            if got != want:
                failures.append(f"{label}: {got!r:.200} != {want!r:.200}")
            _outcome(verify_trace, text)
        except Exception as exc:  # report every escape, not just the first
            failures.append(f"{label}: {exc!r}")
    assert not failures, "\n".join(failures[:10])


def test_schedule_mutants_raise_only_package_errors():
    # and read as the reference reads them: the same rounds, or the same
    # error; most mutants keep the shape to_text writes, so they reach the
    # bulk read and every way out of it
    failures = []
    for label, text in mutants(seed_schedules(), SCHEDULE_MUTANTS, "schedule"):
        try:
            sch = _outcome(Schedule.from_text, text)
            want = _outcome(oracles.schedule_from_text_reference, text)
        except Exception as exc:
            failures.append(f"{label}: {exc!r}")
            continue
        got = sch if isinstance(sch, tuple) else [
            (s.n, s.pairs, s.ports) for s in sch.snapshots]
        if got != want:
            failures.append(f"{label}: {got!r:.200} != {want!r:.200}")
        if isinstance(sch, tuple):
            continue
        try:
            for prop in PROPERTIES:
                minimal_T(sch, prop)
        except Exception as exc:
            failures.append(f"{label}: {prop}: {exc!r}")
    assert not failures, "\n".join(failures[:10])


def scenario_mutant(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text))
    kind = rng.choice(("delete", "duplicate", "overwrite"))
    if kind == "delete":
        return text[:i] + text[i + 1:]
    if kind == "duplicate":
        return text[:i] + text[i] + text[i:]
    return text[:i] + rng.choice(SCENARIO_ALPHABET) + text[i + 1:]


def typed_integers(text: str):
    """(key, text) of every integer a scenario text gives, as typed: the
    integer keys and the argument of a colocated or spread placement."""
    for line in text.splitlines():
        key, sep, value = line.split("#", 1)[0].partition("=")
        key, value = key.strip(), value.strip()
        if sep and key in ("n", "k", "max_rounds", "T", "seed"):
            yield key, value
        kind, _, arg = value.partition(":")
        if key == "placement" and kind in ("colocated", "spread") and arg:
            yield kind, arg


def test_scenario_mutants_raise_only_package_errors_and_read_decimal_digits():
    failures, accepted = [], 0
    for s, template in enumerate(SCENARIOS):
        rng = random.Random(f"fuzz:scenario:{s}")
        for m in range(SCENARIO_MUTANTS):
            text = scenario_mutant(template, rng)
            try:
                build_source(parse_scenario(text))
            except SCENARIO_ERRORS:
                continue
            except Exception as exc:
                failures.append(f"scenario {s} mutant {m}: {exc!r}")
                continue
            accepted += 1
            for key, value in typed_integers(text):
                digits = value.removeprefix("-") if key == "seed" else value
                if not digits.isdecimal():
                    failures.append(f"scenario {s} mutant {m}: accepted"
                                    f" {key} {value!r}")
    assert not failures, "\n".join(failures[:10])
    # enough mutants parse for the integer check to bite
    assert accepted > len(SCENARIOS) * SCENARIO_MUTANTS // 20


def test_field_mutants_of_repeated_rounds_verify_like_the_reference():
    failures, reported = [], 0
    for s, text in enumerate(repeated_round_traces()):
        rng = random.Random(f"fuzz:field:{s}")
        for m in range(FIELD_MUTANTS):
            mutant = field_mutant(text, rng)
            got = _outcome(verify_trace, mutant)
            want = _outcome(oracles.verify_trace_reference, mutant)
            if got != want:
                failures.append(f"field {s} mutant {m}: {got!r:.300}"
                                f" != {want!r:.300}")
            reported += isinstance(got, TraceReport) and not got.ok
    assert not failures, "\n".join(failures[:10])
    # many mutants parse, so the checks, not the parser, must catch them
    assert reported > FIELD_MUTANTS * 2
