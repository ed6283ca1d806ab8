"""Seeded mutation fuzzing of the trace and schedule parsers.

Each mutant deletes, duplicates or alters one or two whitespace-separated
tokens of a genuine trace or schedule.  An alteration overwrites one
character, so no number grows by more than the digits it already has and
no mutant can ask for a large allocation.  Only the package errors may
escape, and the trace parser must agree with the naive reference parser in
``oracles``: the same rounds, or the same error.
"""

from __future__ import annotations

import random
from pathlib import Path

from dispersim.adversary import gen_random_with_property, make_adversary
from dispersim.algorithms import make_algorithm
from dispersim.engine import EngineError, run
from dispersim.graphs import PROPERTIES, GraphError, Schedule, minimal_T
from dispersim.harness import parse_trace, verify_trace

import oracles

DATA = Path(__file__).parent / "data"
PACKAGE_ERRORS = (EngineError, GraphError)
ALPHABET = "0123456789:,-|!ms= x"
TRACE_MUTANTS = 450  # per trace
SCHEDULE_MUTANTS = 150  # per schedule file


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
    failures = []
    for label, text in mutants(seed_schedules(), SCHEDULE_MUTANTS, "schedule"):
        try:
            sch = Schedule.from_text(text)
        except PACKAGE_ERRORS:
            continue
        except Exception as exc:
            failures.append(f"{label}: {exc!r}")
            continue
        try:
            for prop in PROPERTIES:
                minimal_T(sch, prop)
        except Exception as exc:
            failures.append(f"{label}: {prop}: {exc!r}")
    assert not failures, "\n".join(failures[:10])
