"""Command line interface.

Exit codes: 0 success, 1 a check failed (trace violation, demo FAIL, or
property does not hold), 2 bad usage or unparseable input, 141 the reader
closed standard output early (as for a process that SIGPIPE ends).

Only ``run`` and ``sweep`` import ``scenario``, inside their handlers, so
``verify``, ``demo`` and ``classify`` do not compile it.  Only ``demo``
imports ``claims``, inside its handler, which also rejects an unknown claim
id, so no other command compiles it.  ``AdversaryError`` comes from
``graphs``, so ``verify`` and ``classify`` do not compile ``adversary``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .engine import EngineError
from .graphs import (
    PROPERTIES, AdversaryError, GraphError, Schedule, check_property,
    minimal_T, read_text,
)
from .harness import ScenarioError, read_int, verify_trace


# the shell's status for a process that SIGPIPE ends (128 + 13)
CLOSED_STDOUT = 141


def _report(report, out) -> int:
    out(report.metrics.table())
    if report.violations:
        out(f"violations: {len(report.violations)}")
        for v in report.violations:
            out(f"  {v}")
        return 1
    out("violations: 0")
    return 0


def _cmd_run(args, out) -> int:
    from .scenario import parse_scenario, run_scenario

    sc = parse_scenario(read_text(args.scenario))
    result = run_scenario(sc)
    text = result.to_text()
    if args.trace_out:
        try:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScenarioError(f"cannot write {args.trace_out}: {exc}") from None
        out(f"trace written to {args.trace_out}")
    return _report(verify_trace(text), out)


def _cmd_verify(args, out) -> int:
    return _report(verify_trace(read_text(args.trace)), out)


def _cmd_demo(args, out) -> int:
    from .claims import CLAIMS, demo

    ids = tuple(CLAIMS) if args.id == "all" else (args.id,)
    ok = True
    for demo_id in ids:
        ok &= demo(demo_id, out=out)
    return 0 if ok else 1


def _parse_seeds(text: str) -> range | list[int]:
    """A range ``a..b`` with a <= b, or a comma list of seeds."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            seeds = range(read_int(lo), read_int(hi) + 1)
        except ValueError:
            seeds = range(0)
        if not seeds:
            raise ScenarioError(f"bad seed range {text!r}")
        return seeds
    try:
        return [read_int(s) for s in text.split(",")]
    except ValueError:
        raise ScenarioError(f"bad seed list {text!r}") from None


def _window(text: str) -> int:
    """``--T``: argparse reports a bad value as it reports one for int."""
    try:
        return read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _cmd_sweep(args, out) -> int:
    from .scenario import sweep

    _, violations = sweep(read_text(args.template), _parse_seeds(args.seeds), out=out)
    return 1 if violations else 0


def _cmd_classify(args, out) -> int:
    if args.T is not None and args.property is None:
        raise ScenarioError("--T needs --property")
    schedule = Schedule.load(args.schedule)
    if args.T is None:
        # without a property every minimal T is reported and the exit is 0
        for prop in (args.property,) if args.property else PROPERTIES:
            best = minimal_T(schedule, prop)
            out(f"{prop}: minimal T = {best if best is not None else 'none'}")
        return 0 if args.property is None or best is not None else 1
    report = check_property(schedule, args.property, args.T)
    out(report.describe())
    return 0 if report.holds else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves
    it unchanged, and building it at import would cost every import."""
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="simulate and verify agent dispersion and exploration"
        " on adversarial dynamic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file and verify its trace")
    p.add_argument("scenario")
    p.add_argument("--trace-out", help="also write the trace to this path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="re-check a recorded trace")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo", help="run an executable claim")
    p.add_argument("id", metavar="ID", help="a claim id, or all")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("sweep", help="run a scenario template across seeds")
    p.add_argument("template")
    p.add_argument("--seeds", default="0..19",
                   help="range a..b or comma list (default 0..19)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("classify", help="check connectivity properties"
                       " of a schedule file")
    p.add_argument("schedule")
    p.add_argument("--property", choices=PROPERTIES)
    p.add_argument("--T", type=_window)
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None, out=print) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, out)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except (ScenarioError, GraphError, EngineError, AdversaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # a reader that stops early (``| head``) is no fault of the input:
        # no traceback and no error line.  Python flushes stdout again at
        # exit, so it is pointed at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
