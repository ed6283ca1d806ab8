"""Benchmark of dispersim: end-to-end and per-layer metrics on four workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ct_grid --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0 --seconds 30 --out bench-new.json
    python3 bench/run.py --compare bench/baseline.json bench-new.json

With ``--workload`` it runs one workload in this process; without, it runs
every workload one at a time, each in a fresh child process.  A workload
runs in a closed loop on one thread: passes over its fixed set of cases
repeat until ``--seconds`` have elapsed, and every figure is the median
over passes.  Each case and each set-up is timed between two runs of a
fixed pure-Python reference computation that uses no ``dispersim`` code,
and its time is scaled to a host on which that computation takes
``REF_UNIT_S``: this cancels the drift in speed of a shared host, which
slows the reference and the program alike.  The set-up is repeated
between passes, so that its median samples the whole run.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` spends half the time
untraced and half with spans installed from ``bench/tracer.py`` and
prints the per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every check passed,
1 when one failed and 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
# set-up runs before every pass, and at least this often
SETUP_REPEATS = 5
# Timings are reported in seconds of a host on which one ``reference()``
# takes this long (about what a 2-vCPU Xeon VM takes with Python 3.11).
REF_UNIT_S = 0.01

sys.path.insert(0, str(BENCH))
from tracer import MODULES, Tracer  # noqa: E402
from workloads import SEEDED, SIZES, WORKLOADS, Clock, Work  # noqa: E402

# name -> unit; the first four are the ones BENCHMARK.json bounds (they
# apply to every workload, are never 0 and vary least between runs); the
# rest are printed and recorded where they apply.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "check_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "fail_ratio": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
}
BOUNDED = ("setup_s", "wall_s", "rounds_per_s", "peak_rss_mb")


def load_dispersim() -> SimpleNamespace:
    """Import dispersim from this checkout afresh; returns its modules."""
    for name in [n for n in sys.modules if n.split(".")[0] == "dispersim"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    m = SimpleNamespace(
        **{mod: importlib.import_module(f"dispersim.{mod}") for mod in MODULES}
    )
    if Path(m.engine.__file__).resolve().parent != SRC / "dispersim":
        raise ImportError(f"dispersim imported from {m.engine.__file__}")
    return m


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _reference_graph(n=300, edges=900):
    rng = random.Random("bench:reference")
    adj = {v: set() for v in range(n)}
    for _ in range(edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


REFERENCE_GRAPH = _reference_graph()


def reference() -> float:
    """Seconds for fixed work like dispersim's own: breadth-first searches
    over sorted neighbour sets, and rendering and splitting text."""
    adj = REFERENCE_GRAPH
    t0 = time.perf_counter()
    for source in range(0, len(adj), 20):
        dist, frontier = {source: 0}, [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in sorted(adj[u]):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        reached.append(w)
            frontier = reached
        " ".join(f"{u}:{d}" for u, d in dist.items()).split()
    return time.perf_counter() - t0


def timed_setup(setup, seed, size, workdir):
    """A fresh import of dispersim and the workload's cases; returns them
    with the set-up's seconds and the mean reference time around it."""
    gc.collect()
    before = reference()
    t0 = time.perf_counter()
    m = load_dispersim()
    cases = setup(m, seed, size, workdir)
    seconds = time.perf_counter() - t0
    return m, cases, (seconds, (before + reference()) / 2)


def one_pass(run_pass, m, cases, tracer=None) -> dict:
    """Every case once, in order, each timed on its own between two timings
    of the reference computation."""
    work = Work()
    wall, refs = 0.0, reference()
    phases = {"run": 0.0, "verify": 0.0, "check": 0.0}
    for case in cases:
        gc.collect()
        clock = Clock()
        t0 = time.perf_counter()
        run_pass(m, [case], clock, work)
        wall += time.perf_counter() - t0
        for phase, seconds in clock.phases.items():
            phases[phase] += seconds
        refs += reference()
    return {
        "wall": wall,
        "scale": REF_UNIT_S * (len(cases) + 1) / refs,
        "phases": phases,
        "work": work,
        "trace": tracer.aggregate() if tracer else None,
    }


def passes_until(deadline, run_pass, m, cases, tracer=None,
                 between=None) -> list[dict]:
    """At least one pass; another starts while the deadline is ahead.
    ``between`` runs after every pass but the last."""
    out = [one_pass(run_pass, m, cases, tracer)]
    while time.perf_counter() < deadline:
        if between:
            between()
        out.append(one_pass(run_pass, m, cases, tracer))
    return out


def failed_runs(passes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a run fails a check, or its digest or
    the pass's counters differ from the reference."""
    attempted = failed = 0
    messages = []
    for i, p in enumerate(passes):
        work = p["work"]
        bad = dict(work.failures)
        if work.counters != reference["counters"]:
            bad.update({label: "counters differ" for label in work.labels})
        for label, got, want in zip(work.labels, work.digests,
                                    reference["digests"]):
            if got != want:
                bad.setdefault(label, "digest differs")
        if len(work.digests) != len(reference["digests"]):
            bad.update({label: "run count differs" for label in work.labels})
        attempted += len(work.labels)
        failed += len(bad)
        messages += [f"pass {i}: {label}: {why}" for label, why in bad.items()]
    return attempted, failed, messages


def scaled(passes, phase=None) -> float:
    """Median over passes of the pass's time, or of its time in ``phase``,
    scaled to ``REF_UNIT_S``."""
    return median(p["scale"] * (p["phases"][phase] if phase else p["wall"])
                  for p in passes)


def end_to_end(setups, passes, attempted, failed) -> dict:
    wall = scaled(passes)
    rounds = passes[0]["work"].counters["rounds"]
    values = {
        "setup_s": median(REF_UNIT_S * s / ref for s, ref in setups),
        "wall_s": wall,
        "check_s": scaled(passes, "check"),
        "rounds_per_s": rounds / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": failed / attempted,
        "raw_setup_s": median(s for s, _ in setups),
        "raw_wall_s": median(p["wall"] for p in passes),
    }
    for phase in ("run", "verify"):  # omitted where never entered
        if any(p["phases"][phase] for p in passes):
            values[f"{phase}_s"] = scaled(passes, phase)
    return values


# per-layer metric -> (unit, how it is derived from one pass's spans)
def _span(name, field):
    return lambda a, rounds: a["spans"].get(name, {}).get(field, 0)


def _under(parent, *children):
    return lambda a, rounds: sum(a["under"][(parent, c)] for c in children)


def _per_round(name):
    return lambda a, rounds: (
        a["spans"].get(name, {}).get("calls", 0) / rounds if rounds else 0.0
    )


def _useful(a, rounds):
    calls = a["spans"].get("engine.stitch_component", {}).get("calls", 0)
    return a["counts"]["stitch.distinct_bundles"] / calls if calls else 0.0


PER_LAYER = {
    "engine.stitch_component.calls": ("count", _span("engine.stitch_component", "calls")),
    "engine.stitch_component.self_s": ("s", _span("engine.stitch_component", "self_s")),
    "algorithms.disp_plan.calls": ("count", _span("algorithms.disp_plan", "calls")),
    "algorithms.disp_plan.self_s": ("s", _span("algorithms.disp_plan", "self_s")),
    "engine.stitch.useful_ratio": ("ratio", _useful),
    "engine.deliver.calls": ("count", _span("engine.deliver", "calls")),
    "engine.deliver.self_s": ("s", _span("engine.deliver", "self_s")),
    "engine.deliver.messages": ("count", lambda a, r: a["counts"]["deliver.messages"]),
    "engine.node_views.calls": ("count", _span("engine.node_views", "calls")),
    "engine.node_views.self_s": ("s", _span("engine.node_views", "self_s")),
    "engine.node_views.per_round": ("count", _per_round("engine.node_views")),
    "engine.compute_preview.calls": ("count", _span("engine.compute_preview", "calls")),
    "engine.compute_preview.self_s": ("s", _span("engine.compute_preview", "self_s")),
    "engine.apply_actions.self_s": ("s", _span("engine.apply_actions", "self_s")),
    "engine.to_text.self_s": ("s", _span("engine.to_text", "self_s")),
    "engine.to_text.bytes": ("B", lambda a, r: a["counts"]["to_text.bytes"]),
    "engine.run.self_s": ("s", _span("engine.run", "self_s")),
    "algorithms.step.calls": ("count", _span("algorithms.step", "calls")),
    "algorithms.step.self_s": ("s", _span("algorithms.step", "self_s")),
    "adversary.emit.self_s": ("s", _span("adversary.emit", "self_s")),
    "graphs.snapshot.calls": ("count", _span("graphs.snapshot", "calls")),
    "graphs.snapshot.self_s": ("s", _span("graphs.snapshot", "self_s")),
    "graphs.from_pairs.calls": ("count", _span("graphs.from_pairs", "calls")),
    "graphs.from_pairs.self_s": ("s", _span("graphs.from_pairs", "self_s")),
    "graphs.components.calls": ("count", _span("graphs.components", "calls")),
    "graphs.components.self_s": ("s", _span("graphs.components", "self_s")),
    "graphs.components.per_round": ("count", _per_round("graphs.components")),
    "graphs.window_graph.calls": ("count", _span("graphs.window_graph", "calls")),
    "graphs.window_graph.self_s": ("s", _span("graphs.window_graph", "self_s")),
    "graphs.check_property.self_s": ("s", _span("graphs.check_property", "self_s")),
    "graphs.dynamic_diameter.self_s": ("s", _span("graphs.dynamic_diameter", "self_s")),
    "graphs.minimal_T.self_s": ("s", _span("graphs.minimal_T", "self_s")),
    "graphs.minimal_T.check_calls": (
        "count", _under("graphs.minimal_T", "graphs.check_property")),
    "graphs.schedule_parse.self_s": ("s", _span("graphs.schedule_parse", "self_s")),
    "harness.parse_trace.self_s": ("s", _span("harness.parse_trace", "self_s")),
    "harness.parse_trace.lines": ("count", lambda a, r: a["counts"]["parse_trace.lines"]),
    "harness.verify_trace.self_s": ("s", _span("harness.verify_trace", "self_s")),
    "harness.verify.stitch_calls": ("count", _under(
        "harness.verify_trace", "engine.stitch_component", "algorithms.disp_plan")),
}


LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
LAYER_UNITS.update({
    "adversary.gen_random.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "untraced.run_s": "s",
    "untraced.verify_s": "s",
    "untraced.check_s": "s",
    "untraced.wall_s": "s",
    "work.runs": "count",
    "work.rounds": "count",
    "work.agent_steps": "count",
    "work.messages": "count",
    "work.trace_bytes": "B",
})


def per_layer(untraced, traced, setup_trace) -> dict:
    """Medians over traced passes, plus tracing overhead and coverage."""
    counters = traced[0]["work"].counters
    rounds = counters["rounds"]
    values = {
        name: median(how(p["trace"], rounds) for p in traced)
        for name, (_, how) in PER_LAYER.items()
    }
    values["adversary.gen_random.self_s"] = _span(
        "adversary.gen_random", "self_s")(setup_trace, rounds)
    wall_untraced = scaled(untraced)
    values["trace.overhead_s"] = scaled(traced) - wall_untraced
    values["trace.coverage"] = median(
        p["trace"]["top_s"] / p["wall"] for p in traced)
    for phase in ("run", "verify", "check"):
        values[f"untraced.{phase}_s"] = scaled(untraced, phase)
    values["untraced.wall_s"] = wall_untraced
    for key, value in counters.items():
        values[f"work.{key}"] = value
    return values


def recorded(workload, seed, size):
    """The committed digests and counters for this input, if any."""
    if size != "full" or not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    return table.get("any" if workload == "ct_grid" else str(seed))


def record_digests(workload, seed, reference) -> None:
    table = (json.loads(DIGESTS.read_text(encoding="utf-8"))
             if DIGESTS.exists() else {})
    key = "any" if workload == "ct_grid" else str(seed)
    table.setdefault(workload, {})[key] = reference
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def run_workload(args) -> int:
    setup, run_pass = WORKLOADS[args.workload]
    host = host_record()
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH)
    try:
        # passes use the first import; the later set-ups are only timed
        m, cases, first_setup = timed_setup(setup, args.seed, args.size,
                                            workdir)
        setups = [first_setup]

        def again():
            setups.append(timed_setup(setup, args.seed, args.size, workdir)[2])

        start = time.perf_counter()
        share = 0.5 if args.trace else 1.0
        untraced = passes_until(start + share * args.seconds, run_pass, m,
                                cases, between=again)
        while len(setups) < SETUP_REPEATS:
            again()
        traced, setup_trace = [], None
        if args.trace:
            tracer = Tracer()
            tracer.install(m)
            cases = setup(m, args.seed, args.size, workdir)
            setup_trace = tracer.aggregate()
            traced = passes_until(start + args.seconds, run_pass, m, cases,
                                  tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = untraced[0]["work"]
    reference = {"counters": first.counters, "digests": first.digests}
    committed = recorded(args.workload, args.seed, args.size)
    attempted, failed, messages = failed_runs(
        untraced + traced, committed or reference)
    correct = failed == 0

    values = end_to_end(setups, untraced, attempted, failed)
    units = dict(END_TO_END)
    shown = {k: values[k] for k in END_TO_END if k in values}
    if args.trace:
        layer = per_layer(untraced, traced, setup_trace)
        shown.update(layer)
        units.update(LAYER_UNITS)
        metrics = {k: {"value": layer[k], "unit": LAYER_UNITS[k]}
                   for k in layer}
    else:
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]}
                   for k in BOUNDED}

    print(f"workload {args.workload}  seed {args.seed}"
          f"  ({SEEDED[args.workload]})  size {args.size}")
    print(f"host python {host['python']}  nproc {host['nproc']}"
          f"  cpu {host['cpu']}  loadavg {host['loadavg']}")
    print(f"set-ups {len(setups)}  seconds "
          + " ".join(f"{s:.3f}" for s, _ in setups))
    print(f"passes untraced {len(untraced)}  traced {len(traced)}  seconds "
          + " ".join(f"{p['wall']:.3f}" for p in untraced + traced))
    print(f"cases {len(cases)}  scale per pass "
          + " ".join(f"{p['scale']:.3f}" for p in untraced + traced))
    for name, value in shown.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print("  counters " + " ".join(f"{k}={v}" for k, v in first.counters.items()))
    print(f"  outputs {len(first.digests)}  correct {correct}")
    for message in messages[:20]:
        print(f"  FAIL {message}", file=sys.stderr)

    if args.record and correct:
        record_digests(args.workload, args.seed, reference)
    if args.out:
        path = Path(args.out)
        doc = (json.loads(path.read_text(encoding="utf-8"))
               if path.exists() else {"workloads": {}})
        doc["host"] = host
        entry = doc["workloads"].setdefault(args.workload, {})
        entry.update({
            "seed": args.seed, "seconds": args.seconds, "size": args.size,
            "seeded": SEEDED[args.workload], "correct": correct,
            "counters": first.counters, "digests": first.digests,
        })
        section = "per_layer" if args.trace else "end_to_end"
        entry[section] = {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}
        if not args.trace:
            entry["end_to_end"].update(
                {k: {"value": values[k], "unit": END_TO_END[k]}
                 for k in values if k not in BOUNDED})
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = None
            status = max(status, 2)
    print(json.dumps(summary))
    return status


def compare(old_path, new_path) -> int:
    """Per workload and metric: both values and the ratio new/old."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["workloads"]
    print(f"{'workload':12s} {'metric':36s} {'old':>14s} {'new':>14s}"
          f" {'new/old':>8s}  unit")
    for workload in [w for w in WORKLOADS if w in old and w in new]:
        for section in ("end_to_end", "per_layer"):
            a = old[workload].get(section, {})
            b = new[workload].get(section, {})
            for name in [k for k in a if k in b]:
                x, y = a[name]["value"], b[name]["value"]
                ratio = f"{y / x:8.3f}" if x else "       -"
                print(f"{workload:12s} {name:36s} {x:14.6f} {y:14.6f}"
                      f" {ratio}  {a[name]['unit']}")
        same = old[workload].get("digests") == new[workload].get("digests")
        print(f"{workload:12s} {'digests identical':36s} {same}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--out", help="merge this run's record into FILE")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in bench/digests.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "dispersim" / "__init__.py").is_file():
        print(f"error: no dispersim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
