"""Span tracing of ``dispersim`` installed from outside the package.

``install`` wraps the public functions of every module.  Modules copy names
with ``from .engine import deliver``, so a wrapper replaces every binding of
the original function in every ``dispersim`` module, not just the one in the
defining module.  Methods (``Snapshot.__init__``, ``Adversary.next_snapshot``
and the like) are wrapped on their class, and each algorithm's ``step`` is
wrapped as ``make_algorithm`` hands it out.

A span is (name, start, end, parent) in parallel arrays; ``aggregate``
turns one pass worth of spans into calls, self time (a span minus the part
its children cover) and a few parent/child counts, then clears them.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# (span name, owner attribute path); the owner is a module or a class
# reached from the namespace of dispersim modules.
SPANS = (
    ("engine.run", "engine", "run"),
    ("engine.deliver", "engine", "deliver"),
    ("engine.node_views", "engine", "node_views"),
    ("engine.stitch_component", "engine", "stitch_component"),
    ("engine.apply_actions", "engine", "apply_actions"),
    ("engine.compute_preview", "engine", "compute_preview"),
    ("engine.to_text", "engine.RunResult", "to_text"),
    ("algorithms.disp_plan", "algorithms", "disp_plan"),
    ("adversary.emit", "adversary.Adversary", "next_snapshot"),
    ("adversary.gen_random", "adversary", "gen_random_with_property"),
    ("graphs.snapshot", "graphs.Snapshot", "__init__"),
    ("graphs.from_pairs", "graphs.Snapshot", "from_pairs"),
    ("graphs.components", "graphs", "_components_from_pairs"),
    ("graphs.window_graph", "graphs", "window_graph"),
    ("graphs.check_property", "graphs", "check_property"),
    ("graphs.dynamic_diameter", "graphs.Schedule", "dynamic_diameter"),
    ("graphs.minimal_T", "graphs", "minimal_T"),
    ("graphs.schedule_parse", "graphs.Schedule", "from_text"),
    ("harness.parse_trace", "harness", "parse_trace"),
    ("harness.verify_trace", "harness", "verify_trace"),
    ("cli.main", "cli", "main"),
)
STEP = "algorithms.step"
MODULES = ("graphs", "engine", "algorithms", "adversary", "harness", "cli")


def _rebind(modules, orig, new) -> None:
    """Point every name bound to ``orig`` in ``modules`` at ``new``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # bundles stitched inside the current run or verify call, kept
        # alive so that id() stays unique until they are counted
        self.bundles: dict[int, object] = {}

    def wrap(self, span: str, fn, after=None):
        nid = self.ids.get(span)
        if nid is None:
            nid = self.ids[span] = len(self.names)
            self.names.append(span)
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    # counters taken at the span boundaries, outside the timed interval

    def _count_stitch(self, args, out) -> None:
        bundle = args[0]
        self.bundles.setdefault(id(bundle), bundle)

    def _close_bundles(self, args, out) -> None:
        self.counts["stitch.distinct_bundles"] += len(self.bundles)
        self.bundles.clear()

    def _count_deliver(self, args, out) -> None:
        self.counts["deliver.messages"] += sum(len(v) for v in out.values())

    def _count_parse(self, args, out) -> None:
        self.counts["parse_trace.lines"] += args[0].count("\n")

    def _count_text(self, args, out) -> None:
        self.counts["to_text.bytes"] += len(out)  # traces are ASCII

    def install(self, m) -> None:
        """Wrap every SPANS entry and each algorithm's step in the modules
        of namespace ``m``."""
        after = {
            "engine.stitch_component": self._count_stitch,
            "engine.run": self._close_bundles,
            "harness.verify_trace": self._close_bundles,
            "engine.deliver": self._count_deliver,
            "harness.parse_trace": self._count_parse,
            "engine.to_text": self._count_text,
        }
        modules = [getattr(m, mod) for mod in MODULES]
        for span, owner_path, attr in SPANS:
            mod_name, _, cls_name = owner_path.partition(".")
            module = getattr(m, mod_name)
            if cls_name:
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(
                        self.wrap(span, raw.__func__, after.get(span))))
                else:
                    setattr(owner, attr, self.wrap(span, raw, after.get(span)))
                continue
            orig = getattr(module, attr)
            _rebind(modules, orig, self.wrap(span, orig, after.get(span)))

        make = m.algorithms.make_algorithm
        Algorithm = m.engine.Algorithm

        def make_algorithm(name, **kwargs):
            alg = make(name, **kwargs)
            return Algorithm(alg.name, self.wrap(STEP, alg.step))

        _rebind(modules, make, make_algorithm)

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; plus counts of
        spans by parent name.  Clears the recorded spans."""
        names, name, parent = self.names, self.name, self.parent
        n = len(name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        top = 0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        spans: dict[str, dict] = {}
        under: Counter = Counter()
        for i in range(n):
            nm = names[name[i]]
            s = spans.setdefault(nm, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur[i] / 1e9
            s["self_s"] += (dur[i] - child[i]) / 1e9
            p = parent[i]
            if p >= 0:
                under[(names[name[p]], nm)] += 1
        result = {
            "spans": spans,
            "under": under,
            "counts": Counter(self.counts),
            "top_s": top / 1e9,
        }
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()
        return result
