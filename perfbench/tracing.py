"""Spans recorded from outside the simulator.

The layer modules look their collaborators up as module globals at call
time (`engine.run` calls `engine.step`, `engine.step` calls
`engine.maintain`, and so on), so replacing those globals with timing
wrappers records a span at each layer boundary without touching `src/`.
A span is (name, start, end, parent index, cell index). Spans stay in
memory and are folded into per-layer totals once the pass ends, timed by
a `seconds(start, end)` function (the worker's calibrated clock). A layer's
self time is its span time minus the time of its child spans.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# (module under wsnlife, global the module calls, span name). Construction
# is entered from engine (first topology) and maintenance (rebuilds, rotation
# sets); sink_reachable is also called inside the two coverage metrics.
TRACED = [
    ("engine", "deploy", "deployment.deploy"),
    ("engine", "construct", "construction.construct"),
    ("maintenance", "construct", "construction.construct"),
    ("engine", "step", "engine.step"),
    ("engine", "should_trigger", "maintenance.should_trigger"),
    ("engine", "maintain", "maintenance.maintain"),
    ("engine", "sample_metrics", "metrics.sample"),
    ("engine", "alive_count", "metrics.alive_count"),
    ("engine", "sink_reachable", "metrics.sink_reachable"),
    ("metrics", "sink_reachable", "metrics.sink_reachable"),
    ("engine", "comm_coverage", "metrics.comm_coverage"),
    ("engine", "sensing_coverage", "metrics.sensing_coverage"),
    ("experiment", "emit_series", "experiment.write"),
    ("experiment", "summarize", "experiment.write"),
    ("experiment", "write_summary", "experiment.write"),
    ("experiment", "write_ranking", "experiment.write"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.current = -1
        self.cell = -1
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, after=None, before=None):
        """Return fn recording a span per call; before(), if given, runs
        before the span opens and after(result, args) once it has closed."""
        spans = self.spans

        def traced(*args, **kwargs):
            if before is not None:
                before()
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent, self.cell)
                self.current = parent
            if after is not None:
                after(result, args)
            return result

        return traced

    def install(self, module, attr, name, after=None, before=None):
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, after, before))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def start_cell(self):
        self.cell += 1

    def install_layers(self, wsnlife_modules: dict):
        """Wrap every boundary in TRACED, with the counters measured there."""
        hooks = {
            "construction.construct": self._count_construct,
            "maintenance.maintain": self._count_maintain,
            "experiment.write": self._count_bytes,
        }
        for module_name, attr, name in TRACED:
            self.install(wsnlife_modules[module_name], attr, name, hooks.get(name))

    def _count_construct(self, result, _args):
        topology, charge = result
        self.counts["construction.control_packets"] += sum(charge.sent.values())
        self.counts["construction.active_nodes"] += len(topology.active_set)

    def _count_maintain(self, result, _args):
        _, action = result
        self.counts["maintenance." + action.lower()] += 1

    def _count_bytes(self, result, _args):
        # summarize returns a row, the writers return the path written
        if hasattr(result, "stat"):
            self.counts["experiment.bytes_written"] += result.stat().st_size

    def totals(self, seconds) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        durations = [seconds(start, end) for _, start, end, _, _ in self.spans]
        child_time = defaultdict(float)
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                child_time[span[3]] += duration
        out: dict[str, dict[str, float]] = {}
        for index, (span, duration) in enumerate(zip(self.spans, durations)):
            entry = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def per_cell(self, name: str, cells: int, seconds) -> list[float]:
        """Total seconds of the named spans within each cell."""
        out = [0.0] * cells
        for span_name, start, end, _, cell in self.spans:
            if span_name == name and cell >= 0:
                out[cell] += seconds(start, end)
        return out
