"""Outside-in tracing of fogsim's layers.

The tracer wraps public functions of the package from the outside: methods
on their classes, functions in their modules, and the per-runtime event
handler map. Each call becomes a span with a name, start, end and parent.
Spans stay in memory; every call is aggregated per (name, parent name), and
the first SPAN_CAP calls of each name are also kept one by one, which bounds
memory on hot functions such as `Topology.shortest_path`.

Self time is a span's duration minus the time its children cover. A child
covers the whole of its wrapper, bookkeeping included, while its own span
covers only the wrapped call, so the tracer's cost lands in neither self time;
it shows up only in the traced run's wall time (`trace_overhead`).
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter
from contextlib import contextmanager

from fogsim import (dataflow, discovery, kernel, migration, report, scenario,
                    scheduler, topology)

SPAN_CAP = 2000

# (owner, attribute); the span name is "<module>.<attribute>"
TARGETS = [
    (topology.Topology, "shortest_path"),
    (topology.Topology, "utilization_snapshot"),
    (dataflow.FlowManager, "advance_all"),
    (dataflow.FlowManager, "close_window"),
    (dataflow.FlowManager, "active_flow_for"),
    (scheduler.Scheduler, "check_thresholds"),
    (scheduler.Scheduler, "select_host"),
    (scheduler.Scheduler, "bound_instance"),
    (migration.MigrationEngine, "start"),
    (migration.MigrationEngine, "complete"),
    (discovery.DiscoveryService, "handle_attach"),
    (kernel.Kernel, "run"),
    (kernel.Kernel, "schedule"),
    (kernel.Kernel, "emit"),
    (kernel.Trace, "to_jsonl"),
    (kernel.Trace, "hash"),
    (kernel.Trace, "from_jsonl"),
    (report, "report_from_trace"),
    (scenario, "load_scenario"),
]

# Event kinds the workloads schedule; Detach and FlowAdvance handlers are
# wrapped too, but no workload schedules them.
HANDLER_KINDS = ["Attach", "Roam", "WorkloadChange", "SchedulerTick",
                 "FaultStart", "FaultEnd", "MigrationComplete", "Custom"]

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("topology.shortest_path.calls", "count", "lower"),
    ("topology.shortest_path.self_s", "s", "lower"),
    ("topology.shortest_path.unreachable", "count", "lower"),
    ("topology.shortest_path.distinct_ratio", "ratio", "lower"),
    ("topology.utilization_snapshot.self_s", "s", "lower"),
    ("dataflow.advance_all.calls", "count", "lower"),
    ("dataflow.advance_all.self_s", "s", "lower"),
    ("dataflow.advance_all.active_ratio", "ratio", "higher"),
    ("dataflow.close_window.self_s", "s", "lower"),
    ("dataflow.active_flow_for.calls", "count", "lower"),
    ("dataflow.active_flow_for.self_s", "s", "lower"),
    ("scheduler.check_thresholds.calls", "count", "lower"),
    ("scheduler.check_thresholds.self_s", "s", "lower"),
    ("scheduler.select_host.calls", "count", "lower"),
    ("scheduler.select_host.self_s", "s", "lower"),
    ("scheduler.bound_instance.calls", "count", "lower"),
    ("scheduler.bound_instance.self_s", "s", "lower"),
    ("scheduler.offload_yield", "ratio", "higher"),
    ("migration.start.calls", "count", "lower"),
    ("migration.start.self_s", "s", "lower"),
    ("migration.start.rejected", "count", "lower"),
    ("migration.complete.calls", "count", "lower"),
    ("discovery.handle_attach.calls", "count", "lower"),
    ("discovery.handle_attach.self_s", "s", "lower"),
    *[(f"runtime.handler.{kind}.{stat}", unit, "lower")
      for kind in HANDLER_KINDS for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("kernel.run.self_s", "s", "lower"),
    ("kernel.schedule.calls", "count", "lower"),
    ("kernel.emit.calls", "count", "lower"),
    ("kernel.emit.self_s", "s", "lower"),
    ("kernel.to_jsonl.calls", "count", "lower"),
    ("kernel.to_jsonl.s", "s", "lower"),
    ("kernel.hash.s", "s", "lower"),
    ("kernel.from_jsonl.s", "s", "lower"),
    ("kernel.trace_bytes", "bytes", "lower"),
    ("report.report_from_trace.s", "s", "lower"),
    ("scenario.load_scenario.s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def _span_name(owner, attr: str) -> str:
    module = owner.__name__ if isinstance(owner, types.ModuleType) else owner.__module__
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open frames: [name, start, child_s, id, parent]
        self._next_id = 0
        self._kept: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.aggregates: dict[tuple, list] = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.raised: Counter = Counter()  # (name, exception class) -> count
        self.route_pairs: set[tuple[str, str]] = set()
        self.flows_seen = 0
        self.flows_active = 0
        self.offload_actions = 0

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id, stack[-1] if stack else None]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list, entered: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, span_id, parent = frame
        duration = end - start
        key = (name, parent[0] if parent else None)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if self._kept[name] < SPAN_CAP:
            self._kept[name] += 1
            self.spans.append((span_id, parent[3] if parent else None, name,
                               start, end))
        if parent is not None:
            parent[2] += time.perf_counter() - entered

    @contextmanager
    def span(self, name: str):
        entered = time.perf_counter()
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, entered)

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recorded as span `name`; `before(*args)` runs outside the span,
        `after(result)` inside it."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            if before is not None:
                before(*args)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                self._close(frame, entered)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_handlers(self, rt) -> None:
        """An `on_runtime` hook: wrap every entry of the kernel's handler map."""
        handlers = rt.kernel.handlers
        for kind, handler in list(handlers.items()):
            handlers[kind] = self.wrap(f"runtime.handler.{kind.value}", handler)

    @contextmanager
    def installed(self):
        """Wrap every TARGETS attribute for the duration of the block, then
        put the original attribute objects back."""
        hooks = {"topology.shortest_path": (self._note_route, None),
                 "dataflow.advance_all": (self._note_flows, None),
                 "scheduler.check_thresholds": (None, self._note_actions)}
        originals = []
        try:
            for owner, attr in TARGETS:
                original = vars(owner)[attr]
                name = _span_name(owner, attr)
                before, after = hooks.get(name, (None, None))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__,
                                                    before, after))
                else:
                    wrapped = self.wrap(name, original, before, after)
                originals.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- counters taken at layer boundaries ---------------------------------------

    def _note_route(self, topo, a, b):
        self.route_pairs.add((a, b))

    def _note_flows(self, manager, dt_ms):
        flows = manager.flows
        self.flows_seen += len(flows)
        self.flows_active += sum(1 for flow in flows.values() if flow.active)

    def _note_actions(self, actions):
        self.offload_actions += sum(1 for action in actions
                                    if isinstance(action, scheduler.Offload))

    # -- results -------------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of span `name`, summed over its parents."""
        calls, total_s, self_s = 0, 0.0, 0.0
        for (span, _), (c, t, s) in self.aggregates.items():
            if span == name:
                calls, total_s, self_s = calls + c, total_s + t, self_s + s
        return calls, total_s, self_s

    def layer_metrics(self, trace, text: str) -> dict[str, float]:
        """Every PER_LAYER metric of one traced pass except trace_overhead,
        which compares passes. `<span>.calls`, `<span>.self_s` and `<span>.s`
        (inclusive time) come from the span aggregates."""
        m = {}
        for metric, _, _ in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            if stat in ("calls", "s", "self_s"):
                calls, total_s, self_s = self.totals(span)
                m[metric] = {"calls": calls, "s": total_s, "self_s": self_s}[stat]
        m["topology.shortest_path.unreachable"] = \
            self.raised["topology.shortest_path", "Unreachable"]
        m["topology.shortest_path.distinct_ratio"] = _ratio(
            len(self.route_pairs), m["topology.shortest_path.calls"])
        m["dataflow.advance_all.active_ratio"] = _ratio(self.flows_active,
                                                        self.flows_seen)
        offloads = sum(1 for record in trace if record.kind == "offload")
        m["scheduler.offload_yield"] = _ratio(offloads, self.offload_actions)
        m["migration.start.rejected"] = sum(
            n for (name, _), n in self.raised.items() if name == "migration.start")
        m["kernel.trace_bytes"] = len(text.encode())
        return m

    def write(self, path) -> None:
        """Kept spans, then the per-(name, parent) aggregates, as JSON lines."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start_s": start - origin,
                                     "end_s": end - origin}) + "\n")
            for (name, parent), (calls, total_s, self_s) in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                fh.write(json.dumps({"aggregate": name, "parent": parent,
                                     "calls": calls, "total_s": total_s,
                                     "self_s": self_s}) + "\n")
