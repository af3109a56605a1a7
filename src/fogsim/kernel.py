"""Deterministic discrete-event engine: event queue, integer-ms clock, fault
injection, and line-delimited trace emission.

The clock is an integer millisecond counter to avoid floating-point drift.
Events execute in (time, sequence) order; the sequence number breaks ties
FIFO, and nothing is random, so two runs of the same scenario produce
byte-identical traces.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from . import errors


class EventKind(str, Enum):
    ATTACH = "Attach"
    DETACH = "Detach"
    ROAM = "Roam"
    WORKLOAD_CHANGE = "WorkloadChange"
    SCHEDULER_TICK = "SchedulerTick"
    FLOW_ADVANCE = "FlowAdvance"
    FAULT_START = "FaultStart"
    FAULT_END = "FaultEnd"
    MIGRATION_COMPLETE = "MigrationComplete"
    PLACE = "Place"
    SCALE = "Scale"


class FaultKind(str, Enum):
    LINK_DOWN = "LinkDown"
    NODE_DOWN = "NodeDown"
    CLOUD_PARTITION = "CloudPartition"


@dataclass(frozen=True)
class Fault:
    target: str  # link_id or node_id
    kind: FaultKind
    start: int
    duration: int

    def __post_init__(self):
        if self.duration <= 0:
            raise errors.ValidationError("fault duration must be > 0")


@dataclass(frozen=True)
class Event:
    time: int
    seq: int
    kind: EventKind
    payload: dict = field(default_factory=dict)


# leaf types that rounding passes through as they are
_PLAIN = frozenset({str, int, bool, type(None)})


def _round_floats(value):
    """A copy of `value` with every float rounded to 9 places and tuples
    made lists. Leaves of exactly `float` or a `_PLAIN` type are handled
    inline; the call recurses only into containers and into subclasses such
    as str enums."""
    if isinstance(value, dict):
        return {k: round(v, 9) if type(v) is float
                else v if type(v) in _PLAIN else _round_floats(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round(v, 9) if type(v) is float
                else v if type(v) in _PLAIN else _round_floats(v)
                for v in value]
    if isinstance(value, float):
        return round(value, 9)
    return value


@dataclass(frozen=True)
class TraceRecord:
    """One trace line. `details` are rounded when the record is made, by
    `Kernel.emit` or by parsing a trace that was written rounded, so
    `to_json` dumps them as they are.

    Details are never mutated once a record is made: records may share
    values, such as the per-node maps of consecutive `metrics_window`
    records (see `Kernel.emit`)."""

    time_ms: int
    seq: int
    kind: str
    subject: str
    details: dict

    def to_json(self) -> str:
        return json.dumps({
            "time_ms": self.time_ms,
            "seq": self.seq,
            "kind": self.kind,
            "subject": self.subject,
            "details": self.details,
        }, sort_keys=True, separators=(",", ":"))


class Trace:
    """Ordered record of a run; serializes to one JSON object per line.

    A trace only grows, through `append`. `to_jsonl` serialises each record
    once: it keeps the text made so far and adds the lines of the records
    appended since, so `hash` digests that same text."""

    def __init__(self, records: list[TraceRecord] | None = None):
        self.records: list[TraceRecord] = records or []
        self._text = ""
        self._serialised = 0  # records already in _text

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def to_jsonl(self) -> str:
        if self._serialised < len(self.records):
            self._text += "".join(r.to_json() + "\n"
                                  for r in self.records[self._serialised:])
            self._serialised = len(self.records)
        return self._text

    def hash(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        records = []
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                records.append(TraceRecord(obj["time_ms"], obj["seq"], obj["kind"],
                                           obj["subject"], obj["details"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise errors.MalformedTrace(f"line {i + 1}: {exc}") from None
        return cls(records)


class Kernel:
    def __init__(self):
        self.now: int = 0
        self.trace = Trace()
        self.handlers: dict[EventKind, Callable[[Event], None]] = {}
        self._queue: list[tuple[int, int, Event]] = []
        self._event_seq = 0
        self._trace_seq = 0

    def register(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        self.handlers[kind] = handler

    def schedule(self, time: int, kind: EventKind, payload: dict | None = None) -> Event:
        if time < self.now:
            raise errors.TimeInPast(f"{time} < {self.now}")
        self._event_seq += 1
        event = Event(int(time), self._event_seq, kind, payload or {})
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def inject_fault(self, fault: Fault) -> None:
        """Schedule the start and end of a fault window."""
        self.schedule(fault.start, EventKind.FAULT_START, {"fault": fault})
        self.schedule(fault.start + fault.duration, EventKind.FAULT_END,
                      {"fault": fault})

    def emit(self, kind: str, subject: str, details: dict | None = None,
             rounded: dict | None = None) -> TraceRecord:
        """Append a record of `details` and `rounded` to the trace.

        `details` are copied with every float rounded to 9 places, so the
        in-memory trace equals its JSON round trip. The values of `rounded`
        go into the record as they are, neither copied nor walked: each must
        equal its own rounding, with every float at 9 places and lists in
        place of tuples. Records may then share such values, and no one
        mutates them.
        """
        self._trace_seq += 1
        fields = _round_floats(details or {})
        if rounded:
            fields.update(rounded)
        record = TraceRecord(self.now, self._trace_seq, kind, subject, fields)
        self.trace.append(record)
        return record

    def run(self, until: int | None = None) -> Trace:
        """Execute queued events in (time, sequence) order until the queue is
        empty or the clock would pass `until`."""
        while self._queue:
            time, _, event = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self.now = time
            handler = self.handlers.get(event.kind)
            if handler is not None:
                handler(event)
        return self.trace
