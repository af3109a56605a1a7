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
from json.decoder import JSONDecoder, scanstring
from json.scanner import make_scanner
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


# the trace's JSON encoder: compact, keys sorted
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace line. `details` are rounded when the record is made, by
    `Kernel.emit` or by parsing a trace that was written rounded, so
    `to_json` dumps them as they are.

    Details are never mutated once a record is made: records may share
    values, such as the per-node maps of consecutive `metrics_window`
    records (see `Kernel.emit`). `shared` names the detail keys whose values
    came in through `Kernel.emit(..., rounded=...)`; `Trace.to_jsonl`
    encodes each such value once per call and reuses its text in every
    line that holds it, so a shared value mutated after emission would be
    written stale. A parsed record marks nothing as shared, but it may hold
    the very container objects of a record parsed before it (see
    `Trace.from_jsonl`), so nothing may mutate parsed details either."""

    time_ms: int
    seq: int
    kind: str
    subject: str
    details: dict
    shared: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def to_json(self) -> str:
        return _encode({
            "time_ms": self.time_ms,
            "seq": self.seq,
            "kind": self.kind,
            "subject": self.subject,
            "details": self.details,
        })

    def _write_shared(self, pieces: list[str], memo: dict) -> None:
        """Append the pieces of this record's line to `pieces`: the same
        text as `to_json`, with each shared value's text taken from `memo`."""
        details, shared = self.details, self.shared
        opening = '{"details":{'
        for key in sorted(details):
            value = details[key]
            pieces.append(opening + _encode(key) + ":")
            pieces.append(_shared_text(value, memo) if key in shared
                          else _encode(value))
            opening = ","
        # {"kind":...,"time_ms":...} with its opening brace dropped
        pieces.append("}," + _encode({
            "kind": self.kind, "seq": self.seq, "subject": self.subject,
            "time_ms": self.time_ms})[1:])


def _shared_text(value, memo: dict) -> str:
    """The JSON text of a shared value, encoded at most once per `memo`.

    `memo` maps id(value) to (value, text); holding the value keeps its id
    from being reused while the memo lives. A dict whose entries include
    dicts is spliced from its entries' texts, and each dict entry is
    memoised the same way, so maps that share entries encode each once.
    Dict keys must be str, as in every value that equals its JSON round
    trip.
    """
    entry = memo.get(id(value))
    if entry is None:
        if type(value) is dict and any(type(v) is dict for v in value.values()):
            parts = []
            for k in sorted(value):
                v = value[k]
                parts.append(_encode(k) + ":" + (
                    _shared_text(v, memo) if type(v) is dict else _encode(v)))
            text = "{" + ",".join(parts) + "}"
        else:
            text = _encode(value)
        entry = memo[id(value)] = (value, text)
    return entry[1]


# json.loads' own scanner and string reader, called at an index of a line
_scan = make_scanner(JSONDecoder())
# how the trace writer opens every line
_OPENING = '{"details":{'


def _record(obj: dict, details) -> TraceRecord:
    return TraceRecord(obj["time_ms"], obj["seq"], obj["kind"], obj["subject"],
                       details)


def _parse_line(line: str, seen: dict) -> TraceRecord:
    """The record of one trace line, equal to the record of `json.loads(line)`.

    A line in the writer's compact form whose details may hold a container
    (a `{` after the opening, or a `[` anywhere) is read one detail value at
    a time by `_walk_details`. Any other line is scanned once, in full.
    Whatever these fast paths do not fully recognise (whitespace, a second
    `details`, a scan error, a value ending before the line does) is parsed
    again by `json.loads`, which raises the error the line deserves."""
    try:
        if line.startswith(_OPENING) and (line.find("{", len(_OPENING)) >= 0
                                          or "[" in line):
            record = _walk_details(line, seen)
        else:
            obj, end = _scan(line, 0)
            record = _record(obj, obj["details"]) if end == len(line) else None
    except (StopIteration, IndexError, ValueError, KeyError, TypeError):
        record = None
    if record is None:
        obj = json.loads(line)
        record = _record(obj, obj["details"])
    return record


def _walk_details(line: str, seen: dict) -> TraceRecord | None:
    """The record of a line that opens with `_OPENING`, or None where the
    line strays from the writer's compact form.

    Where the text at a detail value's start begins with the text `seen`
    holds for its key, and `,` or `}` follows that text, the value is the
    one parsed from it before: equal text parses to an equal value, and the
    `,` or `}` shows that the value ends there (the text of 12 begins with
    that of 1). Other values are scanned, and `seen` keeps their text. The
    fields after the details are parsed by one `json.loads`."""
    details = {}
    pos = len(_OPENING)
    if line[pos] != "}":
        while True:
            if line[pos] != '"':
                return None
            key, pos = scanstring(line, pos + 1)
            if line[pos] != ":":
                return None
            pos += 1
            known = seen.get(key)
            if (known is not None and line.startswith(known[0], pos)
                    and line[pos + len(known[0])] in ",}"):
                value = known[1]
                pos += len(known[0])
            else:
                value, end = _scan(line, pos)
                seen[key] = (line[pos:end], value)
                pos = end
            details[key] = value
            if line[pos] == "}":
                break
            if line[pos] != ",":
                return None
            pos += 1
    if line[pos + 1] != ",":
        return None
    rest = json.loads("{" + line[pos + 2:])
    if "details" in rest:
        return None
    return _record(rest, details)


class Trace:
    """Ordered record of a run; serializes to one JSON object per line.

    A trace only grows, through `append`. `to_jsonl` serialises each record
    once: it keeps the text made so far and adds the lines of the records
    appended since, so `hash` digests that same text. Within one call, each
    shared detail value (see `TraceRecord`) is encoded once."""

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
            pieces: list[str] = []
            memo: dict = {}  # shared values' texts, for this call only
            for record in self.records[self._serialised:]:
                if record.shared:
                    record._write_shared(pieces, memo)
                else:
                    pieces.append(record.to_json())
                pieces.append("\n")
            self._text += "".join(pieces)
            self._serialised = len(self.records)
        return self._text

    def hash(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace of `text`, one record per line; lines end at "\n" and
        blank ones are skipped. Each record equals `json.loads` of its line,
        and a bad line raises `MalformedTrace` naming it.

        A detail value whose text repeats the text last parsed for its key
        is not parsed again: the record holds that earlier value itself (see
        `_parse_line`)."""
        records = []
        seen: dict = {}  # detail key -> (text, value) of its last parse
        for i, line in enumerate(text.split("\n")):
            if not line.strip():
                continue
            try:
                records.append(_parse_line(line, seen))
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
        equal its own rounding, with every float at 9 places, lists in place
        of tuples and str dict keys. Records may then share such values, and
        no one mutates them: the record marks their keys as shared, and
        serialisation reuses one text per shared object, so a value mutated
        after emission would be written stale.
        """
        self._trace_seq += 1
        fields = _round_floats(details or {})
        shared = ()  # the empty tuple is a singleton; most records share nothing
        if rounded:
            fields.update(rounded)
            shared = tuple(rounded)
        record = TraceRecord(self.now, self._trace_seq, kind, subject, fields,
                             shared)
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
