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
from json.encoder import encode_basestring_ascii
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
    as str enums.

    `Kernel.emit` walks the details of a kind not in `RECORD_KINDS` with it,
    and of a declared kind only the `any` fields; a declared kind's numbers
    are rounded field by field, by the kind's compiled checker."""
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


# Record kinds of one fixed shape: kind -> its detail fields, in the order
# they are emitted, each with its type. A "number" is an int or a finite
# float, written as its repr; a "str" is a str, written by JSON's string
# encoder; "any" is any JSON value, written by `_encode`; "shared" is a JSON
# value that records may share, such as the per-node maps of consecutive
# `metrics_window` records: it goes into the record as it is, neither copied
# nor walked, so it must equal its own rounding, and it is written by
# `_shared_text`. `Kernel.emit` checks and rounds a declared kind's details
# by a checker compiled from its row, and `Trace.to_jsonl` writes its
# records through a line writer compiled from the row. Kinds whose key set
# varies (`instance_placed`, `scheduler_tick`, `warning`) are not declared;
# they keep `_round_floats` and the generic encoder.
RECORD_KINDS: dict[str, tuple[tuple[str, str], ...]] = {
    "scenario_loaded": (("nodes", "any"), ("thresholds", "any"),
                        ("scheduler_tick_ms", "number"), ("buffer_mb", "number"),
                        ("seed", "number"), ("duration_ms", "number")),
    "attach": (("gateway", "str"), ("model", "str"),
               ("firmware_version", "any")),  # None: no compatible firmware
    "install_request": (("app", "str"), ("gateway", "str")),
    "install_warning": (("gateway", "str"), ("reason", "str")),
    "detach": (("gateway", "str"),),
    "roam_warning": (("to_gateway", "str"), ("reason", "str"), ("instance", "str")),
    "flow_open": (("device", "str"), ("src", "str"), ("sink", "str"),
                  ("rate_kbps", "number"), ("paused", "any")),
    "flow_rebind": (("sink", "str"), ("serving", "str")),
    "flow_resume": (("src", "str"), ("sink", "str")),
    "flow_close": (("device", "str"),),
    "workload_change": (("data_rate_kbps", "number"),),
    "scale": (("replicas_from", "number"), ("replicas_to", "number"),
              ("host", "str")),
    "scale_warning": (("reason", "str"), ("requested", "number")),
    "defer": (("instance", "any"), ("reason", "str")),  # instance may be None
    "stale_action": (("target", "str"), ("reason", "str"), ("detail", "str")),
    "offload": (("from", "str"), ("to", "str")),
    "migration_started": (("from", "str"), ("to", "str"), ("bytes_mb", "number"),
                          ("downtime_ms", "number")),
    "migration_completed": (("from", "str"), ("to", "str"),
                            ("started_at", "number"), ("completed_at", "number"),
                            ("bytes_moved_mb", "number"), ("downtime_ms", "number"),
                            ("state_version", "number"), ("replicas", "number")),
    "roam_completed": (("from", "str"), ("to", "str"), ("instance", "str")),
    "status_update": (("gateway", "str"), ("instance", "str"),
                      ("state_version", "number")),
    "flow_window": (("flow", "str"), ("device", "str"), ("generated_mb", "number"),
                    ("delivered_mb", "number"), ("dropped_mb", "number"),
                    ("uplink_mb", "number"), ("buffered_mb", "number"),
                    ("cum_generated_mb", "number"), ("cum_delivered_mb", "number"),
                    ("cum_dropped_mb", "number")),
    "link_window": (("delivered_mb", "number"), ("capacity_mb", "number")),
    "metrics_window": (("window_start", "number"), ("window_end", "number"),
                       ("generated_mb", "number"), ("delivered_mb", "number"),
                       ("dropped_mb", "number"), ("uplink_mb", "number"),
                       ("uplink_ratio", "any"),  # None: nothing generated
                       ("instances", "shared"), ("utilization", "shared"),
                       ("alloc", "shared")),
    "fault_start": (("fault_kind", "str"), ("duration_ms", "number")),
    "fault_end": (("fault_kind", "str"),),
    "run_end": (("duration_ms", "number"), ("migrations", "number")),
}


def _compile(signature: str, body: list[str], **names):
    """The function `def {signature}:` with the lines of `body`, compiled
    with `names` in scope."""
    namespace = {"__name__": __name__, **names}
    exec(f"def {signature}:\n" + "".join(f"    {line}\n" for line in body),
         namespace)
    return namespace[signature.partition("(")[0]]


def _compile_writer(kind: str, fields: tuple[tuple[str, str], ...]):
    """The line writer of a declared kind: a function of a record and a
    `_shared_text` memo that returns `to_json`'s text of the record by one
    %-format, with each number as its repr, each str through
    `encode_basestring_ascii`, each shared value through `_shared_text` and
    each other value through `_encode`. The repr of an int, or of a finite
    float, is its JSON text."""
    def literal(text: str) -> str:
        return _encode(text).replace("%", "%%")

    slots, args = [], []
    for key, ftype in sorted(fields):
        value = f"d[{key!r}]"
        slots.append(literal(key) + (":%r" if ftype == "number" else ":%s"))
        args.append(value if ftype == "number" else
                    f"_text({value})" if ftype == "str" else
                    f"_shared({value}, memo)" if ftype == "shared" else
                    f"_encode({value})")
    line = ('{"details":{' + ",".join(slots) + '},"kind":' + literal(kind)
            + ',"seq":%r,"subject":%s,"time_ms":%r}')
    args += ["r.seq", "_text(r.subject)", "r.time_ms"]
    return _compile("write(r, memo)",
                    ["d = r.details", f"return {line!r} % ({', '.join(args)})"],
                    _text=encode_basestring_ascii, _encode=_encode,
                    _shared=_shared_text)


def _number_error(kind: str, key: str, value) -> errors.InvariantViolation:
    return errors.InvariantViolation(
        f"{kind}: {key} must be a finite number, not {value!r}")


def _str_error(kind: str, key: str, value) -> errors.InvariantViolation:
    return errors.InvariantViolation(f"{kind}: {key} must be a str, not {value!r}")


def _other_number(kind: str, key: str, value) -> float:
    """A number field's value that is neither a float nor an int: a finite
    float subclass, made a float by rounding; anything else raises."""
    if isinstance(value, float) and value - value == 0.0:
        return round(value, 9)
    raise _number_error(kind, key, value)


def _compile_builder(kind: str, fields: tuple[tuple[str, str], ...]):
    """The checker of a declared kind: a function of the subject, a rounding
    memo and the row's values in row order that returns the record's
    details, equal to `_round_floats` of them.

    It checks the number fields, then the str fields, then the subject, and
    raises InvariantViolation, naming the kind and the field, where a number
    field holds anything but an int or a finite float (a bool, None and str
    included), or the subject or a str field holds no str. A nonzero float
    of a number field is rounded to 9 places through `memo`, which maps a
    float to its rounding, so each distinct float is rounded once per memo
    and its records share the rounded object; ±0.0 is kept as it is, and a
    float subclass is made a float. An any field is rounded by
    `_round_floats`, and a shared field holds its value itself."""
    names = [f"v{i}" for i in range(len(fields))]
    numbers, texts, values = [], [], []
    for v, (key, ftype) in zip(names, fields):
        if ftype == "number":
            numbers += [
                f"if type({v}) is float:",
                f"    if {v}:",  # ±0.0 is its own rounding
                f"        r = memo.get({v})",
                "        if r is None:",  # inf and nan are never stored
                f"            if {v} - {v} != 0.0:",
                f"                raise _number_error(kind, {key!r}, {v})",
                f"            r = memo[{v}] = round({v}, 9)",
                f"        {v} = r",
                f"elif type({v}) is not int:",
                f"    {v} = _other_number(kind, {key!r}, {v})"]
        elif ftype == "str":
            texts += [f"if not isinstance({v}, str):",
                      f"    raise _str_error(kind, {key!r}, {v})"]
        elif ftype == "any":
            values += [f"if type({v}) not in _PLAIN:",
                       f"    {v} = _round_floats({v})"]
    subject = ["if not isinstance(subject, str):",
               "    raise _str_error(kind, 'subject', subject)"]
    result = ", ".join(f"{key!r}: {v}" for v, (key, _) in zip(names, fields))
    body = numbers + texts + subject + values + [f"return {{{result}}}"]
    return _compile(f"build(subject, memo, {', '.join(names)})", body, kind=kind,
                    _number_error=_number_error, _str_error=_str_error,
                    _other_number=_other_number, _PLAIN=_PLAIN,
                    _round_floats=_round_floats)


class _Layout:
    """A declared kind, compiled from its `RECORD_KINDS` row: the checker
    that makes its details from the row's values (see `_compile_builder`),
    the same checker fed from a dict, and the writer of its lines."""

    __slots__ = ("kind", "keys", "build", "from_dict", "write")

    def __init__(self, kind: str, fields: tuple[tuple[str, str], ...]):
        self.kind = kind
        self.keys = frozenset(key for key, _ in fields)
        self.build = _compile_builder(kind, fields)
        # every declared key is looked up, so with the count of keys equal,
        # no KeyError means the key sets are equal
        names = [f"v{i}" for i in range(len(fields))]
        body = [f"if len(d) != {len(fields)}:", "    raise keys_error(d)", "try:"]
        body += [f"    {v} = d[{key!r}]" for v, (key, _) in zip(names, fields)]
        body += ["except KeyError:", "    raise keys_error(d) from None",
                 f"return build(subject, memo, {', '.join(names)})"]
        self.from_dict = _compile("from_dict(subject, memo, d)", body,
                                  build=self.build, keys_error=self._keys_error)
        self.write = _compile_writer(kind, fields)

    def _keys_error(self, details: dict) -> errors.InvariantViolation:
        missing = sorted(self.keys - details.keys())
        extra = sorted(details.keys() - self.keys, key=repr)  # keys of any type
        return errors.InvariantViolation(
            f"{self.kind}: missing {missing}, undeclared {extra}")


_LAYOUTS = {kind: _Layout(kind, fields) for kind, fields in RECORD_KINDS.items()}


@dataclass(slots=True)
class TraceRecord:
    """One trace line. `details` are rounded when the record is made, by
    `Kernel.emit` or by parsing a trace that was written rounded, so
    `to_json` dumps them as they are.

    `writer` is the line writer of a record that `Kernel.emit` made for a
    kind in `RECORD_KINDS`, compiled from the kind's row; `to_json` and
    `Trace.to_jsonl` write such a record through it alone. Every other
    record, parsed and hand-built ones included, is written by the generic
    key-sorted encoder. Both give the same text for the same record.

    A record and its details are never mutated once it is made: records
    may share values, such as the maps of a declared kind's shared fields,
    whose text `Trace.to_jsonl` reuses (see `RECORD_KINDS`), and the
    container objects of a parsed record, which may be those of a record
    parsed before it (see `Trace.from_jsonl`). The class is not frozen,
    because a frozen one sets each field through `object.__setattr__`, and
    every record is built twice in a run and its replay."""

    time_ms: int
    seq: int
    kind: str
    subject: str
    details: dict
    writer: Callable[["TraceRecord", dict], str] | None = field(
        default=None, compare=False, repr=False)

    def to_json(self) -> str:
        if self.writer is not None:
            return self.writer(self, {})
        return _encode({
            "time_ms": self.time_ms,
            "seq": self.seq,
            "kind": self.kind,
            "subject": self.subject,
            "details": self.details,
        })


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
    appended since, so `hash` digests that same text. A record with a
    `writer` (a declared kind, see `RECORD_KINDS`) is written by that one
    %-format, with each shared value encoded once per call; any other by
    the generic encoder."""

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
                writer = record.writer
                pieces.append(record.to_json() if writer is None
                              else writer(record, memo))
                pieces.append("\n")
            self._text += "".join(pieces)
            self._serialised = len(self.records)
        return self._text

    def hash(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace of `text`, one record per line; lines end at "\n", and
        a line of JSON whitespace alone (" ", "\t", "\r") is skipped. Each
        record equals `json.loads` of its line, and any other line that is
        no record, one of other whitespace included, raises
        `MalformedTrace` naming it.

        A detail value whose text repeats the text last parsed for its key
        is not parsed again: the record holds that earlier value itself (see
        `_parse_line`)."""
        records = []
        seen: dict = {}  # detail key -> (text, value) of its last parse
        append, parse = records.append, _parse_line  # looked up once, not per line
        for i, line in enumerate(text.split("\n")):
            try:
                append(parse(line, seen))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                # a blank line fails to parse too; only then is it looked at
                if line.strip(" \t\r"):
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

    def emit(self, kind: str, subject: str, details: dict | tuple | None = None,
             memo: dict | None = None) -> TraceRecord:
        """Append a record of `details` to the trace.

        For a kind declared in `RECORD_KINDS`, `details` is a dict with
        exactly the declared keys, or a tuple of the row's values in row
        order. Both go through the kind's one compiled checker, which makes
        the details and raises InvariantViolation for a bad value (see
        `_compile_builder`); a dict with other keys or a tuple of another
        length raises it too. The record carries the kind's compiled writer.

        `memo` maps a float to its rounding. Records emitted with one memo
        round each distinct float of a number field once and share the
        rounded float object, which is safe since floats are immutable and
        details are never mutated. Without a memo, each call rounds afresh.

        For any other kind, `details` is a dict, copied through
        `_round_floats`, with every float rounded to 9 places, so the
        in-memory trace equals its JSON round trip.
        """
        layout = _LAYOUTS.get(kind)
        if layout is not None:
            if memo is None:
                memo = {}
            if type(details) is not tuple:
                fields = layout.from_dict(subject, memo, details or {})
            elif len(details) == len(layout.keys):
                fields = layout.build(subject, memo, *details)
            else:
                raise errors.InvariantViolation(
                    f"{kind}: {len(layout.keys)} values in row order, "
                    f"not {len(details)}")
            writer = layout.write
        elif type(details) is tuple:
            raise errors.InvariantViolation(
                f"{kind}: values in row order need a declared kind")
        else:
            fields = _round_floats(details or {})
            writer = None
        self._trace_seq += 1
        record = TraceRecord(self.now, self._trace_seq, kind, subject, fields,
                             writer)
        self.trace.append(record)
        return record

    def run(self, until: int | None = None) -> Trace:
        """Execute queued events in (time, sequence) order until the queue is
        empty or the clock would pass `until`. An event of a kind with no
        registered handler raises InvariantViolation naming the kind."""
        while self._queue:
            time, _, event = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self.now = time
            handler = self.handlers.get(event.kind)
            if handler is None:
                raise errors.InvariantViolation(
                    f"no handler for event kind {event.kind.value}")
            handler(event)
        return self.trace
