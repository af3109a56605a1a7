"""Deterministic discrete-event engine: event queue, integer-ms clock, and
line-delimited trace emission.

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
from itertools import accumulate
from json.decoder import JSONDecoder, scanstring
from json.encoder import c_make_encoder, encode_basestring_ascii
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


# the trace's JSON encoder: compact, keys sorted. JSONEncoder.encode builds
# this C encoder anew on each call; built once, it skips the circular-reference
# check, since a trace value is a tree.
_chunks = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)


def _encode(value) -> str:
    return "".join(_chunks(value, 0))


def _shared_text(value, slot: str, memo: dict) -> str:
    """The JSON text of a shared value, written against the last value
    written at `slot` (a kind's field) with this `memo`.

    `memo` maps a slot to (value, text, index, pieces) of its last value:
    for a dict, `pieces` holds the `"key":value` text of each entry in key
    order and `index` each key's position there. Holding the value keeps
    its entries alive, so an entry that is the last one's object is no new
    object at a reused address. The same value again reuses its text. A
    dict with the same keys as the last one encodes only the entries whose
    value is not the last one's object, and any other dict encodes every
    entry; a value that is no dict is encoded whole. Dict keys must be str,
    as in every value that equals its JSON round trip.
    """
    last = memo.get(slot)
    if last is not None and last[0] is value:
        return last[1]
    if type(value) is not dict:
        text = _encode(value)
        memo[slot] = (value, text, None, None)
        return text
    if last is not None and last[2] is not None and value.keys() == last[2].keys():
        prev, _, index, pieces = last
        for k, v in value.items():
            if v is not prev[k]:
                pieces[index[k]] = encode_basestring_ascii(k) + ":" + _encode(v)
    else:
        keys = sorted(value)
        index = {k: i for i, k in enumerate(keys)}
        pieces = [encode_basestring_ascii(k) + ":" + _encode(value[k])
                  for k in keys]
    text = "{" + ",".join(pieces) + "}"
    memo[slot] = (value, text, index, pieces)
    return text


# Record kinds: kind -> its detail fields, each with its type, in the order
# of the values a kind takes in row order. A key ending in "?" names a field
# that may be absent;
# the others are always present. A "number" is an int or a finite float,
# written as its repr; a "str" is a str, written by JSON's string encoder; a
# "bool" is a bool; "str or null" and "number or null" also take None.
# "any" and "shared" are JSON values that go into the record as they are,
# neither copied nor walked, so each must equal its own rounding. An "any"
# value is written by `_encode`; a "shared" one, which records may share,
# such as the per-node maps of consecutive `metrics_window` records, by
# `_shared_text`, against the value last written at the same kind and field,
# so that a map encodes only the entries whose objects changed.
# `Kernel.emit` checks and rounds a kind's details by a checker compiled from
# its row, and `Trace.to_jsonl` writes its records through a line writer
# compiled from the row, one of each for each order of keys that details are
# emitted with (see `_Layout`).
RECORD_KINDS: dict[str, tuple[tuple[str, str], ...]] = {
    "scenario_loaded": (("nodes", "any"), ("thresholds", "any"),
                        ("scheduler_tick_ms", "number"), ("buffer_mb", "number"),
                        ("seed", "number"), ("duration_ms", "number")),
    "attach": (("gateway", "str"), ("model", "str"),
               ("firmware_version", "str or null")),  # None: no compatible firmware
    "install_request": (("app", "str"), ("gateway", "str")),
    "install_warning": (("gateway", "str"), ("reason", "str")),
    # placed for an attached device, or by a scripted place for a source
    "instance_placed": (("app", "str"), ("host", "str"), ("replicas", "number"),
                        ("device?", "str"), ("source?", "str")),
    "detach": (("gateway", "str"),),
    "roam_warning": (("to_gateway", "str"), ("reason", "str"), ("instance", "str")),
    "flow_open": (("device", "str"), ("src", "str"), ("sink", "str"),
                  ("rate_kbps", "number"), ("paused", "bool")),
    "flow_rebind": (("sink", "str"), ("serving", "str")),
    "flow_resume": (("src", "str"), ("sink", "str")),
    "flow_close": (("device", "str"),),
    "workload_change": (("data_rate_kbps", "number"),),
    "scale": (("replicas_from", "number"), ("replicas_to", "number"),
              ("host", "str")),
    "scale_warning": (("reason", "str"), ("requested", "number")),
    "scheduler_tick": (("skipped", "bool"), ("replayed?", "bool")),
    "defer": (("instance", "str or null"), ("reason", "str")),
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
                       ("uplink_ratio", "number or null"),  # None: nothing generated
                       ("instances", "shared"), ("utilization", "shared"),
                       ("alloc", "shared")),
    "fault_start": (("fault_kind", "str"), ("duration_ms", "number")),
    "fault_end": (("fault_kind", "str"),),
    "run_end": (("duration_ms", "number"), ("migrations", "number")),
    # a step the runtime could not take: its reason, and the fields of its cause
    "warning": (("reason", "str"), ("gateway?", "str"), ("source?", "str"),
                ("detail?", "str"), ("model?", "str"), ("os_version?", "str"),
                ("instance?", "str"), ("to_gateway?", "str"), ("sink?", "str"),
                ("host?", "str")),
}


def _compile(signature: str, body: list[str], **names):
    """The function `def {signature}:` with the lines of `body`, compiled
    with `names` in scope."""
    namespace = {"__name__": __name__, **names}
    exec(f"def {signature}:\n" + "".join(f"    {line}\n" for line in body),
         namespace)
    return namespace[signature.partition("(")[0]]


def _compile_writer(kind: str, fields: tuple[tuple[str, str], ...]):
    """The line writer of a declared kind's `fields`: a function of a
    record and a `_shared_text` memo that returns `to_json`'s text of the
    record by one %-format, with each number as its repr, each str through
    `encode_basestring_ascii`, each shared value through `_shared_text` at
    its slot "kind.key", written against the slot's last value, and each
    other value through `_encode`. The repr of an int, or of a finite
    float, is its JSON text."""
    def literal(text: str) -> str:
        return _encode(text).replace("%", "%%")

    slots, args = [], []
    for key, ftype in sorted(fields):
        value = f"d[{key!r}]"
        slots.append(literal(key) + (":%r" if ftype == "number" else ":%s"))
        args.append(value if ftype == "number" else
                    f"_text({value})" if ftype == "str" else
                    f"_shared({value}, {f'{kind}.{key}'!r}, memo)"
                    if ftype == "shared" else
                    f"_encode({value})")
    line = ('{"details":{' + ",".join(slots) + '},"kind":' + literal(kind)
            + ',"seq":%r,"subject":%s,"time_ms":%r}')
    args += ["r.seq", "_text(r.subject)", "r.time_ms"]
    return _compile("write(r, memo)",
                    ["d = r.details", f"return {line!r} % ({', '.join(args)})"],
                    _text=encode_basestring_ascii, _encode=_encode,
                    _shared=_shared_text)


# a checked field type -> the test its value fails, and what it must be
_CHECKS = {"number": ("type({v}) is not int", "a finite number"),
           "str": ("not isinstance({v}, str)", "a str"),
           "bool": ("type({v}) is not bool", "a bool")}


def _compile_builder(kind: str, fields: tuple[tuple[str, str], ...]):
    """The checker of a declared kind's `fields`: a function of the
    subject, a rounding memo and the fields' values that returns the
    record's details, keyed in the order of `fields`.

    It checks the fields in order, then the subject, and raises
    InvariantViolation, naming the kind and the field, where a number field
    holds anything but an int or a finite float (a bool, None and str
    included), a str field or the subject no str, or a bool field no bool;
    an "or null" field also takes None. A nonzero float of a number field
    is rounded to 9 places through `memo`, which maps a float to its
    rounding, so each distinct float is rounded once per memo and records
    share the rounded object; ±0.0 is kept as it is, and a float subclass
    is made a float. An any or shared field holds its value itself."""
    names = [f"v{i}" for i in range(len(fields))]
    body = []
    for v, (key, ftype) in zip(names, fields):
        base, _, nullable = ftype.partition(" or ")
        if base not in _CHECKS:
            continue
        test, expected = _CHECKS[base]
        test = test.format(v=v) + (f" and {v} is not None" if nullable else "")
        expected += " or None" if nullable else ""
        fail = f"_error({f'{kind}: {key} must be {expected}, not '!r} + repr({v}))"
        if base == "number":
            body += [
                f"if type({v}) is float:",
                f"    if {v}:",  # ±0.0 is its own rounding
                f"        r = memo.get({v})",
                "        if r is None:",  # inf and nan are never stored
                f"            if {v} - {v} != 0.0:",
                f"                raise {fail}",
                f"            r = memo[{v}] = round({v}, 9)",
                f"        {v} = r",
                f"elif {test}:",  # a finite float subclass is made a float
                f"    if not isinstance({v}, float) or {v} - {v} != 0.0:",
                f"        raise {fail}",
                f"    {v} = round({v}, 9)"]
        else:
            body += [f"if {test}:", f"    raise {fail}"]
    body += ["if not isinstance(subject, str):",
             f"    raise _error({kind + ': subject must be a str, not '!r}"
             " + repr(subject))"]
    result = ", ".join(f"{key!r}: {v}" for v, (key, _) in zip(names, fields))
    return _compile(f"build(subject, memo, {', '.join(names)})",
                    body + [f"return {{{result}}}"], _error=errors.InvariantViolation)


class _Layout:
    """A declared kind, compiled from its `RECORD_KINDS` row: for each key
    order that its details are emitted with, the checker that makes them
    from their values in that order (see `_compile_builder`) and the writer
    of their lines, compiled on first use. A kind whose fields are always
    present also takes its values in row order, through `row`."""

    __slots__ = ("kind", "types", "required", "compiled", "row")

    def __init__(self, kind: str, row: tuple[tuple[str, str], ...]):
        self.kind = kind
        self.types = {key.rstrip("?"): ftype for key, ftype in row}
        self.required = frozenset(key for key, _ in row if not key.endswith("?"))
        self.compiled: dict[tuple, tuple] = {}  # keys -> (checker, writer)
        # values in row order cannot say which fields are absent
        self.row = self.compile(tuple(self.types)) \
            if len(self.required) == len(row) else None

    def compile(self, keys: tuple) -> tuple:
        """The checker and the writer of details with `keys` in this order,
        or InvariantViolation naming a missing or an undeclared key."""
        if not self.required <= set(keys) <= self.types.keys():
            missing = sorted(self.required.difference(keys))
            extra = sorted(set(keys) - self.types.keys(), key=repr)  # of any type
            raise errors.InvariantViolation(
                f"{self.kind}: missing {missing}, undeclared {extra}")
        fields = tuple((key, self.types[key]) for key in keys)
        pair = self.compiled[keys] = (_compile_builder(self.kind, fields),
                                      _compile_writer(self.kind, fields))
        return pair


_LAYOUTS = {kind: _Layout(kind, row) for kind, row in RECORD_KINDS.items()}


@dataclass(slots=True)
class TraceRecord:
    """One trace line. `details` are rounded when the record is made, by
    `Kernel.emit` or by parsing a trace that was written rounded, so
    `to_json` dumps them as they are.

    `writer` is the line writer compiled for the kind and keys of a record
    that `Kernel.emit` made; `to_json` and `Trace.to_jsonl` write the record
    through it alone. A parsed or hand-built record has none and is written
    by the generic key-sorted encoder, which gives the same text.

    A record and its details are never mutated once it is made: records
    may share values, such as the maps of a declared kind's shared fields
    and their entries, whose text `Trace.to_jsonl` reuses (see
    `_shared_text`), and the container objects of a parsed record and the
    entries of its maps, which may be those of a record parsed before it
    (see `Trace.from_jsonl`).
    The class is not frozen, because a frozen one sets each field through
    `object.__setattr__`, and every record is built twice in a run and its
    replay."""

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
        return _encode({"time_ms": self.time_ms, "seq": self.seq, "kind": self.kind,
                        "subject": self.subject, "details": self.details})


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
    a time by `_walk_details`, against the values `seen` holds from earlier
    lines. Any other line is scanned once, in full.
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


# A key's maps are spliced while each splice reads at most one entry per
# this many characters of the new map's text. Reading one entry in Python
# costs about what the C scanner spends on 250 to 800 characters of a map
# (CPython 3.11: maps of numbers, of strings and of small maps), so past
# that a splice costs more than scanning the map whole.
_CHARS_PER_READ = 512


def _read_map(line: str, pos: int, known: tuple) -> tuple:
    """`seen`'s entry for the value that opens with `{` at `line[pos]`,
    given `known`, the entry of the last value at its key.

    An entry is (text, value) for a value scanned whole; (text, map,
    lengths) for a map that `_splice` read, with the length of each entry
    of its text; and (text, value, None) at a key that no longer splices.
    A value after a non-empty map is spliced against it, the lengths of a
    map that was scanned whole being found first, and any other value is
    scanned whole. A key stops splicing, and scans its maps whole while it
    holds maps, where a splice fails (the new map or the last one is off
    the compact form, or their keys differ) or reads more than one entry
    per `_CHARS_PER_READ` characters of the new map's text."""
    text, prev = known[0], known[1]
    if len(known) == 2 and (type(prev) is not dict or not prev):
        value, end = _scan(line, pos)
        return line[pos:end], value
    try:
        lengths = known[2] if len(known) == 3 else _entry_lengths(text, len(prev))
        spliced = lengths and _splice(line, pos, text, prev, lengths)
    except StopIteration:  # whitespace before a value
        spliced = None
    if spliced:
        return spliced
    value, end = _scan(line, pos)
    return line[pos:end], value, None


def _entry_lengths(text: str, size: int) -> list[int] | None:
    """The length of each entry of map `text`, its `,` or `}` included, or
    None where an entry strays from the compact form or the text holds other
    than `size` entries (a key given twice)."""
    lengths, start = [], 1
    while text[start] == '"':
        _, end = scanstring(text, start + 1)
        if text[end] != ":":
            return None
        _, end = _scan(text, end + 1)
        lengths.append(end + 1 - start)
        if text[end] == "}":
            return lengths if len(lengths) == size else None
        if text[end] != ",":
            return None
        start = end + 1
    return None


def _splice(line: str, pos: int, text: str, prev: dict,
            lengths: list[int]) -> tuple | None:
    """`seen`'s entry for the map that opens at `line[pos]`, read against
    `prev`, the map parsed from `text`, whose entries are `lengths` long
    (each with its `,` or `}`); or None where the new map is not `prev`'s
    keys in `prev`'s order in the compact form.

    The new text is compared with `text` a run of whole entries at a time,
    by slice compares: the rest of the map, else runs of 1, 2, 4, ...
    entries, then halves of the first run that differs, down to its one
    entry that differs. An entry of equal text is `prev`'s entry object.
    An entry of other text is read, and must hold `prev`'s key at its
    position and end in the same `,` or `}`. The new map is a copy of
    `prev` with the entries read, so its keys keep `prev`'s order, which is
    the order of the text. The entry holds no lengths where the splice read
    more entries than `_CHARS_PER_READ` allows."""
    bounds = list(accumulate(lengths, initial=1))  # entry j: bounds[j]:bounds[j+1]
    last = len(lengths)
    value, new_lengths, reads = dict(prev), lengths.copy(), 0
    i, shift = 0, pos  # old entry i starts at bounds[i] + shift in line
    while i < last:
        if line.startswith(text[bounds[i]:], bounds[i] + shift):
            break  # the rest is equal
        lo, step = i, 1  # entries before lo are equal
        while True:  # the runs make up the rest, which differs, so one differs
            hi = min(lo + step, last)
            if not line.startswith(text[bounds[lo]:bounds[hi]], bounds[lo] + shift):
                break
            lo, step = hi, step * 2
        while hi - lo > 1:  # an entry from lo to hi - 1 differs
            mid = (lo + hi) // 2
            if line.startswith(text[bounds[lo]:bounds[mid]], bounds[lo] + shift):
                lo = mid
            else:
                hi = mid
        start = bounds[lo] + shift
        if line[start] != '"':
            return None
        key, end = scanstring(line, start + 1)
        if not text.startswith(line[start:end + 1], bounds[lo]):  # `"key":`
            return None
        value[key], end = _scan(line, end + 1)
        if line[end] != ("}" if hi == last else ","):
            return None
        new_lengths[lo] = end + 1 - start
        reads += 1
        i, shift = hi, end + 1 - bounds[hi]
    end = bounds[last] + shift
    return (line[pos:end], value,
            new_lengths if reads * _CHARS_PER_READ <= end - pos else None)


def _walk_details(line: str, seen: dict) -> TraceRecord | None:
    """The record of a line that opens with `_OPENING`, or None where the
    line strays from the writer's compact form.

    Where the text at a detail value's start begins with the text `seen`
    holds for its key, and `,` or `}` follows that text, the value is the
    one parsed from it before: equal text parses to an equal value, and the
    `,` or `}` shows that the value ends there (the text of 12 begins with
    that of 1). A map of other text is read against the last map at its key
    by `_read_map`, so only its entries whose text changed are parsed, and
    its other entries are the last map's objects. Any other value is
    scanned. `seen` keeps each key's last text and value. The fields after
    the details are scanned as one object, which must end the line."""
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
            elif line[pos] != "{" or known is None:
                value, end = _scan(line, pos)
                seen[key] = (line[pos:end], value)
                pos = end
            else:
                known = seen[key] = _read_map(line, pos, known)
                value = known[1]
                pos += len(known[0])
            details[key] = value
            if line[pos] == "}":
                break
            if line[pos] != ",":
                return None
            pos += 1
    if line[pos + 1] != ",":
        return None
    tail = "{" + line[pos + 2:]
    rest, end = _scan(tail, 0)  # a dict, as the tail opens with `{`
    if end != len(tail) or "details" in rest:
        return None
    return _record(rest, details)


# Characters of trace text hashed per chunk. An ASCII chunk's copies stay
# below glibc malloc's default 128 KiB mmap threshold and so reuse heap
# memory; a copy of the whole trace is megabytes of fresh memory, whose
# cost varied with the process's memory layout by up to a third of the
# time of serialising the trace.
_HASH_CHUNK = 1 << 15


class Trace:
    """Ordered record of a run; serializes to one JSON object per line.

    A trace only grows, through `append`. `to_jsonl` serialises each record
    once: it keeps the text made so far and adds the lines of the records
    appended since, so `hash` digests that same text. A record with a
    `writer` (each record `Kernel.emit` makes, see `RECORD_KINDS`) is
    written by that one %-format, with each shared value written against
    the last one at its slot in the same call (see `_shared_text`); a
    parsed or hand-built one by the generic encoder."""

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
            memo: dict = {}  # each slot's last shared value, for this call only
            for record in self.records[self._serialised:]:
                writer = record.writer
                pieces.append(record.to_json() if writer is None
                              else writer(record, memo))
                pieces.append("\n")
            self._text += "".join(pieces)
            self._serialised = len(self.records)
        return self._text

    def hash(self) -> str:
        """sha256 of the UTF-8 text `to_jsonl` returns, hashed a chunk at a
        time so that no second copy of the whole trace is made."""
        text = self.to_jsonl()
        digest = hashlib.sha256()
        for start in range(0, len(text), _HASH_CHUNK):
            digest.update(text[start:start + _HASH_CHUNK].encode())
        return digest.hexdigest()

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace of `text`, one record per line; lines end at "\n", and
        a line of JSON whitespace alone (" ", "\t", "\r") is skipped. Each
        record equals `json.loads` of its line, and any other line that is
        no record, one of other whitespace included, raises
        `MalformedTrace` naming it.

        A detail value whose text repeats the text last parsed for its key
        is not parsed again: the record holds that earlier value itself. A
        map whose text differs is read against the last map at its key, and
        parses only the entries whose text changed; each other entry is the
        last map's entry object (see `_walk_details`)."""
        records = []
        seen: dict = {}  # detail key -> its last text and value (see _read_map)
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
    """Runs each queued event by calling its kind's handler with the one
    object the event was scheduled with, its entry."""

    def __init__(self):
        self.now: int = 0
        self.trace = Trace()
        self.handlers: dict[EventKind, Callable[[object], None]] = {}
        self._queue: list[tuple[int, int, EventKind, object]] = []
        self._event_seq = 0
        self._trace_seq = 0

    def register(self, kind: EventKind, handler: Callable[[object], None]) -> None:
        self.handlers[kind] = handler

    def schedule(self, time: int, kind: EventKind, entry: object = None) -> None:
        """Queue an event of `kind` at `time`, whose handler takes `entry`."""
        if time < self.now:
            raise errors.TimeInPast(f"{time} < {self.now}")
        self._event_seq += 1
        heapq.heappush(self._queue, (int(time), self._event_seq, kind, entry))

    def emit(self, kind: str, subject: str, details: dict | tuple,
             memo: dict | None = None) -> TraceRecord:
        """Append a record of `details` to the trace.

        `kind` is declared in `RECORD_KINDS`, and `details` is a dict of its
        fields, with every one that is always present; or, where all are,
        a tuple of their values in row order. The checker compiled for these
        keys in this order makes the record's details (see
        `_compile_builder`), and the record carries the writer compiled for
        them. A bad value, an undeclared kind, a dict with other keys or a
        tuple of another length raises InvariantViolation and appends nothing.

        `memo` maps a float to its rounding. Records emitted with one memo
        round each distinct float of a number field once and share the
        rounded float object, which is safe since floats are immutable and
        details are never mutated. Without a memo, each call rounds afresh.
        """
        layout = _LAYOUTS.get(kind)
        if layout is None:
            raise errors.InvariantViolation(f"{kind}: not a declared record kind")
        if type(details) is tuple:
            if layout.row is None:
                raise errors.InvariantViolation(
                    f"{kind}: fields may be absent, so details must be a dict")
            if len(details) != len(layout.types):
                raise errors.InvariantViolation(
                    f"{kind}: {len(layout.types)} values in row order, "
                    f"not {len(details)}")
            build, writer = layout.row
        else:
            keys = tuple(details)
            build, writer = layout.compiled.get(keys) or layout.compile(keys)
            details = details.values()
        fields = build(subject, {} if memo is None else memo, *details)
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
            time, _, kind, entry = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self.now = time
            handler = self.handlers.get(kind)
            if handler is None:
                raise errors.InvariantViolation(
                    f"no handler for event kind {kind.value}")
            handler(entry)
        return self.trace
