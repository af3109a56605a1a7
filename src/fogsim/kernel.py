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
from itertools import accumulate, chain
from json.decoder import JSONDecoder, scanstring
from json.encoder import c_make_encoder, encode_basestring_ascii
from json.scanner import make_scanner
from typing import Callable, Iterable, Iterator

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


class Revision(dict):
    """A map that replaces another with the same keys, in the same order,
    and names the keys whose entries it replaced.

    `token` is this map's own identity, a plain object; `base` is the token
    of the map it replaces, or None for a map that replaces none, such as
    one whose keys are new. `changed` names every key whose entry object is
    not the base's; it may name others too, in any order. A producer makes
    a revision as a copy of the map it replaces, then sets the entries it
    names. The trace writer reads `changed` to re-encode only those entries
    (see `_shared_text`), so a revision, like every shared value, is never
    mutated once it is emitted. Tokens are not counters, so no two maps
    share one across producers, and a pickled map keeps its token's
    identity within what is pickled with it."""

    __slots__ = ("token", "base", "changed")

    def __init__(self, entries=(), base: object | None = None, changed=()):
        super().__init__(entries)
        self.token = object()
        self.base = base
        self.changed = changed


def _shared_text(value, slot: str, memo: dict) -> str:
    """The JSON text of a shared value, written against the last value
    written at `slot` (a kind's field) with this `memo`.

    `memo` maps a slot to (value, text, token, index, pieces) of its last
    value: for a dict, `pieces` holds the `"key":value` text of each entry
    in key order and `index` each key's position there, and `token` is the
    map's own if it is a `Revision`. The same value again reuses its text.
    A revision whose `base` is the last value's token encodes only the
    entries its `changed` names; any other dict encodes every entry, and a
    value that is no dict is encoded whole. Dict keys must be str, as in
    every value that equals its JSON round trip.
    """
    last = memo.get(slot)
    if last is not None:
        if last[0] is value:
            return last[1]
        token = last[2]
        if token is not None and type(value) is Revision and value.base is token:
            index, pieces = last[3], last[4]
            for k in value.changed:
                pieces[index[k]] = encode_basestring_ascii(k) + ":" + _encode(value[k])
            text = "{" + ",".join(pieces) + "}"
            memo[slot] = (value, text, value.token, index, pieces)
            return text
    if not isinstance(value, dict):
        text = _encode(value)
        memo[slot] = (value, text, None, None, None)
        return text
    keys = sorted(value)
    index = {k: i for i, k in enumerate(keys)}
    pieces = [encode_basestring_ascii(k) + ":" + _encode(value[k]) for k in keys]
    text = "{" + ",".join(pieces) + "}"
    memo[slot] = (value, text, value.token if type(value) is Revision else None,
                  index, pieces)
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
# so that a `Revision` of the last map encodes only the entries it names.
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
    record, a `_shared_text` memo and `out`, which it calls with the pieces
    of `to_json`'s text of the record and its ending "\n", in order. Each
    shared value's text, from `_shared_text` at its slot "kind.key",
    written against the slot's last value, is a piece of its own, so the
    text `_shared_text` keeps for a slot is passed on, not copied. The text
    between shared values is one piece each, made by one %-format, with
    each number as its repr, each str through `encode_basestring_ascii`
    and each other value through `_encode`. The repr of an int, or of a
    finite float, is its JSON text."""
    def literal(text: str) -> str:
        return _encode(text).replace("%", "%%")

    def formatted(text: str, args: list[str]) -> str:
        """The expression of `text` %-formatted with `args`, or of the text
        itself where it takes no value."""
        if not args:
            return repr(text.replace("%%", "%"))
        return f"{text!r} % ({', '.join(args)},)"

    pieces, text, args = [], '{"details":{', []  # the piece being made, its values
    for i, (key, ftype) in enumerate(sorted(fields)):
        value = f"d[{key!r}]"
        text += ("," if i else "") + literal(key) + ":"
        if ftype == "shared":
            pieces += [formatted(text, args),
                       f"_shared({value}, {f'{kind}.{key}'!r}, memo)"]
            text, args = "", []
            continue
        text += "%r" if ftype == "number" else "%s"
        args.append(value if ftype == "number" else
                    f"_text({value})" if ftype == "str" else f"_encode({value})")
    text += '},"kind":' + literal(kind) + ',"seq":%r,"subject":%s,"time_ms":%r}\n'
    args += ["r.seq", "_text(r.subject)", "r.time_ms"]
    pieces.append(formatted(text, args))
    return _compile("write(r, memo, out)",
                    ["d = r.details", *(f"out({piece})" for piece in pieces)],
                    _text=encode_basestring_ascii, _encode=_encode, _shared=_shared_text)


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
    (see `Trace.from_jsonl`). Records read in one run of plain lines also
    share their key strings (see `records`).
    The class is not frozen, because a frozen one sets each field through
    `object.__setattr__`, and every record is built twice in a run and its
    replay."""

    time_ms: int
    seq: int
    kind: str
    subject: str
    details: dict
    writer: Callable[["TraceRecord", dict, Callable[[str], object]], None] | None = \
        field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        if self.writer is not None:
            pieces: list[str] = []
            self.writer(self, {}, pieces.append)
            return "".join(pieces)[:-1]  # without the line's "\n"
        return _encode({"time_ms": self.time_ms, "seq": self.seq, "kind": self.kind,
                        "subject": self.subject, "details": self.details})


# json.loads' own scanner and string reader, called at an index of a line
_scan = make_scanner(JSONDecoder())
# how the trace writer opens every line
_OPENING = '{"details":{'
# The most consecutive plain lines scanned in one call (see `records`), so
# that a trace with few container lines is not copied whole into one text.
_RUN_LINES = 256


def _alone(line: str, i: int) -> list[TraceRecord]:
    """The record of line `i`, parsed alone by `json.loads`, in a list; no
    record for a line of JSON whitespace alone (" ", "\t", "\r"); and for
    any other line that is no record, MalformedTrace naming it."""
    try:
        obj = json.loads(line)
        return [TraceRecord(obj["time_ms"], obj["seq"], obj["kind"], obj["subject"],
                            obj["details"])]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        # a blank line fails to parse too; only then is it looked at
        if line.strip(" \t\r"):
            raise errors.MalformedTrace(f"line {i + 1}: {exc}") from None
        return []


def _run_batches(run: list[str], stop: int) -> Iterable[list[TraceRecord]]:
    """The record lists of `run`, consecutive plain lines that end before
    line index `stop`: one list, from one scan of the JSON array
    `"[" + ",\n".join(run) + "]"` (a run of one line: of the line itself),
    where that scan ends where the text does and gives one value per line,
    and each value holds the record fields; else one list per line, each
    parsed alone, up to the first bad line.

    An accepted value is `json.loads` of its line. Each line opens a value
    with its `{`. No string crosses into the next line, since the strict
    scanner rejects a raw "\n" in one; with no `[`, every container is an
    object, and one left open at a line's end meets `,` and then `{` where a
    key must come. So each value starts and ends in its own line, and one
    value per line means each line is one value and JSON whitespace, which
    is what `json.loads` takes; a stray `]` ends the array early. So every
    value is a dict, and building a record raises at most KeyError."""
    text = run[0] if len(run) == 1 else "[" + ",\n".join(run) + "]"
    try:
        values, end = _scan(text, 0)
        if end == len(text):
            if len(run) == 1:
                return ([TraceRecord(values["time_ms"], values["seq"], values["kind"],
                                     values["subject"], values["details"])],)
            if len(values) == len(run):
                return ([TraceRecord(v["time_ms"], v["seq"], v["kind"], v["subject"],
                                     v["details"]) for v in values],)
    except (StopIteration, ValueError, KeyError):
        pass
    return map(_alone, run, range(stop - len(run), stop))


def _batches(lines: Iterable[str]) -> Iterator[Iterable[TraceRecord]]:
    """The records of `lines`, in order, in batches (see `records`)."""
    seen: dict = {}  # detail key -> its last text and value (see _read_map)
    run: list[str] = []
    opening, details_at, cap = _OPENING, len(_OPENING), _RUN_LINES
    try:
        for i, line in enumerate(lines):
            opens = line.startswith(opening)
            if opens and line.find("{", details_at) < 0 and "[" not in line:
                run.append(line)
                if len(run) < cap:
                    continue
                done, run = run, []
                yield from _run_batches(done, i + 1)
                continue
            if run:
                done, run = run, []
                yield from _run_batches(done, i)
            record = None
            if opens:  # details that may hold a container
                try:
                    record = _walk_details(line, seen)
                except (StopIteration, IndexError, ValueError, KeyError, TypeError):
                    pass
            yield (record,) if record is not None else _alone(line, i)
    except Exception:
        # A run is pending here only where reading the next line failed,
        # such as a line that is no UTF-8: the run is read first, as a
        # reader of one line at a time would.
        if run:
            yield from _run_batches(run, i + 1)
        raise
    if run:
        yield from _run_batches(run, i + 1)


def records(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """The records of trace `lines`, one per line, in order: the one trace
    reader. A line of JSON whitespace alone (" ", "\t", "\r") holds none.
    Each record equals `json.loads` of its line, and the first line that is
    no record, one of other whitespace included, raises `MalformedTrace`
    naming it (by its index in `lines`, from 1), after the records of the
    lines before it; so does any error of reading a line from `lines`.

    A line is plain where it opens with the writer's `{"details":{` and
    holds no other `{` and no `[`, so its details hold no container. A run
    of up to `_RUN_LINES` consecutive plain lines is read in one scan, and
    its records share their key strings (see `_run_batches`); where that scan
    is not accepted, each line of the run is parsed alone. A line that
    opens so and may hold a container is read a detail value at a time by
    `_walk_details`, which reuses values of earlier such lines. Whatever
    the fast paths do not fully recognise is parsed again by `json.loads`,
    which raises the error the line deserves."""
    return chain.from_iterable(_batches(lines))


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
    return TraceRecord(rest["time_ms"], rest["seq"], rest["kind"], rest["subject"],
                       details)


# Characters of trace text per chunk: the text is hashed and written to a
# file a chunk at a time, and read a block of about a chunk at a time (see
# `_lines`). An ASCII chunk's copies stay below glibc malloc's default
# 128 KiB mmap threshold and so reuse heap memory; a copy of the whole trace
# is megabytes of fresh memory, whose cost varied with the process's memory
# layout by up to a third of the time of serialising the trace.
_CHUNK = 1 << 15


def _blocks(text: str, size: int) -> Iterator[list[str]]:
    """The lines of `text`, a block at a time: each block ends at the first
    "\n" at least `size` characters past its start, or at the text's end,
    and is cut at its "\n"s."""
    start = 0
    while (end := text.find("\n", start + size)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")


def _lines(text: str, size: int = _CHUNK) -> Iterator[str]:
    """The lines of `text` exactly as `text.split("\n")` gives them, in
    order, split a block of about `size` characters at a time, so that only
    one block's lines are held at once."""
    return chain.from_iterable(_blocks(text, size))


class Trace:
    """Ordered record of a run; serializes to one JSON object per line.

    A trace only grows, through `append`. `to_jsonl` serialises each record
    once: it keeps the text made so far and adds the lines of the records
    appended since, so `hash` digests that same text and `chunks` gives
    its bytes. A record with a `writer` (each record `Kernel.emit` makes,
    see `RECORD_KINDS`) is written by that writer as pieces, with each
    shared value written against the last one at its slot in the same call
    (see `_shared_text`) as a piece of its own; a parsed or hand-built one
    by the generic encoder. The pieces are joined once, so a map text that
    many lines repeat is held once until that join."""

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
            pieces = [self._text]
            out = pieces.append
            memo: dict = {}  # each slot's last shared value, for this call only
            for record in self.records[self._serialised:]:
                writer = record.writer
                if writer is None:
                    out(record.to_json())
                    out("\n")
                else:
                    writer(record, memo, out)
            self._text = "".join(pieces)
            self._serialised = len(self.records)
        return self._text

    def chunks(self) -> Iterator[bytes]:
        """The UTF-8 bytes of the text `to_jsonl` returns, a chunk of
        `_CHUNK` characters at a time, so that no second copy of the whole
        trace is made."""
        text = self.to_jsonl()
        for start in range(0, len(text), _CHUNK):
            yield text[start:start + _CHUNK].encode()

    def hash(self) -> str:
        """sha256 of the UTF-8 text `to_jsonl` returns, digested a chunk at
        a time (see `chunks`)."""
        digest = hashlib.sha256()
        for chunk in self.chunks():
            digest.update(chunk)
        return digest.hexdigest()

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace of `text`, whose lines end at "\n": the records that
        `records` reads from them, or its `MalformedTrace`. The lines are
        split a block at a time (see `_lines`), so no list of every line is
        held next to the text.

        A run of plain lines is scanned in one call, and its records share
        their key strings. A detail value whose text repeats the text last
        parsed for its key is not parsed again: the record holds that
        earlier value itself. A map whose text differs is read against the
        last map at its key, and parses only the entries whose text
        changed; each other entry is the last map's entry object (see
        `_walk_details`)."""
        return cls(list(records(_lines(text))))


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
