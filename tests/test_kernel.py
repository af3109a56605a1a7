from __future__ import annotations

import copy
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim import kernel as kernel_module
from fogsim.kernel import RECORD_KINDS, EventKind, Kernel, Trace, TraceRecord

from fixture_paths import REPO_ROOT
from oracles import (reference_from_jsonl, reference_record_json,
                     reference_round_floats, reference_shared_entries)


def test_events_run_in_time_then_fifo_order():
    kernel = Kernel()
    seen = []
    kernel.register(EventKind.FLOW_ADVANCE, lambda entry: seen.append(entry["tag"]))
    kernel.schedule(10, EventKind.FLOW_ADVANCE, {"tag": "b"})
    kernel.schedule(5, EventKind.FLOW_ADVANCE, {"tag": "a"})
    kernel.schedule(10, EventKind.FLOW_ADVANCE, {"tag": "c"})  # same time: FIFO
    kernel.run()
    assert seen == ["a", "b", "c"]
    assert kernel.now == 10


def test_schedule_in_past_rejected():
    kernel = Kernel()
    kernel.register(EventKind.FLOW_ADVANCE, lambda entry: None)
    kernel.schedule(100, EventKind.FLOW_ADVANCE)
    kernel.run()
    with pytest.raises(errors.TimeInPast):
        kernel.schedule(50, EventKind.FLOW_ADVANCE)


def test_run_until_leaves_later_events_queued():
    kernel = Kernel()
    seen = []
    kernel.register(EventKind.FLOW_ADVANCE, lambda entry: seen.append(kernel.now))
    for t in (100, 200, 300):
        kernel.schedule(t, EventKind.FLOW_ADVANCE)
    kernel.run(until=200)
    assert seen == [100, 200]
    kernel.run()
    assert seen == [100, 200, 300]


def test_handler_can_schedule_followups():
    kernel = Kernel()
    seen = []

    def handler(entry):
        seen.append(kernel.now)
        if kernel.now < 30:
            kernel.schedule(kernel.now + 10, EventKind.FLOW_ADVANCE)

    kernel.register(EventKind.FLOW_ADVANCE, handler)
    kernel.schedule(10, EventKind.FLOW_ADVANCE)
    kernel.run()
    assert seen == [10, 20, 30]


def test_a_handler_takes_the_entry_its_event_was_scheduled_with():
    """The entry is handed over as it is, not copied; an event scheduled
    without one hands over None."""
    kernel = Kernel()
    seen = []
    kernel.register(EventKind.FAULT_START, seen.append)
    kernel.register(EventKind.SCHEDULER_TICK, seen.append)
    entry = {"target": "edge1", "kind": "NodeDown", "start": 1000, "duration_ms": 500}
    kernel.schedule(1000, EventKind.FAULT_START, entry)
    kernel.schedule(1500, EventKind.SCHEDULER_TICK)
    kernel.run()
    assert len(seen) == 2 and seen[0] is entry and seen[1] is None


def test_an_event_without_a_handler_raises_naming_its_kind():
    kernel = Kernel()
    seen = []
    kernel.register(EventKind.FLOW_ADVANCE, lambda entry: seen.append(kernel.now))
    kernel.schedule(10, EventKind.FLOW_ADVANCE)
    kernel.schedule(20, EventKind.SCALE)
    with pytest.raises(errors.InvariantViolation, match="Scale"):
        kernel.run()
    assert seen == [10]
    assert kernel.now == 20


def test_emit_assigns_strictly_increasing_seq():
    kernel = Kernel()
    r1 = kernel.emit("detach", "a", {"gateway": "g"})
    r2 = kernel.emit("flow_close", "b", {"device": "a"})
    assert (r1.seq, r2.seq) == (1, 2)
    assert r1.time_ms == 0


def _emit_two(kernel: Kernel) -> None:
    """A record of scalars, then one whose details hold a map of a list."""
    kernel.emit("link_window", "x", {"delivered_mb": 1.5, "capacity_mb": 2})
    kernel.emit("scenario_loaded", "y",
                _valid_details("scenario_loaded", nodes={"w": [1, 2.25]}))


def test_emitted_floats_equal_their_json_roundtrip():
    kernel = Kernel()
    record = kernel.emit("link_window", "n", (0.1 + 0.2, 1 / 3))
    replayed = Trace.from_jsonl(record.to_json())
    assert replayed.records[0] == record


def test_trace_jsonl_roundtrip_and_hash():
    kernel = Kernel()
    _emit_two(kernel)
    kernel.now = 10
    kernel.emit("link_window", "z", (1, 2.25))
    text = kernel.trace.to_jsonl()
    replayed = Trace.from_jsonl(text)
    assert replayed.records == kernel.trace.records
    assert replayed.hash() == kernel.trace.hash()


def test_malformed_trace_lines_rejected():
    with pytest.raises(errors.MalformedTrace):
        Trace.from_jsonl("not json\n")
    with pytest.raises(errors.MalformedTrace):
        Trace.from_jsonl('{"time_ms": 0}\n')  # missing fields


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                         ids=["U+2028", "U+2029", "U+0085"])
def test_a_string_may_hold_a_character_that_splitlines_splits_on(char):
    """JSON allows these unescaped inside a string; only "\\n" ends a line."""
    record = TraceRecord(0, 1, "k", f"s{char}t", {"note": f"a{char}b", "m": {"x": [1]}})
    line = json.dumps({"details": record.details, "kind": record.kind,
                       "seq": record.seq, "subject": record.subject, "time_ms": 0},
                      ensure_ascii=False, separators=(",", ":"), sort_keys=True)
    assert char in line
    assert Trace.from_jsonl(line + "\n").records == [record]


def test_lines_may_end_in_crlf():
    kernel = Kernel()
    _emit_two(kernel)
    text = kernel.trace.to_jsonl()
    assert Trace.from_jsonl(text.replace("\n", "\r\n")).records == kernel.trace.records


@pytest.mark.parametrize("blank", ["", " ", "\t", "\r", " \t\r "])
def test_a_line_of_json_whitespace_is_skipped(blank):
    kernel = Kernel()
    _emit_two(kernel)
    first, second = kernel.trace.to_jsonl().splitlines()
    text = f"{blank}\n{first}\n{blank}\n{second}\n{blank}"
    assert Trace.from_jsonl(text).records == kernel.trace.records
    assert reference_from_jsonl(text) == kernel.trace.records


@pytest.mark.parametrize("char", ["\x1c", "\xa0", "\u2028", "\x0b", "\x0c"],
                         ids=["U+001C", "U+00A0", "U+2028", "U+000B", "U+000C"])
def test_a_line_of_other_whitespace_is_malformed(char):
    """str.strip removes these, but JSON allows none of them between
    tokens, so such a line is no blank line but a bad record."""
    kernel = Kernel()
    _emit_two(kernel)
    first, second = kernel.trace.to_jsonl().splitlines()
    text = f"{first}\n {char}\t\n{second}\n"
    with pytest.raises(errors.MalformedTrace, match="^line 2: "):
        Trace.from_jsonl(text)
    _assert_parses_as_the_reference(text)


def test_trace_record_json_is_key_sorted_and_compact():
    record = TraceRecord(0, 1, "k", "s", {"b": 1, "a": 2})
    assert record.to_json() == \
        '{"details":{"a":2,"b":1},"kind":"k","seq":1,"subject":"s","time_ms":0}'


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_appends_after_serialising_reach_the_text_and_the_hash():
    kernel = Kernel()
    kernel.emit("link_window", "x", (1.5, 2))
    first = kernel.trace.to_jsonl()
    assert kernel.trace.hash() == _sha256(first)
    record = kernel.emit("scenario_loaded", "y",
                         _valid_details("scenario_loaded", nodes={"w": [2.25]}))
    text = kernel.trace.to_jsonl()
    assert text == first + record.to_json() + "\n"
    assert kernel.trace.hash() == _sha256(text) != _sha256(first)


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_a_trace_is_hashed_as_its_whole_text_in_any_chunks(monkeypatch, chunk):
    """None: one chunk exactly as long as the text."""
    kernel = Kernel()
    _emit_two(kernel)
    text = kernel.trace.to_jsonl()
    monkeypatch.setattr(kernel_module, "_HASH_CHUNK", chunk or len(text))
    assert kernel.trace.hash() == _sha256(text)
    assert Trace().hash() == _sha256("")


def test_each_record_is_serialised_once(monkeypatch):
    calls = []
    layout = kernel_module._LAYOUTS["detach"]
    build, write = layout.row
    monkeypatch.setattr(layout, "row", (
        build, lambda r, memo: calls.append(r.seq) or write(r, memo)))
    kernel = Kernel()
    kernel.emit("detach", "x", ("g",))
    kernel.emit("detach", "y", ("g",))
    kernel.trace.to_jsonl()
    kernel.trace.hash()
    kernel.emit("detach", "z", ("g",))
    kernel.trace.hash()
    kernel.trace.to_jsonl()
    assert calls == [1, 2, 3]


def test_trace_built_from_a_slice_serialises_on_its_own():
    kernel = Kernel()
    for name in "abc":
        kernel.emit("link_window", name, (0.5, 1))
    full = kernel.trace.to_jsonl()
    part = Trace(kernel.trace.records[:2])
    assert part.to_jsonl() == "".join(full.splitlines(keepends=True)[:2])
    assert part.hash() == _sha256(part.to_jsonl())
    assert kernel.trace.to_jsonl() == full and len(kernel.trace) == 3


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e8, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e8),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),  # subnormals
    st.just(-0.0),
)


class _Float(float):
    """A float subclass, which rounding reaches only through its fallback."""


_leaves = st.one_of(_floats, _floats.map(_Float), st.integers(), st.booleans(),
                    st.none(), st.text(max_size=5), st.sampled_from(list(EventKind)))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=16)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=5), _values, max_size=6))
def test_hand_built_records_serialise_and_parse_as_the_reference(details):
    """Records of any details, rounded by the reference rounding, as a
    parsed trace holds them."""
    record = TraceRecord(0, 1, "k", "s", reference_round_floats(details))
    line = record.to_json()
    # the reference rounds again at serialisation, which must change no byte
    assert line == reference_record_json(record)
    replayed = Trace.from_jsonl(line).records[0]
    assert replayed == record and replayed.to_json() == line


def _reference_jsonl(trace) -> str:
    return "".join(reference_record_json(r) + "\n" for r in trace)


# --- declared record kinds: emission and the compiled writers ---------------

_numbers = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 2.5e-10, 0, 1, -7,
                     2 ** 53 + 1, -(10 ** 30)]),
    st.integers(-1000, 1000),
    st.integers(min_value=2 ** 53, max_value=2 ** 200),
    _floats,
    _floats.map(_Float),
)
_texts = st.one_of(st.text(max_size=6), st.sampled_from(list(EventKind)))
_json_keys = st.text(max_size=5)
# leaves that equal their own rounding
_rounded_leaves = st.one_of(_floats.map(lambda x: round(x, 9)), st.integers(),
                            st.booleans(), st.none(), st.text(max_size=5),
                            st.sampled_from(list(EventKind)))
# maps that equal their own rounding, each holding maps or lists at times
_rounded_maps = st.recursive(
    st.dictionaries(_json_keys, _rounded_leaves, max_size=4),
    lambda inner: st.dictionaries(
        _json_keys, st.one_of(_rounded_leaves, inner,
                              st.lists(_rounded_leaves, max_size=3)), max_size=4),
    max_leaves=12)
_typed_values = {"number": _numbers, "str": _texts, "bool": st.booleans(),
                 "number or null": st.none() | _numbers,
                 "str or null": st.none() | _texts,
                 "any": _rounded_leaves | _rounded_maps, "shared": _rounded_maps}


def _fields(kind: str) -> list[tuple[str, str, bool]]:
    """(key, type, whether it may be absent) of each field of `kind`."""
    return [(key.rstrip("?"), ftype, key.endswith("?"))
            for key, ftype in RECORD_KINDS[kind]]


# kinds whose fields are always present, so they take values in row order
_FIXED_KINDS = sorted(kind for kind in RECORD_KINDS
                      if not any(optional for *_, optional in _fields(kind)))
_SHARED_FIELDS = [key for key, ftype, _ in _fields("metrics_window")
                  if ftype == "shared"]


@st.composite
def _declared_records(draw, kinds=sorted(RECORD_KINDS)):
    """(kind, subject, details) of a declared kind, each field drawn by its
    declared type, and each field that may be absent present or not."""
    kind = draw(st.sampled_from(kinds))
    details = {key: draw(_typed_values[ftype])
               for key, ftype, optional in _fields(kind)
               if not optional or draw(st.booleans())}
    return kind, draw(_texts), details


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_declared_records(), min_size=1, max_size=4),
       st.integers(0, 10 ** 9))
def test_declared_records_round_as_before_and_write_as_the_reference(records, now):
    """Each record is emitted from its dict, and again with one memo shared
    by all the records, from its values in row order where the kind takes
    them, as a window close emits them."""
    kernel, by_row = Kernel(), Kernel()
    kernel.now = by_row.now = now
    memo: dict = {}
    for kind, subject, details in records:
        values = tuple(details[key] for key, _, _ in _fields(kind)) \
            if kind in _FIXED_KINDS else details
        for record in (kernel.emit(kind, subject, details),
                       by_row.emit(kind, subject, values, memo)):
            assert record.writer is not None
            # rounded as the recursive reference rounds: -0.0, 1 and 1.0 apart
            assert repr(record.details) == repr(reference_round_floats(details))
            # and written as the reference writes the unrounded input
            assert record.to_json() == reference_record_json(
                TraceRecord(now, record.seq, kind, subject, details))
    # a memo holds each nonzero finite float it rounded, as round rounds it
    assert all(type(x) is float and x and rounded == round(x, 9)
               and type(rounded) is float for x, rounded in memo.items())
    text = kernel.trace.to_jsonl()
    assert text == _reference_jsonl(kernel.trace) == by_row.trace.to_jsonl()
    assert by_row.trace.records == kernel.trace.records
    parsed = Trace.from_jsonl(text)
    assert parsed.records == kernel.trace.records and parsed.to_jsonl() == text


def test_a_memo_rounds_each_float_once_and_shares_the_result():
    kernel = Kernel()
    memo: dict = {}
    third = 1 / 3
    first = kernel.emit("link_window", "l1", (third, _Float(2 / 3)), memo)
    second = kernel.emit("link_window", "l2", (-0.0, third), memo)
    assert memo == {third: round(third, 9)}  # a float subclass is not memoised
    assert first.details["delivered_mb"] is second.details["capacity_mb"]
    assert first.details["delivered_mb"] == round(third, 9)
    assert type(first.details["capacity_mb"]) is float
    assert first.details["capacity_mb"] == round(2 / 3, 9)
    assert math.copysign(1.0, second.details["delivered_mb"]) == -1.0
    # a hit returns the memo's value, whatever it holds
    memo[0.5] = 0.25
    assert kernel.emit("link_window", "l3", (0.5, 0), memo).details == {
        "delivered_mb": 0.25, "capacity_mb": 0}
    # without a memo, each call rounds afresh
    assert kernel.emit("link_window", "l4", (third, third)).details == {
        "delivered_mb": round(third, 9), "capacity_mb": round(third, 9)}


# bad values of each checked type
_BAD_VALUES = {"number": [True, None, "1", math.inf, -math.inf, math.nan],
               "number or null": [True, "1", math.inf, math.nan],
               "str": [None, 1, b"x", 1.5, True], "str or null": [1, b"x", True],
               "bool": [None, 0, 1, "true"]}


@st.composite
def _declared_with_one_bad_value(draw):
    """(kind, subject, details) of a kind that takes values in row order,
    each field valid for its type, and at most one bad value: in a checked
    field, or as the subject."""
    kind, subject, details = draw(_declared_records(_FIXED_KINDS))
    types = {key: ftype for key, ftype, _ in _fields(kind)}
    where = draw(st.sampled_from(
        ["none", "subject"] + [key for key in types if types[key] in _BAD_VALUES]))
    if where == "subject":
        subject = draw(st.sampled_from([None, 1, b"x", 1.5]))
    elif where != "none":
        details[where] = draw(st.sampled_from(_BAD_VALUES[types[where]]))
    return kind, subject, details


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_declared_with_one_bad_value())
def test_one_checker_takes_both_forms(case):
    """A dict and its values in row order make equal records, written as
    equal lines, and fail with the same message."""
    kind, subject, details = case
    values = tuple(details[key] for key, _, _ in _fields(kind))
    outcomes = []
    for form in (details, values):
        try:
            record = Kernel().emit(kind, subject, form)
        except errors.InvariantViolation as exc:
            outcomes.append(("raised", str(exc)))
        else:
            outcomes.append((record, record.to_json()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("details", [{"x": 1}, (1.0,)], ids=["dict", "tuple"])
def test_an_undeclared_kind_is_named_and_appends_nothing(details):
    kernel = Kernel()
    with pytest.raises(errors.InvariantViolation,
                       match=r"^thing: not a declared record kind$"):
        kernel.emit("thing", "s", details)
    assert len(kernel.trace) == 0


def test_a_tuple_of_another_length_or_for_a_key_set_that_varies_is_named():
    kernel = Kernel()
    with pytest.raises(errors.InvariantViolation,
                       match=r"^link_window: 2 values in row order, not 3$"):
        kernel.emit("link_window", "l", (1.0, 2.0, 3.0))
    with pytest.raises(errors.InvariantViolation, match=r"^scheduler_tick: fields "
                       r"may be absent, so details must be a dict$"):
        kernel.emit("scheduler_tick", "s", (False,))
    assert len(kernel.trace) == 0


def _valid_details(kind: str, **fields) -> dict:
    """Details of `kind` with every field, each valid for its type, and
    `fields` over them."""
    valid = {"number": 1.5, "str": "x", "bool": True, "number or null": None,
             "str or null": None, "any": None, "shared": {}}
    return {**{key: valid[ftype] for key, ftype, _ in _fields(kind)}, **fields}


@pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
def test_a_declared_kind_takes_exactly_its_keys(kind):
    """Every key that is always present, any of those that may be absent,
    and no other."""
    kernel = Kernel()
    details = _valid_details(kind)
    first = next(iter(details))
    without = {k: v for k, v in details.items() if k != first}
    with pytest.raises(errors.InvariantViolation,
                       match=rf"^{kind}: missing \['{first}'\], undeclared \[\]$"):
        kernel.emit(kind, "s", without)
    with pytest.raises(errors.InvariantViolation,
                       match=rf"^{kind}: missing \[\], undeclared \['extra'\]$"):
        kernel.emit(kind, "s", {**details, "extra": 1.5})
    assert len(kernel.trace) == 0
    assert kernel.emit(kind, "s", details).seq == 1
    for key, _, optional in _fields(kind):
        if optional:
            record = kernel.emit(kind, "s", {k: v for k, v in details.items()
                                             if k != key})
            assert key not in record.details
            assert f'"{key}"' not in record.to_json()


def test_each_order_of_keys_is_compiled_once_and_kept():
    layout = kernel_module._LAYOUTS["warning"]
    kernel = Kernel()
    first = kernel.emit("warning", "d", {"reason": "NoSink", "gateway": "g"})
    second = kernel.emit("warning", "e", {"reason": "NoSink", "gateway": "h"})
    third = kernel.emit("warning", "d", {"reason": "NoBoundApp", "to_gateway": "g"})
    assert first.writer is second.writer is not third.writer
    assert layout.compiled[("reason", "gateway")][1] is first.writer
    swapped = kernel.emit("warning", "d", {"gateway": "g", "reason": "NoSink"})
    assert list(swapped.details) == ["gateway", "reason"]
    assert swapped.writer is not first.writer
    assert swapped.details == first.details
    assert swapped.to_json() == first.to_json().replace('"seq":1', '"seq":4')
    assert third.to_json() == ('{"details":{"reason":"NoBoundApp","to_gateway":"g"},'
                               '"kind":"warning","seq":3,"subject":"d","time_ms":0}')


def test_shared_values_go_into_the_record_as_they_are():
    """Neither copied nor walked: each shared field holds the very object
    it was given."""
    kernel = Kernel()
    shared = {"n1": 0.333333333, "n2": {"cpu": 12.5}}
    maps = dict.fromkeys(_SHARED_FIELDS, shared)
    first = kernel.emit("metrics_window", "a",
                        _valid_details("metrics_window", uplink_ratio=1 / 3, **maps))
    second = kernel.emit("metrics_window", "b", _valid_details("metrics_window", **maps))
    assert first.details == _valid_details("metrics_window", uplink_ratio=0.333333333,
                                           **maps)
    assert all(record.details[key] is shared
               for record in (first, second) for key in _SHARED_FIELDS)
    assert Trace.from_jsonl(first.to_json()).records[0] == first


def test_a_missing_shared_field_is_named():
    details = _valid_details("metrics_window")
    del details["alloc"]
    kernel = Kernel()
    with pytest.raises(errors.InvariantViolation,
                       match=r"^metrics_window: missing \['alloc'\], undeclared \[\]$"):
        kernel.emit("metrics_window", "net", details)
    assert len(kernel.trace) == 0


_EXPECTED = {"number": "a finite number", "str": "a str", "bool": "a bool"}


@pytest.mark.parametrize("ftype", sorted(_BAD_VALUES))
def test_a_checked_field_takes_only_its_type(ftype):
    base, _, nullable = ftype.partition(" or ")
    expected = _EXPECTED[base] + (" or None" if nullable else "")
    fields = [(kind, key) for kind in sorted(RECORD_KINDS)
              for key, t, _ in _fields(kind) if t == ftype]
    assert fields
    for kind, key in fields:
        for bad in _BAD_VALUES[ftype]:
            with pytest.raises(errors.InvariantViolation,
                               match=rf"^{kind}: {key} must be {expected}, not "):
                Kernel().emit(kind, "s", {**_valid_details(kind), key: bad})
        if nullable:
            record = Kernel().emit(kind, "s", {**_valid_details(kind), key: None})
            assert record.details[key] is None and f'"{key}":null' in record.to_json()


@pytest.mark.parametrize("bad", [None, 1, b"x"], ids=["None", "int", "bytes"])
def test_the_subject_takes_only_a_str(bad):
    for kind in RECORD_KINDS:
        with pytest.raises(errors.InvariantViolation,
                           match=rf"^{kind}: subject must be a str, not "):
            Kernel().emit(kind, bad, _valid_details(kind))


def _record_kinds_reference() -> str:
    """The README's table of declared record kinds, made from RECORD_KINDS."""
    lines = ["| Kind | Detail fields |", "|---|---|"]
    for kind, fields in RECORD_KINDS.items():
        lines.append(f"| `{kind}` | "
                     + ", ".join(f"`{key}` {ftype}" for key, ftype in fields) + " |")
    return "\n".join(lines) + "\n"


def test_the_readme_lists_the_declared_record_kinds():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Trace record kinds\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert "\n".join(table) + "\n" == _record_kinds_reference()


def test_each_shared_value_is_encoded_once_per_call(monkeypatch):
    encoded = []
    encode = kernel_module._encode
    monkeypatch.setattr(kernel_module, "_encode",
                        lambda value: encoded.append(value) or encode(value))
    entry = {"cpu": 1.5, "mem": 2.0}
    alloc = {"n1": entry, "n2": {"cpu": 0.25}}
    util = {"n1": 0.5, "n2": 0.125}
    kernel = Kernel()
    for i in range(5):
        kernel.emit("metrics_window", "net", _valid_details(
            "metrics_window", window_start=i, alloc=alloc, utilization=util))
    # a later window replaces one entry of each map
    new_entry, new_share = {"cpu": 3.0, "mem": 2.0}, 0.75
    later_alloc, later_util = {**alloc, "n1": new_entry}, {**util, "n2": new_share}
    kernel.emit("metrics_window", "net", _valid_details(
        "metrics_window", alloc=later_alloc, utilization=later_util))

    def times(obj):
        return sum(value is obj for value in encoded)

    text = kernel.trace.to_jsonl()
    assert text == _reference_jsonl(kernel.trace)
    # no whole map is encoded, only its entries
    assert [times(m) for m in (util, alloc, later_util, later_alloc)] == [0] * 4
    # each entry once while its object is unchanged, the later window included
    assert [times(util["n1"]), times(util["n2"]),
            times(entry), times(alloc["n2"])] == [1, 1, 1, 1]
    # and the later window encodes the entries it replaced alone
    entries = [v for m in (alloc, util, later_alloc, later_util)
               for v in m.values()]
    written = [v for v in encoded if any(v is e for e in entries)]
    assert len(written) == 6 and written[4] is new_entry and written[5] is new_share
    encoded.clear()
    kernel.emit("metrics_window", "net", _valid_details(
        "metrics_window", alloc=alloc, utilization=util))
    assert kernel.trace.to_jsonl() == _reference_jsonl(kernel.trace)
    # a new call starts with no last map: every entry once more
    assert [times(util["n1"]), times(util["n2"]),
            times(entry), times(alloc["n2"])] == [1, 1, 1, 1]
    assert times(util) == times(alloc) == 0


def test_a_map_shared_across_calls_serialises_the_same():
    kernel = Kernel()
    shared = {"n1": {"cpu": 1.5}, "n2": 0.25}
    kernel.emit("metrics_window", "a",
                _valid_details("metrics_window", window_start=1, alloc=shared))
    first = kernel.trace.to_jsonl()
    record = kernel.emit("metrics_window", "b",
                         _valid_details("metrics_window", alloc=shared))
    text = kernel.trace.to_jsonl()
    assert text == first + record.to_json() + "\n" == _reference_jsonl(kernel.trace)
    part = Trace(kernel.trace.records[1:])
    assert part.records[0].details["alloc"] is shared
    assert part.to_jsonl() == text[len(first):]
    parsed = Trace.from_jsonl(text)
    assert all(r.writer is None for r in parsed) and parsed.to_jsonl() == text


@st.composite
def _records_sharing_dicts(draw):
    """metrics_window details whose shared fields are drawn from a pool of
    dicts that hold one another, so maps share entries and records share
    maps."""
    pool = draw(st.lists(st.dictionaries(_json_keys, _rounded_leaves, max_size=4),
                         min_size=1, max_size=3))
    for _ in range(2):  # maps of entries, then maps of maps
        pool += draw(st.lists(st.dictionaries(
            _json_keys, st.one_of(_rounded_leaves, st.sampled_from(pool)),
            max_size=5), min_size=1, max_size=3))
    types = {**_typed_values, "shared": st.sampled_from(pool)}
    return draw(st.lists(st.fixed_dictionaries(
        {key: types[ftype] for key, ftype, _ in _fields("metrics_window")}),
        min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(_records_sharing_dicts())
def test_records_sharing_nested_dicts_serialise_as_the_reference(records):
    kernel = Kernel()
    for details in records:
        kernel.emit("metrics_window", "s", details)
    text = kernel.trace.to_jsonl()
    assert text == _reference_jsonl(kernel.trace)
    assert Trace.from_jsonl(text).to_jsonl() == text


@st.composite
def _map_chains(draw):
    """Shared values for one slot, each derived from the one before by one
    edit: the same object again, an entry's value replaced by a new object
    (a copy, an equal value of another type, or any value), a key added, a
    key removed, a value that is no dict, or a map whose entries are maps
    and entries met before, so maps share inner dicts."""
    value = draw(st.dictionaries(_json_keys, _rounded_leaves, max_size=4))
    chain, seen = [value], [value]
    for _ in range(draw(st.integers(1, 10))):
        edit = draw(st.sampled_from(
            ["same", "replace", "add", "remove", "no dict", "nest"]))
        current = value if type(value) is dict else {}
        if edit == "same":
            pass
        elif edit == "replace" and current:
            key = draw(st.sampled_from(sorted(current)))
            old = current[key]
            equal = [copy.deepcopy(old)]
            if type(old) is float:
                equal.append(float(repr(old)))
            elif type(old) is bool:
                equal.append(int(old))  # equal, yet written otherwise
            elif type(old) is int and abs(old) < 2 ** 53:
                equal.append(float(old))
            value = {**current, key: draw(st.sampled_from(equal) | _rounded_leaves)}
        elif edit in ("replace", "add"):
            value = {**current, draw(_json_keys): draw(_rounded_leaves)}
        elif edit == "remove" and current:
            key = draw(st.sampled_from(sorted(current)))
            value = {k: v for k, v in current.items() if k != key}
        elif edit == "no dict":
            value = draw(_rounded_leaves | st.lists(_rounded_leaves, max_size=3))
        else:  # nest, or remove from an empty map
            value = draw(st.dictionaries(_json_keys, st.sampled_from(seen),
                                         max_size=4))
        chain.append(value)
        if type(value) is dict:
            seen += [value] + [v for v in value.values() if type(v) is dict]
    return chain


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_map_chains(), st.integers(0, 11))
def test_a_chain_of_maps_at_one_slot_writes_as_the_reference(chain, split):
    """Each map goes to `alloc`, and the one before it to `utilization`, so
    the slots see the same objects apart; the chain is written in one call,
    and again split over two calls, the second of which starts afresh."""
    whole, halves = Kernel(), Kernel()
    for i, value in enumerate(chain):
        details = _valid_details("metrics_window", window_start=i, alloc=value,
                                 utilization=chain[i - 1] if i else {})
        whole.emit("metrics_window", "net", details)
        halves.emit("metrics_window", "net", details)
        if i == split:
            assert halves.trace.to_jsonl() == _reference_jsonl(halves.trace)
    text = whole.trace.to_jsonl()
    assert text == _reference_jsonl(whole.trace) == halves.trace.to_jsonl()


def _value_span(line: str, key: str, value) -> tuple[int, int] | None:
    """Where the text of detail `key` with `value` lies in `line`."""
    head, text = kernel_module._encode(key) + ":", kernel_module._encode(value)
    at = line.find(head + text)
    return None if at < 0 else (at + len(head), at + len(head) + len(text))


@st.composite
def _mutated_lines(draw):
    """The lines of a trace whose records share maps, each line kept as it
    is or mutated: truncated, a character dropped, a character altered (in
    a map the record shares, or a bracket, quote, colon or comma), a `,` or
    `}` in a map the record shares replaced, whitespace inserted, a key
    duplicated, or text appended. Some records carry a chain
    of maps (see `_map_chains`), so that consecutive maps at a key often
    share their keys, and a mutation lands on a map read against the last
    one. Each record is emitted up to three times in a row, some of them as
    a hand-built record with only the scalar detail `window_start`, whose
    text often starts with the previous line's text for it without
    equalling it."""
    kernel = Kernel()
    records = draw(_records_sharing_dicts())
    if draw(st.booleans()):
        chain = draw(_map_chains())
        records += [_valid_details("metrics_window", alloc=value,
                                   utilization=chain[i - 1] if i else {})
                    for i, value in enumerate(chain)]
    for details in records:
        for _ in range(draw(st.integers(1, 3))):
            n = {"window_start": draw(st.sampled_from([1, 12, 120, 1.5]))}
            if draw(st.booleans()):
                kernel.emit("metrics_window", "s", {**details, **n})
            else:
                kernel.trace.append(TraceRecord(0, 0, "k", "s", n))
    lines = []
    for record, line in zip(kernel.trace, kernel.trace.to_jsonl().split("\n")):
        marks = [i for i, c in enumerate(line) if c in ',:{}[]"']
        how = draw(st.sampled_from(["keep", "truncate", "drop", "alter", "separator",
                                    "whitespace", "duplicate", "append"]))
        if how == "truncate":
            line = line[:draw(st.integers(0, len(line) - 1))]
        elif how == "drop":
            at = draw(st.integers(0, len(line) - 1))
            line = line[:at] + line[at + 1:]
        elif how == "alter":
            spans = [span for key in _SHARED_FIELDS if key in record.details
                     if (span := _value_span(line, key, record.details[key]))]
            if spans and draw(st.booleans()):
                start, stop = draw(st.sampled_from(spans))
                at = draw(st.integers(start, stop))  # stop: the character after
            else:
                at = draw(st.sampled_from(marks))
            line = line[:at] + draw(st.sampled_from('09-.e" ,:{}[]x')) + line[at + 1:]
        elif how == "separator":
            ends = [at for key in _SHARED_FIELDS if key in record.details
                    if (span := _value_span(line, key, record.details[key]))
                    for at in range(*span) if line[at] in ",}"]
            if ends:
                at = draw(st.sampled_from(ends))
                line = (line[:at] + draw(st.sampled_from(["}", ",", ",}", "}}", ""]))
                        + line[at + 1:])
        elif how == "whitespace":
            at = draw(st.sampled_from(marks)) + draw(st.integers(0, 1))
            line = line[:at] + draw(st.sampled_from(" \t\r")) + line[at:]
        elif how == "duplicate":
            key = draw(st.sampled_from(sorted(record.details) + ["details", "seq"]))
            text = draw(st.sampled_from(
                ['0', '1.5', '{"a":1}', "[1]", '"x"']
                + [kernel_module._encode(v) for v in record.details.values()]))
            if key in record.details and draw(st.booleans()):
                opening = len('{"details":{')
                line = (line[:opening] + kernel_module._encode(key) + ":" + text
                        + "," + line[opening:])
            elif draw(st.booleans()):
                line = line[:-1] + "," + kernel_module._encode(key) + ":" + text + "}"
            else:
                line = '{"details":' + text + "," + line[1:]
        elif how == "append":
            line += draw(st.sampled_from(["x", "}", " ", "," + line, line]))
        lines.append(line)
    return lines


def _exact(records) -> list[str]:
    """Records as text that tells 1, 1.0, True and -0.0 apart and keeps
    key order."""
    return [json.dumps([r.time_ms, r.seq, r.kind, r.subject, r.details])
            for r in records]


def _assert_parses_as_the_reference(text: str) -> list[TraceRecord]:
    try:
        expected = reference_from_jsonl(text)
    except errors.MalformedTrace as exc:
        with pytest.raises(errors.MalformedTrace) as raised:
            Trace.from_jsonl(text)
        assert str(raised.value) == str(exc)
        return []
    records = Trace.from_jsonl(text).records
    assert records == expected and _exact(records) == _exact(expected)
    return records


def _is_a_record(line: str) -> bool:
    try:
        return len(reference_from_jsonl(line)) == 1
    except errors.MalformedTrace:
        return False


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mutated_lines(), st.sampled_from([0, kernel_module._CHARS_PER_READ]))
def test_a_mutated_trace_parses_as_the_per_line_reference(lines, chars_per_read):
    """Every line that is a record, then each malformed line in turn, read
    after all the records, so after all the values it might reuse, and
    read after the records before it, so after the map it would be read
    against. With the read rule at 0, a key stops splicing only where a
    splice fails."""
    records = [line for line in lines if _is_a_record(line)]
    traces = [records]
    for i, line in enumerate(lines):
        if not _is_a_record(line):
            before = [earlier for earlier in lines[:i] if _is_a_record(earlier)]
            traces += [records + [line], before + [line]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "_CHARS_PER_READ", chars_per_read)
        for trace in traces:
            _assert_parses_as_the_reference("".join(line + "\n" for line in trace))


_FIELDS = ',"kind":"k","seq":2,"subject":"s","time_ms":0}'


@pytest.mark.parametrize("line", [
    '{"details":{"a":[1]}' + _FIELDS,                     # the value reused
    '{"details":{"a":[1],"a":[2]}' + _FIELDS,             # the last one wins
    '{"details":{"a":[1]},"details":{"b":2}' + _FIELDS,   # so here too
    '{"details":{"a" :[1]}' + _FIELDS,
    '{"details":{"a":[1] ,"b":2}' + _FIELDS,
    '{"details":{"a":[1]} ' + _FIELDS,
    '{"details":{"a":[1]}' + _FIELDS + " ",
    '{"details":{"a":[1]}' + _FIELDS + "\r",
    '{"details":{"n":12}' + _FIELDS,
    '{"details":{"n":1}' + _FIELDS + " ",
    '{"details":{},"kind":"k","seq":2,"subject":"[","time_ms":0}',
    '{"details":{"a":[1]x"b":2}' + _FIELDS,
    '{"details":{"a"x[1]}' + _FIELDS,
    '{"details":{"a":[1]}x' + _FIELDS[1:],
    '{"details":{"a":[1],}' + _FIELDS,
    '{"details":{"a":[1]}' + _FIELDS + "x",
    '{"details":{"n":1}' + _FIELDS + "x",
    '{"details":{"m":{"x":1}}' + _FIELDS + "\t",       # the tail's scan ends early
    '{"details":{"m":{"x":1}}' + _FIELDS + "}",
    '{"details":{"a":[1]}' + _FIELDS[:-1] + " }",        # whitespace it reads
    '{"details":{"a":[1]}' + _FIELDS[:-1] + ',"details":{"b":2}}',
    '{"details":{"a":[1]}}',
    '{"details":{"a":[1]},"kind":"k","seq":2,"subject":"s"}',
    '[{"details":{"a":[1]}}]',
])
def test_a_line_off_the_writers_form_parses_as_the_per_line_reference(line):
    """After a line that has parsed `a` as [1] and `n` as 1."""
    _assert_parses_as_the_reference(
        '{"details":{"a":[1],"n":1},"kind":"k","seq":1,"subject":"s","time_ms":0}\n'
        + line + "\n")


def test_lines_that_balance_each_other_are_still_each_malformed():
    """Joined into one array, these three lines would parse as three
    records: the string opened on line 2 swallows the join. Line 1 holds two
    records, which no reader of one record per line accepts."""
    first, second = (TraceRecord(0, seq, "k", "s", {"a": seq}).to_json()
                     for seq in (1, 2))
    text = (f"{first},{second}\n" + '{"details":{"a":"\n'
            + '"},"kind":"k","seq":3,"subject":"s","time_ms":0}\n')
    with pytest.raises(errors.MalformedTrace, match="^line 1: Extra data"):
        Trace.from_jsonl(text)
    _assert_parses_as_the_reference(text)


def test_a_repeated_detail_text_is_parsed_once_and_shared():
    alloc = {"n1": {"cpu": 1.5}, "n2": {"cpu": 0.0}}
    kernel = Kernel()

    def window(start, alloc, utilization):
        kernel.emit("metrics_window", "net", _valid_details(
            "metrics_window", window_start=start, alloc=alloc,
            utilization=utilization))

    window(1, alloc, {"n1": 1})
    kernel.trace.append(TraceRecord(0, 0, "tick", "net", {"window_start": 2}))
    window(1, alloc, {"n1": 1})
    window(12, {"n1": 1}, {"n1": 12})
    records = _assert_parses_as_the_reference(kernel.trace.to_jsonl())
    first, _, third, fourth = (r.details for r in records)
    assert third["alloc"] is first["alloc"]
    assert third["utilization"] is first["utilization"]
    assert fourth["alloc"] == {"n1": 1} and fourth["utilization"] == {"n1": 12}
    assert fourth["window_start"] == 12
    assert all(r.writer is None for r in records)


# --- maps read against the last map at their key ----------------------------

def _assert_maps_share_as_the_rule_says(text: str, records, chars_per_read: int):
    """Each entry of a parsed map is the object of the map before it at its
    key exactly where reference_shared_entries says."""
    expected = reference_shared_entries(text, chars_per_read)
    assert [records[b].details[key][k] is records[a].details[key][k]
            for a, b, key, k, _ in expected] == [shared for *_, shared in expected]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_map_chains(), st.integers(0, 11),
       st.sampled_from([0, kernel_module._CHARS_PER_READ]))
def test_a_chain_of_maps_at_one_key_parses_as_the_reference(chain, split,
                                                           chars_per_read):
    """Each map goes to `alloc`, and the one before it to `utilization`, one
    record a line. The trace is parsed whole, and again split after line
    `split` over two calls, the second of which starts afresh. With the read
    rule at 0, a key stops splicing only where a splice fails."""
    kernel = Kernel()
    for i, value in enumerate(chain):
        kernel.emit("metrics_window", "net", _valid_details(
            "metrics_window", window_start=i, alloc=value,
            utilization=chain[i - 1] if i else {}))
    lines = [line + "\n" for line in kernel.trace.to_jsonl().split("\n")[:-1]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "_CHARS_PER_READ", chars_per_read)
        for part in ("".join(lines), "".join(lines[:split + 1]),
                     "".join(lines[split + 1:])):
            records = _assert_parses_as_the_reference(part)
            _assert_maps_share_as_the_rule_says(part, records, chars_per_read)


@pytest.mark.parametrize("maps, shared", [
    (['{"a":[1],"b":[2],"c":[3]}', '{"a":[9],"b":[2],"c":[3]}'], "bc"),
    (['{"a":[1],"b":[2],"c":[3]}', '{"a":[1],"b":[2],"c":[9]}'], "ab"),
    (['{"a":[1],"b":[2],"c":[3]}', '{"a":[7],"b":[8],"c":[9]}'], ""),
    (['{"a":[1],"b":1,"c":[3]}', '{"a":[1],"b":12,"c":[3]}'], "ac"),
    (['{"a":[1],"b":12,"c":[3]}', '{"a":[1],"b":1,"c":[3]}'], "ac"),
    (['{"a":[1],"b":[2],"c":[3]}', '{"a":[1],"b":[2],"c":1}',
      '{"a":[1],"b":[2],"c":12}'], "ab"),
    (['{"a":"x","b":[2]}', r'{"a":"},\"b\":[2]}","b":[2]}'], "b"),
    (['{"a":"x","b":[2]}', r'{"a":"\",\"","b":[2]}'], "b"),
    ([r'{"a":"},\"b\":[2]}","b":[2]}', '{"a":"x","b":[2]}'], "b"),
    (['{"a":[1],"c":[3]}', '{"a":[1],"b":[2],"c":[3]}'], ""),       # added
    (['{"a":[1]}', '{"a":[1],"b":[2]}'], ""),
    (['{"a":[1],"b":[2],"c":[3]}', '{"a":[1],"c":[3]}'], ""),       # removed
    (['{"a":[1],"b":[2]}', '{"a":[1]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[1],"x":[2]}'], ""),               # renamed
    (['{"a":[1],"b":[2]}', '{"b":[2],"a":[1]}'], ""),               # moved
    (['[1]', '{"a":[1]}'], ""),                                     # no dict
    (['1', '{"a":[1],"b":[2]}', '{"a":[9],"b":[2]}'], "b"),
    (['{}', '{"a":[1]}'], ""),
    (['{"a":[1],"a":[2],"b":[3]}', '{"a":[2],"b":[4]}'], ""),       # duplicates
    (['{"a":[1],"a":[2]}', '{"a":[5],"a":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[1],"a":[5],"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[1],"b":[2],"b":[3]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[9],"a":[1],"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[1], "b":[2]}'], ""),              # whitespace
    (['{"a":[1],"b":[2]}', '{"a": [9],"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[9] ,"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{ "a":[1],"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[1],"b":[2] }'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[1, 9],"b":[2]}'], "b"),
    (['{"a": [1],"b":[2]}', '{"a":[1],"b":[9]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[9],"b":[2],}'], ""),              # malformed
    (['{"a":[1],"b":[2]}', '{"a":[9]}"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[9],,"b":[2]}'], ""),
    (['{"a":[1],"b":[2]}', '{"a":[9],"b":[2]'], ""),
], ids=["first", "last", "every", "grows", "shrinks", "grows-last",
        "string-brace", "string-comma", "string-was-brace", "added", "added-last",
        "removed", "removed-last", "renamed", "moved", "list-before", "int-before",
        "empty-before", "duplicate-before", "duplicate-both", "duplicate",
        "duplicate-last",
        "duplicate-first", "space-before-key", "space-before-value",
        "space-before-comma", "space-after-brace", "space-before-brace",
        "space-in-a-value", "space-in-the-last", "trailing-comma",
        "brace-for-comma", "double-comma", "unclosed"])
def test_a_map_read_against_the_last_at_its_key_parses_as_the_reference(
        maps, shared, monkeypatch):
    """The maps at key `m`, one a line, with the read rule at 0; `shared`
    names the entries of the last map that are the map before's objects."""
    monkeypatch.setattr(kernel_module, "_CHARS_PER_READ", 0)
    text = "".join('{"details":{"m":%s,"n":%d},"kind":"k","seq":%d,'
                   '"subject":"s","time_ms":0}\n' % (m, i, i)
                   for i, m in enumerate(maps))
    records = _assert_parses_as_the_reference(text)
    if records:
        prev, last = (r.details["m"] for r in records[-2:])
        assert "".join(k for k, v in last.items()
                       if isinstance(prev, dict) and v is prev.get(k)) == shared


def test_a_key_splices_while_each_splice_reads_few_entries_for_its_text():
    """A map of 14-character entries, long enough for two reads under the
    read rule and too short for three: splices that read one and two
    entries keep the key splicing, one that reads three stops it, so the
    next map is read whole, until a value that is no map starts the key
    afresh."""
    per_read = kernel_module._CHARS_PER_READ
    base = {f"n{i:02d}": [i, 0.5] for i in range(2 * per_read // 14 + 1)}
    assert 2 * per_read <= len(kernel_module._encode(base)) < 3 * per_read

    def changed(mark, count, first=None):  # the last `count` entries marked
        return {**base, **{k: [first, mark] for k in list(base)[-count:]},
                **({} if first is None else {"n00": [first]})}

    values = [base, changed(0.25, 1), changed(0.75, 2), changed(0.125, 3),
              changed(0.125, 3, first=0), [7], base, changed(0.25, 1)]
    text = "".join(TraceRecord(0, seq, "k", "s", {"m": value}).to_json() + "\n"
                   for seq, value in enumerate(values))
    records = _assert_parses_as_the_reference(text)
    maps = [r.details["m"] for r in records]
    shared = [sum(v is prev[k] for k, v in new.items())
              if type(prev) is dict and type(new) is dict else None
              for prev, new in zip(maps, maps[1:])]
    size = len(base)
    assert shared == [size - 1, size - 2, size - 3, 0, None, None, size - 1]
    _assert_maps_share_as_the_rule_says(text, records, per_read)
