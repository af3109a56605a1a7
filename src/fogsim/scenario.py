"""Declarative scenario files: loading, validation, and construction of the
domain objects a run needs.

A scenario is one YAML document (schema_version 1) bundling the topology, the
application/device/firmware catalog, orchestrator thresholds, an ordered event
script, and fault injections. Everything a run does is stated here up front.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import yaml
from yaml.events import (MappingEndEvent, MappingStartEvent, SequenceEndEvent,
                         SequenceStartEvent, StreamEndEvent)
from yaml.nodes import ScalarNode

from . import errors
from .catalog import (KIND_TIERS, AppKind, AppSpec, Catalog, DeviceProfile,
                      FirmwareEntry, parse_version)
from .kernel import EventKind, FaultKind
from .scheduler import Thresholds
from .topology import ResourceVector, Tier, Topology

SCHEMA_VERSION = 1

# script type -> the event kind it schedules
SCRIPT_EVENTS: dict[str, EventKind] = {
    "attach": EventKind.ATTACH,
    "detach": EventKind.DETACH,
    "roam": EventKind.ROAM,
    "place": EventKind.PLACE,
    "scale": EventKind.SCALE,
    "workload": EventKind.WORKLOAD_CHANGE,
    "flow_advance": EventKind.FLOW_ADVANCE,
}

REQUIRED = "required"  # the default of a field that must be given

# Scenario fields: section -> field -> (type, default, bound), the bound left
# out where there is none (see _TYPES and _BOUNDS). A script entry has the
# fields of "script" and of the section its type names, and a fault entry
# those of "fault" and of the section its kind names (see _DISPATCH). An
# absent or null field takes its default, which is already of its type. A
# reference type (see _REFERENCES) takes the name of an entry declared
# before it, so the sections that declare names come before those that use
# them.
SCENARIO_FIELDS: dict[str, dict[str, tuple]] = {
    "scenario": {
        "schema_version": ("integer", REQUIRED), "name": ("str", "unnamed"),
        "duration_ms": ("integer", REQUIRED, "> 0"),
        "seed": ("integer", 0),  # a label recorded in the trace; nothing is random
        "scheduler_tick_ms": ("integer", 1000, "> 0"),
        "buffer_mb": ("number", 10.0, ">= 0"),
        "thresholds": ("mapping of thresholds", {}),
        "topology": ("mapping of topology", {}),
        "apps": ("list of app", []), "devices": ("list of device", []),
        "firmware": ("list of firmware", []), "script": ("list of script", []),
        "faults": ("list of fault", [])},
    "thresholds": {"high": ("number", Thresholds.high_watermark),
                   "low": ("number", Thresholds.low_watermark)},
    "topology": {"nodes": ("list of node", []), "links": ("list of link", [])},
    # below the 9-place precision of vectors and the trace, a capacity may round to 0
    "node": {"id": ("str", REQUIRED), "tier": ("tier", REQUIRED),
             "cpu": ("number", REQUIRED, ">= 1e-9"),
             "mem": ("number", REQUIRED, ">= 1e-9"),
             "storage": ("number", REQUIRED, ">= 1e-9")},
    "link": {"a": ("node", REQUIRED), "b": ("node", REQUIRED),
             "latency_ms": ("number", REQUIRED, ">= 0"),
             "bandwidth_mbps": ("number", REQUIRED, "> 0"),
             "id": ("str", None)},  # None: named a--b, as the topology names it
    "app": {"id": ("str", REQUIRED, "non-empty"), "kind": ("app kind", REQUIRED),
            "cpu": ("number", 0.0, ">= 0"), "mem": ("number", 0.0, ">= 0"),
            "storage": ("number", 0.0, ">= 0"),
            "latency_requirement_ms": ("number", None),  # None: no requirement
            "aggregation_factor": ("number", 1.0, ">= 1"),
            "state_size_mb": ("number", 0.0, ">= 0"),
            "allowed_tiers": ("tier list", [])},  # []: every tier its kind may use
    "device": {"model": ("str", REQUIRED, "non-empty"), "os_version": ("str", REQUIRED),
               "protocol": ("str", "other"),
               "data_rate_kbps": ("number", REQUIRED, "> 0"),
               "iot_app": ("iot app", REQUIRED)},
    "firmware": {"model": ("str", REQUIRED, "non-empty"),
                 "os_version": ("str", REQUIRED, "non-empty"),
                 "version": ("str", REQUIRED, "a dotted version")},
    "script": {"type": ("script type", REQUIRED),
               "time": ("integer", REQUIRED, ">= 0")},
    "attach": {"device": ("str", REQUIRED), "gateway": ("gateway", REQUIRED),
               "model": ("model", REQUIRED),
               "os_version": ("str", ""),  # "": the model's
               "preferences": ("mapping", None)},
    "detach": {"device": ("str", REQUIRED), "gateway": ("node", REQUIRED)},
    "roam": {"device": ("str", REQUIRED), "to_gateway": ("gateway", REQUIRED)},
    "place": {"app": ("data app", REQUIRED), "source": ("node", REQUIRED),
              "replicas": ("integer", 1, ">= 1")},
    # a replica count below 1 is a scale_warning at run time
    "scale": {"app": ("app", REQUIRED), "replicas": ("integer", REQUIRED),
              "host": ("str", None)},  # None: the first running instance's
    "workload": {"device": ("str", REQUIRED),
                 "data_rate_kbps": ("number", REQUIRED, "> 0")},
    "flow_advance": {},
    "fault": {"kind": ("fault kind", REQUIRED),
              "start": ("integer", REQUIRED, ">= 0"),
              "duration_ms": ("integer", REQUIRED, "> 0")},
    "LinkDown": {"target": ("link", REQUIRED)},
    "NodeDown": {"target": ("node", REQUIRED)},
    "CloudPartition": {"target": ("cloud", REQUIRED)},
}

# The loader that reads a document outside the line form, whose Resolver
# and SafeConstructor (those of yaml.safe_load) also type the line reader's
# tokens: libyaml's C parser, or PyYAML's pure-Python parser where PyYAML was
# built without libyaml.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass
class Scenario:
    """A checked scenario: its fields, and each entry's, are those
    SCENARIO_FIELDS declares, each converted to its type or at its default."""

    name: str
    duration_ms: int
    seed: int
    scheduler_tick_ms: int
    buffer_mb: float
    thresholds: Thresholds
    nodes: list[dict]
    links: list[dict]
    apps: list[dict]
    devices: list[dict]
    firmware: list[dict]
    script: list[dict]
    faults: list[dict]

    # -- construction of run-time objects -------------------------------------

    def build_topology(self) -> Topology:
        topo = Topology()
        for n in self.nodes:
            topo.add_node(n["id"], Tier(n["tier"]), n["cpu"], n["mem"], n["storage"])
        for l in self.links:
            topo.add_link(l["a"], l["b"], l["latency_ms"], l["bandwidth_mbps"], l["id"])
        return topo

    def build_catalog(self) -> Catalog:
        catalog = Catalog()
        for a in self.apps:
            catalog.register_app(AppSpec(
                a["id"], AppKind(a["kind"]),
                ResourceVector(a["cpu"], a["mem"], a["storage"]),
                a["latency_requirement_ms"], a["aggregation_factor"],
                a["state_size_mb"], frozenset(map(Tier, a["allowed_tiers"]))))
        for d in self.devices:
            catalog.register_profile(DeviceProfile(
                d["model"], d["os_version"], d["protocol"], d["data_rate_kbps"],
                d["iot_app"]))
        for f in self.firmware:
            catalog.register_firmware(FirmwareEntry(
                f["model"], f["os_version"], f["version"]))
        return catalog


_MAX_FLOAT = sys.float_info.max
_TIERS = tuple(tier.value for tier in Tier)
_CHOICES = {"tier": _TIERS, "app kind": tuple(kind.value for kind in AppKind),
          "fault kind": tuple(kind.value for kind in FaultKind),
          "script type": tuple(SCRIPT_EVENTS)}
# field type -> the test its value must pass, what the value must be, and
# what makes the field's value of it, where that is not the value itself
_TYPES = {
    "integer": (lambda v: type(v) is not bool and isinstance(v, int)
                or isinstance(v, float) and v.is_integer(), "an integer", int),
    # NaN compares false, and an int beyond the float range overflows float()
    "number": (lambda v: type(v) is not bool and isinstance(v, (int, float))
               and -_MAX_FLOAT <= v <= _MAX_FLOAT, "a finite number", float),
    "str": (lambda v: isinstance(v, str), "a string", None),
    "mapping": (lambda v: isinstance(v, dict), "a mapping", None),
    "tier list": (lambda v: isinstance(v, list) and all(map(_TIERS.__contains__, v)),
                  f"a list of {', '.join(_TIERS)}", None),
    **{ftype: (names.__contains__, f"one of {', '.join(names)}", None)
       for ftype, names in _CHOICES.items()},
}
# reference type -> the kind of entry it names, and the field and value
# narrowing that kind, where they do
_REFERENCES = {"node": ("node", None, None), "link": ("link", None, None),
               "app": ("app", None, None), "model": ("model", None, None),
               "gateway": ("node", "tier", "Gateway"),
               "cloud": ("node", "tier", "CentralCloud"),
               "iot app": ("app", "kind", "IoTApp"),
               "data app": ("app", "kind", "DataApp")}


def _is_version(value: str) -> bool:
    """Whether catalog.parse_version, which FirmwareEntry calls, takes `value`."""
    try:
        parse_version(value)
    except errors.ValidationError:
        return False
    return True


_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
           ">= 1e-9": lambda v: v >= 1e-9, "non-empty": bool,
           "a dotted version": _is_version}
# section -> the kind of name its entries declare, and an entry's name; a
# link without an id is named a--b, as the topology names it
_DECLARES = {"node": ("node", itemgetter("id")), "app": ("app", itemgetter("id")),
             "link": ("link", lambda l: l["id"] if l["id"] is not None
                      else f"{l['a']}--{l['b']}"),
             "device": ("model", itemgetter("model")),
             "firmware": ("firmware", itemgetter("model", "os_version", "version"))}
# section -> the field naming the section that holds the rest of its fields
_DISPATCH = {"script": "type", "fault": "kind"}


def _row(fields: dict[str, tuple]) -> list[tuple]:
    """A section's fields as _walk reads them: each field's key, default,
    the section of a "mapping of" or "list of" type and whether it is a
    list, its type's test, expected and maker, its reference type's kind,
    narrowing field and value, and its bound with that bound's test."""
    row = []
    for key, (ftype, default, *bound) in fields.items():
        of, _, inner = ftype.partition(" of ")
        reference = _REFERENCES.get(ftype, (None,) * 3)
        checks = (None,) * 3 if inner else _TYPES["str" if reference[0] else ftype]
        bound = bound[0] if bound else None
        row.append((key, default, inner, of == "list", *checks, *reference,
                    bound, None if bound is None else _BOUNDS[bound]))
    return row


_ROWS = {section: _row(fields) for section, fields in SCENARIO_FIELDS.items()}


def _walk(section: str, raw, ctx: str, known: dict[str, dict],
          entry: dict | None = None) -> dict:
    """The entry `raw` of `section`, named `ctx`, with each field of the
    section checked and made of its type, an absent or null optional field
    at its default, and each bound kept, added to `entry` or a new dict.
    `known` maps each kind to the names, and their entries, walked so far;
    this entry's joins them once. A "mapping of S" or "list of S" field holds
    a mapping, or a list of mappings, each walked as an entry of section S."""
    if not isinstance(raw, dict):
        raise errors.ParseError(f"{ctx} must be a mapping, got {raw!r}")
    entry = {} if entry is None else entry
    for key, default, inner, is_list, test, expected, make, kind, narrow, want, \
            bound, within in _ROWS[section]:
        value = raw.get(key)
        if value is None and default is not REQUIRED:
            if not inner:
                entry[key] = default
                continue
            value = default
        elif value is None and key not in raw:
            raise errors.ParseError(f"{ctx}: missing required field {key!r}")
        if not inner:
            if not test(value):
                raise errors.ParseError(f"{ctx}: {key} must be {expected}, got {value!r}")
            if make is not None:
                value = make(value)
            if kind is not None:
                named = known[kind].get(value)
                if named is None:
                    raise errors.UnknownReference(f"{ctx}: unknown {kind} {value}")
                if narrow is not None and named[narrow] != want:
                    raise errors.InvariantViolation(
                        f"{ctx}: {key} {value} is not of {narrow} {want}")
        elif not is_list:
            value = _walk(inner, value, key, known)
        elif isinstance(value, list):
            value = [_walk(inner, item, f"{key}[{i}]", known)
                     for i, item in enumerate(value)]
        else:
            raise errors.ParseError(f"{ctx}: {key} must be a list, got {value!r}")
        if within is not None and not within(value):
            raise errors.InvariantViolation(f"{ctx}: {key} must be {bound}")
        entry[key] = value
    if section in _DISPATCH:
        _walk(entry[_DISPATCH[section]], raw, ctx, known, entry)
    elif section in _DECLARES:
        kind, name_of = _DECLARES[section]
        name = name_of(entry)
        if name in known[kind]:
            raise errors.InvariantViolation(f"{ctx}: duplicate {kind} {name}")
        known[kind][name] = entry
    return entry


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw scenario mapping and return a fully checked Scenario."""
    if not isinstance(raw, dict):
        raise errors.ParseError("scenario must be a mapping")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise errors.ParseError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    fields = _walk("scenario", raw, "scenario", {k: {} for k, _ in _DECLARES.values()})
    del fields["schema_version"]
    thresholds = fields.pop("thresholds")
    scenario = Scenario(**fields.pop("topology"), **fields, thresholds=Thresholds(
        thresholds["high"], thresholds["low"]))
    _validate(scenario)
    return scenario


class _Unusual(Exception):
    """The document is outside the line form (see _read_lines)."""


# how deep mappings and sequences may nest: scenarios nest about 4 deep, and
# PyYAML's composer recurses once per level, into a crash under libyaml
_MAX_DEPTH = 100
_TOO_DEEP = f"nesting deeper than {_MAX_DEPTH} levels"
_OPENINGS, _CLOSINGS = (MappingStartEvent, SequenceStartEvent), \
    (MappingEndEvent, SequenceEndEvent)
# the line form's longest line: PyYAML reads no key longer than this
_MAX_LINE = 1024
_PLAIN_TOKEN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*|~")
# a plain decimal; 00 and 017 are octal to the resolver, and left to it
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_QUOTED_TOKEN = re.compile(r"'[A-Za-z0-9_. -]*'|\"[A-Za-z0-9_. -]*\"")


def _load_yaml(text: str):
    """The document in `text`, as yaml.load(text, Loader=_LOADER) loads it:
    the same objects, types, key order and errors.

    A document in the line form is read by _read_lines, without the
    parser. Any other is parsed twice: once by _check_depth, since
    yaml.load composes recursively and would crash on deep nesting, and
    then by yaml.load. Nesting past _MAX_DEPTH is a MarkedYAMLError."""
    try:
        return _read_lines(text)
    except _Unusual:
        _check_depth(text)
        return yaml.load(text, Loader=_LOADER)


class _Tokens(dict):
    """Token -> the scalar it loads to: a plain token typed by `loader` as
    a plain scalar, a quoted one the str between its quotes. Each distinct
    token is checked and typed once; a plain token its tag cannot
    construct, or any other text, is _Unusual.

    Two kinds of plain token are typed without the resolver, as it would
    type them. A decimal is an int: of the resolver's patterns that a digit
    starts, only int's takes one with no `.`, `-` or `:`. A word whose first
    character has no implicit resolver in the loader's table is a str,
    unless the table has a wildcard or the loader has path resolvers."""

    def __init__(self, loader):
        super().__init__()
        self.loader = loader
        self.implicit = loader.yaml_implicit_resolvers  # first character -> resolvers
        self.resolve_every_word = None in self.implicit or bool(loader.yaml_path_resolvers)

    def __missing__(self, token: str):
        if _DECIMAL.fullmatch(token):
            value = int(token)  # at most _MAX_LINE digits, within int()'s limit
        elif _PLAIN_TOKEN.fullmatch(token):
            value = token
            if self.resolve_every_word or token[0] in self.implicit:
                loader = self.loader
                tag = loader.resolve(ScalarNode, token, (True, False))
                if tag != loader.DEFAULT_SCALAR_TAG:
                    try:
                        value = loader.construct_object(ScalarNode(tag, token), deep=True)
                    except Exception:  # yaml.load raises the constructor's own error
                        raise _Unusual from None
        elif _QUOTED_TOKEN.fullmatch(token):
            value = token[1:-1]
        else:
            raise _Unusual
        self[token] = value
        return value


def _read_lines(text: str) -> dict:
    """The document in `text` if it is in the line form, else _Unusual.

    Each line of the form is blank, a full-line comment, `KEY:` opening a
    deeper block mapping or a block sequence at the same or deeper
    indentation, `KEY: VALUE` with VALUE a token, a flow mapping or `[]`,
    or `- ` and a flow mapping. A flow mapping is `{}` or `{PAIRS}`, PAIRS
    being `TOKEN: TOKEN` joined by `, `, and may break after a `,` to go on
    at a deeper line. A token is plain, `[A-Za-z0-9_][A-Za-z0-9_.-]*` or
    `~`, or a single- or double-quoted run of `[A-Za-z0-9_. -]`: it has no
    escape, no indicator and no `: ` or `, `, so each is the one scalar it
    spells. The document is a non-empty mapping of printable ASCII,
    indented with spaces, with no trailing space, line over _MAX_LINE,
    document marker, directive, anchor, alias, tag or trailing comment.
    Its block collections nest less than _MAX_DEPTH deep, so that none of
    its collections nests deeper than _MAX_DEPTH."""
    if not (text.isascii() and text.replace("\n", "").isprintable()) \
            or " \n" in text or text.endswith(" "):
        raise _Unusual
    loader = _LOADER("")
    try:
        return _read_line_form(iter(text.split("\n")), _Tokens(loader))
    finally:
        loader.dispose()


def _read_line_form(lines, tokens: _Tokens) -> dict:
    """The line-form document of the iterator `lines`, typed by `tokens`."""
    root = None
    stack = []  # (indent, collection) of each open block collection, innermost last
    opened = None  # (indent, mapping, key) of a `KEY:` line, whose block is next

    def flow_mapping(text: str, indent: int) -> dict:
        """The flow mapping opening `text`, of a line `indent` deep."""
        while text[-1] == ",":  # it goes on at the next line
            line = next(lines, "")
            body = line.lstrip(" ")
            if not body or len(line) - len(body) <= indent or len(line) > _MAX_LINE:
                raise _Unusual
            text += " " + body
        if text[-1] != "}":
            raise _Unusual
        mapping = {}
        if len(text) > 2:
            for pair in text[1:-1].split(", "):
                key, _, value = pair.partition(": ")
                mapping[tokens[key]] = tokens[value]
        return mapping

    for line in lines:
        body = line.lstrip(" ")
        if not body or body[0] == "#":
            continue
        if len(line) > _MAX_LINE:
            raise _Unusual
        indent = len(line) - len(body)
        item = body[:2] == "- "
        if opened is not None:
            parent_indent, mapping, key = opened
            opened = None
            # a block collection's own collections are one level deeper
            if indent < parent_indent or indent == parent_indent and not item \
                    or len(stack) + 1 >= _MAX_DEPTH:
                raise _Unusual
            mapping[key] = collection = [] if item else {}
            stack.append((indent, collection))
        else:
            while stack and stack[-1][0] > indent:
                stack.pop()
            if root is None:
                root = {}
                stack.append((indent, root))
            elif not item and stack and stack[-1][0] == indent \
                    and type(stack[-1][1]) is list:
                stack.pop()  # a sequence as deep as its key ends at the next key
            if not stack or stack[-1][0] != indent or (type(stack[-1][1]) is list) != item:
                raise _Unusual
            collection = stack[-1][1]
        if item:
            if body[2] != "{":
                raise _Unusual
            collection.append(flow_mapping(body[2:], indent))
            continue
        key, colon, value = body.partition(": ")
        if not colon:
            if body[-1] != ":":
                raise _Unusual
            opened = indent, collection, tokens[body[:-1]]
        elif value[0] == "{":
            collection[tokens[key]] = flow_mapping(value, indent)
        else:
            collection[tokens[key]] = [] if value == "[]" else tokens[value]
    if root is None or opened is not None:  # no mapping, or a `KEY:` with no block
        raise _Unusual
    return root


def _check_depth(text: str) -> None:
    """Parse `text` and raise where its collections nest deeper than
    _MAX_DEPTH; stop quietly at a parser error, which yaml.load then
    raises."""
    loader = _LOADER(text)
    try:
        depth, event = 0, None
        while type(event) is not StreamEndEvent:
            try:
                event = loader.get_event()
            except yaml.YAMLError:
                return
            depth += (type(event) in _OPENINGS) - (type(event) in _CLOSINGS)
            if depth > _MAX_DEPTH:
                raise yaml.MarkedYAMLError(problem=_TOO_DEEP,
                                           problem_mark=event.start_mark)
    finally:
        loader.dispose()


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.ParseError(f"cannot read scenario {path}: {exc}") from None
    try:
        raw = _load_yaml(text)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar its tag cannot construct, e.g. 2001-02-30
        raise errors.ParseError(f"{path}: {exc}") from None
    return scenario_from_dict(raw)


def _check_per_ms(scenario: Scenario, run_ms: int, length: str,
                  error: type[errors.FogSimError]) -> None:
    """Reject a device or workload rate or a link bandwidth whose product with
    the run's length `run_ms`, named `length`, is not finite: a window's
    generated_mb and link capacity are that product over the window, and no
    window of a run is longer than the run."""
    per_ms = [(f"{section}[{i}]: {key}", entry[key]) for section, key in (
        ("devices", "data_rate_kbps"), ("links", "bandwidth_mbps"),
        ("script", "data_rate_kbps"))  # only a workload entry has a rate
        for i, entry in enumerate(getattr(scenario, section)) if key in entry]
    for context, value in per_ms:
        try:
            finite = math.isfinite(value * run_ms)
        except OverflowError:  # a length too large for a float
            finite = False
        if not finite:
            raise error(f"{context} {value!r} times {length} {run_ms} is not finite")


def validate_until(scenario: Scenario, until: int) -> None:
    """Raise ValidationError unless a run of `scenario` may stop at `until` ms: until
    is >= 0 and a float, and a longer run keeps _check_per_ms's products finite."""
    if until < 0:
        raise errors.ValidationError(f"until must be >= 0, not {until}")
    try:
        float(until)
    except OverflowError:
        raise errors.ValidationError(
            f"until has {len(str(until))} digits, too many for a float") from None
    if until > scenario.duration_ms:  # else _validate checked the products
        _check_per_ms(scenario, until, "until", errors.ValidationError)


def _validate(scenario: Scenario) -> None:
    """The checks that span fields or depend on the run's length: script times,
    a link's two ends, an app's tiers against its kind, and _check_per_ms."""
    duration = scenario.duration_ms
    for i, entry in enumerate(scenario.script):
        if entry["time"] > duration:
            raise errors.InvariantViolation(
                f"script[{i}]: time {entry['time']} exceeds duration {duration}")
    for i, link in enumerate(scenario.links):
        if link["a"] == link["b"]:
            raise errors.InvariantViolation(f"links[{i}]: a self-loop at {link['a']}")
    for i, app in enumerate(scenario.apps):
        tiers = KIND_TIERS[AppKind(app["kind"])]
        if not tiers.issuperset(map(Tier, app["allowed_tiers"])):
            raise errors.InvariantViolation(
                f"apps[{i}]: {app['kind']} apps run only on "
                f"{', '.join(sorted(tier.value for tier in tiers))}")
    _check_per_ms(scenario, duration, "duration_ms", errors.InvariantViolation)
