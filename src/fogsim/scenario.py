"""Declarative scenario files: loading, validation, and construction of the
domain objects a run needs.

A scenario is one YAML document (schema_version 1) bundling the topology, the
application/device/firmware catalog, orchestrator thresholds, an ordered event
script, and fault injections. Everything a run does is stated here up front.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml
from yaml.events import (DocumentEndEvent, MappingEndEvent, MappingStartEvent,
                         ScalarEvent, SequenceEndEvent, SequenceStartEvent,
                         StreamEndEvent)
from yaml.nodes import ScalarNode

from . import errors
from .catalog import AppKind, AppSpec, Catalog, DeviceProfile, FirmwareEntry
from .kernel import EventKind, Fault, FaultKind
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
# fields of "script" and of the section its type names. An absent or null
# field takes its default, which is already of its type. A reference type
# ("node", "gateway", "app", "model") takes the name of one declared before
# it, so the sections that declare names come before those that use them.
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
    "node": {"id": ("str", REQUIRED), "tier": ("tier", REQUIRED),
             "cpu": ("number", REQUIRED), "mem": ("number", REQUIRED),
             "storage": ("number", REQUIRED)},
    "link": {"a": ("node", REQUIRED), "b": ("node", REQUIRED),
             "latency_ms": ("number", REQUIRED), "bandwidth_mbps": ("number", REQUIRED),
             "id": ("str", None)},  # None: the topology names it a--b
    "app": {"id": ("str", REQUIRED), "kind": ("app kind", REQUIRED),
            "cpu": ("number", 0.0), "mem": ("number", 0.0), "storage": ("number", 0.0),
            "latency_requirement_ms": ("number", None),  # None: no requirement
            "aggregation_factor": ("number", 1.0), "state_size_mb": ("number", 0.0),
            "allowed_tiers": ("tier list", [])},  # []: every tier its kind may use
    "device": {"model": ("str", REQUIRED), "os_version": ("str", REQUIRED),
               "protocol": ("str", "other"), "data_rate_kbps": ("number", REQUIRED),
               "iot_app": ("app", REQUIRED)},
    "firmware": {"model": ("str", REQUIRED), "os_version": ("str", REQUIRED),
                 "version": ("str", REQUIRED)},
    "script": {"type": ("script type", REQUIRED),
               "time": ("integer", REQUIRED, ">= 0")},
    "attach": {"device": ("str", REQUIRED), "gateway": ("node", REQUIRED),
               "model": ("model", REQUIRED),
               "os_version": ("str", ""),  # "": the model's
               "preferences": ("mapping", None)},
    "detach": {"device": ("str", REQUIRED), "gateway": ("node", REQUIRED)},
    "roam": {"device": ("str", REQUIRED), "to_gateway": ("gateway", REQUIRED)},
    "place": {"app": ("app", REQUIRED), "source": ("node", REQUIRED),
              "replicas": ("integer", 1, ">= 1")},
    # a replica count below 1 is a scale_warning at run time
    "scale": {"app": ("app", REQUIRED), "replicas": ("integer", REQUIRED),
              "host": ("str", None)},  # None: the first running instance's
    "workload": {"device": ("str", REQUIRED),
                 "data_rate_kbps": ("number", REQUIRED, "> 0")},
    "flow_advance": {},
    "fault": {"target": ("str", REQUIRED), "kind": ("fault kind", REQUIRED),
              "start": ("integer", REQUIRED, ">= 0"),
              "duration_ms": ("integer", REQUIRED, "> 0")},
}

# The parser whose events _load_yaml builds documents from, and whose
# Resolver and SafeConstructor (those of yaml.safe_load) type its scalars:
# libyaml's C parser, or PyYAML's pure-Python parser where PyYAML was built
# without libyaml. yaml.load with this loader reads the documents the event
# builder leaves to PyYAML.
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

    def build_faults(self) -> list[Fault]:
        return [Fault(f["target"], FaultKind(f["kind"]), f["start"], f["duration_ms"])
                for f in self.faults]


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
_REFERENCES = ("node", "gateway", "app", "model")  # a str naming one declared
_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1}
# section -> the reference type its entries declare, and the field naming them
_DECLARES = {"node": ("node", "id"), "app": ("app", "id"), "device": ("model", "model")}


def _row(fields: dict[str, tuple]) -> list[tuple]:
    """A section's fields as _walk reads them: each field's key, default,
    the section of a "mapping of" or "list of" type and whether it is a
    list, its type's test, expected and maker, its reference type, and its
    bound with that bound's test."""
    row = []
    for key, (ftype, default, *bound) in fields.items():
        of, _, inner = ftype.partition(" of ")
        reference = ftype if ftype in _REFERENCES else None
        checks = (None,) * 3 if inner else _TYPES["str" if reference else ftype]
        bound = bound[0] if bound else None
        row.append((key, default, inner, of == "list", *checks, reference,
                    bound, _BOUNDS.get(bound)))
    return row


_ROWS = {section: _row(fields) for section, fields in SCENARIO_FIELDS.items()}


def _walk(section: str, raw, ctx: str, known: dict[str, set],
          entry: dict | None = None) -> dict:
    """The entry `raw` of `section`, named `ctx`, with each field of the
    section checked and made of its type, an absent or null optional field
    at its default, and each bound kept, added to `entry` or a new dict.
    `known` holds the names declared by the entries walked so far, by
    reference type; this entry's join them. A "mapping of S" or "list of S"
    field holds a mapping, or a list of mappings, each walked as an entry of
    section S."""
    if not isinstance(raw, dict):
        raise errors.ParseError(f"{ctx} must be a mapping, got {raw!r}")
    entry = {} if entry is None else entry
    for key, default, inner, is_list, test, expected, make, reference, bound, \
            within in _ROWS[section]:
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
            if reference is not None and value not in known[reference]:
                raise errors.UnknownReference(f"{ctx}: unknown {reference} {value}")
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
    if section == "script":
        _walk(entry["type"], raw, ctx, known, entry)
    elif section in _DECLARES:
        kind, name = _DECLARES[section]
        known[kind].add(entry[name])
        if entry.get("tier") == Tier.GATEWAY.value:
            known["gateway"].add(entry[name])
    return entry


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw scenario mapping and return a fully checked Scenario."""
    if not isinstance(raw, dict):
        raise errors.ParseError("scenario must be a mapping")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise errors.ParseError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    fields = _walk("scenario", raw, "scenario", {kind: set() for kind in _REFERENCES})
    del fields["schema_version"]
    thresholds = fields.pop("thresholds")
    scenario = Scenario(**fields.pop("topology"), **fields, thresholds=Thresholds(
        thresholds["high"], thresholds["low"]))
    _validate(scenario)
    return scenario


class _Unusual(Exception):
    """The document uses what the event builder leaves to PyYAML's loader:
    an anchor, an alias, an explicit tag, a merge or value key, a mapping
    or sequence as a key, a second document, or a scalar its tag cannot
    construct."""


_MERGE_OR_VALUE = frozenset({"tag:yaml.org,2002:merge", "tag:yaml.org,2002:value"})
_NO_KEY = object()  # the mapping being built waits for a key, not a value
# how deep mappings and sequences may nest: scenarios nest about 4 deep, and
# PyYAML's composer recurses once per level, into a crash under libyaml
_MAX_DEPTH = 100
_TOO_DEEP = f"nesting deeper than {_MAX_DEPTH} levels"
_OPENINGS, _CLOSINGS = (MappingStartEvent, SequenceStartEvent), \
    (MappingEndEvent, SequenceEndEvent)


def _load_yaml(text: str):
    """The document in `text`, as yaml.load(text, Loader=_LOADER) loads it:
    the same objects, types, key order and errors.

    Built in one pass over the loader's events, without PyYAML's node
    graph: the loader's resolver types each distinct scalar, and its
    constructor builds only those not typed as strings. A document that
    uses anything listed in _Unusual is handed whole to yaml.load. The
    builder lets through only the parser's own errors, which yaml.load
    meets first too, since it parses the whole document before it
    constructs anything. Nesting past _MAX_DEPTH is a MarkedYAMLError."""
    try:
        return _build_from_events(text)
    except _Unusual:
        return yaml.load(text, Loader=_LOADER)


def _check_depth(get_event, depth: int) -> None:
    """Pull the loader's remaining events, the first of them `depth`
    containers deep, and raise where they nest deeper than _MAX_DEPTH;
    stop quietly at a parser error, which yaml.load then raises."""
    event = None
    while type(event) is not StreamEndEvent:
        try:
            event = get_event()
        except yaml.YAMLError:
            return
        depth += (type(event) in _OPENINGS) - (type(event) in _CLOSINGS)
        if depth > _MAX_DEPTH:
            raise yaml.MarkedYAMLError(problem=_TOO_DEEP, problem_mark=event.start_mark)


def _build_from_events(text: str):
    loader = _LOADER(text)
    try:
        get_event = loader.get_event
        plain_tag = loader.DEFAULT_SCALAR_TAG
        # (value, implicit) -> the scalar built from it; scalars are
        # immutable, so each distinct text is resolved and built once
        scalars = {}

        def build_scalar(value, implicit):
            tag = loader.resolve(ScalarNode, value, implicit)
            if tag == plain_tag:
                return value
            if tag in _MERGE_OR_VALUE:
                raise _Unusual
            try:
                return loader.construct_object(ScalarNode(tag, value), deep=True)
            except Exception:  # yaml.load raises the constructor's own error
                raise _Unusual from None

        get_event()  # stream start
        if type(get_event()) is StreamEndEvent:  # else a document start
            return None
        document = []  # receives the root node
        top, key, stack = document, _NO_KEY, []
        while True:
            event = get_event()
            kind = type(event)
            if kind is ScalarEvent:
                tag = event.tag
                if event.anchor is not None or tag is not None and tag != "!":
                    raise _Unusual
                memo = event.value, event.implicit
                try:
                    value = scalars[memo]
                except KeyError:
                    value = scalars[memo] = build_scalar(*memo)
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                top, key = stack.pop()
                continue
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if len(stack) == _MAX_DEPTH:
                    raise yaml.MarkedYAMLError(problem=_TOO_DEEP,
                                               problem_mark=event.start_mark)
                tag = event.tag
                if event.anchor is not None or tag is not None and tag != "!":
                    raise _Unusual
                value = {} if kind is MappingStartEvent else []
                if type(top) is list:
                    top.append(value)
                elif key is _NO_KEY:  # a mapping or sequence as a key
                    raise _Unusual
                else:
                    top[key] = value
                stack.append((top, _NO_KEY))
                top, key = value, _NO_KEY
                continue
            elif kind is DocumentEndEvent:
                break
            else:  # an alias
                raise _Unusual
            if type(top) is list:
                top.append(value)
            elif key is _NO_KEY:
                key = value
            else:
                top[key] = value
                key = _NO_KEY
        if type(get_event()) is not StreamEndEvent:  # a second document
            raise _Unusual
        return document[0]
    except _Unusual:
        # yaml.load composes recursively, so the rest must not nest too deep;
        # a container the builder refused is not on the stack
        _check_depth(loader.get_event, len(stack) + (kind in _OPENINGS))
        raise
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


def _finite_over_run(value: float, run_ms: int, context: str,
                     length: str = "duration_ms",
                     error: type[errors.FogSimError] = errors.InvariantViolation
                     ) -> None:
    """Reject a per-ms quantity, a rate or a bandwidth, whose product with
    the run's length, named `length`, is not finite: a window's generated_mb
    and its link capacity are that product over the window, and no window
    of a run is longer than the run."""
    try:
        finite = math.isfinite(value * run_ms)
    except OverflowError:  # a length too large for a float
        finite = False
    if not finite:
        raise error(f"{context} {value!r} times {length} {run_ms} is not finite")


def validate_until(scenario: Scenario, topology: Topology, catalog: Catalog,
                   until: int) -> None:
    """Raise ValidationError unless a run of `scenario` may stop at `until`
    ms: until must be >= 0 and convert to a float, and a run past the
    scenario's duration must keep finite every product _validate checks
    against duration_ms (each device rate, workload rate and link bandwidth
    times the run's length)."""
    if until < 0:
        raise errors.ValidationError(f"until must be >= 0, not {until}")
    try:
        float(until)
    except OverflowError:
        raise errors.ValidationError(
            f"until has {len(str(until))} digits, too many for a float") from None
    if until <= scenario.duration_ms:
        return  # _validate checked the products over the duration
    per_ms = [(f"device {p.model}: data_rate_kbps", p.data_rate_kbps)
              for p in catalog.profiles.values()]
    per_ms += [(f"link {l.link_id}: bandwidth_mbps", l.bandwidth_mbps)
               for l in topology.links.values()]
    per_ms += [(f"script[{i}]: data_rate_kbps", e["data_rate_kbps"])
               for i, e in enumerate(scenario.script) if e["type"] == "workload"]
    for context, value in per_ms:
        _finite_over_run(value, until, context, "until", errors.ValidationError)


def _validate(scenario: Scenario) -> None:
    """The checks across fields of a scenario whose fields are checked: the
    topology and catalog invariants, script times against the duration, an
    attach at a gateway, each fault's target, and the rates and bandwidths
    whose products with the duration must be finite."""
    try:
        topo = scenario.build_topology()
    except errors.FogSimError as exc:
        raise errors.InvariantViolation(f"topology: {exc}") from None
    try:
        catalog = scenario.build_catalog()
    except errors.FogSimError as exc:
        raise errors.InvariantViolation(f"catalog: {exc}") from None

    duration = scenario.duration_ms
    for profile in catalog.profiles.values():
        _finite_over_run(profile.data_rate_kbps, duration,
                         f"device {profile.model}: data_rate_kbps")
    for link in topo.links.values():
        _finite_over_run(link.bandwidth_mbps, duration,
                         f"link {link.link_id}: bandwidth_mbps")

    for i, entry in enumerate(scenario.script):
        ctx = f"script[{i}]"
        if entry["time"] > duration:
            raise errors.InvariantViolation(
                f"{ctx}: time {entry['time']} exceeds duration {duration}")
        if entry["type"] == "attach" and \
                topo.nodes[entry["gateway"]].tier is not Tier.GATEWAY:
            raise errors.InvariantViolation(
                f"{ctx}: {entry['gateway']} is not a gateway")
        if entry["type"] == "workload":
            _finite_over_run(entry["data_rate_kbps"], duration,
                             f"{ctx}: data_rate_kbps")

    for i, f in enumerate(scenario.faults):
        ctx, kind, target = f"faults[{i}]", FaultKind(f["kind"]), f["target"]
        if kind is FaultKind.LINK_DOWN:
            if target not in topo.links:
                raise errors.UnknownReference(f"{ctx}: unknown link {target}")
        elif target not in topo.nodes:
            raise errors.UnknownReference(f"{ctx}: unknown node {target}")
        if kind is FaultKind.CLOUD_PARTITION and \
                topo.nodes[target].tier is not Tier.CENTRAL_CLOUD:
            raise errors.InvariantViolation(
                f"{ctx}: CloudPartition target must be the central cloud node")
