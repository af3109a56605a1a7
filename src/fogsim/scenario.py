"""Declarative scenario files: loading, validation, and construction of the
domain objects a run needs.

A scenario is one YAML document (schema_version 1) bundling the topology, the
application/device/firmware catalog, orchestrator thresholds, an ordered event
script, and fault injections. Everything a run does is stated here up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# script type -> (event kind it schedules, fields it requires)
SCRIPT_EVENTS: dict[str, tuple[EventKind, frozenset[str]]] = {
    "attach": (EventKind.ATTACH, frozenset({"device", "gateway", "model"})),
    "detach": (EventKind.DETACH, frozenset({"device", "gateway"})),
    "roam": (EventKind.ROAM, frozenset({"device", "to_gateway"})),
    "place": (EventKind.PLACE, frozenset({"app", "source"})),
    "scale": (EventKind.SCALE, frozenset({"app", "replicas"})),
    "workload": (EventKind.WORKLOAD_CHANGE,
                 frozenset({"device", "data_rate_kbps"})),
    "flow_advance": (EventKind.FLOW_ADVANCE, frozenset()),
}

# section -> numeric fields that, where given, must be finite numbers
_FINITE_FIELDS: dict[str, tuple[str, ...]] = {
    "node": ("cpu", "mem", "storage"),
    "link": ("latency_ms", "bandwidth_mbps"),
    "app": ("cpu", "mem", "storage", "latency_requirement_ms",
            "aggregation_factor", "state_size_mb"),
    "device": ("data_rate_kbps",),
}

# script fields that name a device, node or app and, where given, must be strings
_SCRIPT_NAMES = ("device", "gateway", "model", "to_gateway", "app", "source", "host")

# The parser whose events _load_yaml builds documents from, and whose
# Resolver and SafeConstructor (those of yaml.safe_load) type its scalars:
# libyaml's C parser, or PyYAML's pure-Python parser where PyYAML was built
# without libyaml. yaml.load with this loader reads the documents the event
# builder leaves to PyYAML.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass
class Scenario:
    name: str
    duration_ms: int
    seed: int = 0  # a label recorded in the trace; nothing is random
    scheduler_tick_ms: int = 1000
    buffer_mb: float = 10.0
    thresholds: Thresholds = field(default_factory=Thresholds)
    nodes: list[dict] = field(default_factory=list)
    links: list[dict] = field(default_factory=list)
    apps: list[dict] = field(default_factory=list)
    devices: list[dict] = field(default_factory=list)
    firmware: list[dict] = field(default_factory=list)
    script: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)

    # -- construction of run-time objects -------------------------------------

    def build_topology(self) -> Topology:
        topo = Topology()
        for n in self.nodes:
            topo.add_node(n["id"], Tier(n["tier"]), float(n["cpu"]),
                          float(n["mem"]), float(n["storage"]))
        for l in self.links:
            topo.add_link(l["a"], l["b"], float(l["latency_ms"]),
                          float(l["bandwidth_mbps"]), l.get("id"))
        return topo

    def build_catalog(self) -> Catalog:
        catalog = Catalog()
        for a in self.apps:
            tiers = a.get("allowed_tiers")
            spec = AppSpec(
                app_id=a["id"],
                kind=AppKind(a["kind"]),
                demand=ResourceVector(float(a.get("cpu", 0)),
                                      float(a.get("mem", 0)),
                                      float(a.get("storage", 0))),
                latency_requirement_ms=a.get("latency_requirement_ms"),
                aggregation_factor=float(a.get("aggregation_factor", 1)),
                state_size_mb=float(a.get("state_size_mb", 0)),
                allowed_tiers=frozenset(Tier(t) for t in tiers) if tiers else frozenset(),
            )
            catalog.register_app(spec)
        for d in self.devices:
            catalog.register_profile(DeviceProfile(
                d["model"], str(d["os_version"]), d.get("protocol", "other"),
                float(d["data_rate_kbps"]), d["iot_app"]))
        for f in self.firmware:
            catalog.register_firmware(FirmwareEntry(
                f["model"], str(f["os_version"]), str(f["version"])))
        return catalog

    def build_faults(self) -> list[Fault]:
        return [Fault(f["target"], FaultKind(f["kind"]), int(f["start"]),
                      int(f["duration_ms"])) for f in self.faults]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise errors.ParseError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _number(mapping: dict, key: str, context: str) -> float:
    """The required field `key` as a float: a finite number, not a bool."""
    value = _require(mapping, key, context)
    if isinstance(value, bool):
        raise errors.ParseError(f"{context}: {key} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise errors.ParseError(
            f"{context}: {key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise errors.ParseError(f"{context}: {key} must be finite, got {value!r}")
    return number


def _integer(mapping: dict, key: str, context: str) -> int:
    """The required field `key`, which must be an integer: an int, or a
    float with an integral value. Anything else, a bool, a fractional
    number or a string included, is rejected rather than converted."""
    value = _require(mapping, key, context)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise errors.ParseError(f"{context}: {key} must be an integer, got {value!r}")


def _text(mapping: dict, key: str, context: str) -> str:
    """The required field `key`, which must be a string."""
    value = _require(mapping, key, context)
    if not isinstance(value, str):
        raise errors.ParseError(f"{context}: {key} must be a string, got {value!r}")
    return value


def _mapping(mapping: dict, key: str, context: str) -> dict:
    """The optional field `key` as a mapping; empty where absent or null."""
    value = mapping.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise errors.ParseError(f"{context}: {key} must be a mapping, got {value!r}")
    return value


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw scenario mapping and return a fully checked Scenario."""
    if not isinstance(raw, dict):
        raise errors.ParseError("scenario must be a mapping")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise errors.ParseError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")

    topo_section = _mapping(raw, "topology", "scenario")
    thresholds_raw = {"high": 0.8, "low": 0.6,
                      **_mapping(raw, "thresholds", "scenario")}
    thresholds = Thresholds(_number(thresholds_raw, "high", "thresholds"),
                            _number(thresholds_raw, "low", "thresholds"))
    defaults = {"seed": 0, "scheduler_tick_ms": 1000, "buffer_mb": 10, **raw}

    try:
        scenario = Scenario(
            name=str(raw.get("name", "unnamed")),
            duration_ms=_integer(raw, "duration_ms", "scenario"),
            seed=_integer(defaults, "seed", "scenario"),
            scheduler_tick_ms=_integer(defaults, "scheduler_tick_ms", "scenario"),
            buffer_mb=_number(defaults, "buffer_mb", "scenario"),
            thresholds=thresholds,
            nodes=list(topo_section.get("nodes", []) or []),
            links=list(topo_section.get("links", []) or []),
            apps=list(raw.get("apps", []) or []),
            devices=list(raw.get("devices", []) or []),
            firmware=list(raw.get("firmware", []) or []),
            script=list(raw.get("script", []) or []),
            faults=list(raw.get("faults", []) or []),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ParseError(str(exc)) from None

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
    per_ms += [(f"script[{i}]: data_rate_kbps", float(e["data_rate_kbps"]))
               for i, e in enumerate(scenario.script) if e["type"] == "workload"]
    for context, value in per_ms:
        _finite_over_run(value, until, context, "until", errors.ValidationError)


def _validate(scenario: Scenario) -> None:
    if scenario.duration_ms <= 0:
        raise errors.InvariantViolation("duration_ms must be > 0")
    if scenario.scheduler_tick_ms <= 0:
        raise errors.InvariantViolation("scheduler_tick_ms must be > 0")
    if scenario.buffer_mb < 0:
        raise errors.InvariantViolation("buffer_mb must be >= 0")

    for section, key, context in ((scenario.nodes, "id", "node"),
                                  (scenario.apps, "id", "app"),
                                  (scenario.devices, "model", "device"),
                                  (scenario.firmware, "model", "firmware")):
        for entry in section:
            if not isinstance(entry, dict):
                raise errors.ParseError(f"{context} entries must be mappings")
            _require(entry, key, context)

    for section, context in ((scenario.nodes, "node"), (scenario.links, "link"),
                             (scenario.apps, "app"), (scenario.devices, "device")):
        for entry in section:
            for key in _FINITE_FIELDS[context]:
                if isinstance(entry, dict) and key in entry:
                    _number(entry, key, context)

    # structural build; topology/catalog invariants surface here
    try:
        topo = scenario.build_topology()
    except errors.UnknownNode as exc:
        raise errors.UnknownReference(f"link endpoint: {exc}") from None
    except errors.FogSimError as exc:
        raise errors.InvariantViolation(f"topology: {exc}") from None
    except KeyError as exc:
        raise errors.ParseError(f"topology: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise errors.ParseError(f"topology: {exc}") from None
    try:
        catalog = scenario.build_catalog()
    except errors.FogSimError as exc:
        raise errors.InvariantViolation(f"catalog: {exc}") from None
    except KeyError as exc:
        raise errors.ParseError(f"catalog: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise errors.ParseError(f"catalog: {exc}") from None

    for profile in catalog.profiles.values():
        if profile.iot_app not in catalog.apps:
            raise errors.UnknownReference(
                f"device {profile.model} references unknown app {profile.iot_app}")
        _finite_over_run(profile.data_rate_kbps, scenario.duration_ms,
                         f"device {profile.model}: data_rate_kbps")
    for link in topo.links.values():
        _finite_over_run(link.bandwidth_mbps, scenario.duration_ms,
                         f"link {link.link_id}: bandwidth_mbps")

    gateways = {nid for nid, n in topo.nodes.items() if n.tier is Tier.GATEWAY}

    for i, entry in enumerate(scenario.script):
        ctx = f"script[{i}]"
        if not isinstance(entry, dict):
            raise errors.ParseError(f"{ctx}: entries must be mappings")
        etype = _text(entry, "type", ctx)
        if etype not in SCRIPT_EVENTS:
            raise errors.ParseError(f"{ctx}: unknown event type {etype!r}")
        time = _integer(entry, "time", ctx)
        if time < 0:
            raise errors.InvariantViolation(f"{ctx}: time must be >= 0")
        if time > scenario.duration_ms:
            raise errors.InvariantViolation(
                f"{ctx}: time {time} exceeds duration {scenario.duration_ms}")
        for required in SCRIPT_EVENTS[etype][1]:
            _require(entry, required, ctx)
        for key in _SCRIPT_NAMES:
            if key in entry:
                _text(entry, key, ctx)
        if etype == "attach":
            _mapping(entry, "preferences", ctx)
            if entry["model"] not in catalog.profiles:
                raise errors.UnknownReference(f"{ctx}: unknown model {entry['model']}")
            if entry["gateway"] not in topo.nodes:
                raise errors.UnknownReference(f"{ctx}: unknown node {entry['gateway']}")
            if entry["gateway"] not in gateways:
                raise errors.InvariantViolation(
                    f"{ctx}: {entry['gateway']} is not a gateway")
        elif etype == "detach":
            if entry["gateway"] not in topo.nodes:
                raise errors.UnknownReference(f"{ctx}: unknown node {entry['gateway']}")
        elif etype == "roam":
            if entry["to_gateway"] not in gateways:
                raise errors.UnknownReference(
                    f"{ctx}: unknown gateway {entry['to_gateway']}")
        elif etype in ("place", "scale"):
            if entry["app"] not in catalog.apps:
                raise errors.UnknownReference(f"{ctx}: unknown app {entry['app']}")
            if etype == "place" and entry["source"] not in topo.nodes:
                raise errors.UnknownReference(f"{ctx}: unknown node {entry['source']}")
            # place defaults to one replica; scale reports < 1 at run time
            replicas = _integer({"replicas": 1, **entry}, "replicas", ctx)
            if etype == "place" and replicas < 1:
                raise errors.InvariantViolation(f"{ctx}: replicas must be >= 1")
        elif etype == "workload":
            rate = _number(entry, "data_rate_kbps", ctx)
            if rate <= 0:
                raise errors.InvariantViolation(f"{ctx}: data_rate must be > 0")
            _finite_over_run(rate, scenario.duration_ms, f"{ctx}: data_rate_kbps")

    for i, f in enumerate(scenario.faults):
        ctx = f"faults[{i}]"
        if not isinstance(f, dict):
            raise errors.ParseError(f"{ctx}: entries must be mappings")
        for key in ("target", "kind", "start", "duration_ms"):
            _require(f, key, ctx)
        try:
            kind = FaultKind(f["kind"])
        except ValueError:
            raise errors.ParseError(f"{ctx}: unknown fault kind {f['kind']!r}") from None
        target = _text(f, "target", ctx)
        if kind is FaultKind.LINK_DOWN:
            if target not in topo.links:
                raise errors.UnknownReference(f"{ctx}: unknown link {target}")
        elif target not in topo.nodes:
            raise errors.UnknownReference(f"{ctx}: unknown node {target}")
        if kind is FaultKind.CLOUD_PARTITION and \
                topo.nodes[target].tier is not Tier.CENTRAL_CLOUD:
            raise errors.InvariantViolation(
                f"{ctx}: CloudPartition target must be the central cloud node")
        if _integer(f, "start", ctx) < 0:
            raise errors.InvariantViolation(f"{ctx}: start must be >= 0")
        if _integer(f, "duration_ms", ctx) <= 0:
            raise errors.InvariantViolation(f"{ctx}: duration_ms must be > 0")
