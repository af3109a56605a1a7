from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
import yaml
from yaml.nodes import ScalarNode
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim import kernel as kernel_module
from fogsim import scenario as scenario_module
from fogsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from fogsim.control import run_scenario, run_scenario_file
from fogsim.kernel import RECORD_KINDS, Trace
from fogsim.report import report_from_trace
from fogsim.runtime import Runtime
from fogsim.scenario import (REQUIRED, SCENARIO_FIELDS, SCRIPT_EVENTS, load_scenario,
                             scenario_from_dict)
from fogsim.topology import ResourceVector, Topology

from fixture_paths import FIXTURES, REPO_ROOT, SCENARIO_DIR
from oracles import (reference_from_jsonl, reference_load_yaml,
                     reference_record_json, reference_shared_entries)


def minimal_scenario(**overrides) -> dict:
    raw = {
        "schema_version": 1,
        "name": "mini",
        "duration_ms": 5000,
        "topology": {
            "nodes": [
                {"id": "cloud", "tier": "CentralCloud",
                 "cpu": 64000, "mem": 98304, "storage": 11534336},
                {"id": "edge1", "tier": "EdgeModule",
                 "cpu": 8000, "mem": 16384, "storage": 491520},
                {"id": "gw1", "tier": "Gateway",
                 "cpu": 4000, "mem": 1024, "storage": 16384},
            ],
            "links": [
                {"a": "gw1", "b": "edge1", "latency_ms": 2, "bandwidth_mbps": 100},
                {"a": "edge1", "b": "cloud", "latency_ms": 20,
                 "bandwidth_mbps": 1000},
            ],
        },
        "apps": [
            {"id": "agent", "kind": "IoTApp", "cpu": 100, "mem": 64,
             "storage": 16, "state_size_mb": 1},
        ],
        "devices": [
            {"model": "smartband", "os_version": "1.0", "protocol": "BLE",
             "data_rate_kbps": 100, "iot_app": "agent"},
        ],
        "firmware": [
            {"model": "smartband", "os_version": "1.0", "version": "1.2"},
        ],
        "script": [
            {"type": "attach", "time": 1000, "device": "dev1",
             "gateway": "gw1", "model": "smartband", "os_version": "1.0"},
        ],
    }
    raw.update(overrides)
    return raw


def test_fixture_scenarios_exist_and_load():
    assert len(FIXTURES) >= 3
    for path in FIXTURES:
        scenario = load_scenario(path)
        assert scenario.duration_ms > 0


def test_unsupported_schema_version():
    with pytest.raises(errors.ParseError):
        scenario_from_dict(minimal_scenario(schema_version=2))


def test_missing_duration():
    raw = minimal_scenario()
    del raw["duration_ms"]
    with pytest.raises(errors.ParseError):
        scenario_from_dict(raw)


def test_non_mapping_scenario():
    with pytest.raises(errors.ParseError):
        scenario_from_dict(["not", "a", "mapping"])


def test_inverted_thresholds():
    with pytest.raises(errors.InvariantViolation):
        scenario_from_dict(minimal_scenario(thresholds={"high": 0.5, "low": 0.7}))


def test_link_to_unknown_node():
    raw = minimal_scenario()
    raw["topology"]["links"].append(
        {"a": "gw1", "b": "ghost", "latency_ms": 1, "bandwidth_mbps": 10})
    with pytest.raises(errors.UnknownReference):
        scenario_from_dict(raw)


def test_device_references_unknown_app():
    raw = minimal_scenario()
    raw["devices"][0]["iot_app"] = "ghost"
    with pytest.raises(errors.UnknownReference):
        scenario_from_dict(raw)


def test_script_event_after_duration():
    raw = minimal_scenario()
    raw["script"][0]["time"] = 99_999
    with pytest.raises(errors.InvariantViolation):
        scenario_from_dict(raw)


def test_script_attach_to_non_gateway():
    raw = minimal_scenario()
    raw["script"][0]["gateway"] = "edge1"
    with pytest.raises(errors.InvariantViolation):
        scenario_from_dict(raw)


def test_unknown_script_type():
    raw = minimal_scenario()
    raw["script"].append({"type": "explode", "time": 0})
    with pytest.raises(errors.ParseError):
        scenario_from_dict(raw)


def test_fault_validation():
    raw = minimal_scenario(faults=[{"target": "edge1", "kind": "CloudPartition",
                                    "start": 0, "duration_ms": 100}])
    with pytest.raises(errors.InvariantViolation):
        scenario_from_dict(raw)  # partition target must be the cloud
    raw = minimal_scenario(faults=[{"target": "ghost", "kind": "NodeDown",
                                    "start": 0, "duration_ms": 100}])
    with pytest.raises(errors.UnknownReference):
        scenario_from_dict(raw)


def _append_script(entry):
    return lambda raw: raw["script"].append(entry)


def _set_faults(**fault):
    return lambda raw: raw.update(faults=[{
        "target": "edge1--cloud", "kind": "LinkDown", "start": 1000,
        "duration_ms": 500, **fault}])


def _rename_node(old, new):
    """Name the node `old` `new` in the node list and in every link."""
    def mutate(raw):
        for entry in raw["topology"]["nodes"] + raw["topology"]["links"]:
            for key in ("id", "a", "b"):
                if entry.get(key) == old:
                    entry[key] = new
    return mutate


@pytest.mark.parametrize("mutate, expected", [
    (lambda raw: raw["topology"]["nodes"][0].pop("tier"), errors.ParseError),
    (lambda raw: raw["topology"]["nodes"][1].update(tier="Fog"), errors.ParseError),
    (lambda raw: raw["topology"]["links"][0].pop("latency_ms"), errors.ParseError),
    (lambda raw: raw["devices"][0].update(data_rate_kbps="fast"), errors.ParseError),
    (_append_script({"time": 5000, "type": "workload", "device": "cam-1",
                     "data_rate_kbps": "fast"}), errors.ParseError),
    (_set_faults(duration_ms="ten"), errors.ParseError),
    (lambda raw: raw["script"][0].update(replicas="two"), errors.ParseError),
    (_set_faults(start=-5), errors.InvariantViolation),
    (_set_faults(duration_ms=0), errors.InvariantViolation),
    (lambda raw: raw["script"][0].update(replicas=0), errors.InvariantViolation),
    (_rename_node("edge2", 7), errors.ParseError),
    (lambda raw: raw["topology"]["links"][1].update(id=4), errors.ParseError),
    (lambda raw: raw["apps"][0].update(latency_requirement_ms="5"), errors.ParseError),
    (_append_script({"time": 1500, "type": "place", "app": "traffic-sensor-agent",
                     "source": "gw1"}), errors.InvariantViolation),
], ids=["node-without-tier", "unknown-tier", "link-without-latency",
        "device-rate-not-a-number", "workload-rate-not-a-number",
        "fault-duration-not-a-number", "place-replicas-not-a-number",
        "fault-start-negative", "fault-duration-zero", "place-replicas-zero", "node-id-not-a-str",
        "link-id-not-a-str", "latency-requirement-quoted", "place-of-an-iot-app"])
def test_malformed_scenario_is_a_typed_validation_error(mutate, expected,
                                                         tmp_path, capsys):
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    mutate(raw)
    with pytest.raises(expected):
        scenario_from_dict(raw)
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert f"invalid: {expected.__name__}" in capsys.readouterr().err


def _entries(raw, section):
    """A list of the scenario, or of its topology."""
    return raw["topology"][section] if section in ("nodes", "links") else raw[section]


def _append(section, **entry):
    return lambda raw: _entries(raw, section).append(dict(entry))


def _update(section, index, **fields):
    return lambda raw: _entries(raw, section)[index].update(fields)


def _iot_app_is_a_data_app(raw):
    raw["apps"].append({"id": "agg", "kind": "DataApp"})
    raw["devices"][0]["iot_app"] = "agg"


_GW_EDGE = {"latency_ms": 2, "bandwidth_mbps": 100}

# one row per rule the topology and catalog builders also keep
BUILDER_RULES = {
    "duplicate-node-id": _append("nodes", id="cloud", tier="CentralCloud",
                                 cpu=1, mem=1, storage=1),
    "duplicate-app-id": _append("apps", id="agent", kind="IoTApp"),
    "duplicate-device-model": _append("devices", model="smartband", os_version="2.0",
                                      data_rate_kbps=5, iot_app="agent"),
    "duplicate-firmware": _append("firmware", model="smartband", os_version="1.0",
                                  version="1.2"),
    "duplicate-unnamed-link": _append("links", a="gw1", b="edge1", **_GW_EDGE),
    "capacity-below-1e-9": _update("nodes", 1, cpu=1e-10),
    "negative-app-demand": _update("apps", 0, mem=-1),
    "aggregation-factor-below-1": _update("apps", 0, aggregation_factor=0.5),
    "negative-state-size": _update("apps", 0, state_size_mb=-1),
    "zero-device-rate": _update("devices", 0, data_rate_kbps=0),
    "self-loop": _append("links", a="edge1", b="edge1", **_GW_EDGE),
    "zero-bandwidth": _update("links", 0, bandwidth_mbps=0),
    "negative-latency": _update("links", 0, latency_ms=-1),
    "empty-app-id": _append("apps", id="", kind="DataApp"),
    "empty-device-model": _append("devices", model="", os_version="1.0",
                                  data_rate_kbps=5, iot_app="agent"),
    "empty-firmware-model": _update("firmware", 0, model=""),
    "empty-firmware-os-version": _update("firmware", 0, os_version=""),
    "unparseable-firmware-version": _update("firmware", 0, version="1.x"),
    "iot-app-on-an-edge-module": _update("apps", 0, allowed_tiers=["EdgeModule"]),
    "iot-app-is-a-data-app": _iot_app_is_a_data_app,
}


@pytest.mark.parametrize("rule", sorted(BUILDER_RULES))
def test_a_builder_rule_fails_validation_not_the_run(rule, tmp_path, capsys):
    """Every rule the builders keep is one of the scenario's own: both
    commands reject the scenario before anything is built."""
    raw = minimal_scenario()
    BUILDER_RULES[rule](raw)
    with pytest.raises(errors.InvariantViolation):
        scenario_from_dict(copy.deepcopy(raw))
    path = tmp_path / "invalid.yaml"
    path.write_text(yaml.safe_dump(raw))
    for command in ("validate", "run"):
        assert main([command, str(path)]) == EXIT_VALIDATION, command
        assert capsys.readouterr().err.startswith("invalid: InvariantViolation"), command


# values at the builders' boundaries, which validate and build
BUILDER_BOUNDARIES = {
    "capacity-1e-9": _update("nodes", 1, cpu=1e-9),
    "zero-latency": _update("links", 0, latency_ms=0),
    "aggregation-factor-1": _update("apps", 0, aggregation_factor=1),
    "firmware-version-with-a-space": _update("firmware", 0, version=" 1"),
    "unnamed-links-both-ways": _append("links", a="edge1", b="gw1", **_GW_EDGE),
}


@pytest.mark.parametrize("rule", sorted(BUILDER_BOUNDARIES))
def test_a_value_at_a_builder_boundary_validates_and_builds(rule, tmp_path, capsys):
    raw = minimal_scenario()
    BUILDER_BOUNDARIES[rule](raw)
    Runtime(scenario_from_dict(copy.deepcopy(raw)))
    path = tmp_path / "boundary.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ok: mini")


@pytest.mark.parametrize("mutate, expected", [
    (_set_faults(kind="NodeDown", target="gw1--edge1"), errors.UnknownReference),
    (_set_faults(kind="LinkDown", target="gw1"), errors.UnknownReference),
    (_set_faults(kind="CloudPartition", target="ghost"), errors.UnknownReference),
    (_set_faults(kind="CloudPartition", target="edge1"), errors.InvariantViolation),
    (_update("script", 0, gateway="ghost"), errors.UnknownReference),
    (_update("script", 0, gateway="cloud"), errors.InvariantViolation),
    (_append_script({"type": "roam", "time": 2000, "device": "dev1",
                     "to_gateway": "ghost"}), errors.UnknownReference),
    (_append_script({"type": "roam", "time": 2000, "device": "dev1",
                     "to_gateway": "edge1"}), errors.InvariantViolation),
    (_update("devices", 0, iot_app="ghost"), errors.UnknownReference),
    (_iot_app_is_a_data_app, errors.InvariantViolation),
    (_append_script({"type": "place", "time": 1500, "app": "ghost",
                     "source": "gw1"}), errors.UnknownReference),
    (_append_script({"type": "place", "time": 1500, "app": "agent",
                     "source": "gw1"}), errors.InvariantViolation),
], ids=["node-down-on-a-link", "link-down-on-a-node", "partition-of-no-node",
        "partition-of-an-edge", "attach-at-no-node", "attach-at-the-cloud",
        "roam-to-no-node", "roam-to-an-edge", "device-of-no-app",
        "device-of-a-data-app", "place-of-no-app", "place-of-an-iot-app"])
def test_a_reference_names_a_declared_entry_of_its_kind(mutate, expected):
    """An undeclared name is an UnknownReference; a declared name of the
    wrong kind, such as a node that is not a gateway, is an
    InvariantViolation."""
    raw = minimal_scenario()
    mutate(raw)
    with pytest.raises(expected):
        scenario_from_dict(raw)


@pytest.mark.parametrize("kind, target", [
    ("LinkDown", "gw1--edge1"), ("NodeDown", "edge1"), ("CloudPartition", "cloud")])
def test_each_fault_kind_takes_a_target_of_its_kind(kind, target):
    raw = minimal_scenario()
    _set_faults(kind=kind, target=target)(raw)
    trace = Runtime(scenario_from_dict(raw)).run()
    assert [(r.kind, r.subject, r.details["fault_kind"]) for r in trace
            if r.kind.startswith("fault_")] == [("fault_start", target, kind),
                                                ("fault_end", target, kind)]


def _refuse(*args, **kwargs):
    raise AssertionError("validation built a run-time object")


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_validation_builds_nothing_and_a_runtime_builds_once(path, monkeypatch):
    with monkeypatch.context() as patched:
        for name in ("Topology", "Catalog", "AppSpec", "DeviceProfile",
                     "FirmwareEntry", "ResourceVector"):
            patched.setattr(scenario_module, name, _refuse)
        scenario = load_scenario(path)
        scenario_module.validate_until(scenario, 2 * scenario.duration_ms)
    builds = []
    for name in ("build_topology", "build_catalog"):
        build = getattr(scenario_module.Scenario, name)
        monkeypatch.setattr(scenario_module.Scenario, name,
                            lambda self, build=build: builds.append(build) or build(self))
    Runtime(scenario)
    assert len(builds) == 2


def test_a_field_bound_must_be_declared():
    """A misspelt bound fails when the table is read, not silently."""
    with pytest.raises(KeyError):
        scenario_module._row({"cpu": ("number", 0.0, ">=0")})


def _set_attach(**fields):
    return lambda raw: raw["script"][0].update(fields)


@pytest.mark.parametrize("mutate", [
    _set_attach(type=["attach"]),
    _set_attach(gateway=["gw1"]),
    _set_attach(model=["smartband"]),
    _set_attach(device=["dev1"]),
    _set_attach(preferences=["quiet"]),
    _append_script({"type": "roam", "time": 2000, "device": "dev1",
                    "to_gateway": ["gw1"]}),
    _append_script({"type": "scale", "time": 2000, "app": ["agent"],
                    "replicas": 2}),
    lambda raw: raw.update(faults=[{"target": ["edge1"], "kind": "NodeDown",
                                    "start": 0, "duration_ms": 10}]),
    lambda raw: raw.update(topology=[raw["topology"]]),
    lambda raw: raw.update(thresholds=[0.8, 0.6]),
], ids=["script-type", "attach-gateway", "attach-model", "attach-device",
        "attach-preferences", "roam-to-gateway", "scale-app", "fault-target",
        "topology", "thresholds"])
def test_a_field_of_the_wrong_shape_is_a_validation_error(mutate, tmp_path, capsys):
    """A list where a name or a mapping belongs fails validation under both
    commands, never with a traceback at run time."""
    raw = minimal_scenario()
    mutate(raw)
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(raw))
    for command in ("validate", "run"):
        assert main([command, str(path)]) == EXIT_VALIDATION, command
        assert capsys.readouterr().err.startswith("invalid: ParseError"), command


def _set_field(section, index, key):
    def setter(raw, value):
        entries = raw["topology"][section] if section in ("nodes", "links") \
            else raw[section]
        entries[index][key] = value
    return setter


NON_FINITE_FIELDS = {
    "node-cpu": _set_field("nodes", 1, "cpu"),
    "node-mem": _set_field("nodes", 1, "mem"),
    "node-storage": _set_field("nodes", 1, "storage"),
    "link-latency": _set_field("links", 0, "latency_ms"),
    "link-bandwidth": _set_field("links", 0, "bandwidth_mbps"),
    "app-cpu": _set_field("apps", 0, "cpu"),
    "app-mem": _set_field("apps", 0, "mem"),
    "app-storage": _set_field("apps", 0, "storage"),
    "app-aggregation-factor": _set_field("apps", 0, "aggregation_factor"),
    "app-state-size": _set_field("apps", 0, "state_size_mb"),
    "device-rate": _set_field("devices", 0, "data_rate_kbps"),
    "workload-rate": lambda raw, value: raw["script"].append(
        {"time": 5000, "type": "workload", "device": "cam-1",
         "data_rate_kbps": value}),
    "threshold-high": lambda raw, value: raw["thresholds"].update(high=value),
    "threshold-low": lambda raw, value: raw["thresholds"].update(low=value),
    "buffer": lambda raw, value: raw.update(buffer_mb=value),
    "duration": lambda raw, value: raw.update(duration_ms=value),
    "fault-start": lambda raw, value: _set_faults(start=value)(raw),
    "fault-duration": lambda raw, value: _set_faults(duration_ms=value)(raw),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_number_is_a_parse_error(field, value, tmp_path, capsys):
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    NON_FINITE_FIELDS[field](raw, value)
    with pytest.raises(errors.ParseError):
        scenario_from_dict(raw)
    path = tmp_path / "non_finite.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "invalid: ParseError" in capsys.readouterr().err


# finite numbers whose product with the run's duration is not: the rate a
# window's generated_mb and the bandwidth its link capacity are computed from
OVERFLOWING_FIELDS = {
    "device-rate": NON_FINITE_FIELDS["device-rate"],
    "workload-rate": NON_FINITE_FIELDS["workload-rate"],
    "link-bandwidth": NON_FINITE_FIELDS["link-bandwidth"],
}


@pytest.mark.parametrize("field", sorted(OVERFLOWING_FIELDS))
def test_a_rate_or_bandwidth_that_overflows_over_the_run_is_rejected(field, tmp_path,
                                                                    capsys):
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    OVERFLOWING_FIELDS[field](raw, 1.7e308)
    with pytest.raises(errors.InvariantViolation, match="times duration_ms 20000"):
        scenario_from_dict(raw)
    path = tmp_path / "overflowing.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "invalid: InvariantViolation" in capsys.readouterr().err
    # a value whose product is finite still runs
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    OVERFLOWING_FIELDS[field](raw, 1e300)
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(path)]) == EXIT_OK


@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_a_bool_is_not_a_number(field):
    """`true` would otherwise be taken as 1.0, e.g. a threshold of 1.0."""
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    NON_FINITE_FIELDS[field](raw, True)
    with pytest.raises(errors.ParseError):
        scenario_from_dict(raw)


@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_a_quoted_number_is_not_a_number(field, tmp_path, capsys):
    """YAML reads `"10"` as a string, which no number or integer field takes."""
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    NON_FINITE_FIELDS[field](raw, "10")
    with pytest.raises(errors.ParseError):
        scenario_from_dict(raw)
    path = tmp_path / "quoted.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert "invalid: ParseError" in capsys.readouterr().err


def _set_script(kind, key):
    def setter(raw, value):
        next(e for e in raw["script"] if e["type"] == kind)[key] = value
    return setter


# integer field -> (its setter, its value in _integer_base(), a fractional
# value that int() would truncate)
INTEGER_FIELDS = {
    "duration": (lambda raw, value: raw.update(duration_ms=value), 20000, 4999.9),
    "seed": (lambda raw, value: raw.update(seed=value), 7, 1.5),
    "scheduler-tick": (lambda raw, value: raw.update(scheduler_tick_ms=value),
                       1000, 2.5),
    "fault-start": (lambda raw, value: raw["faults"][0].update(start=value),
                    1000, 1500.7),
    "fault-duration": (lambda raw, value: raw["faults"][0].update(duration_ms=value),
                       500, 0.5),
    "place-replicas": (_set_script("place", "replicas"), 1, 1.5),
    "scale-replicas": (_set_script("scale", "replicas"), 3, 2.5),
    "script-time": (_set_script("attach", "time"), 0, 0.5),
}


def _integer_base() -> dict:
    """The scaling fixture with one fault, so that every INTEGER_FIELDS
    entry is there."""
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    _set_faults()(raw)
    return raw


@pytest.mark.parametrize("kind", ["bool", "fraction"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_field_rejects_bools_and_fractions(field, kind, tmp_path, capsys):
    setter, _, fraction = INTEGER_FIELDS[field]
    raw = _integer_base()
    setter(raw, True if kind == "bool" else fraction)
    with pytest.raises(errors.ParseError, match="must be an integer"):
        scenario_from_dict(raw)
    path = tmp_path / "not_an_integer.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert "invalid: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_field_takes_an_integral_float_as_its_int(field):
    setter, value, _ = INTEGER_FIELDS[field]
    raw = _integer_base()
    expected = Runtime(scenario_from_dict(copy.deepcopy(raw))).run().hash()
    setter(raw, float(value))
    assert Runtime(scenario_from_dict(raw)).run().hash() == expected


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(errors.ParseError):
        load_scenario(tmp_path / "nope.yaml")


def test_load_scenario_bad_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("nodes: [unclosed\n")
    with pytest.raises(errors.ParseError):
        load_scenario(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_scenario_is_a_parse_error(kind, tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(yaml.safe_dump(minimal_scenario(name="caf\xe9"),
                                        allow_unicode=True).encode("latin-1"))
    with pytest.raises(errors.ParseError):
        load_scenario(path)
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert "invalid: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2001-02-30", "!!int abc", "!!float abc"])
def test_scalar_its_tag_cannot_construct_is_a_parse_error(value, tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(minimal_scenario(name="NAME"))
                    .replace("NAME", value))
    with pytest.raises(errors.ParseError):
        load_scenario(path)
    assert main(["validate", str(path)]) == EXIT_VALIDATION


# --- runs and replay ----------------------------------------------------------


def test_empty_script_scenario_runs():
    scenario = scenario_from_dict(minimal_scenario(script=[]))
    trace, report = run_scenario(scenario)
    assert trace.records[-1].kind == "run_end"
    assert report.summary["attaches"] == 0


# sha256 prefixes of the fixtures' `fogsim run` traces; a change to any of
# them is a behaviour change and must name the records that moved
FIXTURE_TRACE_HASHES = {"roaming": "3f8615492d788b47",
                        "scaling": "fa59472aa104b5cb",
                        "partition": "0b22252e7dfbb83d"}


@pytest.mark.parametrize("name", sorted(FIXTURE_TRACE_HASHES))
def test_fixture_trace_hash_is_unchanged(name):
    runtime = Runtime(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    assert runtime.run().hash()[:16] == FIXTURE_TRACE_HASHES[name]


# sha256 prefixes of the benchmark workloads' traces at seed 1; these runs
# reach the threshold loop, migrations and faults far more than the fixtures
WORKLOAD_TRACE_HASHES = {"star_steady": "e9f19e9da4fa43cf",
                         "mesh_churn": "08045937294b7708",
                         "fleet_ticks": "5b91a3713017c90a"}
# and at seed 7, which draws other roams, surges and faults
WORKLOAD_SEED7_TRACE_HASHES = {"star_steady": "6d28f32783304f06",
                               "mesh_churn": "0bf6c7cf229fe417",
                               "fleet_ticks": "81d39af7a1611bfd"}


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_path(name: str, tmp_path, seed: int = 1, scale: float = 1.0):
    """The benchmark workload's scenario at `seed` and `scale`, written
    under tmp_path."""
    path = tmp_path / f"{name}.yaml"
    path.write_text(_perfbench_module("workloads").scenario_yaml(name, seed, scale))
    return path


@pytest.mark.parametrize("name, seed, expected", [
    pytest.param(name, seed, hashes[name],
                 id=name if seed == 1 else f"{name}-seed{seed}")
    for seed, hashes in ((1, WORKLOAD_TRACE_HASHES), (7, WORKLOAD_SEED7_TRACE_HASHES))
    for name in sorted(hashes)])
def test_workload_trace_hash_is_unchanged(name, seed, expected, tmp_path):
    runtime = Runtime(load_scenario(_workload_path(name, tmp_path, seed)))
    assert runtime.run().hash()[:16] == expected


# the workloads at seed 1 and four times their size: more gateways, devices,
# faults and horizon, so a route or cache slip that only larger runs reach
# still changes a pinned hash
WORKLOAD_X4_TRACE_HASHES = {"star_steady": "b69f4fead80d5f2e",
                            # 2 re-attaches where the device's IoT-App runs
                            "mesh_churn": "a63f45e0ab537763",
                            "fleet_ticks": "3257e79cc1e2d6dc"}


@pytest.mark.parametrize("name", sorted(WORKLOAD_X4_TRACE_HASHES))
def test_workload_trace_hash_at_four_times_the_size_is_unchanged(name, tmp_path):
    """And the trace parses as the per-line reference, key order included."""
    runtime = Runtime(load_scenario(_workload_path(name, tmp_path, 1, 4)))
    trace = runtime.run()
    assert trace.hash()[:16] == WORKLOAD_X4_TRACE_HASHES[name]
    text = trace.to_jsonl()
    assert _exact(Trace.from_jsonl(text).records) == _exact(reference_from_jsonl(text))


def _exact(records) -> list[str]:
    """Records as text that tells 1, 1.0, True and -0.0 apart and keeps
    key order."""
    return [json.dumps([r.time_ms, r.seq, r.kind, r.subject, r.details])
            for r in records]


def test_fleet_ticks_writes_each_map_against_the_last_at_its_slot(monkeypatch,
                                                                  tmp_path):
    """Counts the `_encode` calls of serialising fleet_ticks at seed 1: a
    slot's first map encodes each of its entries, a later new map with the
    same keys only the entries whose object changed, and every field that
    is no number, str or shared value is encoded whole."""
    trace = Runtime(load_scenario(_workload_path("fleet_ticks", tmp_path))).run()
    expected, entries, last = 0, 0, {}
    for record in trace:
        for key, ftype in kernel_module._LAYOUTS[record.kind].types.items():
            if key not in record.details or ftype in ("number", "str"):
                continue
            value = record.details[key]
            if ftype != "shared":
                expected += 1
                continue
            prev, last[record.kind, key] = last.get((record.kind, key)), value
            if value is prev:
                continue
            entries += len(value)
            if type(prev) is dict and prev.keys() == value.keys():
                expected += sum(v is not prev[k] for k, v in value.items())
            else:
                expected += len(value)
    calls = []
    encode = kernel_module._encode

    def counting(value):
        calls.append(value)
        return encode(value)

    monkeypatch.setattr(kernel_module, "_encode", counting)
    for writer in {record.writer for record in trace}:
        monkeypatch.setitem(writer.__globals__, "_encode", counting)
    assert trace.to_jsonl() and trace.hash()[:16] == WORKLOAD_TRACE_HASHES["fleet_ticks"]
    assert len(calls) == expected
    # the new maps hold far more entries than were encoded
    assert (len(calls), entries) == (1220, 37842)


def _plain_runs(lines: list[str]) -> list[list[str]]:
    """The runs of consecutive plain lines, which open with the writer's
    `{"details":{` and hold no other `{` and no `[`, each cut after
    `_RUN_LINES` lines: `kernel.records` scans each run in one call."""
    opening, cap = kernel_module._OPENING, kernel_module._RUN_LINES
    runs, run = [], None
    for line in lines:
        if not (line.startswith(opening) and line.find("{", len(opening)) < 0
                and "[" not in line):
            run = None
            continue
        if run is None or len(run) == cap:
            run = []
            runs.append(run)
        run.append(line)
    return runs


def _container_scans(lines: list[str]) -> tuple[int, int, int]:
    """The value scans of reading the lines that open with the writer's
    `{"details":{` and may hold a container, a detail at a time: a value of
    the last text at its key is not scanned, and any other value is scanned
    once, except a map after a map at its key: it scans only its entries
    whose text changed, and the first such map at each key also scans each
    entry of the map before it, to find where they end; the fields after
    the details are scanned once. Holds where no key's maps change their
    keys, and no splice reads so many entries that its key stops splicing.
    Also the scans of map entries, and the entries of the maps of other
    text."""
    opening, encode = kernel_module._OPENING, kernel_module._encode
    scans, map_scans, entries, last, found = 0, 0, 0, {}, set()
    for line in lines:
        if not (line.startswith(opening)
                and (line.find("{", len(opening)) >= 0 or "[" in line)):
            continue
        scans += 1  # the fields after the details
        for key, value in json.loads(line)["details"].items():
            if key in last and encode(last[key]) == encode(value):
                continue
            prev, last[key] = last.get(key), value
            if type(prev) is not dict or type(value) is not dict:
                scans += 1
                continue
            assert list(prev) == list(value)
            entry_scans = sum(encode(v) != encode(prev[k]) for k, v in value.items())
            entry_scans += 0 if key in found else len(prev)
            found.add(key)
            scans += entry_scans
            map_scans += entry_scans
            entries += len(value)
    return scans, map_scans, entries


def test_fleet_ticks_parses_each_map_against_the_last_at_its_key(monkeypatch,
                                                                  tmp_path):
    """Counts the value scans of `Trace.from_jsonl` on fleet_ticks at seed
    1: one per run of plain lines, and those of each line read a detail at
    a time (see `_container_scans`). A line of neither kind, such as the
    empty one after the last, is parsed by `json.loads` alone."""
    text = Runtime(load_scenario(_workload_path("fleet_ticks", tmp_path))).run().to_jsonl()
    lines = text.split("\n")
    runs = _plain_runs(lines)
    scans, map_scans, entries = _container_scans(lines)
    calls = []
    scan = kernel_module._scan
    monkeypatch.setattr(kernel_module, "_scan",
                        lambda s, i: calls.append(i) or scan(s, i))
    assert Trace.from_jsonl(text).records == reference_from_jsonl(text)
    assert len(calls) == len(runs) + scans
    # 409 plain lines in 201 runs, 135 of them of one line, between the
    # window lines
    assert (sum(map(len, runs)), len(runs), sum(len(run) == 1 for run in runs)) \
        == (409, 201, 135)
    # the maps of other text hold far more entries than were scanned, and
    # 594 of the scans find where the entries of each key's first map end
    assert (map_scans, entries) == (818, 37248)


def test_star_steady_scans_each_run_of_plain_lines_once(monkeypatch, tmp_path):
    """On star_steady at seed 1, nearly every line is plain: the runs
    between the window lines, cut every `_RUN_LINES` lines, are each
    scanned once, as the run's lines joined by ",\\n" in brackets (a run
    of one line as the line itself), and the lines read a detail at a time
    scan as `_container_scans` says."""
    text = Runtime(load_scenario(_workload_path("star_steady", tmp_path))).run().to_jsonl()
    lines = text.split("\n")
    runs = _plain_runs(lines)
    scans, _, _ = _container_scans(lines)
    calls = []
    scan = kernel_module._scan
    monkeypatch.setattr(kernel_module, "_scan",
                        lambda s, i: calls.append((s, i)) or scan(s, i))
    records = Trace.from_jsonl(text).records
    assert _exact(records) == _exact(reference_from_jsonl(text))
    assert len(calls) == len(runs) + scans
    assert [call for call in calls if call[1] == 0 and call[0].startswith(("[", "{\"d"))] \
        == [(run[0] if len(run) == 1 else "[" + ",\n".join(run) + "]", 0) for run in runs]
    assert max(map(len, runs)) == kernel_module._RUN_LINES
    assert (len(lines), sum(map(len, runs)), len(runs)) == (5343, 5331, 26)


def test_fleet_ticks_placement_builds_no_vector_beyond_the_demand(monkeypatch,
                                                                   tmp_path):
    """A placement over fleet_ticks' 17 candidate hosts, plain and as the
    offload loop asks it (one host excluded, tentative allocations, a
    utilization cap), builds one ResourceVector, the scaled demand: each
    host is tested on its allocation plus the demand without building the
    sum."""
    scheduler = Runtime(load_scenario(_workload_path("fleet_ticks", tmp_path))).scheduler
    app = scheduler.catalog.app("video-analytics")
    alloc = {nid: node.allocated for nid, node in scheduler.topology.nodes.items()}
    demand = app.demand.scaled(2)
    built = []
    post_init = ResourceVector.__post_init__
    monkeypatch.setattr(ResourceVector, "__post_init__",
                        lambda vec: built.append(vec) or post_init(vec))
    for options in ({}, {"exclude": frozenset({"edge01"}), "alloc_override": alloc,
                         "util_cap_after": 0.8}):
        built.clear()
        host = scheduler.select_host(app, "gw01-01", 2, **options)
        assert host == ("edge01" if not options else "cloud")
        assert built == [demand]


def test_fleet_ticks_offload_loop_overlays_only_the_nodes_it_moved_load_on(
        monkeypatch, tmp_path):
    """Each tentative allocation map the threshold loop hands select_host
    holds only the edges it has moved load off and the hosts it has moved
    load onto in that tick; select_host reads every other node at its own
    allocation. The run's trace is unchanged."""
    runtime = Runtime(load_scenario(_workload_path("fleet_ticks", tmp_path)))
    scheduler = runtime.scheduler
    select_host, check_thresholds = scheduler.select_host, scheduler.check_thresholds
    written: set[str] = set()
    sizes = []

    def spied_check():
        written.clear()
        return check_thresholds()

    def spied_select(app, source, replicas, exclude=frozenset(), alloc_override=None,
                     util_cap_after=None):
        if alloc_override is not None:
            sizes.append(len(alloc_override))
            assert set(alloc_override) <= written
        host = select_host(app, source, replicas, exclude, alloc_override,
                           util_cap_after)
        if alloc_override is not None and host is not None:
            written.update(exclude, {host})  # the victim's edge and its target
        return host

    monkeypatch.setattr(scheduler, "check_thresholds", spied_check)
    monkeypatch.setattr(scheduler, "select_host", spied_select)
    trace = runtime.run()
    assert trace.hash()[:16] == WORKLOAD_TRACE_HASHES["fleet_ticks"]
    assert (len(sizes), sorted(set(sizes))) == (48, [0, 2])


def test_mesh_churn_faults_re_derive_only_the_flows_they_can_change(tmp_path):
    """Counts the flow routes derived while a fault takes effect on
    mesh_churn at seed 1. Its 28 fault starts and ends see 1,680 active
    flows in all; only the flows whose gateway's search a fault dropped,
    or whose edge host gained or lost the cloud, are derived again. The
    run's trace is unchanged."""
    runtime = Runtime(load_scenario(_workload_path("mesh_churn", tmp_path)))
    flows, hold = runtime.flows, runtime._hold
    route = flows._route
    holding, derived = [], []

    def spied_hold(fault, delta):
        holding.append(fault)
        try:
            hold(fault, delta)
        finally:
            holding.pop()

    def spied_route(flow):
        if holding:
            derived.append(flow.flow_id)
        return route(flow)

    runtime._hold = spied_hold
    flows._route = spied_route
    trace = runtime.run()
    assert trace.hash()[:16] == WORKLOAD_TRACE_HASHES["mesh_churn"]
    assert len(derived) <= 500


@pytest.mark.parametrize("name, max_tests, max_settled", [
    ("fleet_ticks", 100, 900),
    ("mesh_churn", 100, 200),
])
def test_placement_tests_only_the_hosts_that_can_win(name, max_tests, max_settled,
                                                     tmp_path, monkeypatch):
    """Counts the capacity tests and the nodes settled inside select_host on
    a workload at seed 1. Hosts are walked nearest first, and the walk
    stops at the latency of the first feasible one: on fleet_ticks the 96
    calls test 96 hosts, not the 1,584 a scan of every allowed host tests,
    and settle 864 nodes, not 1,584; on mesh_churn the 23 calls settle 124
    nodes, not 828. The run's trace is unchanged."""
    runtime = Runtime(load_scenario(_workload_path(name, tmp_path)))
    scheduler = runtime.scheduler
    select_host, fraction_with = scheduler.select_host, ResourceVector.fraction_with
    settle = Topology._settle
    inside, counts = [], {"tests": 0, "settled": 0}

    def spied_select(*args, **kwargs):
        inside.append(True)
        try:
            return select_host(*args, **kwargs)
        finally:
            inside.pop()

    def spied_fraction_with(self, demand, capacity):
        counts["tests"] += bool(inside)
        return fraction_with(self, demand, capacity)

    def spied_settle(self, search, *args):
        before = len(search.tree)
        found = settle(self, search, *args)
        if inside:
            counts["settled"] += len(search.tree) - before
        return found

    monkeypatch.setattr(scheduler, "select_host", spied_select)
    monkeypatch.setattr(ResourceVector, "fraction_with", spied_fraction_with)
    monkeypatch.setattr(Topology, "_settle", spied_settle)
    trace = runtime.run()
    assert trace.hash()[:16] == WORKLOAD_TRACE_HASHES[name]
    assert counts["tests"] <= max_tests
    assert counts["settled"] <= max_settled


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_trace_hash_does_not_depend_on_the_string_hash_seed(hash_seed, tmp_path):
    """String hashing, and with it set iteration order, changes with
    PYTHONHASHSEED; the trace must not."""
    path = _workload_path("mesh_churn", tmp_path)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from fogsim.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert f"sha256 {WORKLOAD_TRACE_HASHES['mesh_churn']}" in done.stdout


def _undeclared_keys(section: str, raw: dict, where: str) -> list[str]:
    """The keys of `raw`, an entry of `section`, and of the entries nested
    in it, that SCENARIO_FIELDS does not declare. A script or fault entry
    has the fields of the section its type or kind names, too."""
    fields = dict(SCENARIO_FIELDS[section])
    if section in scenario_module._DISPATCH:
        fields.update(SCENARIO_FIELDS[raw[scenario_module._DISPATCH[section]]])
    undeclared = [f"{where}.{key}" for key in raw if key not in fields]
    for key, value in raw.items():
        of, _, inner = fields.get(key, ("",))[0].partition(" of ")
        if of == "mapping":
            undeclared += _undeclared_keys(inner, value, f"{where}.{key}")
        elif of == "list":
            for i, entry in enumerate(value):
                undeclared += _undeclared_keys(inner, entry, f"{where}.{key}[{i}]")
    return undeclared


def _scenario_fields_reference() -> str:
    """The README's table of scenario fields, made from SCENARIO_FIELDS."""
    lines = ["| Section | Field | Type | Default | Bound |", "|---|---|---|---|---|"]
    for section, fields in SCENARIO_FIELDS.items():
        for key, (ftype, default, *bound) in fields.items():
            default = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
            bound = f"`{bound[0]}`" if bound else ""
            lines.append(f"| `{section}` | `{key}` | {ftype} | {default} | {bound} |")
    return "\n".join(lines) + "\n"


def test_the_readme_lists_the_declared_scenario_fields():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Scenario fields\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert "\n".join(table) + "\n" == _scenario_fields_reference()


# the pinned runs: the fixtures, and the workloads at seeds 1 and 7
PINNED_RUNS = ([(name, None) for name in sorted(FIXTURE_TRACE_HASHES)]
               + [(name, seed) for seed in (1, 7)
                  for name in sorted(WORKLOAD_TRACE_HASHES)])


def _pinned_path(name: str, seed: int | None, tmp_path):
    return SCENARIO_DIR / f"{name}.yaml" if seed is None \
        else _workload_path(name, tmp_path, seed)


# sha256 prefixes of the repr of each pinned run's report
REPORT_HASHES = {("partition", None): "8f60aa2b17f2a0a5",
                 ("roaming", None): "e8ec3335105f8c82",
                 ("scaling", None): "e9536b97ead59163",
                 ("fleet_ticks", 1): "ed5a75780c0f4943",
                 ("mesh_churn", 1): "4c9d0b13f081b8bc",
                 ("star_steady", 1): "b3b419c372ffc2f1",
                 ("fleet_ticks", 7): "ff082a3721ca8f65",
                 ("mesh_churn", 7): "51264ef62149721e",
                 ("star_steady", 7): "335a14b6a2c5f62e"}


@pytest.mark.parametrize("name, seed", PINNED_RUNS,
                         ids=[name if seed in (None, 1) else f"{name}-seed{seed}"
                              for name, seed in PINNED_RUNS])
def test_the_report_of_a_pinned_run_is_unchanged(name, seed, tmp_path):
    trace = Runtime(load_scenario(_pinned_path(name, seed, tmp_path))).run()
    text = repr(report_from_trace(trace))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == REPORT_HASHES[name, seed]


@pytest.mark.parametrize("name, seed", PINNED_RUNS)
def test_every_key_the_pinned_scenarios_write_is_declared(name, seed, tmp_path):
    """So rejecting undeclared keys would move no pinned hash."""
    raw = yaml.safe_load(_pinned_path(name, seed, tmp_path).read_text())
    assert _undeclared_keys("scenario", raw, "scenario") == []


@pytest.mark.parametrize("name, seed", PINNED_RUNS,
                         ids=[name if seed in (None, 1) else f"{name}-seed{seed}"
                              for name, seed in PINNED_RUNS])
def test_trace_text_equals_the_per_record_reference(name, seed, tmp_path):
    trace = Runtime(load_scenario(_pinned_path(name, seed, tmp_path))).run()
    # consecutive windows hold one alloc map until an allocation changes
    windows = [r.details["alloc"] for r in trace if r.kind == "metrics_window"]
    assert any(a is b for a, b in zip(windows, windows[1:])) or name != "fleet_ticks"
    # every emitted record is written by the writer compiled for its keys
    assert all(record.writer is not None for record in trace)
    text = trace.to_jsonl()
    assert text == "".join(reference_record_json(r) + "\n" for r in trace)
    parsed = Trace.from_jsonl(text)
    assert all(record.writer is None for record in parsed)
    assert parsed.to_jsonl() == text


@pytest.mark.parametrize("name, seed", PINNED_RUNS)
def test_parsed_records_equal_the_per_line_reference(name, seed, tmp_path):
    text = Runtime(load_scenario(_pinned_path(name, seed, tmp_path))).run().to_jsonl()
    records = Trace.from_jsonl(text).records
    reference = reference_from_jsonl(text)
    assert records == reference and _exact(records) == _exact(reference)
    # consecutive windows whose alloc text is equal hold one parsed map
    windows = [r.details["alloc"] for r in records if r.kind == "metrics_window"]
    pairs = [(a, b) for a, b in zip(windows, windows[1:])
             if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)]
    assert all(a is b for a, b in pairs)
    assert pairs or name != "fleet_ticks"  # whose windows repeat most
    # and of windows whose maps differ, a map read against the one before
    # it holds that map's object for each entry of equal text
    expected = reference_shared_entries(text, kernel_module._CHARS_PER_READ)
    assert [records[b].details[key][k] is records[a].details[key][k]
            for a, b, key, k, _ in expected] == [shared for *_, shared in expected]
    assert any(shared for *_, shared in expected) or name != "fleet_ticks"


def _emit_calls() -> tuple[set[str], set[str], list[str]]:
    """The kinds that `.emit(` calls in src/fogsim name, the keywords that
    `._warn(` calls pass, and where a call names its kind, or passes its
    keywords, by anything but a string literal or a keyword name."""
    kinds, warned, unnamed = set(), set(), []
    for path in sorted((REPO_ROOT / "src" / "fogsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "_warn":
                if any(k.arg is None for k in node.keywords):  # **details
                    unnamed.append(f"{path.name}:{node.lineno}")
                warned.update(k.arg for k in node.keywords if k.arg is not None)
            if node.func.attr != "emit":
                continue
            kind = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "kind"), None)
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                kinds.add(kind.value)
            else:
                unnamed.append(f"{path.name}:{node.lineno}")
    return kinds, warned, unnamed


def test_every_emit_in_the_source_names_a_declared_kind():
    """Emitting an undeclared kind raises, and a pinned run reaches only
    some emit calls and some warnings' key sets; this sees them all."""
    kinds, warned, unnamed = _emit_calls()
    assert unnamed == []
    assert sorted(kinds ^ RECORD_KINDS.keys()) == []
    # _warn takes the reason positionally, and the fields of the cause by name
    warning_fields = {key.rstrip("?") for key, _ in RECORD_KINDS["warning"]}
    assert sorted(warned ^ (warning_fields - {"reason"})) == []


def test_the_source_has_one_capacity_rule():
    """Every capacity decision goes through Node.fits, the rounded-sum test
    that Topology.reserve makes: no module reads a node's `.free`, and only
    topology.py compares vectors with fits_within."""
    reads = []
    for path in sorted((REPO_ROOT / "src" / "fogsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "free"
                    or node.attr == "fits_within" and path.name != "topology.py"):
                reads.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert reads == []


def test_a_handler_takes_its_entry_and_no_event_box():
    """Each queued event carries the one object its handler reads: no
    handler in runtime.py reads a `.payload`, and kernel.py defines no
    Event or Fault class to box one in."""
    runtime_py = ast.parse((REPO_ROOT / "src" / "fogsim" / "runtime.py").read_text())
    assert [node.lineno for node in ast.walk(runtime_py)
            if isinstance(node, ast.Attribute) and node.attr == "payload"] == []
    kernel_py = ast.parse((REPO_ROOT / "src" / "fogsim" / "kernel.py").read_text())
    assert {node.name for node in ast.walk(kernel_py)
            if isinstance(node, ast.ClassDef)}.isdisjoint({"Event", "Fault"})


def test_one_scenario_runs_twice_to_one_trace_and_keeps_its_entries(tmp_path):
    """Handlers take the scenario's script and fault entries themselves, not
    copies, so they must mutate none: a second run of the same Scenario
    object gives the same trace, and the entries are as they were."""
    scenario = load_scenario(_workload_path("mesh_churn", tmp_path))
    assert scenario.script and scenario.faults
    entries = copy.deepcopy((scenario.script, scenario.faults))
    hashes = [Runtime(scenario).run().hash() for _ in range(2)]
    assert hashes[0] == hashes[1]
    assert (scenario.script, scenario.faults) == entries


def _raised_names() -> set[str]:
    """The names that `raise` statements in src/fogsim raise: `X` of
    `raise X(...)`, `raise errors.X(...)` and their forms without a call."""
    names = set()
    for path in sorted((REPO_ROOT / "src" / "fogsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Attribute):
                names.add(exc.attr)
            elif isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised_in_the_source():
    """Each FogSimError subclass is raised somewhere, so a class that
    nothing raises any more goes with its last raise."""
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.FogSimError)
               and value is not errors.FogSimError}
    assert sorted(classes - _raised_names()) == []


def _imported_modules(path) -> set[str]:
    """The modules the imports in `path` name, the fogsim package's by their
    own name: `m` of `from .m import x`, `from . import m`,
    `from fogsim.m import x` and `import fogsim.m`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("fogsim.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("fogsim").lstrip(".")
            names.update([module] if module else [alias.name for alias in node.names])
    return names


def test_only_the_runtime_dataflow_and_the_package_import_discovery():
    """The orchestrator takes plain values from the gateway agent, so the
    scheduler, among others, does not import it."""
    src = REPO_ROOT / "src" / "fogsim"
    importers = [path.stem for path in sorted(src.rglob("*.py"))
                 if "discovery" in _imported_modules(path)]
    assert importers == ["__init__", "dataflow", "runtime"]


def _unread_imports(path) -> list[str]:
    """The names the imports in `path` bind that its code never reads and
    its `__all__` does not export; `from __future__` imports bind no name."""
    tree = ast.parse(path.read_text(), str(path))
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_every_import_of_a_module_is_read():
    """An import that the module never reads is dead code. The package's
    __init__ imports only to re-export, so it is left out."""
    src = REPO_ROOT / "src" / "fogsim"
    unread = {path.stem: names for path in sorted(src.glob("*.py"))
              if path.name != "__init__.py" and (names := _unread_imports(path))}
    assert unread == {}


def test_every_tracer_target_exists():
    """perfbench --trace 1 wraps these by name; a rename would silently
    drop its metric."""
    targets = _perfbench_module("tracer").TARGETS
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


# --- scenario parsing: load_scenario's reader against the pure-Python oracle --


def _parse_both(text: str) -> tuple[str, str]:
    """repr of what `text` loads to, or the exception class it raises, under
    load_scenario's loader and under the pure-Python oracle. repr tells 1,
    1.0 and True apart, keeps key order and shows nan."""
    outcomes = []
    for parse in (scenario_module._load_yaml, reference_load_yaml):
        try:
            outcomes.append(repr(parse(text)))
        except (yaml.YAMLError, ValueError) as exc:
            outcomes.append(type(exc).__name__)
    return outcomes[0], outcomes[1]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixture_loads_as_under_the_pure_python_oracle(path):
    loaded, expected = _parse_both(path.read_text())
    assert loaded == expected
    assert expected.startswith("{")


@pytest.mark.parametrize("scale", [0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOAD_TRACE_HASHES))
def test_workload_loads_as_under_the_pure_python_oracle(name, seed, scale):
    text = _perfbench_module("workloads").scenario_yaml(name, seed, scale)
    loaded, expected = _parse_both(text)
    assert loaded == expected
    assert expected.startswith("{")


_yaml_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.floats(allow_nan=False), st.text())
_yaml_values = st.recursive(
    _yaml_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(document=st.dictionaries(st.text(max_size=12), _yaml_values, max_size=6),
       allow_unicode=st.booleans())
def test_scenario_loader_matches_the_oracle_on_dumped_mappings(document,
                                                               allow_unicode):
    text = yaml.safe_dump(document, allow_unicode=allow_unicode,
                          sort_keys=False)
    loaded, expected = _parse_both(text)
    assert loaded == expected
    assert expected.startswith("{")


# YAML 1.1 implicit types, tags, and documents both parsers reject
HAND_WRITTEN_DOCUMENTS = {
    "yes-off": "a: yes\nb: off\n",
    "octal": "a: 0o17\nb: 017\n",
    "hex": "a: 0x1F\n",
    "underscore": "a: 1_000\n",
    "sexagesimal": "a: 1:30\n",
    "infinity": "a: .inf\nb: -.Inf\nc: .nan\n",
    "tilde": "a: ~\n",
    "date": "a: 2001-02-03\nb: 2001-12-14t21:59:43.10-05:00\n",
    "merge-key": "base: &b {x: 1, y: 2}\nc:\n  <<: *b\n  y: 3\n",
    "duplicate-key": "a: 1\na: 2\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "unclosed-flow-list": "nodes: [unclosed\n",
    "tab-indent": "a:\n\tb: 1\n",
    "bel": "a: \x07\n",
    "bom": "\ufeffa: 1\n",
    "str-tag": "a: !!str 5\n",
    "anchor-alias": "a: &x [1, 2]\nb: *x\n",
    "anchor-before-unclosed-flow-list": "a: &x 1\nb: [[unclosed\n",
    "recursive-alias": "a: &x [1, *x]\n",
    "float-tag": "a: !!float 1\n",
    "non-specific-tag": "a: ! 5\nb: ! [1]\n",
    "set-tag": "a: !!set {x, y}\n",
    "omap-tag": "a: !!omap [x: 1]\n",
    "value-key": "=: 1\n",
    "value-as-value": "a: =\n",
    "merge-key-in-flow-mapping": "a: &b {x: 1}\nc: {<<: *b, y: 2}\n",
    "quoted-merge-key": "'<<': 1\n",
    "list-key-in-flow-mapping": "{[1]: 2}\n",
    "list-key-in-block-mapping": "? [a]\n: b\n",
    "empty-text": "",
    "document-start-only": "---\n",
    "tilde-document": "~\n",
    "bad-date-before-unclosed-flow-list": "a: 2001-02-30\nb: [unclosed\n",
    "bad-date-in-first-of-two-documents": "a: 2001-02-30\n---\nb: 1\n",
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
    "undefined-alias": "a: *x\n",
    "end-marker": "a: 1\n...\n",
    "yaml-directive": "%YAML 1.1\n---\na: 1\n",
    "block-scalars": "a: |\n  x\n  y\nb: >-\n  p\n  q\n",
    "duplicate-key-in-flow-mapping": "{a: 1, b: 2, a: 3}\n",
    "equal-keys": "{1: a, 1.0: b, true: c, 0x1: d}\n",
    "nan-keys": "{.nan: 1, .nan: 2}\n",
    "repeated-scalars": "[1, '1', \"1\", 1.0, yes, 'yes', ~, '~']\n",
}


@pytest.mark.parametrize("loader", [scenario_module._LOADER, yaml.SafeLoader],
                         ids=["_LOADER", "SafeLoader"])
@pytest.mark.parametrize("text", list(HAND_WRITTEN_DOCUMENTS.values()),
                         ids=list(HAND_WRITTEN_DOCUMENTS))
def test_scenario_loader_matches_the_oracle_on_edge_cases(text, loader,
                                                          monkeypatch):
    """Under libyaml's parser where PyYAML has it, and under the
    pure-Python parser that platforms without libyaml use."""
    monkeypatch.setattr(scenario_module, "_LOADER", loader)
    loaded, expected = _parse_both(text)
    assert loaded == expected


@pytest.mark.parametrize("tag", ["!!python/object/apply:os.getcwd []",
                                 "!!python/tuple [1, 2]"])
def test_python_tags_in_a_scenario_are_a_parse_error(tag, tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(minimal_scenario(name="NAME")))
    assert load_scenario(path).name == "NAME"
    path.write_text(path.read_text().replace("NAME", tag))
    with pytest.raises(errors.ParseError, match="python/"):
        load_scenario(path)


def _loader_spy(monkeypatch):
    """Replace load_scenario's loader class with a subclass that records
    the text each instance parses. The line reader makes one instance,
    given no text, only to type its tokens; each pass of the parser over a
    text makes one given the text."""
    class Spy(scenario_module._LOADER):
        texts = []

        def __init__(self, stream):
            Spy.texts.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(scenario_module, "_LOADER", Spy)
    return Spy


def test_scenarios_are_parsed_with_libyaml_where_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario_module._LOADER is expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixtures_load_in_one_pass_of_the_parser(path, monkeypatch):
    """The one pass is the line reader's: no loader parses the text."""
    spy = _loader_spy(monkeypatch)
    load_scenario(path)
    assert spy.texts == [""]


@pytest.mark.parametrize("scale", [0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOAD_TRACE_HASHES))
def test_workloads_load_in_one_pass_of_the_parser(name, seed, scale, tmp_path,
                                                  monkeypatch):
    """The one pass is the line reader's: no loader parses the text."""
    path = _workload_path(name, tmp_path, seed, scale)
    spy = _loader_spy(monkeypatch)
    load_scenario(path)
    assert spy.texts == [""]


def test_a_scenario_with_an_alias_loads_through_pyyaml_to_the_same_scenario(
        tmp_path, monkeypatch):
    plain = yaml.safe_dump(minimal_scenario(), sort_keys=False,
                           default_flow_style=None)
    assert plain.count("model: smartband") == 3
    aliased = plain.replace("model: smartband", "model: &m smartband", 1) \
        .replace("model: smartband", "model: *m")
    paths = tmp_path / "plain.yaml", tmp_path / "aliased.yaml"
    paths[0].write_text(plain)
    paths[1].write_text(aliased)
    spy = _loader_spy(monkeypatch)
    expected = load_scenario(paths[0])
    assert spy.texts == [""]  # the line reader alone
    assert load_scenario(paths[1]) == expected
    # the line reader stops at the anchor; the depth check, then yaml.load
    assert spy.texts == ["", "", aliased, aliased]


def _shipped_scenario_texts():
    workloads = _perfbench_module("workloads")
    texts = [pytest.param(path.read_text(), id=path.stem) for path in FIXTURES]
    return texts + [
        pytest.param(workloads.scenario_yaml(name, seed, scale),
                     id=f"{name}-seed{seed}-x{scale}")
        for name in sorted(WORKLOAD_TRACE_HASHES) for seed in (1, 7)
        for scale in (0.5, 1.0)]


@pytest.mark.parametrize("text", _shipped_scenario_texts())
def test_shipped_scenarios_take_the_line_reader(text, monkeypatch):
    def check_depth(text):
        raise AssertionError("left the line form")

    monkeypatch.setattr(scenario_module, "_check_depth", check_depth)
    assert scenario_module._load_yaml(text) == reference_load_yaml(text)


def _readme_scenario_example() -> str:
    readme = (REPO_ROOT / "README.md").read_text()
    return re.search(r"^## Scenarios\n.*?^```yaml\n(.*?)^```", readme,
                     re.S | re.M).group(1)


def test_the_readme_scenario_example_loads_through_pyyaml_and_validates(
        tmp_path, capsys):
    """The one shipped document outside the line form: its comments trail
    values and its flow mappings are aligned with extra spaces."""
    text = _readme_scenario_example()
    with pytest.raises(scenario_module._Unusual):
        scenario_module._read_lines(text)
    path = tmp_path / "example.yaml"
    path.write_text(text)
    assert load_scenario(path) == scenario_from_dict(reference_load_yaml(text))
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == \
        "ok: example (3 nodes, 2 apps, 2 script events)\n"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_libyaml_takes_a_tab_after_a_colon_where_safe_load_does_not():
    """Where libyaml's scanner and PyYAML's disagree, _load_yaml gives
    libyaml's reading, not yaml.safe_load's, as the README says."""
    assert scenario_module._load_yaml("a:\tb\n") == {"a": "b"}
    with pytest.raises(yaml.scanner.ScannerError):
        yaml.safe_load("a:\tb\n")


# --- the line form: documents the line reader takes, and near misses ----------

# plain tokens of YAML 1.1's implicit types, none whose construction fails
_PLAIN_TOKENS = st.one_of(
    st.sampled_from(["yes", "on", "Off", "NO", "y", "true", "null", "Null", "~",
                     "0x1F", "1_000", "017", "0o17", "0b101", "2001-02-03",
                     "1.5", "1.0e-3", "6.", "1..2", "nan", "inf", "a-b", "x.y",
                     "_", "0"]),
    st.integers(min_value=0).map(str),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True))
_QUOTED_TOKENS = st.builds("{0}{1}{0}".format, st.sampled_from("'\""),
                           st.from_regex(r"[A-Za-z0-9_. -]{0,8}", fullmatch=True))
_TOKENS = _PLAIN_TOKENS | _QUOTED_TOKENS


def _flow_mapping_lines(draw, indent: int) -> list[str]:
    """A flow mapping opened on a line `indent` deep: its text on that line,
    and each line it goes on at after a comma."""
    pairs = [f"{key}: {value}" for key, value in
             draw(st.lists(st.tuples(_TOKENS, _TOKENS), max_size=4))]
    lines = ["{" + ", ".join(pairs[:1])]
    for pair in pairs[1:]:
        if draw(st.booleans()):
            lines[-1] += ","
            lines.append(" " * (indent + draw(st.integers(1, 3))) + pair)
        else:
            lines[-1] += ", " + pair
    lines[-1] += "}"
    return lines


def _block_mapping_lines(draw, indent: int, depth: int) -> list[str]:
    lines = []
    kinds = ["token", "flow", "[]", "mapping", "sequence"][:5 if depth < 4 else 3]
    for _ in range(draw(st.integers(1, 4))):
        line = " " * indent + draw(_TOKENS) + ":"
        kind = draw(st.sampled_from(kinds))
        if kind == "token":
            lines.append(f"{line} {draw(_TOKENS)}")
        elif kind == "[]":
            lines.append(f"{line} []")
        elif kind == "flow":
            first, *rest = _flow_mapping_lines(draw, indent)
            lines += [f"{line} {first}", *rest]
        elif kind == "mapping":
            lines.append(line)
            lines += _block_mapping_lines(draw, indent + draw(st.integers(1, 3)),
                                          depth + 1)
        else:  # a sequence as deep as its key, or deeper
            lines.append(line)
            deep = indent + draw(st.integers(0, 2))
            for _ in range(draw(st.integers(1, 3))):
                first, *rest = _flow_mapping_lines(draw, deep)
                lines += [" " * deep + "- " + first, *rest]
        lines += draw(st.lists(st.sampled_from(["", "#", "  # a comment"]),
                               max_size=1))
    return lines


@st.composite
def _line_form_lines(draw) -> list[str]:
    return _block_mapping_lines(draw, 0, 1)


# near misses of the line form: texts outside it, each made of a line-form
# {document} and tokens {key} and {value}
_NEAR_MISSES = {
    "trailing-comment": "{document}{key}: {value} # c\n",
    "anchor": "{document}{key}: &a {value}\n",
    "alias": "{document}x: &a {value}\n{key}: *a\n",
    "str-tag": "{document}{key}: !!str {value}\n",
    "quote-in-quotes": "{document}{key}: 'it''s'\n",
    "backslash-in-quotes": '{document}{key}: "a\\tb"\n',
    "comma-in-quotes": "{document}{key}: {{k: 'a, b'}}\n",
    "colon-in-quotes": '{document}{key}: "a: b"\n',
    "tab-in-quotes": "{document}{key}: 'a\tb'\n",
    "tab-indent": "{document}{key}:\n\tk: {value}\n",
    "trailing-space": "{document}{key}: {value} \n",
    "crlf": "{document}{key}: {value}\r\n",
    "non-ascii": "{document}{key}: caf\u00e9\n",
    "continuation-not-deeper": "{document}{key}:\n  - {{a: {value},\n  b: 1}}\n",
    "key-continuation-not-deeper": "{document}{key}: {{a: {value},\nb: 1}}\n",
    "in-between-key": "{document}{key}:\n   a: {value}\n  b: 1\n",
    "key-without-block": "{document}{key}:\n",
    "document-start": "---\n{document}",
    "document-end": "{document}...\n",
    "merge-key": "{document}{key}:\n  <<: {{a: {value}}}\n",
    "leading-dot": "{document}{key}: .5\n",
    "bad-date": "{document}{key}: 2001-02-30\n",
    "long-line": "{document}x: " + "a" * 1022 + "\n",
    "long-key": "{document}" + "a" * 1023 + ": 1\n",
    "empty": "",
    "comments-only": "# c\n\n",
}


@settings(max_examples=200, deadline=None)
@given(lines=_line_form_lines(),
       loader=st.sampled_from([scenario_module._LOADER, yaml.SafeLoader]))
def test_line_form_documents_load_as_under_the_oracle_by_the_line_reader(lines,
                                                                         loader):
    text = "\n".join(lines) + "\n"
    with mock.patch.object(scenario_module, "_LOADER", loader), \
            mock.patch.object(scenario_module, "_check_depth",
                              side_effect=AssertionError("left the line form")):
        loaded, expected = _parse_both(text)
    assert loaded == expected
    assert expected.startswith("{")


@pytest.mark.parametrize("near_miss", sorted(_NEAR_MISSES))
@settings(max_examples=20, deadline=None)
@given(lines=_line_form_lines(), key=_TOKENS, value=_PLAIN_TOKENS)
def test_near_misses_of_the_line_form_load_as_under_the_oracle(near_miss, lines,
                                                                key, value):
    text = _NEAR_MISSES[near_miss].format(document="\n".join(lines) + "\n",
                                          key=key, value=value)
    with pytest.raises(scenario_module._Unusual):
        scenario_module._read_lines(text)
    loaded, expected = _parse_both(text)
    assert loaded == expected


def _nested_block_mappings(levels: int) -> str:
    return "".join(f"{' ' * i}k:\n" for i in range(levels - 1)) \
        + f"{' ' * (levels - 1)}k: v\n"


def test_block_nesting_past_the_limit_leaves_the_line_form():
    """The line reader takes block collections nesting less than 100 deep;
    deeper nesting leaves the line form, and the limit is 100."""
    text = _nested_block_mappings(99)
    assert scenario_module._read_lines(text) == reference_load_yaml(text)
    text = _nested_block_mappings(100)
    loaded, expected = _parse_both(text)
    assert loaded == expected and expected.startswith("{")
    text = _nested_block_mappings(101)
    with pytest.raises(scenario_module._Unusual):
        scenario_module._read_lines(text)
    with pytest.raises(yaml.YAMLError, match="^nesting deeper than 100 levels"):
        scenario_module._load_yaml(text)


def test_equal_flow_lists_load_as_distinct_objects():
    document = scenario_module._load_yaml("a: [1, x]\nb: [1, x]\nc: {k: 1}\n"
                                          "d: {k: 1}\n")
    assert document == {"a": [1, "x"], "b": [1, "x"], "c": {"k": 1},
                        "d": {"k": 1}}
    assert document["a"] is not document["b"]
    assert document["c"] is not document["d"]


@pytest.mark.parametrize("anchor", ["", "&n "], ids=["plain", "anchored"])
def test_deep_nesting_is_a_parse_error_not_a_crash(anchor, tmp_path):
    """A flow list nested 50,000 deep. With an anchor, the document goes to
    PyYAML's loader, whose composer recurses once per level. The CLI runs
    in a subprocess, so that a crash cannot take the test run with it."""
    depth = 50_000
    text = (SCENARIO_DIR / "scaling.yaml").read_text()
    text += f"notes: {anchor}" + "[" * depth + "]" * depth + "\n"
    path = tmp_path / "deep.yaml"
    path.write_text(text + ("more: *n\n" if anchor else ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from fogsim.cli import main; sys.exit(main(sys.argv[1:]))",
         "validate", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_VALIDATION, (done.returncode, done.stderr[-300:])
    assert done.stderr.startswith("invalid: ParseError: ")
    assert "nesting deeper than 100 levels" in done.stderr


@pytest.mark.parametrize("loader", [scenario_module._LOADER, yaml.SafeLoader],
                         ids=["_LOADER", "SafeLoader"])
@pytest.mark.parametrize("anchor", ["", "&n "], ids=["plain", "anchored"])
def test_documents_nest_at_most_100_deep(anchor, loader, monkeypatch):
    monkeypatch.setattr(scenario_module, "_LOADER", loader)
    for text in (f"a: {anchor}" + "[" * 99 + "]" * 99 + "\n",  # 100 with the root
                 anchor + "[" * 100 + "]" * 100 + "\n"):
        loaded, expected = _parse_both(text)
        assert loaded == expected and expected.startswith(("{", "["))
    for text in (f"a: {anchor}" + "[" * 100 + "]" * 100 + "\n",
                 anchor + "{a: " * 101 + "}" * 101 + "\n",
                 "a: &x 1\nb: " + "[" * 101 + "\n"):  # unclosed, past the limit
        with pytest.raises(yaml.YAMLError, match="^nesting deeper than 100 levels"):
            scenario_module._load_yaml(text)


# --- typing tokens: what the resolver would make of them, and when it is asked -

def _distinct_tokens(text: str) -> list[str]:
    """The distinct tokens the line reader types in reading `text`."""
    made = []

    class Recording(scenario_module._Tokens):
        def __init__(self, loader):
            super().__init__(loader)
            made.append(self)

    with mock.patch.object(scenario_module, "_Tokens", Recording):
        scenario_module._read_lines(text)
    return list(made[0])


def _resolver_typing(loader, token: str):
    """What yaml.load makes of `token` under `loader` when it is one scalar:
    a plain token through the resolver and the constructor, a quoted one
    the str between its quotes."""
    quoted = token[0] in "'\""
    value = token[1:-1] if quoted else token
    tag = loader.resolve(ScalarNode, value, (not quoted, quoted))
    return loader.construct_object(ScalarNode(tag, value), deep=True)


def _assert_typed_as_by_the_resolver(loader_class, tokens) -> None:
    loader = loader_class("")
    try:
        for token in tokens:
            try:
                expected = _resolver_typing(loader, token)
            except Exception:  # the constructor's error: the token is not line form
                with pytest.raises(scenario_module._Unusual):
                    scenario_module._Tokens(loader)[token]
                continue
            typed = scenario_module._Tokens(loader)[token]
            assert (type(typed), typed) == (type(expected), expected), token
    finally:
        loader.dispose()


_LOADERS = pytest.mark.parametrize(
    "loader", [scenario_module._LOADER, yaml.SafeLoader], ids=["_LOADER", "SafeLoader"])


@_LOADERS
@pytest.mark.parametrize("text", _shipped_scenario_texts())
def test_shipped_tokens_are_typed_as_by_the_resolver(text, loader):
    _assert_typed_as_by_the_resolver(loader, _distinct_tokens(text))


@settings(max_examples=300, deadline=None)
@given(token=st.from_regex(r"[0-9]{1,30}", fullmatch=True)
       | st.from_regex(scenario_module._PLAIN_TOKEN, fullmatch=True) | _PLAIN_TOKENS,
       loader=st.sampled_from([scenario_module._LOADER, yaml.SafeLoader]))
@example(token="0", loader=yaml.SafeLoader)
@example(token="00", loader=yaml.SafeLoader)
@example(token="017", loader=yaml.SafeLoader)
@example(token="018", loader=yaml.SafeLoader)
@example(token="1" * 30, loader=yaml.SafeLoader)
@example(token="0" * 30, loader=yaml.SafeLoader)
def test_plain_tokens_are_typed_as_by_the_resolver(token, loader):
    """Decimals, with leading zeros or 30 digits long, and plain words."""
    _assert_typed_as_by_the_resolver(loader, [token])


def _counting_resolves(loader_class):
    """A subclass of `loader_class` that records each value it resolves."""
    class Counting(loader_class):
        resolved = []

        def resolve(self, kind, value, implicit):
            Counting.resolved.append(value)
            return super().resolve(kind, value, implicit)

    return Counting


def test_words_are_typed_by_the_loaders_own_resolver_table(monkeypatch):
    """A resolver added for a first character types the words it starts; a
    wildcard resolver sends every word, but no decimal, to the resolver."""
    class XNull(yaml.SafeLoader):
        pass

    class Wildcard(yaml.SafeLoader):
        pass

    XNull.add_implicit_resolver("tag:yaml.org,2002:null", re.compile(r"^xnull$"), ["x"])
    Wildcard.add_implicit_resolver("tag:yaml.org,2002:null", re.compile(r"^zznull$"),
                                   None)
    assert "x" not in yaml.SafeLoader.yaml_implicit_resolvers
    assert None not in yaml.SafeLoader.yaml_implicit_resolvers
    text = "a: xnull\nb: zznull\nc: xray\nd: 42\n"
    words = ["a", "xnull", "b", "zznull", "c", "xray", "d"]
    for loader, nulls, resolved in ((yaml.SafeLoader, [], []),
                                    (XNull, ["a"], ["xnull", "xray"]),
                                    (Wildcard, ["b"], words)):
        counting = _counting_resolves(loader)
        monkeypatch.setattr(scenario_module, "_LOADER", counting)
        document = scenario_module._read_lines(text)
        assert document == yaml.load(text, Loader=loader)
        assert [key for key, value in document.items() if value is None] == nulls
        assert sorted(counting.resolved) == sorted(resolved)


def test_the_resolver_is_asked_only_for_words_an_implicit_type_may_start(
        tmp_path, monkeypatch):
    path = _workload_path("star_steady", tmp_path, seed=1)
    table = scenario_module._LOADER.yaml_implicit_resolvers
    asked = [token for token in _distinct_tokens(path.read_text())
             if token[0] not in "'\"" and not re.fullmatch(r"0|[1-9][0-9]*", token)
             and token[0] in table]
    counting = _counting_resolves(scenario_module._LOADER)
    monkeypatch.setattr(scenario_module, "_LOADER", counting)
    load_scenario(path)
    assert len(counting.resolved) == len(asked)
    assert sorted(counting.resolved) == sorted(asked)


def test_run_produces_report_equal_to_trace_replay():
    for path in FIXTURES:
        trace, report = run_scenario_file(path)
        replayed = report_from_trace(Trace.from_jsonl(trace.to_jsonl()))
        assert replayed == report


def test_truncated_trace_rejected():
    trace, _ = run_scenario_file(FIXTURES[0])
    truncated = Trace(trace.records[:-1])
    with pytest.raises(errors.MalformedTrace):
        report_from_trace(truncated)


def test_reordered_trace_rejected():
    trace, _ = run_scenario_file(FIXTURES[0])
    records = list(trace.records)
    records[0], records[1] = records[1], records[0]
    with pytest.raises(errors.MalformedTrace):
        report_from_trace(Trace(records))


@pytest.mark.parametrize("field, value", [
    ("seq", True), ("time_ms", False), ("kind", 1), ("subject", None),
], ids=["seq-a-bool", "time-a-bool", "kind-an-int", "subject-null"])
def test_a_record_field_of_the_wrong_type_is_rejected(field, value):
    trace, _ = run_scenario_file(FIXTURES[0])
    records = list(trace.records)
    records[0] = dataclasses.replace(records[0], **{field: value})
    with pytest.raises(errors.MalformedTrace, match="bad field types"):
        report_from_trace(Trace(records))


def test_the_report_reads_a_trace_once():
    trace, report = run_scenario_file(FIXTURES[0])

    class CountedTrace(Trace):
        iterations = 0

        def __iter__(self):
            self.iterations += 1
            return super().__iter__()

    counted = CountedTrace(trace.records)
    assert report_from_trace(counted) == report
    assert counted.iterations == 1


def test_the_report_folds_any_iterable_of_records():
    """A one-shot iterator, such as the stream `kernel.records` reads, and
    its events are counted as they go by."""
    trace, report = run_scenario_file(FIXTURES[0])
    assert report_from_trace(iter(trace.records)) == report
    assert report_from_trace(kernel_module.records(
        trace.to_jsonl().split("\n"))) == report
    assert report.summary["events"] == len(trace)


def test_cli_report_streams_the_file_and_builds_no_trace(tmp_path, capsys,
                                                         monkeypatch):
    path = tmp_path / "out.jsonl"
    assert main(["run", str(SCENARIO_DIR / "roaming.yaml"), "--trace", str(path)]) \
        == EXIT_OK
    *summary, _ = capsys.readouterr().out.splitlines()

    def refused(*args):
        raise AssertionError("a Trace was built")
    monkeypatch.setattr(Trace, "__init__", refused)
    assert main(["report", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == summary


def test_cli_report_names_a_line_that_is_not_utf8(tmp_path, capsys):
    trace, _ = run_scenario_file(SCENARIO_DIR / "roaming.yaml")
    first, *rest = trace.to_jsonl().encode().split(b"\n")
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join([first, b'{"details":{"a":"\xff"}}', *rest]))
    assert main(["report", str(path)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(
        "runtime error: MalformedTrace: line 2: not UTF-8: ")


@pytest.mark.parametrize("bad", [b"garbage", b'{"details":{"a":"\xff"}}'],
                         ids=["not-json", "not-utf8"])
def test_cli_report_meets_a_record_after_run_end_before_a_later_bad_line(
        bad, tmp_path, capsys):
    """The report folds each record as it is read, so a record after the
    run_end fails before a bad line after it is read, one that fails as it
    is read, being no UTF-8, included; a parsed trace fails at the bad line
    first."""
    trace, _ = run_scenario_file(SCENARIO_DIR / "roaming.yaml")
    last = trace.records[-1]
    after = dataclasses.replace(last, seq=last.seq + 1)
    path = tmp_path / "bad.jsonl"
    path.write_bytes((trace.to_jsonl() + after.to_json() + "\n").encode() + bad + b"\n")
    with pytest.raises(errors.MalformedTrace, match=f"^line {len(trace) + 2}: "):
        Trace.from_jsonl(path.read_bytes().decode(errors="replace"))
    assert main(["report", str(path)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (f"runtime error: MalformedTrace: record "
                                       f"{last.seq + 1} (run_end): after run_end\n")


def test_cli_report_rejects_a_bool_sequence_number(tmp_path, capsys):
    trace, _ = run_scenario_file(SCENARIO_DIR / "roaming.yaml")
    text = trace.to_jsonl()
    assert '"seq":1,' in text.splitlines()[0]
    path = tmp_path / "bad.jsonl"
    path.write_text(text.replace('"seq":1,', '"seq":true,', 1))
    assert main(["report", str(path)]) == EXIT_RUNTIME
    assert "bad field types" in capsys.readouterr().err


def test_until_stops_the_clock():
    scenario = scenario_from_dict(minimal_scenario())
    trace, _ = run_scenario(scenario, until=2000)
    assert all(r.time_ms <= 2000 for r in trace.records)


def test_a_negative_until_is_a_validation_error_and_zero_runs():
    runtime = Runtime(scenario_from_dict(minimal_scenario()))
    with pytest.raises(errors.ValidationError, match="until"):
        runtime.run(-5)
    assert len(runtime.kernel.trace) == 1  # scenario_loaded alone
    trace, report = run_scenario(scenario_from_dict(minimal_scenario()), until=0)
    assert [r.kind for r in trace] == ["scenario_loaded", "run_end"]
    assert trace.records[-1].details["duration_ms"] == 0


def _scenario_with_a_workload_rate(rate: float) -> dict:
    raw = minimal_scenario()
    raw["script"].append({"type": "workload", "time": 2000, "device": "dev1",
                          "data_rate_kbps": rate})
    return raw


@pytest.mark.parametrize("raw, until", [
    (minimal_scenario(), 10 ** 306),
    (minimal_scenario(), 10 ** 309),
    (_scenario_with_a_workload_rate(1e300), 10 ** 10),
    (minimal_scenario(topology={"nodes": minimal_scenario()["topology"]["nodes"]},
                      devices=[], firmware=[], script=[]), 10 ** 309),
], ids=["product-overflows", "too-large-for-a-float", "workload-rate",
        "no-rate-too-large-for-a-float"])
def test_an_until_too_long_for_the_scenario_is_a_validation_error(raw, until):
    """The check load_scenario applies to duration_ms: each rate and
    bandwidth times the run's length must be finite."""
    runtime = Runtime(scenario_from_dict(raw))
    with pytest.raises(errors.ValidationError, match="until"):
        runtime.run(until)
    assert len(runtime.kernel.trace) == 1  # scenario_loaded alone


@pytest.mark.parametrize("first, second", [(5000, None), (None, 3000), (700, 1400)],
                         ids=["cut-then-whole", "whole-then-cut", "stepped"])
def test_a_runtime_runs_once(first, second):
    """A second Runtime.run raises, naming when the run ended, and appends
    nothing: a trace holds one run and one run_end. Stepping a run is
    Kernel.run's."""
    runtime = Runtime(load_scenario(SCENARIO_DIR / "roaming.yaml"))
    records = list(runtime.run(first).records)
    ended = runtime.scenario.duration_ms if first is None else first
    with pytest.raises(errors.InvariantViolation, match=f" ended at {ended} ms;"):
        runtime.run(second)
    assert runtime.kernel.trace.records == records
    assert [r.kind for r in records].count("run_end") == 1


def test_a_run_cannot_end_before_the_stepped_clock():
    """An `until` before the time the kernel was stepped to raises, naming
    both times, appends nothing, and leaves the Runtime to run."""
    runtime = Runtime(load_scenario(SCENARIO_DIR / "roaming.yaml"))
    runtime.kernel.run(5000)
    records = list(runtime.kernel.trace.records)
    with pytest.raises(errors.ValidationError, match=r"^roaming-demo: the run cannot "
                       r"end at 3000 ms, before the clock at 5000 ms$"):
        runtime.run(3000)
    assert runtime.kernel.trace.records == records
    assert runtime.run().hash()[:16] == FIXTURE_TRACE_HASHES["roaming"]


def test_a_run_cannot_end_at_its_duration_once_stepped_past_it():
    """A fault may end after the scenario's duration, and a kernel stepped
    to it has passed the default end."""
    raw = yaml.safe_load((SCENARIO_DIR / "roaming.yaml").read_text())
    raw["faults"] = [{"kind": "LinkDown", "target": "gw1--edge1", "start": 11000,
                      "duration_ms": 2000}]
    runtime = Runtime(scenario_from_dict(raw))
    runtime.kernel.run(13000)
    with pytest.raises(errors.ValidationError,
                       match=r"cannot end at 12000 ms, before the clock at 13000 ms$"):
        runtime.run()


def test_a_run_stepped_through_the_kernel_hashes_as_one_run():
    runtime = Runtime(load_scenario(SCENARIO_DIR / "roaming.yaml"))
    with pytest.raises(errors.ValidationError, match="until"):
        runtime.run(-5)  # rejected before it starts a run
    for t in range(0, runtime.scenario.duration_ms, 700):
        runtime.kernel.run(t)
    assert runtime.run().hash()[:16] == FIXTURE_TRACE_HASHES["roaming"]


@pytest.mark.parametrize("kind", ["run_end", "warning"])
def test_a_record_after_run_end_is_rejected(kind):
    trace, _ = run_scenario_file(SCENARIO_DIR / "roaming.yaml")
    last = trace.records[-1]
    after = dataclasses.replace(last, seq=last.seq + 1, kind=kind, details={
        "duration_ms": 0, "migrations": 0} if kind == "run_end" else {"reason": "x"})
    with pytest.raises(errors.MalformedTrace,
                       match=rf"^record {last.seq + 1} \({kind}\): after run_end$"):
        report_from_trace(Trace([*trace.records, after]))


@pytest.mark.parametrize("until", [10 ** 306, 10 ** 309],
                         ids=["product-overflows", "too-large-for-a-float"])
def test_cli_run_rejects_an_until_too_long_for_the_scenario(until, capsys):
    code = main(["run", str(SCENARIO_DIR / "scaling.yaml"), "--until", str(until)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: ValidationError: ")


def test_every_report_total_is_a_float_when_no_window_closed(tmp_path):
    """A run cut before its first window, and fleet_ticks, where no flow
    ever closes a window."""
    _, cut = run_scenario(scenario_from_dict(minimal_scenario()), until=0)
    _, fleet = run_scenario_file(_workload_path("fleet_ticks", tmp_path))
    for report in (cut, fleet):
        totals = {key: value for key, value in report.summary.items()
                  if key.startswith("total_")}
        assert len(totals) == 5
        assert {key: type(value) for key, value in totals.items()} == \
            dict.fromkeys(totals, float)


def test_every_script_type_has_a_runtime_handler():
    runtime = Runtime(scenario_from_dict(minimal_scenario()))
    for etype, kind in SCRIPT_EVENTS.items():
        assert kind in runtime.kernel.handlers, etype


def test_inject_fault_unknown_target():
    scenario = scenario_from_dict(minimal_scenario())
    # validation rejects unknown targets; the runtime checks again
    scenario.faults = [{"target": "nope", "kind": "NodeDown", "start": 0,
                        "duration_ms": 10}]
    with pytest.raises(errors.UnknownTarget):
        Runtime(scenario)


@pytest.mark.parametrize("starts", [(1000, 1500, 2000), (2000, 1500, 1000)],
                         ids=["node-link-partition", "partition-link-node"])
def test_overlapping_faults_restore_every_element(starts):
    kinds = [("edge1", "NodeDown"), ("edge1--cloud", "LinkDown"),
             ("cloud", "CloudPartition")]
    faults = [{"target": target, "kind": kind, "start": start,
               "duration_ms": 2000}
              for (target, kind), start in zip(kinds, starts)]
    runtime = Runtime(scenario_from_dict(minimal_scenario(faults=faults)))
    trace = runtime.run()
    topo = runtime.topology
    assert [r.time_ms for r in trace if r.kind == "fault_end"] == \
        sorted(start + 2000 for start in starts)
    assert all(node.up for node in topo.nodes.values())
    assert all(link.up for link in topo.links.values())


@pytest.mark.parametrize("faults, probe_ms", [
    ([("edge1--cloud", "LinkDown", 1500), ("cloud", "CloudPartition", 2000)], 3750),
    ([("cloud", "CloudPartition", 1000), ("edge1--cloud", "LinkDown", 1500)], 3250),
], ids=["link-then-partition", "partition-then-link"])
def test_overlapping_faults_hold_the_link_down_until_the_last_ends(faults, probe_ms):
    faults = [{"target": target, "kind": kind, "start": start, "duration_ms": 2000}
              for target, kind, start in faults]
    runtime = Runtime(scenario_from_dict(minimal_scenario(faults=faults)))
    runtime.kernel.run(probe_ms)
    assert not runtime.topology.links["edge1--cloud"].up


def test_same_start_faults_bring_the_link_back_up_after_both_end():
    faults = [{"target": "edge1--cloud", "kind": "LinkDown", "start": 1500,
               "duration_ms": duration} for duration in (500, 1000)]
    runtime = Runtime(scenario_from_dict(minimal_scenario(faults=faults)))
    for probe_ms in (2600, 4000):
        runtime.kernel.run(probe_ms)
        assert runtime.topology.links["edge1--cloud"].up, probe_ms


# the edge1 -- cloud link is named after the node edge1, so holding one
# must not hold the other
FAULT_TARGETS = [("gw1--edge1", "LinkDown"), ("edge1", "LinkDown"),
                 ("edge1", "NodeDown"), ("gw1", "NodeDown"),
                 ("cloud", "CloudPartition")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(schedule=st.lists(st.tuples(st.sampled_from(FAULT_TARGETS),
                                   st.integers(0, 12), st.integers(1, 8)),
                         max_size=6))
def test_an_element_is_up_exactly_while_no_fault_holds_it(schedule):
    """Random overlapping fault schedules, repeated and same-start faults
    included. Faults start and end on multiples of 250 ms and the probes fall
    halfway between, so no probe shares a time with a fault event. `store`
    runs only in the cloud, so the flow from gw1 routes over both links."""
    faults = [{"target": target, "kind": kind, "start": 250 * start,
               "duration_ms": 250 * length}
              for (target, kind), start, length in schedule]
    store = {"id": "store", "kind": "DataApp", "cpu": 500, "mem": 1024,
             "storage": 256, "state_size_mb": 1, "allowed_tiers": ["CentralCloud"]}
    raw = minimal_scenario(faults=faults)
    raw["topology"]["links"][1]["id"] = "edge1"
    raw["apps"] = raw["apps"] + [store]
    raw["script"] = [{"type": "place", "time": 0, "app": "store",
                      "source": "gw1"}] + raw["script"]
    runtime = Runtime(scenario_from_dict(raw))
    topo = runtime.topology
    for probe_ms in range(125, 5000, 250):
        runtime.kernel.run(probe_ms)
        active = [f for f in faults
                  if f["start"] < probe_ms < f["start"] + f["duration_ms"]]
        down_links = {f["target"] for f in active if f["kind"] == "LinkDown"}
        if any(f["kind"] == "CloudPartition" for f in active):
            down_links |= set(topo.links_at("cloud"))
        down_nodes = {f["target"] for f in active if f["kind"] == "NodeDown"}
        assert {lid for lid, link in topo.links.items() if not link.up} == \
            down_links, probe_ms
        assert {nid for nid, node in topo.nodes.items() if not node.up} == \
            down_nodes, probe_ms
        for flow in runtime.flows.flows.values():
            if flow.active and flow.path is not None:
                assert all(link.up and topo.nodes[link.a].up and topo.nodes[link.b].up
                           for link in flow.path), (probe_ms, flow.flow_id)


def test_seed_override_recorded():
    scenario = scenario_from_dict(minimal_scenario())
    trace, _ = run_scenario(scenario, seed=99)
    loaded = next(r for r in trace if r.kind == "scenario_loaded")
    assert loaded.details["seed"] == 99


def test_a_seed_override_leaves_the_callers_scenario_as_it_was():
    """Same scenario, same trace: a run under another seed does not change
    the scenario that a later run without one reads."""
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    hashes = [run_scenario(scenario, seed=seed)[0].hash()[:16]
              for seed in (None, 99, None)]
    assert hashes[0] == hashes[2] == FIXTURE_TRACE_HASHES["roaming"]
    assert hashes[1] != hashes[0]
    assert scenario.seed == 42


# --- CLI ------------------------------------------------------------------------


def test_cli_validate_ok(capsys):
    assert main(["validate", str(FIXTURES[0])]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ok:")


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent.yaml"]) == EXIT_VALIDATION
    assert "invalid" in capsys.readouterr().err


def test_cli_validate_bad_scenario(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema_version: 7\nduration_ms: 10\n")
    assert main(["validate", str(path)]) == EXIT_VALIDATION


def test_cli_run_writes_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    metrics_path = tmp_path / "out.csv"
    code = main(["run", str(SCENARIO_DIR / "roaming.yaml"),
                 "--trace", str(trace_path), "--metrics", str(metrics_path)])
    assert code == EXIT_OK
    replayed = Trace.from_jsonl(trace_path.read_text())
    assert replayed.records[-1].kind == "run_end"
    header = metrics_path.read_text().splitlines()[0]
    assert header.startswith("window_start,window_end,generated_mb")
    assert "scenario:" in capsys.readouterr().out


def test_cli_run_rejects_a_negative_until(tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    code = main(["run", str(SCENARIO_DIR / "roaming.yaml"), "--until", "-5",
                 "--trace", str(trace_path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: ValidationError: ")
    assert not trace_path.exists()
    assert main(["run", str(SCENARIO_DIR / "roaming.yaml"), "--until", "0",
                 "--trace", str(trace_path)]) == EXIT_OK
    assert Trace.from_jsonl(trace_path.read_text()).records[-1].details == \
        {"duration_ms": 0, "migrations": 0}


@pytest.mark.parametrize("name", ["roaming", "fleet_ticks"])
def test_cli_report_roundtrip(name, tmp_path, capsys):
    """fleet_ticks at seed 1, whose window maps are read against the last
    map at their key, as well as a fixture."""
    path = SCENARIO_DIR / f"{name}.yaml" if name == "roaming" \
        else _workload_path(name, tmp_path)
    trace_path = tmp_path / "out.jsonl"
    assert main(["run", str(path), "--trace", str(trace_path)]) == EXIT_OK
    run_out = capsys.readouterr().out
    assert main(["report", str(trace_path)]) == EXIT_OK
    report_out = capsys.readouterr().out
    # replaying the trace prints each summary line of the run, and no other
    *summary, trace_line = run_out.splitlines()
    assert trace_line.startswith("trace: ") and summary
    assert report_out.splitlines() == summary


def test_cli_report_missing_and_malformed(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.jsonl")]) == EXIT_RUNTIME
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    assert main(["report", str(bad)]) == EXIT_RUNTIME


def test_cli_report_non_utf8_is_a_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe")
    assert main(["report", str(bad)]) == EXIT_RUNTIME
    assert "runtime error: MalformedTrace" in capsys.readouterr().err


@pytest.mark.parametrize("kind, breaks, field", [
    ("metrics_window", lambda record: record["details"].pop("utilization"),
     "utilization"),
    ("scheduler_tick", lambda record: record.update(kind="defer", details=["edge1"]),
     "details"),
    ("flow_window", lambda record: record["details"].update(cum_dropped_mb="0.5"),
     "cum_dropped_mb"),
    ("metrics_window", lambda record: record["details"].update(window_start="0"),
     "window_start"),
    ("metrics_window", lambda record: record["details"].update(generated_mb=True),
     "generated_mb"),
    ("metrics_window", lambda record: record["details"].update(utilization=[1]),
     "utilization"),
    ("metrics_window", lambda record: record["details"].pop("uplink_mb"), "uplink_mb"),
    ("run_end", lambda record: record.update(details=list(record["details"].values())),
     "details"),
    ("flow_window", lambda record: record["details"].update(cum_dropped_mb=math.nan),
     "cum_dropped_mb"),
    ("metrics_window", lambda record: record["details"].update(generated_mb=math.nan),
     "generated_mb"),
    ("metrics_window", lambda record: record["details"].update(uplink_ratio=math.inf),
     "uplink_ratio"),
    ("metrics_window", lambda record: record["details"].update(delivered_mb=-math.inf),
     "delivered_mb"),
    ("metrics_window", lambda record: record["details"].update(uplink_mb=10 ** 400),
     "uplink_mb"),
], ids=["metrics-window-without-utilization", "defer-details-a-list",
        "cum-dropped-a-string", "window-start-a-string", "generated-a-bool",
        "utilization-a-list", "metrics-window-without-uplink", "run-end-details-a-list",
        "cum-dropped-nan", "generated-nan", "uplink-ratio-infinite",
        "delivered-minus-infinite", "uplink-an-int-beyond-a-float"])
def test_cli_report_names_a_record_of_the_wrong_shape(kind, breaks, field, tmp_path,
                                                      capsys):
    """Each trace parses; the report then names the bad record, its kind and
    the field."""
    trace, _ = run_scenario_file(SCENARIO_DIR / "roaming.yaml")
    records = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    bad = [record for record in records if record["kind"] == kind][-1]
    breaks(bad)
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    named = f"record {bad['seq']} ({bad['kind']}): {field} "
    with pytest.raises(errors.MalformedTrace) as raised:
        report_from_trace(Trace.from_jsonl(path.read_text()))
    assert str(raised.value).startswith(named)
    assert main(["report", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: MalformedTrace: {named}")


@pytest.mark.parametrize("option", ["--trace", "--metrics"])
def test_cli_run_unwritable_output_is_a_runtime_error(option, tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    code = main(["run", str(SCENARIO_DIR / "roaming.yaml"), option, str(target)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime error:")


def test_cli_run_prints_the_hash_of_the_file_it_wrote(tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    assert main(["run", str(SCENARIO_DIR / "roaming.yaml"),
                 "--trace", str(trace_path)]) == EXIT_OK
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert f"sha256 {digest[:16]}" in capsys.readouterr().out
