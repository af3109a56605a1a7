from __future__ import annotations

import copy
import hashlib
import importlib.util
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim import scenario as scenario_module
from fogsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from fogsim.control import run_scenario, run_scenario_file
from fogsim.kernel import Trace
from fogsim.report import report_from_trace, validate_trace
from fogsim.runtime import Runtime
from fogsim.scenario import SCRIPT_EVENTS, load_scenario, scenario_from_dict

from fixture_paths import FIXTURES, REPO_ROOT, SCENARIO_DIR
from oracles import reference_load_yaml


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
    (lambda raw: raw["script"][0].update(replicas=0), errors.InvariantViolation),
], ids=["node-without-tier", "unknown-tier", "link-without-latency",
        "device-rate-not-a-number", "workload-rate-not-a-number",
        "fault-duration-not-a-number", "place-replicas-not-a-number",
        "fault-start-negative", "place-replicas-zero"])
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
FIXTURE_TRACE_HASHES = {"roaming": "8b380175453a130c",
                        "scaling": "fa59472aa104b5cb",
                        "partition": "0b22252e7dfbb83d"}


@pytest.mark.parametrize("name", sorted(FIXTURE_TRACE_HASHES))
def test_fixture_trace_hash_is_unchanged(name):
    runtime = Runtime(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    assert runtime.run().hash()[:16] == FIXTURE_TRACE_HASHES[name]


# sha256 prefixes of the benchmark workloads' traces at seed 1; these runs
# reach the threshold loop, migrations and faults far more than the fixtures
WORKLOAD_TRACE_HASHES = {"star_steady": "e9f19e9da4fa43cf",
                         "mesh_churn": "5282dadc50d285be",
                         "fleet_ticks": "5b91a3713017c90a"}


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(WORKLOAD_TRACE_HASHES))
def test_workload_trace_hash_is_unchanged(name, tmp_path):
    path = tmp_path / f"{name}.yaml"
    path.write_text(_perfbench_module("workloads").scenario_yaml(name, 1))
    runtime = Runtime(load_scenario(path))
    assert runtime.run().hash()[:16] == WORKLOAD_TRACE_HASHES[name]


def test_every_tracer_target_exists():
    """perfbench --trace 1 wraps these by name; a rename would silently
    drop its metric."""
    targets = _perfbench_module("tracer").TARGETS
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


# --- scenario parsing: libyaml against the pure-Python oracle -----------------


def _parse_both(text: str) -> tuple[str, str]:
    """repr of what `text` loads to, or the exception class it raises, under
    load_scenario's loader and under the pure-Python oracle. repr tells 1,
    1.0 and True apart, keeps key order and shows nan."""
    outcomes = []
    for parse in (lambda t: yaml.load(t, Loader=scenario_module._LOADER),
                  reference_load_yaml):
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
}


@pytest.mark.parametrize("text", list(HAND_WRITTEN_DOCUMENTS.values()),
                         ids=list(HAND_WRITTEN_DOCUMENTS))
def test_scenario_loader_matches_the_oracle_on_edge_cases(text):
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


def test_scenarios_are_parsed_with_libyaml_where_pyyaml_has_it(monkeypatch):
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario_module._LOADER is expected

    class Spy(expected):
        streams = 0

        def __init__(self, stream):
            Spy.streams += 1
            super().__init__(stream)

    monkeypatch.setattr(scenario_module, "_LOADER", Spy)
    load_scenario(SCENARIO_DIR / "roaming.yaml")
    assert Spy.streams == 1


def test_run_produces_report_equal_to_trace_replay():
    for path in FIXTURES:
        trace, report = run_scenario_file(path)
        replayed = report_from_trace(Trace.from_jsonl(trace.to_jsonl()))
        assert replayed == report


def test_truncated_trace_rejected():
    trace, _ = run_scenario_file(FIXTURES[0])
    truncated = Trace(trace.records[:-1])
    with pytest.raises(errors.MalformedTrace):
        validate_trace(truncated)


def test_reordered_trace_rejected():
    trace, _ = run_scenario_file(FIXTURES[0])
    records = list(trace.records)
    records[0], records[1] = records[1], records[0]
    with pytest.raises(errors.MalformedTrace):
        validate_trace(Trace(records))


def test_until_stops_the_clock():
    scenario = scenario_from_dict(minimal_scenario())
    trace, _ = run_scenario(scenario, until=2000)
    assert all(r.time_ms <= 2000 for r in trace.records)


def test_every_script_type_has_a_runtime_handler():
    runtime = Runtime(scenario_from_dict(minimal_scenario()))
    for etype, (kind, _) in SCRIPT_EVENTS.items():
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


@pytest.mark.xfail(strict=True, reason="up/down state is not counted per fault: "
                   "the first fault to end brings edge1--cloud back up while "
                   "the other still holds it down")
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


def test_seed_override_recorded():
    scenario = scenario_from_dict(minimal_scenario())
    trace, _ = run_scenario(scenario, seed=99)
    loaded = next(r for r in trace if r.kind == "scenario_loaded")
    assert loaded.details["seed"] == 99


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


def test_cli_report_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    main(["run", str(SCENARIO_DIR / "roaming.yaml"), "--trace", str(trace_path)])
    run_out = capsys.readouterr().out
    assert main(["report", str(trace_path)]) == EXIT_OK
    report_out = capsys.readouterr().out
    # every summary line of the run reappears when replaying the trace
    for line in report_out.splitlines():
        assert line in run_out


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
