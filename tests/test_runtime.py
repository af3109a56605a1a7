"""Runtime handlers: which flows they integrate, what they record on a
rejected offload, and where an attach may land."""

from __future__ import annotations

import pytest

from fogsim.kernel import EventKind
from fogsim.report import report_from_trace
from fogsim.runtime import Runtime
from fogsim.scenario import load_scenario, scenario_from_dict
from fogsim.scheduler import Offload
from fogsim.topology import ResourceVector

from fixture_paths import SCENARIO_DIR


def two_edge_scenario(**overrides) -> dict:
    """gw1 and gw2 under edge1, gw3 under edge2, both edges under the cloud.
    `agg` is placed for gw1 on edge1 and `store` for gw2 in the cloud, and a
    device attaches at each gateway at 200 ms, so three flows run:
    gw1 -> edge1, gw2 -> edge1 -> cloud and gw3 -> edge2. No scheduler tick
    falls before 10 s."""
    edge = {"tier": "EdgeModule", "cpu": 8000, "mem": 16384, "storage": 491520}
    gateway = {"tier": "Gateway", "cpu": 4000, "mem": 1024, "storage": 16384}
    raw = {
        "schema_version": 1, "name": "two-edge", "duration_ms": 20000,
        "scheduler_tick_ms": 10000,
        "topology": {
            "nodes": [{"id": "cloud", "tier": "CentralCloud", "cpu": 64000,
                       "mem": 98304, "storage": 11534336},
                      {"id": "edge1", **edge}, {"id": "edge2", **edge},
                      {"id": "gw1", **gateway}, {"id": "gw2", **gateway},
                      {"id": "gw3", **gateway}],
            "links": [{"a": a, "b": b, "latency_ms": latency, "bandwidth_mbps": 100}
                      for a, b, latency in [("gw1", "edge1", 2), ("gw2", "edge1", 2),
                                            ("gw3", "edge2", 2), ("edge1", "cloud", 20),
                                            ("edge2", "cloud", 20)]]},
        "apps": [{"id": "agent", "kind": "IoTApp", "cpu": 100, "mem": 64,
                  "storage": 16, "state_size_mb": 1},
                 {"id": "agg", "kind": "DataApp", "cpu": 500, "mem": 1024,
                  "storage": 256, "state_size_mb": 1, "aggregation_factor": 4,
                  "allowed_tiers": ["EdgeModule", "CentralCloud"]},
                 {"id": "store", "kind": "DataApp", "cpu": 500, "mem": 1024,
                  "storage": 256, "state_size_mb": 1,
                  "allowed_tiers": ["CentralCloud"]}],
        "devices": [{"model": "smartband", "os_version": "1.0", "protocol": "BLE",
                     "data_rate_kbps": 100, "iot_app": "agent"}],
        "firmware": [{"model": "smartband", "os_version": "1.0", "version": "1.2"}],
        "script": [{"type": "place", "time": 100, "app": "agg", "source": "gw1"},
                   {"type": "place", "time": 100, "app": "store", "source": "gw2"}]
        + [{"type": "attach", "time": 200, "device": f"dev{i}", "gateway": f"gw{i}",
            "model": "smartband", "os_version": "1.0"} for i in (1, 2, 3)],
    }
    raw.update(overrides)
    return raw


def flows_by_device(runtime: Runtime) -> dict:
    return {flow.device_id: flow for flow in runtime.flows.flows.values()
            if flow.active}


def last_ms(runtime: Runtime) -> dict[str, int]:
    return {device: flow.last_ms for device, flow in flows_by_device(runtime).items()}


def test_a_fault_on_a_link_no_flow_crosses_integrates_no_flow():
    faults = [{"target": "edge2--cloud", "kind": "LinkDown", "start": 1500,
               "duration_ms": 1000}]
    runtime = Runtime(scenario_from_dict(two_edge_scenario(faults=faults)))
    runtime.kernel.run(1000)
    before = last_ms(runtime)
    assert set(before.values()) == {200}
    runtime.kernel.run(1500)
    assert not runtime.topology.links["edge2--cloud"].up
    assert last_ms(runtime) == before
    runtime.kernel.run(2500)
    assert runtime.topology.links["edge2--cloud"].up
    assert last_ms(runtime) == before


def test_a_migration_completion_integrates_only_the_flows_it_reroutes():
    """agg moves from edge1 to the cloud: its flow joins edge1--cloud, which
    dev2's flow crosses, and dev3's flow shares no link with either."""
    runtime = Runtime(scenario_from_dict(two_edge_scenario()))
    runtime.kernel.run(1000)
    runtime.kernel.now = 1000
    routes = {device: [link.link_id for link in flow.path]
              for device, flow in flows_by_device(runtime).items()}
    assert routes == {"dev1": ["gw1--edge1"],
                      "dev2": ["gw2--edge1", "edge1--cloud"],
                      "dev3": ["gw3--edge2"]}
    [agg] = [inst for inst in runtime.scheduler.instances.values()
             if inst.app_id == "agg"]
    assert agg.host == "edge1"
    runtime._apply_offload(Offload(agg.instance_id, "cloud"))
    [started] = [r for r in runtime.kernel.trace if r.kind == "migration_started"]
    completed_at = 1000 + started.details["downtime_ms"]
    # the offload integrated dev1's flow as it blocked it
    runtime.kernel.run(completed_at - 1)
    assert last_ms(runtime) == {"dev1": 1000, "dev2": 200, "dev3": 200}
    runtime.kernel.run(completed_at)
    assert agg.host == "cloud"
    assert last_ms(runtime) == {"dev1": completed_at, "dev2": completed_at,
                                "dev3": 200}


@pytest.mark.parametrize("fault, detail", [
    ({"target": "cloud", "kind": "NodeDown"}, "agg-1 -> cloud"),
    ({"target": "edge1--cloud", "kind": "LinkDown"}, "agg-1 -> cloud: no up path"),
], ids=["target_down", "no_path"])
def test_a_rejected_offload_names_its_cause(fault, detail):
    """Under low watermarks the threshold loop decides at 400 ms to move
    agg-1 from edge1 to the cloud. At 500 ms the cloud goes down, or
    edge1--cloud does, so MigrationEngine.start rejects the move at 1000 ms."""
    faults = [{**fault, "start": 500, "duration_ms": 1000}]
    runtime = Runtime(scenario_from_dict(two_edge_scenario(
        faults=faults, thresholds={"high": 0.05, "low": 0.01})))
    runtime.kernel.run(400)
    [action] = runtime.scheduler.check_thresholds()
    assert action == Offload("agg-1", "cloud")
    runtime.kernel.run(1000)
    runtime._apply_offload(action)
    [stale] = [r for r in runtime.kernel.trace if r.kind == "stale_action"]
    assert stale.subject == "agg-1"
    assert stale.details == {"target": "cloud", "reason": "TargetInfeasible",
                             "detail": detail}
    assert not any(r.kind == "migration_started" for r in runtime.kernel.trace)
    assert runtime.scheduler.instance("agg-1").host == "edge1"


def test_a_stale_action_names_the_error_start_raised():
    """An unknown instance, and one already migrating, are rejected with
    the error that looking it up or MigrationEngine.start raises."""
    runtime = Runtime(scenario_from_dict(two_edge_scenario()))
    runtime.kernel.run(1000)
    runtime.kernel.now = 1000
    for action in (Offload("nope", "cloud"), Offload("agg-1", "cloud"),
                   Offload("agg-1", "edge2")):
        runtime._apply_offload(action)
    started = [r.subject for r in runtime.kernel.trace if r.kind == "migration_started"]
    assert started == ["agg-1"]
    stale = [(r.subject, r.details["target"], r.details["reason"])
             for r in runtime.kernel.trace if r.kind == "stale_action"]
    assert stale == [("nope", "cloud", "UnknownInstance"),
                     ("agg-1", "edge2", "InstanceNotRunning")]


def test_an_offload_to_the_instance_s_own_host_is_a_stale_action():
    """A move to where the instance already runs is no move: start rejects
    it, nothing is scheduled, and the run goes on to its end."""
    runtime = Runtime(scenario_from_dict(two_edge_scenario()))
    runtime.kernel.run(1000)
    runtime.kernel.now = 1000
    runtime._apply_offload(Offload("agg-1", "edge1"))
    [stale] = [r for r in runtime.kernel.trace if r.kind == "stale_action"]
    assert stale.subject == "agg-1"
    assert stale.details["target"] == "edge1"
    assert stale.details["reason"] == "TargetInfeasible"
    assert not any(r.kind in ("offload", "migration_started")
                   for r in runtime.kernel.trace)
    trace = runtime.run()
    assert trace.records[-1].kind == "run_end"
    assert runtime.scheduler.instance("agg-1").host == "edge1"


def test_the_runtime_handles_every_event_kind():
    runtime = Runtime(scenario_from_dict(two_edge_scenario()))
    assert set(runtime.kernel.handlers) == set(EventKind)


def test_an_attach_at_a_down_gateway_places_nothing_there():
    """The device stays attached but unmanaged, as at a full gateway."""
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    scenario.script = scenario.script[:1]
    scenario.faults = [{"target": "gw1", "kind": "NodeDown", "start": 500,
                        "duration_ms": 3000}]
    runtime = Runtime(scenario)
    runtime.kernel.run(3000)
    assert not runtime.topology.nodes["gw1"].up
    trace = list(runtime.kernel.trace)
    assert not [r for r in trace if r.kind == "instance_placed"
                and r.details["host"] == "gw1"]
    assert not [r for r in trace if r.kind == "flow_open" and r.details["src"] == "gw1"]
    assert runtime.topology.nodes["gw1"].allocated == ResourceVector(0, 0, 0)
    [attach] = [r for r in trace if r.kind == "attach"]
    [warning] = [r for r in trace if r.kind == "install_warning"]
    assert warning.subject == attach.subject
    assert warning.details == {"gateway": "gw1", "reason": "GatewayFull"}
    assert runtime.discovery.current_gateway(attach.subject) == "gw1"


def test_a_re_attach_at_the_same_gateway_reuses_the_bound_instance():
    """A detach leaves the device's IoT-App running on its gateway, so the
    re-attach there asks for the install again but installs and places
    nothing: the instance keeps its one reservation, and the device's data
    flows again."""
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    scenario.script[2]["gateway"] = "gw1"  # the re-attach at 6200 ms
    runtime = Runtime(scenario)
    trace = runtime.run()
    assert trace.hash()[:16] == "9360458de7c10644"
    assert [(r.kind, r.subject, r.details) for r in trace if r.time_ms == 6200] == [
        ("attach", "wearable-1", {"gateway": "gw1", "model": "smartband",
                                  "firmware_version": "1.4"}),
        ("install_request", "wearable-1", {"app": "life-signs-agent", "gateway": "gw1"}),
        ("flow_open", "flow-2", {"device": "wearable-1", "src": "gw1", "sink": "edge1",
                                 "rate_kbps": 100.0, "paused": False})]
    assert list(runtime.scheduler.instances) == ["life-signs-agent-1"]
    assert runtime.topology.nodes["gw1"].allocated == ResourceVector(100, 64, 16)
    assert report_from_trace(trace).summary["installs"] == 1


def test_a_re_attach_at_the_gateway_a_roam_leaves_places_nothing():
    """While the IoT-App's move to gw2 is in flight it still runs on gw1, so
    a roam back there asks for the install but neither installs nor places
    the Migrating instance again."""
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    scenario.script.append({"time": 6201, "type": "roam", "device": "wearable-1",
                            "to_gateway": "gw1"})
    runtime = Runtime(scenario)
    trace = runtime.run()
    assert [(r.kind, r.details.get("gateway")) for r in trace if r.time_ms == 6201] == [
        ("detach", "gw2"), ("flow_close", None), ("attach", "gw1"),
        ("install_request", "gw1"), ("flow_open", None)]
    assert [r.subject for r in trace if r.kind == "instance_placed"] == [
        "life-signs-agent-1"]
    assert list(runtime.scheduler.instances) == ["life-signs-agent-1"]


def test_a_refused_roam_shows_stopped_in_the_next_window():
    """gw2 has too little memory for the IoT-App, so the re-attach there at
    6200 ms stops it on gw1. The IoT-App installed at 1000 ms shows in the
    window that the tick at 1000 ms closes, and its stop in the first window
    that closes after 6200 ms."""
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    [gw2] = [n for n in scenario.nodes if n["id"] == "gw2"]
    gw2["mem"] = 32
    runtime = Runtime(scenario)

    def window_statuses(end_ms):
        [record] = [r for r in runtime.kernel.trace
                    if r.kind == "metrics_window" and r.time_ms == end_ms]
        return dict(record.details["instances"])

    runtime.kernel.run(6500)
    assert window_statuses(1000) == {"life-signs-agent-1": "Running"}
    assert window_statuses(6000) == {"life-signs-agent-1": "Running"}
    assert [r.kind for r in runtime.kernel.trace if r.time_ms == 6200][-1] == \
        "roam_warning"
    runtime.run()
    assert window_statuses(7000) == {"life-signs-agent-1": "Stopped"}


def _down_intervals(trace) -> dict[str, list[tuple[int, int]]]:
    """Node id -> the [start, end] of each NodeDown fault on it, from the
    fault_start and fault_end records."""
    starts: dict[str, list[int]] = {}
    intervals: dict[str, list[tuple[int, int]]] = {}
    for r in trace:
        if r.details.get("fault_kind") != "NodeDown":
            continue
        if r.kind == "fault_start":
            starts.setdefault(r.subject, []).append(r.time_ms)
        elif r.kind == "fault_end":
            intervals.setdefault(r.subject, []).append(
                (starts[r.subject].pop(0), r.time_ms))
    return intervals


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1(b): a migration completes onto a "
                   "node that went down while it was in flight")
def test_no_migration_completes_onto_a_down_node():
    """scaling.yaml with edge2 down over [11200, 14200] ms, while the
    offload to it that started at 11000 ms is in flight. Read from the
    trace alone: no migration_completed names a target that is down at its
    time."""
    scenario = load_scenario(SCENARIO_DIR / "scaling.yaml")
    scenario.faults.append({"target": "edge2", "kind": "NodeDown", "start": 11200,
                            "duration_ms": 3000})
    trace = list(Runtime(scenario).run())
    down = _down_intervals(trace)
    assert down == {"edge2": [(11200, 14200)]}
    completed = [r for r in trace if r.kind == "migration_completed"]
    assert completed
    for r in completed:
        assert not any(start <= r.time_ms < end
                       for start, end in down.get(r.details["to"], ())), r


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1(m): a roam back during the roam "
                   "leaves the IoT-App on the gateway the device left")
def test_the_last_status_update_names_the_device_s_gateway():
    """roaming.yaml with wearable-1 roaming back to gw1 at 6201 ms, while
    its IoT-App's move from gw1 to gw2 is in flight. Read from the trace
    alone: the last status_update names the gateway of the device's last
    attach before it, with no detach since."""
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    scenario.script.append({"time": 6201, "type": "roam", "device": "wearable-1",
                            "to_gateway": "gw1"})
    trace = list(Runtime(scenario).run())
    attached = None
    last_update = None
    for r in trace:
        if r.subject != "wearable-1":
            continue
        if r.kind == "attach":
            attached = r.details["gateway"]
        elif r.kind == "detach":
            attached = None
        elif r.kind == "status_update":
            last_update = (r.details["gateway"], attached)
    assert last_update is not None
    gateway, attached = last_update
    assert attached == "gw1"
    assert gateway == attached


def test_a_flow_from_a_down_gateway_delivers_nothing():
    scenario = load_scenario(SCENARIO_DIR / "roaming.yaml")
    scenario.script = scenario.script[:1]
    scenario.faults = [{"target": "gw1", "kind": "NodeDown", "start": 2000,
                        "duration_ms": 2000}]
    runtime = Runtime(scenario)
    runtime.kernel.run(4000)
    windows = {r.time_ms: r.details for r in runtime.kernel.trace
               if r.kind == "flow_window" and r.subject == "flow-1"}
    assert windows[2000]["delivered_mb"] > 0
    for end_ms in (3000, 4000):
        assert windows[end_ms]["delivered_mb"] == 0, end_ms


def test_output_held_at_a_cut_edge_is_released_once_it_reaches_the_cloud():
    """edge1--cloud is down over [2000, 5000] ms while edge2 and its link
    stay up, so no partition holds the ticks: agg's aggregate on edge1 is
    held, and so is dev2's raw flow to the cloud, until the link is back.
    Nothing is lost, only delayed."""
    faults = [{"target": "edge1--cloud", "kind": "LinkDown", "start": 2000,
               "duration_ms": 3000}]

    def uplink_by_window(faults):
        runtime = Runtime(scenario_from_dict(two_edge_scenario(
            faults=faults, scheduler_tick_ms=1000, duration_ms=8000)))
        return {r.time_ms: r.details["uplink_mb"] for r in runtime.run()
                if r.kind == "metrics_window"}

    uplink = uplink_by_window(faults)
    assert uplink[3000] == 0.0
    assert uplink[4000] == 0.0
    assert uplink[5000] == 0.009375
    assert sum(uplink.values()) == pytest.approx(sum(uplink_by_window([]).values()))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND entry on `_do_attach`/"
                   "`_on_place`: nothing retries an install or a placement "
                   "refused while the gateway was down")
def test_a_gateway_back_up_gets_what_was_refused_while_it_was_down():
    """gw1 is down over [50, 1050] ms, across agg's place at 100 ms and
    dev1's attach at 200 ms, and up for the last 2.95 s of the run."""
    faults = [{"target": "gw1", "kind": "NodeDown", "start": 50,
               "duration_ms": 1000}]
    runtime = Runtime(scenario_from_dict(two_edge_scenario(
        faults=faults, duration_ms=4000)))
    trace = list(runtime.run())
    assert runtime.topology.nodes["gw1"].up
    placed = [r.details for r in trace if r.kind == "instance_placed"]
    assert any(d["app"] == "agg" for d in placed)
    assert any(d.get("device") == "dev1" for d in placed)
    assert any(r.details["device"] == "dev1" for r in trace if r.kind == "flow_open")
