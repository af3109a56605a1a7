from __future__ import annotations

import pytest
import yaml

from fogsim import errors
from fogsim.control import run_scenario
from fogsim.migration import MigrationEngine, transfer_duration
from fogsim.scheduler import InstanceStatus, PlacementRequest, Scheduler, StateBlob
from fogsim.scenario import scenario_from_dict
from fogsim.topology import Link, ResourceVector, Tier, Topology

from fixture_paths import SCENARIO_DIR


def link(latency, bw):
    return Link("l", "a", "b", latency, bw)


def test_transfer_duration_reference_case():
    # 100 MB over a 100 Mbps / 2 ms hop: 8000 ms serialization + 2 ms latency
    assert transfer_duration(100, [link(2, 100)]) == 8002


def test_transfer_duration_bottleneck_and_latency_sum():
    path = [link(2, 100), link(20, 1000)]
    assert transfer_duration(100, path) == 8022


def test_transfer_duration_rounds_up():
    assert transfer_duration(0.001, [link(1, 100)]) == 2  # 0.08 ms + 1 ms -> 2


def test_transfer_duration_zero_payload_still_pays_latency():
    assert transfer_duration(0, [link(5, 100)]) == 5


def test_a_transfer_of_no_finite_duration_is_infeasible():
    with pytest.raises(errors.TargetInfeasible,
                       match=r"^1\.7e\+308 MB over 100 Mbps takes no finite time$"):
        transfer_duration(1.7e308, [link(2, 100)])
    with pytest.raises(errors.TargetInfeasible):
        transfer_duration(1e300, [link(2, 1e-10)])


def test_an_offload_of_no_finite_duration_is_a_stale_action():
    """scaling.yaml offloads city-analytics at 11 s; a state that cannot
    cross the path in finite time leaves the instance where it is."""
    raw = yaml.safe_load((SCENARIO_DIR / "scaling.yaml").read_text())
    [app] = [a for a in raw["apps"] if a["id"] == "city-analytics"]
    app["state_size_mb"] = 1.7e308
    trace, _ = run_scenario(scenario_from_dict(raw))
    stale = [r for r in trace if r.kind == "stale_action"]
    assert stale and {r.details["reason"] for r in stale} == {"TargetInfeasible"}
    assert "takes no finite time" in stale[0].details["detail"]
    assert not any(r.kind in ("offload", "migration_started") for r in trace)


def test_a_roam_of_no_finite_duration_is_a_warning():
    raw = yaml.safe_load((SCENARIO_DIR / "roaming.yaml").read_text())
    raw["apps"][0]["state_size_mb"] = 1.7e308
    trace, _ = run_scenario(scenario_from_dict(raw))
    warnings = [r for r in trace if r.kind == "warning"]
    assert warnings and {r.details["reason"] for r in warnings} == {"TargetInfeasible"}
    assert not any(r.kind in ("roam_completed", "migration_started") for r in trace)


def test_transfer_duration_empty_path_rejected():
    with pytest.raises(errors.ValidationError):
        transfer_duration(10, [])


def test_transfer_duration_link_down():
    down = link(2, 100)
    down.up = False
    with pytest.raises(errors.LinkDown):
        transfer_duration(10, [down])


def test_a_snapshot_carries_size_version_and_payload():
    blob = StateBlob(size_mb=1, version=3, payload={"hr": 60})
    snap = blob.snapshot()
    assert snap is not blob
    assert (snap.size_mb, snap.version, snap.payload) == (1, 3, {"hr": 60})


# --- engine -------------------------------------------------------------------


@pytest.fixture
def world(three_tier, catalog):
    scheduler = Scheduler(three_tier, catalog)
    engine = MigrationEngine(scheduler)
    return three_tier, scheduler, engine


def test_migrate_data_app_to_cloud(world):
    topo, scheduler, engine = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    state = inst.state
    record = engine.start(inst, "cloud", 1000)
    # both reservations held while the copy is in flight
    assert inst.status is InstanceStatus.MIGRATING
    assert topo.node("edge1").allocated.mem == 4096
    assert topo.node("cloud").allocated.mem == 4096
    assert record.downtime_ms == transfer_duration(
        10, topo.shortest_path("edge1", "cloud"))
    assert record.completed_at == 1000 + record.downtime_ms
    done = engine.complete(inst)
    assert inst.host == "cloud"
    assert inst.status is InstanceStatus.RUNNING
    assert inst.state == state  # state travels with the app
    assert topo.node("edge1").allocated.mem == 0
    assert done is record or done == record


def test_migrate_to_the_current_host_is_infeasible(world):
    topo, scheduler, engine = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    before = topo.node("edge1").allocated
    with pytest.raises(errors.TargetInfeasible):
        engine.start(inst, "edge1", 500)
    assert inst.status is InstanceStatus.RUNNING
    assert topo.node("edge1").allocated == before  # nothing reserved twice


def test_migrate_requires_running_instance(world):
    _, scheduler, engine = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    inst.status = InstanceStatus.STOPPED
    with pytest.raises(errors.InstanceNotRunning):
        engine.start(inst, "cloud", 0)


def test_migrate_data_app_to_gateway_infeasible(world):
    _, scheduler, engine = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    with pytest.raises(errors.TargetInfeasible):
        engine.start(inst, "gw2", 0)


def test_migrate_to_full_target_infeasible(world):
    topo, scheduler, engine = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    topo.reserve("cloud", ResourceVector(0, 98304, 0))
    with pytest.raises(errors.TargetInfeasible):
        engine.start(inst, "cloud", 0)
    assert inst.status is InstanceStatus.RUNNING


def test_migrate_latency_budget_checked_against_source(three_tier, catalog):
    # cloud is 22 ms from gw1; tighten the budget below that
    from fogsim.catalog import AppKind, AppSpec
    catalog.register_app(AppSpec("strict", AppKind.DATA_APP,
                                 ResourceVector(100, 512, 128),
                                 latency_requirement_ms=10, state_size_mb=1))
    scheduler = Scheduler(three_tier, catalog)
    engine = MigrationEngine(scheduler)
    inst = scheduler.place(PlacementRequest("strict", "gw1"))
    with pytest.raises(errors.TargetInfeasible):
        engine.start(inst, "cloud", 0)


def test_migrate_unreachable_target(world):
    topo, scheduler, engine = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    topo.set_link_up("edge1--cloud", False)
    with pytest.raises(errors.TargetInfeasible):
        engine.start(inst, "cloud", 0)


def test_roam_between_gateways(world):
    topo, scheduler, engine = world
    inst = scheduler.install_iot_app("dev1", "gw1", "agent", {"steps": 1200})
    record = engine.roam(inst, "gw2", 2000)
    # 1 MB over gw1-edge1-gw2: 80 ms + 4 ms latency
    assert record.downtime_ms == 84
    assert inst.status is InstanceStatus.MIGRATING
    engine.complete(inst)
    assert inst.host == "gw2"
    assert inst.state.payload == {"steps": 1200}
    assert topo.node("gw1").allocated.mem == 0
    assert topo.node("gw2").allocated.mem == 64


def test_roam_to_full_gateway_stops_instance(world):
    topo, scheduler, engine = world
    inst = scheduler.install_iot_app("dev1", "gw1", "agent")
    topo.reserve("gw2", ResourceVector(0, 1000, 0))
    with pytest.raises(errors.GatewayFull, match="^gw2 cannot host agent-1$"):
        engine.roam(inst, "gw2", 0)
    # the app stays put but stops serving; its reservation is kept
    assert inst.status is InstanceStatus.STOPPED
    assert inst.host == "gw1"
    assert topo.node("gw1").allocated.mem == 64


def test_a_roam_to_the_instance_s_own_gateway_is_target_infeasible(world):
    """It is no move, so no record comes back that a completion could be
    scheduled for; the instance keeps running where it is, holding one
    reservation."""
    topo, scheduler, engine = world
    inst = scheduler.install_iot_app("dev1", "gw1", "agent")
    allocated = topo.node("gw1").allocated
    with pytest.raises(errors.TargetInfeasible, match=r"-> gw1$"):
        engine.roam(inst, "gw1", 0)
    assert inst.status is InstanceStatus.RUNNING and inst.host == "gw1"
    assert topo.node("gw1").allocated == allocated
