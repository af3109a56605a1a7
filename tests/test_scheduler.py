from __future__ import annotations

import pytest

from fogsim import errors
from fogsim.catalog import AppKind, AppSpec, Catalog
from fogsim.migration import MigrationEngine
from fogsim.scheduler import (Defer, InstanceStatus, Offload,
                              PlacementRequest, Scheduler, Thresholds)
from fogsim.topology import ResourceVector, Tier, Topology

from oracles import brute_force_place


@pytest.fixture
def scheduler(three_tier, catalog):
    return Scheduler(three_tier, catalog)


def two_edge_world():
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    topo.add_node("edge1", Tier.EDGE_MODULE, 8000, 16384, 491520)
    topo.add_node("edge2", Tier.EDGE_MODULE, 8000, 16384, 491520)
    topo.add_node("gw1", Tier.GATEWAY, 4000, 1024, 16384)
    topo.add_link("gw1", "edge1", 2, 100)
    topo.add_link("edge1", "edge2", 4, 100)
    topo.add_link("edge1", "cloud", 20, 1000)
    topo.add_link("edge2", "cloud", 20, 1000)
    return topo


def test_place_prefers_low_latency_edge(scheduler):
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    assert inst.host == "edge1"
    assert inst.status is InstanceStatus.RUNNING
    assert scheduler.topology.node("edge1").allocated.mem == 4096


def test_place_matches_bruteforce(three_tier, catalog):
    scheduler = Scheduler(three_tier, catalog)
    app = catalog.app("analytics")
    expected = brute_force_place(three_tier, app, "gw1", 1)
    assert scheduler.place(PlacementRequest("analytics", "gw1")).host == expected


def test_placement_tests_the_rounded_sum():
    """A host is tested on its allocation plus the demand rounded as a
    vector is: 0.1 + 0.2 exceeds 0.3, but rounds to it, so the host fits."""
    topo = Topology()
    topo.add_node("edge", Tier.EDGE_MODULE, 0.3, 1, 1)
    topo.add_node("gw", Tier.GATEWAY, 1, 1, 1)
    topo.add_link("gw", "edge", 1, 100)
    topo.reserve("edge", ResourceVector(0.1, 0, 0))
    catalog = Catalog()
    catalog.register_app(AppSpec("app", AppKind.DATA_APP, ResourceVector(0.2, 0, 0)))
    app = catalog.app("app")
    assert 0.1 + 0.2 > 0.3 and round(0.1 + 0.2, 9) == 0.3
    assert Scheduler(topo, catalog).select_host(app, "gw", 1) == "edge"
    assert brute_force_place(topo, app, "gw", 1) == "edge"
    topo.reserve("edge", app.demand)  # the reservation agrees
    assert topo.node("edge").allocated.cpu == 0.3


# (storage capacity, allocated, demand, fits) in MB. The allocation plus the
# demand, each sum rounded to 9 places as a vector's components are, fits the
# capacity in the first row and exceeds it in the second; the demand against
# the capacity minus the allocation, rounded, answers the opposite in both.
BOUNDARY = [(19983942.017714307, 9690715.325693, 10293226.692021308, True),
            (974285792.3145779, 284113816.9185285, 690171975.3960495, False)]
BOUNDARY_IDS = ["fits-near-1e7", "overflows-near-1e9"]


def boundary_world(capacity, allocated, demand, kind):
    """A gateway `gw` beside a host `near` with room for anything and a
    host `far` of `capacity` storage with `allocated` reserved, the tier
    of `kind`'s app `app` of `demand` storage. `near` is closer to `gw`."""
    tier = Tier.GATEWAY if kind is AppKind.IOT_APP else Tier.EDGE_MODULE
    topo = Topology()
    topo.add_node("gw", Tier.GATEWAY, 1, 1, 1)
    topo.add_node("near", tier, 1, 1, 1e10)
    topo.add_node("far", tier, 1, 1, capacity)
    topo.add_link("gw", "near", 1, 100)
    topo.add_link("near", "far", 1, 100)
    topo.reserve("far", ResourceVector(0, 0, allocated))
    catalog = Catalog()
    catalog.register_app(AppSpec("app", kind, ResourceVector(0, 0, demand)))
    return topo, catalog


@pytest.mark.parametrize("capacity, allocated, demand, fits", BOUNDARY,
                         ids=BOUNDARY_IDS)
def test_the_boundary_rows_split_the_two_rules(capacity, allocated, demand, fits):
    assert (round(allocated + demand, 9) <= capacity) is fits
    assert (demand <= round(capacity - allocated, 9)) is not fits


@pytest.mark.parametrize("capacity, allocated, demand, fits", BOUNDARY,
                         ids=BOUNDARY_IDS)
def test_an_install_tests_its_gateway_as_reserve_does(capacity, allocated, demand,
                                                      fits):
    topo, catalog = boundary_world(capacity, allocated, demand, AppKind.IOT_APP)
    scheduler = Scheduler(topo, catalog)
    if fits:
        assert scheduler.install_iot_app("dev", "far", "app").host == "far"
        assert topo.node("far").allocated.storage == round(allocated + demand, 9)
    else:
        with pytest.raises(errors.GatewayFull):
            scheduler.install_iot_app("dev", "far", "app")
        with pytest.raises(errors.InsufficientCapacity):
            topo.reserve("far", catalog.app("app").demand)
        assert topo.node("far").allocated.storage == allocated


@pytest.mark.parametrize("capacity, allocated, demand, fits", BOUNDARY,
                         ids=BOUNDARY_IDS)
def test_an_offload_starts_on_the_host_placement_picked(capacity, allocated, demand,
                                                        fits):
    """select_host, with the source's host excluded as the threshold loop
    excludes it, and MigrationEngine.start answer alike: no stale action
    for a decision made at the same instant."""
    topo, catalog = boundary_world(capacity, allocated, demand, AppKind.DATA_APP)
    scheduler = Scheduler(topo, catalog)
    inst = scheduler.place(PlacementRequest("app", "gw"))
    assert inst.host == "near"
    target = scheduler.select_host(catalog.app("app"), "gw", 1,
                                   exclude=frozenset({"near"}))
    engine = MigrationEngine(scheduler)
    if fits:
        assert target == "far"
        assert engine.start(inst, "far", 0).to_node == "far"
        assert topo.node("far").allocated.storage == round(allocated + demand, 9)
    else:
        assert target is None
        with pytest.raises(errors.TargetInfeasible, match="insufficient capacity$"):
            engine.start(inst, "far", 0)
        assert inst.status is InstanceStatus.RUNNING


@pytest.mark.parametrize("capacity, allocated, demand, fits", BOUNDARY,
                         ids=BOUNDARY_IDS)
def test_a_roam_tests_its_gateway_as_reserve_does(capacity, allocated, demand, fits):
    topo, catalog = boundary_world(capacity, allocated, demand, AppKind.IOT_APP)
    scheduler = Scheduler(topo, catalog)
    inst = scheduler.install_iot_app("dev", "near", "app")
    engine = MigrationEngine(scheduler)
    if fits:
        assert engine.roam(inst, "far", 0).to_node == "far"
        assert inst.status is InstanceStatus.MIGRATING
    else:
        with pytest.raises(errors.GatewayFull, match="^far cannot host app-1$"):
            engine.roam(inst, "far", 0)
        assert inst.status is InstanceStatus.STOPPED
        assert topo.node("far").allocated.storage == allocated


def test_place_overflows_to_cloud_when_edge_full(catalog):
    topo = two_edge_world()
    # saturate both edges
    topo.reserve("edge1", ResourceVector(0, 16384, 0))
    topo.reserve("edge2", ResourceVector(0, 16384, 0))
    scheduler = Scheduler(topo, catalog)
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    assert inst.host == "cloud"


def test_place_respects_latency_requirement(catalog):
    topo = two_edge_world()
    topo.reserve("edge1", ResourceVector(0, 16384, 0))
    topo.reserve("edge2", ResourceVector(0, 16384, 0))
    catalog.register_app(AppSpec("strict", AppKind.DATA_APP,
                                 ResourceVector(100, 512, 128),
                                 latency_requirement_ms=10))
    scheduler = Scheduler(topo, catalog)
    # cloud is 22 ms away, over the 10 ms budget
    with pytest.raises(errors.Unschedulable):
        scheduler.place(PlacementRequest("strict", "gw1"))


def test_place_with_no_hosts_is_unschedulable(catalog):
    topo = Topology()
    topo.add_node("gw1", Tier.GATEWAY, 4000, 1024, 16384)
    scheduler = Scheduler(topo, catalog)
    with pytest.raises(errors.Unschedulable):
        scheduler.place(PlacementRequest("analytics", "gw1"))


def test_place_tie_breaks_by_free_capacity_then_id(catalog):
    topo = Topology()
    topo.add_node("gw1", Tier.GATEWAY, 4000, 1024, 16384)
    topo.add_node("edgeA", Tier.EDGE_MODULE, 8000, 16384, 491520)
    topo.add_node("edgeB", Tier.EDGE_MODULE, 8000, 16384, 491520)
    topo.add_link("gw1", "edgeA", 5, 100)
    topo.add_link("gw1", "edgeB", 5, 100)
    topo.reserve("edgeA", ResourceVector(0, 8192, 0))
    scheduler = Scheduler(topo, catalog)
    # same latency; edgeB is emptier
    assert scheduler.place(PlacementRequest("analytics", "gw1")).host == "edgeB"
    topo.release("edgeA", ResourceVector(0, 8192, 0))
    topo.release("edgeB", ResourceVector(0, 4096, 0))
    # dead heat: lexicographically smallest id wins
    assert scheduler.place(PlacementRequest("analytics", "gw1")).host == "edgeA"


def test_install_iot_app_on_device_gateway(scheduler):
    inst = scheduler.install_iot_app("dev1", "gw1", "agent")
    assert inst.host == "gw1"
    assert inst.bound_device == "dev1"
    assert scheduler.topology.node("gw1").allocated.mem == 64


def test_install_iot_app_gateway_full(scheduler):
    scheduler.topology.reserve("gw1", ResourceVector(0, 1000, 0))
    with pytest.raises(errors.GatewayFull, match="^gw1 cannot host agent for dev1$"):
        scheduler.install_iot_app("dev1", "gw1", "agent")


def test_scale_up_down_and_noop(scheduler):
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    scheduler.scale(inst.instance_id, 3)
    assert scheduler.topology.node("edge1").allocated.mem == 3 * 4096
    scheduler.scale(inst.instance_id, 3)  # no-op
    assert inst.replicas == 3
    scheduler.scale(inst.instance_id, 1)
    assert scheduler.topology.node("edge1").allocated.mem == 4096


def test_scale_beyond_capacity(scheduler):
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    with pytest.raises(errors.InsufficientCapacity):
        scheduler.scale(inst.instance_id, 5)
    assert inst.replicas == 1
    assert scheduler.topology.node("edge1").allocated.mem == 4096


# --- threshold loop -----------------------------------------------------------


def loaded_scheduler(catalog, replicas=3):
    topo = two_edge_world()
    scheduler = Scheduler(topo, catalog, Thresholds(0.8, 0.6))
    inst = scheduler.place(PlacementRequest("analytics", "gw1", 1))
    scheduler.place(PlacementRequest("analytics", "gw1", 1))
    scheduler.scale(inst.instance_id, replicas)
    return scheduler, inst


def test_check_thresholds_below_watermark_is_quiet(catalog):
    scheduler, _ = loaded_scheduler(catalog, replicas=2)  # util 0.75
    assert scheduler.check_thresholds() == []


def test_check_thresholds_emits_offload(catalog):
    scheduler, inst = loaded_scheduler(catalog, replicas=3)  # util 1.0
    actions = scheduler.check_thresholds()
    offloads = [a for a in actions if isinstance(a, Offload)]
    assert len(offloads) == 1
    assert offloads[0].instance_id == inst.instance_id  # largest reservation
    assert offloads[0].target == "edge2"  # nearer than the cloud


def test_check_thresholds_defers_when_saturated(catalog):
    scheduler, inst = loaded_scheduler(catalog, replicas=3)
    # block both alternative hosts
    scheduler.topology.reserve("edge2", ResourceVector(0, 16384, 0))
    scheduler.topology.reserve("cloud", ResourceVector(0, 98304, 0))
    actions = scheduler.check_thresholds()
    assert any(isinstance(a, Defer) and a.reason == "NoFeasibleTarget"
               for a in actions)
    assert not any(isinstance(a, Offload) for a in actions)


def test_check_thresholds_never_moves_iot_apps(three_tier, catalog):
    scheduler = Scheduler(three_tier, catalog)
    scheduler.install_iot_app("dev1", "gw1", "agent")
    # overload the edge with something unmovable
    three_tier.reserve("edge1", ResourceVector(0, 16000, 0))
    actions = scheduler.check_thresholds()
    assert actions == [Defer("edge1", None, "NoMovableInstance")]


def test_an_edge_exactly_at_the_high_watermark_is_not_hot(catalog):
    topo = two_edge_world()
    scheduler = Scheduler(topo, catalog, Thresholds(0.5, 0.2))
    inst = scheduler.place(PlacementRequest("analytics", "gw1", 2))
    assert topo.nodes["edge1"].utilization() == 0.5
    assert scheduler.check_thresholds() == []
    assert scheduler._hot == set()
    scheduler.scale(inst.instance_id, 3)
    assert scheduler.check_thresholds() == [Offload(inst.instance_id, "cloud")]
    assert scheduler._hot == {"edge1"}


def test_a_tick_after_no_reserve_or_release_tests_no_node(catalog, monkeypatch):
    """The loop re-tests only the nodes whose allocation changed since the
    last tick; an edge going down or up changes none."""
    scheduler, inst = loaded_scheduler(catalog, replicas=2)  # util 0.75
    assert scheduler.check_thresholds() == []
    tested = []
    fraction = ResourceVector.bottleneck_fraction
    monkeypatch.setattr(ResourceVector, "bottleneck_fraction",
                        lambda self, capacity: tested.append(self)
                        or fraction(self, capacity))
    assert scheduler.check_thresholds() == []
    scheduler.topology.set_node_up("edge1", False)
    scheduler.topology.set_node_up("edge1", True)
    assert scheduler.check_thresholds() == []
    assert tested == []
    scheduler.scale(inst.instance_id, 1)  # a release on edge1
    assert scheduler.check_thresholds() == []
    assert tested == [scheduler.topology.nodes["edge1"].allocated]


def test_apply_offload_and_stale_action(catalog):
    scheduler, inst = loaded_scheduler(catalog, replicas=3)
    engine = MigrationEngine(scheduler)
    [action] = [a for a in scheduler.check_thresholds()
                if isinstance(a, Offload)]
    checked = scheduler.instance(action.instance_id)
    # the target dies between decide and apply
    scheduler.topology.set_node_up(action.target, False)
    with pytest.raises(errors.TargetInfeasible):
        engine.start(checked, action.target, 0)
    assert checked.status is InstanceStatus.RUNNING
    scheduler.topology.set_node_up(action.target, True)
    record = engine.start(checked, action.target, 0)
    assert checked.status is InstanceStatus.MIGRATING
    assert record.to_node == action.target


def test_unknown_instance_is_a_typed_error(scheduler):
    with pytest.raises(errors.UnknownInstance):
        scheduler.instance("nope")
    with pytest.raises(errors.UnknownInstance):
        scheduler.scale("nope", 2)


def test_serving_instance_is_the_first_running_or_migrating_data_app(scheduler):
    assert scheduler.serving_instance("gw1") is None
    scheduler.install_iot_app("dev1", "gw1", "agent")
    assert scheduler.serving_instance("gw1") is None  # IoT-Apps serve no flows
    first = scheduler.place(PlacementRequest("analytics", "gw1"))
    second = scheduler.place(PlacementRequest("analytics", "gw1"))
    assert scheduler.serving_instance("gw1") is first
    assert scheduler.serving_instance("gw2") is None
    MigrationEngine(scheduler).start(first, "cloud", 0)
    assert scheduler.serving_instance("gw1") is first  # still serves while migrating
    first.status = InstanceStatus.STOPPED
    assert scheduler.serving_instance("gw1") is second
