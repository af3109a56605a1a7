"""Cross-module properties checked on randomized inputs."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim.catalog import AppKind, AppSpec, Catalog
from fogsim.discovery import DiscoveryService
from fogsim.dataflow import FlowManager
from fogsim.migration import MigrationEngine
from fogsim.scheduler import (InstanceStatus, Offload, PlacementRequest, Scheduler,
                              Thresholds)
from fogsim.topology import ResourceVector, Tier, Topology

from oracles import brute_force_place

MODEL = "sensor"


def random_world(seed: int):
    """A small random three-tier topology with partially loaded hosts."""
    rng = random.Random(seed)
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    n_edges = rng.randint(1, 3)
    for i in range(n_edges):
        topo.add_node(f"edge{i}", Tier.EDGE_MODULE, 8000, 16384, 491520)
        topo.add_link(f"edge{i}", "cloud", rng.randint(10, 40), 1000)
    n_gws = rng.randint(1, 2)
    for i in range(n_gws):
        topo.add_node(f"gw{i}", Tier.GATEWAY, 4000, 1024, 16384)
        topo.add_link(f"gw{i}", f"edge{rng.randrange(n_edges)}",
                      rng.randint(1, 10), 100)
    # occasional extra edge-to-edge link and a random preexisting load
    if n_edges > 1 and rng.random() < 0.5:
        topo.add_link("edge0", "edge1", rng.randint(1, 10), 100)
    for nid in sorted(topo.nodes):
        node = topo.nodes[nid]
        if node.tier is Tier.GATEWAY:
            continue
        frac = rng.choice([0.0, 0.25, 0.5, 0.9, 1.0])
        topo.reserve(nid, ResourceVector(0, node.capacity.mem * frac, 0))
    if rng.random() < 0.2:
        victim = rng.choice(sorted(topo.links))
        topo.set_link_up(victim, False)

    catalog = Catalog()
    catalog.register_app(AppSpec(
        "app", AppKind.DATA_APP,
        ResourceVector(rng.randint(100, 1000), rng.randint(512, 8192),
                       rng.randint(128, 2048)),
        latency_requirement_ms=rng.choice([None, 15, 50, 100])))
    source = f"gw{rng.randrange(n_gws)}"
    return topo, catalog, source, rng


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_placement_agrees_with_exhaustive_search(seed):
    topo, catalog, source, rng = random_world(seed)
    scheduler = Scheduler(topo, catalog)
    replicas = rng.randint(1, 2)
    expected = brute_force_place(topo, catalog.app("app"), source, replicas)
    if expected is None:
        with pytest.raises(errors.Unschedulable):
            scheduler.place(PlacementRequest("app", source, replicas))
    else:
        inst = scheduler.place(PlacementRequest("app", source, replicas))
        assert inst.host == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_sequential_placements_never_overcommit(seed):
    topo, catalog, source, rng = random_world(seed)
    scheduler = Scheduler(topo, catalog)
    for _ in range(rng.randint(1, 6)):
        try:
            scheduler.place(PlacementRequest("app", source, 1))
        except errors.Unschedulable:
            break
    for node in topo.nodes.values():
        assert node.allocated.fits_within(node.capacity)
        assert 0.0 <= node.utilization() <= 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000), steps=st.integers(1, 8))
def test_flow_conservation_under_random_advances(seed, steps):
    topo, catalog, source, rng = random_world(seed)
    catalog.register_app(AppSpec("iot", AppKind.IOT_APP,
                                 ResourceVector(10, 8, 2)))
    from fogsim.catalog import DeviceProfile
    catalog.register_profile(DeviceProfile(MODEL, "1.0", "BLE",
                                           rng.choice([100, 5000, 200_000]),
                                           "iot"))
    discovery = DiscoveryService(topo, catalog)
    scheduler = Scheduler(topo, catalog)
    flows = FlowManager(topo, catalog, discovery, scheduler,
                        buffer_mb=rng.choice([0, 1, 10]))
    discovery.handle_attach(source, "dev", MODEL, "1.0", 0)
    sink = rng.choice([n for n, node in sorted(topo.nodes.items())
                       if node.tier is not Tier.GATEWAY])
    try:
        flow = flows.open_flow("dev", source, sink, catalog.profile(MODEL).data_rate_kbps)
    except errors.Unreachable:
        return
    for _ in range(steps):
        if rng.random() < 0.2:
            flow.paused = not flow.paused
        flows.advance_all(rng.randint(0, 3000))
    assert flow.generated == pytest.approx(
        flow.delivered + flow.dropped + flow.buffered)
    assert flow.buffered <= flows.buffer_mb + 1e-9
    assert flow.uplinked <= flow.delivered + 1e-9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1_000_000), fractional=st.booleans(),
       steps=st.lists(st.sampled_from(["place", "scale", "offload", "complete"]),
                      min_size=1, max_size=15))
def test_allocations_equal_hosted_plus_inbound_demands(seed, fractional, steps):
    """After every place, scale, offload start and migration complete, each
    node's allocation is demand x replicas summed over the instances it hosts
    and the migrations heading to it: reserved once, never lost."""
    rng = random.Random(seed)
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    for i in range(2):
        topo.add_node(f"edge{i}", Tier.EDGE_MODULE, 8000, 16384, 491520)
        topo.add_link(f"edge{i}", "cloud", 20, 1000)
    topo.add_node("gw0", Tier.GATEWAY, 4000, 1024, 16384)
    topo.add_link("gw0", "edge0", 2, 100)
    topo.add_link("gw0", "edge1", 5, 100)

    def amount(low, high):
        return rng.randint(low, high) + (rng.randint(1, 9) / 10 if fractional else 0)

    catalog = Catalog()
    for app_id in ("a", "b"):
        catalog.register_app(AppSpec(
            app_id, AppKind.DATA_APP,
            ResourceVector(amount(100, 2000), amount(512, 4096), amount(128, 2048)),
            state_size_mb=1))
    # low watermarks make the threshold loop offload after a placement or two
    scheduler = Scheduler(topo, catalog, Thresholds(high_watermark=0.5,
                                                     low_watermark=0.2))
    engine = MigrationEngine(topo, catalog)
    inbound: dict[str, str] = {}  # migrating instance id -> its target

    for time, step in enumerate(steps):
        running = sorted(iid for iid, inst in scheduler.instances.items()
                         if inst.status is InstanceStatus.RUNNING)
        if step == "place":
            try:
                scheduler.place(PlacementRequest(rng.choice("ab"), "gw0",
                                                 rng.randint(1, 2)))
            except errors.Unschedulable:
                pass
        elif step == "scale" and running:
            try:
                scheduler.scale(rng.choice(running), rng.randint(1, 3))
            except errors.InsufficientCapacity:
                pass
        elif step == "offload":
            for action in scheduler.check_thresholds(time):
                if not isinstance(action, Offload):
                    continue
                try:
                    inst = scheduler.validate_action(action)
                    engine.start(inst, action.target, time)
                except (errors.StaleAction, errors.TargetInfeasible):
                    continue
                inbound[inst.instance_id] = action.target
        elif step == "complete" and inbound:
            iid = rng.choice(sorted(inbound))
            del inbound[iid]
            engine.complete(scheduler.instance(iid))

        expected = {nid: [0.0, 0.0, 0.0] for nid in topo.nodes}
        holders = [(inst.host, inst) for inst in scheduler.instances.values()]
        holders += [(target, scheduler.instance(iid)) for iid, target in inbound.items()]
        for nid, inst in holders:
            demand = catalog.app(inst.app_id).demand
            expected[nid][0] += demand.cpu * inst.replicas
            expected[nid][1] += demand.mem * inst.replicas
            expected[nid][2] += demand.storage * inst.replicas
        for nid, node in topo.nodes.items():
            got = [node.allocated.cpu, node.allocated.mem, node.allocated.storage]
            if fractional:
                assert all(math.isclose(g, e, abs_tol=1e-9)
                           for g, e in zip(got, expected[nid])), (nid, got, expected[nid])
            else:
                assert got == expected[nid], (nid, got, expected[nid])
