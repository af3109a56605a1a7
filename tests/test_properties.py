"""Cross-module properties checked on randomized inputs."""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim.catalog import AppKind, AppSpec, Catalog, DeviceProfile
from fogsim.discovery import DiscoveryService
from fogsim.dataflow import Flow, FlowManager
from fogsim.migration import MigrationEngine
from fogsim.runtime import Runtime
from fogsim.scenario import scenario_from_dict
from fogsim.kernel import Revision
from fogsim.scheduler import (AppInstance, InstanceStatus, Offload, PlacementRequest,
                              Scheduler, StateBlob, Thresholds)
from fogsim.topology import ResourceVector, Tier, Topology

from oracles import (ReferenceFlows, brute_force_latency, brute_force_place,
                     reference_advance_all, reference_check_thresholds,
                     reference_hot_edges, reference_nearest_edge,
                     reference_release_held, reference_shortest_path,
                     reference_window_maps)

MODEL = "sensor"


def random_world(seed: int, fractional: str | None = None):
    """A small random three-tier topology with partially loaded hosts. With
    `fractional` "tenths", each capacity and demand component is a multiple
    of 0.1 up to a few units, so sums meet capacities that float addition
    misses. With "large", each is a 9-place fraction of 1e5 to 1e10, where
    a rounded sum and a rounded difference can answer a fit differently."""
    rng = random.Random(seed)

    def draw(low, high):
        return round(rng.uniform(low, high), 9)

    def units(*components):
        if fractional == "tenths":
            return [rng.randint(1, 40) / 10 for _ in components]
        if fractional == "large":
            return [draw(1e6, 1e10) for _ in components]
        return components

    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, *units(64000, 98304, 11534336))
    n_edges = rng.randint(1, 3)
    for i in range(n_edges):
        topo.add_node(f"edge{i}", Tier.EDGE_MODULE, *units(8000, 16384, 491520))
        topo.add_link(f"edge{i}", "cloud", rng.randint(10, 40), 1000)
    n_gws = rng.randint(1, 2)
    for i in range(n_gws):
        topo.add_node(f"gw{i}", Tier.GATEWAY, *units(4000, 1024, 16384))
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
    if fractional == "tenths":
        demand = [rng.randint(1, 10) / 10 for _ in range(3)]
    elif fractional == "large":
        demand = [draw(1e5, 1e9) for _ in range(3)]
    else:
        demand = [rng.randint(100, 1000), rng.randint(512, 8192),
                  rng.randint(128, 2048)]
    catalog.register_app(AppSpec(
        "app", AppKind.DATA_APP, ResourceVector(*demand),
        latency_requirement_ms=rng.choice([None, 15, 50, 100])))
    source = f"gw{rng.randrange(n_gws)}"
    return topo, catalog, source, rng


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000),
       fractional=st.sampled_from([None, "tenths", "large"]))
def test_placement_agrees_with_exhaustive_search(seed, fractional):
    """`place`, and `select_host` with exclusions, tentative allocations
    of some nodes and a utilization cap, pick the host that full
    enumeration picks. Some tentative allocations plus the demand fill a
    host exactly."""
    topo, catalog, source, rng = random_world(seed, fractional)
    scheduler = Scheduler(topo, catalog)
    app = catalog.app("app")
    replicas = rng.randint(1, 2)
    expected = brute_force_place(topo, app, source, replicas)
    if expected is None:
        with pytest.raises(errors.Unschedulable):
            scheduler.place(PlacementRequest("app", source, replicas))
    else:
        inst = scheduler.place(PlacementRequest("app", source, replicas))
        assert inst.host == expected
    exclude, alloc_override, util_cap_after = draw_offload_filters(
        topo, app.demand.scaled(replicas), rng)
    assert scheduler.select_host(app, source, replicas, exclude, alloc_override,
                                 util_cap_after) \
        == brute_force_place(topo, app, source, replicas, exclude,
                             alloc_override, util_cap_after)


def draw_offload_filters(topo, demand, rng):
    """Random (exclude, alloc_override, util_cap_after) arguments of
    select_host, as the offload loop passes them: some tentative
    allocations plus the demand fill a host exactly."""
    alloc_override = {}
    for nid, node in sorted(topo.nodes.items()):
        cap, draw = node.capacity, rng.random()
        if draw < 1 / 3:
            continue  # read at its own allocation
        if draw < 2 / 3:  # full once the demand is added, where it fits
            alloc_override[nid] = ResourceVector(
                max(cap.cpu - demand.cpu, 0), max(cap.mem - demand.mem, 0),
                max(cap.storage - demand.storage, 0))
        else:
            alloc_override[nid] = ResourceVector(
                cap.cpu * rng.random(), cap.mem * rng.random(),
                cap.storage * rng.random())
    exclude = frozenset(rng.sample(sorted(topo.nodes), rng.randint(0, 2)))
    return exclude, alloc_override, rng.choice([None, 0.5, 0.8, 1.0])


def tied_world(seed: int):
    """A random three-tier graph whose link latencies are 1 or 2 ms, so that
    many hosts lie at equal latency from a source, with a Data-App whose
    latency requirement, when it has one, is the latency of some host.

    The source is any node, an edge or the cloud included, so it may be an
    allowed host itself. Nodes carry random loads; some nodes and links are
    down, the source included. Half the time the source's search has
    already been grown by latency queries to random nodes."""
    rng = random.Random(seed)
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    edges = [f"edge{i}" for i in range(rng.randint(2, 5))]
    for edge in edges:
        topo.add_node(edge, Tier.EDGE_MODULE, 8000, 16384, 491520)
        topo.add_link(edge, "cloud", rng.choice([1, 2]), 1000)
    for i, a in enumerate(edges):
        for b in edges[i + 1:]:
            if rng.random() < 0.3:
                topo.add_link(a, b, rng.choice([1, 2]), 100)
    for i in range(rng.randint(1, 3)):
        topo.add_node(f"gw{i}", Tier.GATEWAY, 4000, 1024, 16384)
        for edge in rng.sample(edges, rng.randint(1, 2)):
            topo.add_link(f"gw{i}", edge, rng.choice([1, 2]), 100)
    for nid in sorted(topo.nodes):
        node = topo.nodes[nid]
        frac = rng.choice([0.0, 0.25, 0.5, 0.9, 1.0])
        topo.reserve(nid, ResourceVector(0, node.capacity.mem * frac, 0))
    for nid in sorted(topo.nodes):
        if rng.random() < 0.1:
            topo.set_node_up(nid, False)
    for lid in sorted(topo.links):
        if rng.random() < 0.1:
            topo.set_link_up(lid, False)
    source = rng.choice(sorted(topo.nodes))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 4)):
            topo.path_latency_or_inf(source, rng.choice(sorted(topo.nodes)))
    tiers = rng.choice([frozenset({Tier.EDGE_MODULE}), frozenset({Tier.CENTRAL_CLOUD}),
                        frozenset({Tier.EDGE_MODULE, Tier.CENTRAL_CLOUD})])
    latencies = sorted({brute_force_latency(topo, source, nid) for nid in topo.nodes
                        if topo.nodes[nid].tier in tiers} - {math.inf})
    app = AppSpec("app", AppKind.DATA_APP,
                  ResourceVector(rng.randint(100, 1000), rng.choice([512, 4096, 8192]),
                                 rng.randint(128, 2048)),
                  latency_requirement_ms=rng.choice([None] + latencies),
                  allowed_tiers=tiers)
    catalog = Catalog()
    catalog.register_app(app)
    return topo, catalog, source, rng


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_placement_among_equal_latency_hosts_agrees_with_exhaustive_search(seed):
    """Where many hosts tie on latency, and the latency requirement sits on
    a tie, `place` and `select_host` with the offload loop's filters pick
    the host that full enumeration picks, and nearest_edge_module the edge
    module the reference picks. A second query on the search the first one
    grew answers the same."""
    topo, catalog, source, rng = tied_world(seed)
    scheduler = Scheduler(topo, catalog)
    app = catalog.app("app")
    replicas = rng.randint(1, 2)
    for _ in range(2):
        assert topo.nearest_edge_module(source) == reference_nearest_edge(topo, source)
        exclude, alloc_override, util_cap_after = draw_offload_filters(
            topo, app.demand.scaled(replicas), rng)
        assert scheduler.select_host(app, source, replicas, exclude, alloc_override,
                                     util_cap_after) \
            == brute_force_place(topo, app, source, replicas, exclude,
                                 alloc_override, util_cap_after)
    expected = brute_force_place(topo, app, source, replicas)
    if expected is None:
        with pytest.raises(errors.Unschedulable):
            scheduler.place(PlacementRequest("app", source, replicas))
    else:
        assert scheduler.place(PlacementRequest("app", source, replicas)).host == expected


def assert_routes_from(topo, source):
    """Every path and latency from `source` is that of a fresh search."""
    for nid in sorted(topo.nodes):
        try:
            expected = [link.link_id
                        for link in reference_shortest_path(topo, source, nid)]
        except errors.Unreachable:
            with pytest.raises(errors.Unreachable):
                topo.shortest_path(source, nid)
            assert topo.path_latency_or_inf(source, nid) == math.inf
            continue
        assert [link.link_id for link in topo.shortest_path(source, nid)] == expected, nid
        assert topo.path_latency_or_inf(source, nid) \
            == sum(topo.links[lid].latency_ms for lid in expected), nid


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_a_search_stopped_by_placement_resumes_as_a_fresh_search(seed):
    """select_host stops the source's search at the latency of the first
    feasible host, or at the latency requirement. Links and nodes then
    change state, zero to two times, each followed by another placement
    query. Grown on from where it stopped, the search answers every path
    and latency as a fresh search does."""
    topo, catalog, source, rng = tied_world(seed)
    scheduler = Scheduler(topo, catalog)
    app = catalog.app("app")
    scheduler.select_host(app, source, 1)
    for _ in range(rng.randint(0, 2)):
        target = rng.choice(sorted(topo.links) + sorted(topo.nodes))
        if target in topo.links:
            topo.set_link_up(target, not topo.links[target].up)
        else:
            topo.set_node_up(target, not topo.nodes[target].up)
        assert scheduler.select_host(app, source, 1) \
            == brute_force_place(topo, app, source, 1)
    assert_routes_from(topo, source)


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
    catalog.register_profile(DeviceProfile(MODEL, "1.0", "BLE",
                                           rng.choice([100, 5000, 200_000]),
                                           "iot"))
    discovery = DiscoveryService(topo, catalog)
    scheduler = Scheduler(topo, catalog)
    flows = FlowManager(topo, catalog, discovery, scheduler,
                        buffer_mb=rng.choice([0, 1, 10]))
    discovery.handle_attach(source, "dev", MODEL, "1.0")
    sink = rng.choice([n for n, node in sorted(topo.nodes.items())
                       if node.tier is not Tier.GATEWAY])
    now = 0
    try:
        flow = flows.open_flow("dev", source, sink,
                               catalog.profile(MODEL).data_rate_kbps, now)
    except errors.Unreachable:
        return
    for _ in range(steps):
        if rng.random() < 0.2:
            flows.set_paused(flow.flow_id, not flow.paused, now)
        now += rng.randint(0, 3000)
        flows.advance_all(now)
    assert flow.generated == pytest.approx(
        flow.delivered + flow.dropped + flow.buffered)
    assert flow.buffered <= flows.buffer_mb + 1e-9
    # no window closes, so the window counters are the cumulative ones
    assert flow.w_uplinked <= flow.w_delivered + 1e-9


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
    engine = MigrationEngine(scheduler)
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
            for action in scheduler.check_thresholds():
                if not isinstance(action, Offload):
                    continue
                inst = scheduler.instance(action.instance_id)
                try:
                    engine.start(inst, action.target, time)
                except errors.TargetInfeasible:
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1_000_000), fractional=st.booleans(),
       steps=st.lists(st.sampled_from(["place", "scale", "offload", "complete",
                                       "window"]), min_size=1, max_size=20))
# a window before an offload's start and none after it but the last; one
# between the start and the completion, and none after the completion
@example(seed=0, fractional=False, steps=["place", "place", "window", "offload"])
@example(seed=0, fractional=False,
         steps=["place", "place", "offload", "window", "complete"])
def test_window_maps_match_a_fresh_computation(seed, fractional, steps):
    """Random places, scales, offload starts and migration completes, with
    metrics windows closed between them. Each metrics_window record carries,
    byte for byte, the utilization and alloc maps that a fresh computation
    over every node gives and the status of every instance in id order, and
    no record's maps change after it is made."""
    rng = random.Random(seed)

    def amount(low, high):
        return rng.randint(low, high) + (rng.randint(1, 9) / 10 if fractional else 0)

    edge = {"tier": "EdgeModule", "cpu": 8000, "mem": 16384, "storage": 491520}
    runtime = Runtime(scenario_from_dict({
        "schema_version": 1, "name": "windows", "duration_ms": 1_000_000,
        "thresholds": {"high": 0.5, "low": 0.2},
        "topology": {
            "nodes": [{"id": "cloud", "tier": "CentralCloud", "cpu": 64000,
                       "mem": 98304, "storage": 11534336},
                      {"id": "edge0", **edge}, {"id": "edge1", **edge},
                      {"id": "gw0", "tier": "Gateway", "cpu": 4000, "mem": 1024,
                       "storage": 16384}],
            "links": [{"a": "edge0", "b": "cloud", "latency_ms": 20,
                       "bandwidth_mbps": 1000},
                      {"a": "edge1", "b": "cloud", "latency_ms": 20,
                       "bandwidth_mbps": 1000},
                      {"a": "gw0", "b": "edge0", "latency_ms": 2,
                       "bandwidth_mbps": 100},
                      {"a": "gw0", "b": "edge1", "latency_ms": 5,
                       "bandwidth_mbps": 100}]},
        "apps": [{"id": app_id, "kind": "DataApp", "cpu": amount(100, 2000),
                  "mem": amount(512, 4096), "storage": amount(128, 2048),
                  "state_size_mb": 1} for app_id in ("a", "b")],
    }))
    topo, scheduler, engine = runtime.topology, runtime.scheduler, runtime.migrations
    kernel = runtime.kernel
    inbound: dict[str, str] = {}  # migrating instance id -> its target
    windows = []  # (record, its maps as JSON when it was made)

    def maps_json(maps) -> str:
        return json.dumps({key: maps[key] for key in ("utilization", "alloc")},
                          sort_keys=True) + json.dumps(maps["instances"])

    def close_window():
        kernel.now += 1
        runtime._close_window()
        record = kernel.trace.records[-1]
        assert record.kind == "metrics_window"
        instances = scheduler.instances
        assert maps_json(record.details) == maps_json({
            **reference_window_maps(topo),
            "instances": {iid: instances[iid].status.value
                          for iid in sorted(instances)}})
        windows.append((record, maps_json(record.details)))

    for step in steps:
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
            for action in scheduler.check_thresholds():
                if not isinstance(action, Offload):
                    continue
                inst = scheduler.instance(action.instance_id)
                try:
                    engine.start(inst, action.target, kernel.now)
                except errors.TargetInfeasible:
                    continue
                inbound[inst.instance_id] = action.target
        elif step == "complete" and inbound:
            iid = rng.choice(sorted(inbound))
            del inbound[iid]
            engine.complete(scheduler.instance(iid))
        elif step == "window":
            close_window()
    close_window()
    for record, emitted in windows:
        assert maps_json(record.details) == emitted


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.lists(st.tuples(
    st.sampled_from(["reserve", "release", "add_node", "add", "set_status",
                     "snapshot"]),
    st.integers(0, 1_000_000)), max_size=40))
def test_each_new_window_map_is_a_revision_of_the_last_or_has_other_keys(steps):
    """Random reserves, releases, added nodes, added instances and status
    writes, with snapshots between them. Each snapshot is the last map at
    its slot again; or a map of other keys that replaces none; or a
    revision of the last map, with its keys in its order, whose `changed`
    names only its keys and every key whose entry is not the last map's
    object. And it equals the map built afresh."""
    topo = Topology()
    scheduler = Scheduler(topo, Catalog())
    for nid in ("cloud", "edge", "gw"):
        topo.add_node(nid, Tier.CENTRAL_CLOUD, 4000, 1024, 16384)
    reserved: list[tuple[str, ResourceVector]] = []
    instances = []
    last: dict = {}

    def snapshot():
        maps = {"instances": scheduler.status_snapshot(),
                "utilization": topo.utilization_snapshot(),
                "alloc": topo.alloc_snapshot()}
        assert maps == {**reference_window_maps(topo), "instances": {
            iid: inst.status.value for iid, inst in sorted(scheduler.instances.items())}}
        for key, value in maps.items():
            prev, last[key] = last.get(key), value
            assert type(value) is Revision and list(value) == sorted(value)
            if value is prev:
                continue
            if prev is None or prev.keys() != value.keys():
                assert value.base is None
                continue
            assert value.base is prev.token and list(value) == list(prev)
            assert set(value.changed) <= value.keys()
            assert {k for k, v in value.items() if v is not prev[k]} \
                <= set(value.changed)

    for step, n in steps:
        nodes = sorted(topo.nodes)
        if step == "reserve":
            demand = ResourceVector(n % 1000, n % 100, 0)
            try:
                topo.reserve(nodes[n % len(nodes)], demand)
                reserved.append((nodes[n % len(nodes)], demand))
            except errors.InsufficientCapacity:
                pass
        elif step == "release" and reserved:
            topo.release(*reserved.pop(n % len(reserved)))
        elif step == "add_node" and f"n{n % 50}" not in topo.nodes:
            topo.add_node(f"n{n % 50}", Tier.GATEWAY, 4000, 1024, 16384)
        elif step == "add":
            inst = AppInstance(f"app-{len(instances)}", "app", nodes[n % len(nodes)], 1,
                               nodes[0], StateBlob())
            scheduler.instances[inst.instance_id] = inst
            instances.append(inst)
        elif step == "set_status" and instances:
            scheduler.set_status(instances[n % len(instances)],
                                 list(InstanceStatus)[n % len(InstanceStatus)])
        elif step == "snapshot":
            snapshot()
    snapshot()


def hot_world(seed: int, fractional: bool):
    """Two edges under a cloud and a gateway near each edge, with two random
    Data-Apps and `pad`, a Data-App of cpu only, a tenth with fractional
    demands, so that scaling it can bring an edge's cpu exactly to the high
    watermark of 0.5: every cpu allocation is then a multiple of the pad's."""
    rng = random.Random(seed)
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    for i in range(2):
        topo.add_node(f"edge{i}", Tier.EDGE_MODULE, 8000, 16384, 491520)
        topo.add_link(f"edge{i}", "cloud", 20, 1000)
    for i in range(2):
        topo.add_node(f"gw{i}", Tier.GATEWAY, 4000, 1024, 16384)
        topo.add_link(f"gw{i}", f"edge{i}", 2, 100)
        topo.add_link(f"gw{i}", f"edge{1 - i}", 5, 100)

    def amount(low, high):
        return rng.randint(low, high) + (rng.randint(1, 9) / 10 if fractional else 0)

    catalog = Catalog()
    for app_id in ("a", "b"):
        catalog.register_app(AppSpec(
            app_id, AppKind.DATA_APP,
            ResourceVector(amount(100, 2000), amount(512, 4096), amount(128, 2048)),
            state_size_mb=1))
    catalog.register_app(AppSpec("pad", AppKind.DATA_APP,
                                 ResourceVector(0.1 if fractional else 1, 0, 0),
                                 state_size_mb=1))
    scheduler = Scheduler(topo, catalog, Thresholds(high_watermark=0.5,
                                                     low_watermark=0.2))
    return rng, topo, scheduler


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000), fractional=st.booleans(),
       steps=st.lists(st.sampled_from(["place", "scale", "offload", "complete",
                                       "down", "up", "exact"]),
                      min_size=1, max_size=25))
def test_the_hot_set_loop_acts_as_a_scan_of_every_edge(seed, fractional, steps):
    """Random places, scales, offload starts, migration completes, edges
    going down and up, and scales that bring an edge's cpu exactly to the
    high watermark. After every step the threshold loop over the kept set of
    hot edges returns the actions of a loop that tests every up edge, and
    the set is that of a scan of every edge's allocation."""
    rng, topo, scheduler = hot_world(seed, fractional)
    engine = MigrationEngine(scheduler)
    high = scheduler.thresholds.high_watermark
    edges = topo.nodes_of(Tier.EDGE_MODULE)
    actions = []
    inbound: set[str] = set()  # migrating instance ids

    for time, step in enumerate(steps):
        running = sorted(iid for iid, inst in scheduler.instances.items()
                         if inst.status is InstanceStatus.RUNNING)
        if step == "place":
            try:
                scheduler.place(PlacementRequest(rng.choice(["a", "b", "pad"]),
                                                 rng.choice(["gw0", "gw1"]),
                                                 rng.randint(1, 2)))
            except errors.Unschedulable:
                pass
        elif step == "scale" and running:
            try:
                scheduler.scale(rng.choice(running), rng.randint(1, 3))
            except errors.InsufficientCapacity:
                pass
        elif step == "offload":
            for action in actions:
                if not isinstance(action, Offload):
                    continue
                inst = scheduler.instance(action.instance_id)
                try:
                    engine.start(inst, action.target, time)
                except errors.TargetInfeasible:
                    continue
                inbound.add(inst.instance_id)
        elif step == "complete" and inbound:
            iid = rng.choice(sorted(inbound))
            inbound.remove(iid)
            engine.complete(scheduler.instance(iid))
        elif step in ("down", "up"):
            topo.set_node_up(rng.choice(edges), step == "up")
        elif step == "exact":
            pads = [inst for iid in running
                    if (inst := scheduler.instance(iid)).app_id == "pad"
                    and inst.host in edges]
            if pads:
                pad = rng.choice(pads)
                node = topo.nodes[pad.host]
                unit = scheduler.catalog.app("pad").demand.cpu
                replicas = pad.replicas + round(
                    (node.capacity.cpu * high - node.allocated.cpu) / unit)
                if replicas >= 1:
                    scheduler.scale(pad.instance_id, replicas)
                    assert node.allocated.cpu == node.capacity.cpu * high

        expected = reference_check_thresholds(scheduler)
        actions = scheduler.check_thresholds()
        assert actions == expected
        assert scheduler._hot == reference_hot_edges(scheduler)


FLOW_COUNTERS = ("generated", "delivered", "dropped", "buffered",
                 "w_generated", "w_delivered", "w_dropped", "w_uplinked")


def contended_world():
    """Two edges under a cloud with thin links, three gateways (one
    dual-homed), six devices attached, and a Data-App placed for two of the
    gateways, so that flows contend, buffer, drop and reach the uplink."""
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    for edge in ("edge1", "edge2"):
        topo.add_node(edge, Tier.EDGE_MODULE, 8000, 16384, 491520)
        topo.add_link(edge, "cloud", 20, 3)
    topo.add_link("edge1", "edge2", 4, 5)
    for gw in ("gw1", "gw2", "gw3"):
        topo.add_node(gw, Tier.GATEWAY, 4000, 1024, 16384)
    topo.add_link("gw1", "edge1", 2, 2)
    topo.add_link("gw2", "edge1", 3, 1)
    topo.add_link("gw2", "edge2", 5, 1)
    topo.add_link("gw3", "edge2", 2, 2)
    catalog = Catalog()
    catalog.register_app(AppSpec("agent", AppKind.IOT_APP, ResourceVector(10, 8, 2)))
    catalog.register_app(AppSpec("agg", AppKind.DATA_APP, ResourceVector(100, 64, 16),
                                 aggregation_factor=4, state_size_mb=1))
    catalog.register_profile(DeviceProfile(MODEL, "1.0", "BLE", 100, "agent"))
    discovery = DiscoveryService(topo, catalog)
    scheduler = Scheduler(topo, catalog)
    homes = {}
    for i, gw in enumerate(["gw1", "gw1", "gw2", "gw2", "gw3", "gw3"]):
        discovery.handle_attach(gw, f"d{i}", MODEL, "1.0")
        homes[f"d{i}"] = gw
    instances = [scheduler.place(PlacementRequest("agg", gw)).instance_id
                 for gw in ("gw1", "gw3")]
    return topo, catalog, discovery, scheduler, homes, instances


FLOW_STEPS = ["open", "open", "close", "rate", "pause", "resume", "rebind",
              "toggle", "migrate", "window"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000), n_steps=st.integers(1, 60),
       buffer_mb=st.sampled_from([0.0, 0.05, 1.0]))
def test_lazy_flows_match_eager_integration(seed, n_steps, buffer_mb):
    """Random opens, closes, rate changes, pauses, resumes, rebinds, link
    and node toggles and migrations at random times, through the lazy
    FlowManager and through the eager reference, which integrates every
    flow at every step.
    After every window both hold the same counters, link volumes, uplink
    and output held per edge host, and every flow conserves its bytes. After
    every step each routed flow's kept share is the one its path gives it."""
    topo, catalog, discovery, scheduler, homes, instances = contended_world()
    flows = FlowManager(topo, catalog, discovery, scheduler, buffer_mb=buffer_mb)
    ref = ReferenceFlows(topo, catalog, scheduler, buffer_mb)
    engine = MigrationEngine(scheduler)
    now = window_start = 0

    def close_window():
        flows.advance_all(now)
        for fid, flow in flows.flows.items():
            expected = ref.flows[fid]
            for counter in FLOW_COUNTERS:
                assert math.isclose(getattr(flow, counter), getattr(expected, counter),
                                    abs_tol=1e-9), (fid, counter)
            assert math.isclose(flow.generated,
                                flow.delivered + flow.dropped + flow.buffered,
                                abs_tol=1e-9), fid
        window = flows.close_window(window_start, now)
        for link_id in set(window.links) | set(ref.link_mb):
            assert math.isclose(window.links.get(link_id, 0.0),
                                ref.link_mb.get(link_id, 0.0), abs_tol=1e-9), link_id
        released = reference_release_held(ref)
        assert math.isclose(window.uplink_mb, released + sum(
            flow.w_uplinked for flow in ref.flows.values()), abs_tol=1e-9)
        assert flows._held.keys() == ref.held.keys()
        for host, held_mb in ref.held.items():
            assert math.isclose(flows._held[host], held_mb, abs_tol=1e-9), host
        for flow in ref.flows.values():
            flow.w_generated = flow.w_delivered = flow.w_dropped = flow.w_uplinked = 0.0
        ref.link_mb.clear()

    def assert_fresh_shares():
        """Each flow with a path holds the share its path gives it now."""
        counts = Counter(link.link_id for flow in flows.flows.values()
                         for link in flow.path or ())
        for fid, flow in flows.flows.items():
            if flow.path is not None:
                assert flow.active
                assert flow.share_mbps == min(link.bandwidth_mbps / counts[link.link_id]
                                              for link in flow.path), fid

    rng = random.Random(seed)
    for _ in range(n_steps):
        assert_fresh_shares()
        op = rng.choice(FLOW_STEPS)
        dt = rng.choice([0, rng.randint(1, 800)])
        now += dt
        reference_advance_all(ref, dt)
        active = sorted(fid for fid, flow in flows.flows.items() if flow.active)
        if op == "open":
            idle = sorted(d for d in homes if flows.active_flow_for(d) is None)
            if not idle:
                continue
            device = rng.choice(idle)
            sink = rng.choice(["edge1", "edge2", "cloud"])
            serving = rng.choice([None] + instances)
            rate = rng.choice([100, 1500, 6000])
            paused = rng.random() < 0.3
            try:
                flow = flows.open_flow(device, homes[device], sink, rate, now,
                                       serving, paused)
            except errors.Unreachable:
                continue
            ref.flows[flow.flow_id] = Flow(flow.flow_id, device, homes[device], sink,
                                           rate, serving, paused=paused)
        elif op == "window":
            close_window()
            window_start = now
        elif op == "toggle":
            target = rng.choice(sorted(topo.links) + sorted(topo.nodes))
            if target in topo.links:
                topo.set_link_up(target, not topo.links[target].up)
            else:
                topo.set_node_up(target, not topo.nodes[target].up)
            flows.reroute_dropped(now)
        elif op == "migrate":
            inst = scheduler.instance(rng.choice(instances))
            if inst.status is InstanceStatus.MIGRATING:
                engine.complete(inst)
            else:
                target = rng.choice(sorted({"edge1", "edge2", "cloud"} - {inst.host}))
                try:
                    engine.start(inst, target, now)
                except errors.TargetInfeasible:
                    continue
            flows.reroute_served(inst.instance_id, now)
        elif active:
            fid = rng.choice(active)
            expected = ref.flows[fid]
            if op == "close":
                flows.close_flow(fid, now)
                expected.active = False
            elif op == "rate":
                rate = rng.choice([100, 1500, 6000])
                flows.set_rate(fid, rate, now)
                expected.rate_kbps = rate
            elif op in ("pause", "resume"):
                flows.set_paused(fid, op == "pause", now)
                expected.paused = op == "pause"
            else:
                sink = rng.choice(["edge1", "edge2", "cloud"])
                serving = rng.choice([None] + instances)
                flows.rebind(fid, sink, serving, now)
                expected.sink, expected.serving_instance = sink, serving
    assert_fresh_shares()
    close_window()


def fresh_route(topo, catalog, scheduler, flow):
    """(path link ids, uplink) of an active flow derived afresh: paths from
    the uncached reference search, and an edge host's reachability searched
    from the host towards the cloud."""
    inst = scheduler.instances.get(flow.serving_instance)
    if flow.paused or inst is not None and inst.status is not InstanceStatus.RUNNING:
        return None, None
    try:
        path = tuple(link.link_id
                     for link in reference_shortest_path(topo, flow.src, flow.sink))
    except errors.Unreachable:
        return None, None
    if inst is None:
        return path, None
    tier = topo.nodes[inst.host].tier
    if tier is Tier.CENTRAL_CLOUD:
        return path, (1.0, None)
    try:
        reference_shortest_path(topo, inst.host, "cloud")
        held_at = None
    except errors.Unreachable:
        held_at = inst.host
    return path, (catalog.app(inst.app_id).aggregation_factor, held_at)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 1_000_000), n_steps=st.integers(1, 40))
def test_rerouting_dropped_searches_matches_a_fresh_derivation(seed, n_steps):
    """Overlapping faults on links and nodes (gateways, edges and the cloud),
    several at a time as a partition holds links, each element down while
    any fault holds it, as Runtime._hold counts them; between them, pauses,
    resumes, migrations and queries that grow searches no flow asks of,
    placements among them, which stop a search at a latency. Flows are served by no instance, by an edge-hosted one and by the cloud.
    After every step each active flow's path, uplink and share are those of
    a fresh derivation, so reroute_dropped, which re-derives only the flows
    whose searches were dropped, misses no route that changed."""
    topo, catalog, discovery, scheduler, homes, instances = contended_world()
    rng = random.Random(seed)
    near = AppSpec("near", AppKind.DATA_APP, ResourceVector(100, 64, 16),
                   latency_requirement_ms=rng.choice([None, 2, 3, 6, 22]))
    engine = MigrationEngine(scheduler)
    to_cloud = scheduler.instance(rng.choice(instances))
    engine.start(to_cloud, "cloud", 0)
    engine.complete(to_cloud)
    flows = FlowManager(topo, catalog, discovery, scheduler)
    for device in sorted(homes):
        serving = rng.choice([None] + instances)
        sink = scheduler.instance(serving).host if serving else \
            rng.choice(["edge1", "edge2", "cloud"])
        flows.open_flow(device, homes[device], sink, 100, 0, serving,
                        paused=rng.random() < 0.2)
    elements = [(topo.set_link_up, lid) for lid in sorted(topo.links)] + \
        [(topo.set_node_up, nid) for nid in sorted(topo.nodes)]
    faults: list = []
    down: Counter = Counter()
    now = 0

    def assert_fresh_routes():
        fresh = {device: fresh_route(topo, catalog, scheduler, flow)
                 for device, flow in flows._active.items()}
        counts = Counter(lid for path, _ in fresh.values() for lid in path or ())
        for device, (path, uplink) in fresh.items():
            flow = flows.active_flow_for(device)
            kept = flow.path and tuple(link.link_id for link in flow.path)
            assert (kept, flow.uplink) == (path, uplink), flow.flow_id
            if path is not None:
                assert flow.share_mbps == min(topo.links[lid].bandwidth_mbps / counts[lid]
                                              for lid in path), flow.flow_id

    for _ in range(n_steps):
        now += rng.randint(0, 500)
        op = rng.random()
        if op < 0.6:
            for _ in range(rng.randint(1, 3)):
                if faults and rng.random() < 0.5:
                    element, delta = faults.pop(rng.randrange(len(faults))), -1
                else:
                    element, delta = rng.choice(elements), 1
                    faults.append(element)
                down[element] += delta
                set_up, target = element
                set_up(target, down[element] == 0)
            flows.reroute_dropped(now)
        elif op < 0.75:
            flow = flows.active_flow_for(rng.choice(sorted(homes)))
            flows.set_paused(flow.flow_id, not flow.paused, now)
        elif op < 0.9:
            inst = scheduler.instance(rng.choice(instances))
            if inst.status is InstanceStatus.MIGRATING:
                engine.complete(inst)
                for flow in flows.served_by(inst.instance_id):
                    flows.rebind(flow.flow_id, inst.host, inst.instance_id, now)
            else:
                target = rng.choice(sorted({"edge1", "edge2", "cloud"} - {inst.host}))
                try:
                    engine.start(inst, target, now)
                except errors.TargetInfeasible:
                    continue
                flows.reroute_served(inst.instance_id, now)
        else:
            topo.path_latency_or_inf(rng.choice(sorted(topo.nodes)),
                                     rng.choice(sorted(topo.nodes)))
            topo.nearest_edge_module(rng.choice(["gw1", "gw2", "gw3"]))
            scheduler.select_host(near, rng.choice(["gw1", "gw2", "gw3"]), 1)
        assert_fresh_routes()
