from __future__ import annotations

import copy
import math

import pytest

from fogsim import errors
from fogsim.dataflow import Flow, FlowManager, WindowMetrics, generated_mb
from fogsim.discovery import DiscoveryService
from fogsim.kernel import Kernel
from fogsim.migration import MigrationEngine
from fogsim.scheduler import PlacementRequest, Scheduler
from fogsim.topology import ResourceVector, Tier, Topology

from oracles import ReferenceFlows, reference_advance_all


@pytest.fixture
def world(three_tier, catalog):
    discovery = DiscoveryService(three_tier, catalog)
    scheduler = Scheduler(three_tier, catalog)
    flows = FlowManager(three_tier, catalog, discovery, scheduler, buffer_mb=10)
    discovery.handle_attach("gw1", "dev1", "smartband", "1.0")
    return three_tier, scheduler, flows, discovery


def test_generated_mb_reference_case():
    # 100 kbps for one second is 12.5 kB
    assert generated_mb(100, 1000) == pytest.approx(0.0125)


def test_generated_mb_zero_dt():
    assert generated_mb(100, 0) == 0.0


def test_open_flow_requires_attachment(world):
    _, _, flows, _ = world
    with pytest.raises(errors.NotAttachedHere, match="^ghost at gw1$"):
        flows.open_flow("ghost", "gw1", "edge1", 100, 0)


def test_open_flow_requires_reachable_sink(world):
    topo, _, flows, _ = world
    topo.set_link_up("gw1--edge1", False)
    with pytest.raises(errors.Unreachable):
        flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    # unless the flow starts paused (roam in progress)
    flow = flows.open_flow("dev1", "gw1", "edge1", 100, 0, paused=True)
    assert flow.paused


def test_advance_accumulates_and_conserves(world):
    _, _, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    flows.advance_all(1000)
    assert flow.generated == pytest.approx(0.0125)
    assert flow.delivered == pytest.approx(0.0125)
    assert flow.dropped == 0.0
    flows.advance_all(1000)  # no time, no data
    assert flow.generated == pytest.approx(0.0125)
    assert flow.generated == pytest.approx(
        flow.delivered + flow.dropped + flow.buffered)


def test_paused_flow_buffers_then_drops(world):
    _, _, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 8000, 0, paused=True)
    flows.advance_all(1000)  # 1 MB into the buffer
    assert flow.buffered == pytest.approx(1.0)
    assert flow.dropped == 0.0
    flows.advance_all(11_000)  # 10 more MB against a 10 MB buffer
    assert flow.buffered == pytest.approx(10.0)
    assert flow.dropped == pytest.approx(1.0)
    assert flow.generated == pytest.approx(
        flow.delivered + flow.dropped + flow.buffered)


def test_resumed_flow_drains_buffer_with_headroom(world):
    _, _, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 8000, 0, paused=True)
    flows.advance_all(1000)
    flows.set_paused(flow.flow_id, False, 1000)
    # link fits 12.5 MB/s; 1 MB/s fresh leaves plenty of headroom
    flows.advance_all(2000)
    assert flow.buffered == 0.0
    assert flow.delivered == pytest.approx(2.0)


def test_a_full_drain_leaves_an_exact_zero_wherever_it_is_split(world):
    """30 Mbps buffers 0.375 MB over 100 ms paused, and the 100 Mbps link
    drains it within [100, 200] ms. Wherever that interval is split, the
    buffer ends at +0.0, not at a rounding residue of either sign, so the
    flow_window record is the same bytes as the unsplit run's, and every
    counter stays within 1e-9 of the eager reference."""
    topo, scheduler, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 30_000, 0, paused=True)
    flows.advance_all(100)
    flows.set_paused(flow.flow_id, False, 100)
    assert flow.buffered == pytest.approx(0.375)

    def window_line(split_ms: int | None) -> str:
        split = copy.deepcopy(flows)
        if split_ms is not None:
            split.advance_all(split_ms)
        split.advance_all(200)
        drained = split.flow(flow.flow_id)
        assert drained.buffered == 0.0 and math.copysign(1.0, drained.buffered) == 1.0
        ref = ReferenceFlows(topo, scheduler.catalog, scheduler, flows.buffer_mb)
        expected = ref.flows[flow.flow_id] = Flow(
            flow.flow_id, "dev1", "gw1", "edge1", 30_000, paused=True)
        reference_advance_all(ref, 100)
        expected.paused = False
        mid_ms = split_ms or 100
        reference_advance_all(ref, mid_ms - 100)
        reference_advance_all(ref, 200 - mid_ms)
        for counter in ("generated", "delivered", "dropped", "buffered",
                        "w_generated", "w_delivered", "w_dropped"):
            assert math.isclose(getattr(drained, counter), getattr(expected, counter),
                                abs_tol=1e-9), (split_ms, counter)
        [record] = split.close_window(0, 200).flows
        kernel = Kernel()
        kernel.now = 200
        return kernel.emit("flow_window", flow.flow_id, record).to_json()

    unsplit = window_line(None)
    assert '"buffered_mb":0.0' in unsplit
    for split_ms in range(101, 200):
        assert window_line(split_ms) == unsplit, split_ms


def test_rate_above_link_bandwidth_buffers(world):
    _, _, flows, _ = world
    # 200 Mbps of data against a 100 Mbps link
    flow = flows.open_flow("dev1", "gw1", "edge1", 200_000, 0)
    flows.advance_all(1000)
    assert flow.delivered == pytest.approx(12.5)  # 100 Mbps for 1 s
    assert flow.buffered == pytest.approx(10.0)
    assert flow.dropped == pytest.approx(2.5)


def test_fair_share_on_contended_link(world):
    topo, _, flows, discovery = world
    discovery.handle_attach("gw1", "dev2", "smartband", "1.0")
    # both flows cross gw1--edge1 (100 Mbps) at 100 Mbps each
    f1 = flows.open_flow("dev1", "gw1", "edge1", 100_000, 0)
    f2 = flows.open_flow("dev2", "gw1", "edge1", 100_000, 0)
    flows.advance_all(1000)
    for flow in (f1, f2):
        assert flow.delivered == pytest.approx(6.25)  # half the link each
        assert flow.buffered == pytest.approx(6.25)


def test_shares_follow_a_contender_that_joins_and_leaves(catalog):
    """gw1 reaches edge1 over 100 Mbps and edge2 over 40 Mbps."""
    topo = Topology()
    for node, tier in (("edge1", Tier.EDGE_MODULE), ("edge2", Tier.EDGE_MODULE),
                       ("gw1", Tier.GATEWAY)):
        topo.add_node(node, tier, 8000, 16384, 491520)
    topo.add_link("gw1", "edge1", 2, 100)
    topo.add_link("gw1", "edge2", 2, 40)
    discovery = DiscoveryService(topo, catalog)
    flows = FlowManager(topo, catalog, discovery, Scheduler(topo, catalog))
    for device in ("dev1", "dev2"):
        discovery.handle_attach("gw1", device, "smartband", "1.0")
    f1 = flows.open_flow("dev1", "gw1", "edge1", 200_000, 0)
    assert f1.share_mbps == 100.0
    f2 = flows.open_flow("dev2", "gw1", "edge1", 200_000, 1000)  # joins
    assert (f1.share_mbps, f2.share_mbps) == (50.0, 50.0)
    flows.rebind(f2.flow_id, "edge2", None, 2000)  # leaves
    assert (f1.share_mbps, f2.share_mbps) == (100.0, 40.0)
    flows.advance_all(3000)
    # 1 s alone, 1 s halved, 1 s alone: 100, 50 and 100 Mbps of 200
    assert f1.delivered == pytest.approx((100 + 50 + 100) / 8)
    # 1 s halved, then 1 s at edge2's 40 Mbps
    assert f2.delivered == pytest.approx((50 + 40) / 8)


def test_uplink_ratio_edge_hosted(world):
    _, scheduler, flows, _ = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    flow = flows.open_flow("dev1", "gw1", inst.host, 100, 0,
                           serving_instance=inst.instance_id)
    flows.advance_all(1000)
    window = flows.close_window(0, 1000)
    assert window.ratio == pytest.approx(0.1)  # aggregation factor 10
    assert flow.w_generated == 0.0  # window counters reset


def test_uplink_ratio_rises_when_app_moves_to_cloud(world):
    topo, scheduler, flows, _ = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    flow = flows.open_flow("dev1", "gw1", inst.host, 100, 0,
                           serving_instance=inst.instance_id)
    flows.advance_all(1000)
    before = flows.close_window(0, 1000)
    engine = MigrationEngine(scheduler)
    record = engine.start(inst, "cloud", 1000)
    engine.complete(inst)
    flows.rebind(flow.flow_id, inst.host, inst.instance_id, 1000)
    flows.advance_all(2000)
    after = flows.close_window(1000, 2000)
    assert before.ratio == pytest.approx(0.1)
    assert after.ratio == pytest.approx(1.0)  # raw bytes now cross the uplink


def test_uplink_held_while_cloud_unreachable(world):
    topo, scheduler, flows, _ = world
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    flows.open_flow("dev1", "gw1", inst.host, 100, 0,
                    serving_instance=inst.instance_id)
    topo.set_link_up("edge1--cloud", False)
    flows.reroute_dropped(0)
    flows.advance_all(1000)
    window = flows.close_window(0, 1000)
    assert window.uplink_mb == 0.0
    assert flows._held == {inst.host: pytest.approx(0.00125)}
    # restored: the backlog is released into the next window
    topo.set_link_up("edge1--cloud", True)
    flows.reroute_dropped(1000)
    flows.advance_all(2000)
    after = flows.close_window(1000, 2000)
    assert after.uplink_mb == pytest.approx(0.0025)
    assert flows._held == {}


def test_a_link_down_that_drops_no_search_from_a_flows_source_leaves_it_be(
        world, monkeypatch):
    """gw1's search settled gw1 and edge1 only, so edge1--cloud going down
    keeps it: the flow from gw1 is neither re-derived nor integrated, while
    the flow from gw2, whose search crossed the link, loses its route."""
    topo, _, flows, discovery = world
    discovery.handle_attach("gw2", "dev2", "smartband", "1.0")
    near = flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    far = flows.open_flow("dev2", "gw2", "cloud", 100, 0)
    derived = []
    route = flows._route
    monkeypatch.setattr(flows, "_route",
                        lambda flow: derived.append(flow.flow_id) or route(flow))
    topo.set_link_up("edge1--cloud", False)
    flows.reroute_dropped(1000)
    assert derived == [far.flow_id]
    assert (near.last_ms, [link.link_id for link in near.path]) == (0, ["gw1--edge1"])
    assert (far.last_ms, far.path) == (1000, None)


def test_held_output_flows_again_when_a_link_beyond_the_flows_search_returns(catalog):
    """edge2 loses the cloud with both cloud links down and regains it when
    edge1--cloud comes back: gw1's search, which settled gw1 and edge2
    only, is kept, and the cloud's, which is dropped, re-derives the flow
    whose output was held at edge2."""
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    for node, tier in (("edge1", Tier.EDGE_MODULE), ("edge2", Tier.EDGE_MODULE),
                       ("gw1", Tier.GATEWAY)):
        topo.add_node(node, tier, 8000, 16384, 491520)
    topo.add_link("edge1", "cloud", 20, 100)
    topo.add_link("edge2", "cloud", 20, 100)
    topo.add_link("edge1", "edge2", 4, 100)
    topo.add_link("gw1", "edge2", 2, 100)
    discovery = DiscoveryService(topo, catalog)
    scheduler = Scheduler(topo, catalog)
    flows = FlowManager(topo, catalog, discovery, scheduler)
    discovery.handle_attach("gw1", "dev1", "smartband", "1.0")
    inst = scheduler.place(PlacementRequest("analytics", "gw1"))
    assert inst.host == "edge2"
    flow = flows.open_flow("dev1", "gw1", "edge2", 100, 0, inst.instance_id)
    for link_id in ("edge1--cloud", "edge2--cloud"):
        topo.set_link_up(link_id, False)
    flows.reroute_dropped(1000)
    assert flow.uplink == (10, "edge2")
    topo.set_link_up("edge1--cloud", True)
    flows.reroute_dropped(2000)
    assert flow.uplink == (10, None)
    flows.advance_all(3000)
    window = flows.close_window(0, 3000)
    # 1 s held, 1 s held then released, 1 s uplinked: all of it reaches the cloud
    assert window.uplink_mb == pytest.approx(3 * 0.00125)
    assert flows._held == {}


def test_empty_window_has_no_ratio():
    window = WindowMetrics(0, 1000, 0.0, 0.0, 0.0, 0.0)
    assert window.ratio is None


def test_close_window_reports_link_volumes(world):
    _, _, flows, _ = world
    flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    flows.advance_all(1000)
    window = flows.close_window(0, 1000)
    assert window.links == {"gw1--edge1": pytest.approx(0.0125)}


def test_negative_dt_rejected(world):
    _, _, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    with pytest.raises(errors.ValidationError):
        flows.advance_all(-1)
    with pytest.raises(errors.ValidationError):
        flows.set_rate(flow.flow_id, 200, -1)
    assert flow.rate_kbps == 100


def test_closed_flow_stops_generating(world):
    _, _, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    flows.advance_all(1000)
    flows.close_flow(flow.flow_id, 1000)
    flows.advance_all(2000)
    assert flow.generated == pytest.approx(0.0125)


def test_unknown_flow_is_a_typed_error(world):
    _, _, flows, _ = world
    with pytest.raises(errors.UnknownFlow):
        flows.flow("nope")
    with pytest.raises(errors.UnknownFlow):
        flows.close_flow("nope", 0)


def test_a_device_has_one_active_flow(world):
    _, _, flows, _ = world
    flow = flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    with pytest.raises(errors.InvariantViolation):
        flows.open_flow("dev1", "gw1", "edge1", 100, 0)
    flows.close_flow(flow.flow_id, 500)
    assert flows.active_flow_for("dev1") is None
    again = flows.open_flow("dev1", "gw1", "edge1", 100, 500)
    assert flows.active_flow_for("dev1") is again


def test_opening_a_contender_integrates_the_flows_on_its_links(world):
    _, _, flows, discovery = world
    discovery.handle_attach("gw1", "dev2", "smartband", "1.0")
    # 100 Mbps into the 100 Mbps gw1--edge1 link: alone for a second, then shared
    first = flows.open_flow("dev1", "gw1", "edge1", 100_000, 0)
    second = flows.open_flow("dev2", "gw1", "edge1", 100_000, 1000)
    flows.advance_all(2000)
    assert first.delivered == pytest.approx(12.5 + 6.25)
    assert second.delivered == pytest.approx(6.25)
    flows.close_flow(second.flow_id, 2000)
    flows.advance_all(3000)
    assert first.delivered == pytest.approx(12.5 + 6.25 + 12.5)
