"""Fluid-flow accounting of sensed data.

Each attached, managed device feeds one flow from its gateway to a sink: the
host of the Data-App serving that gateway, or the nearest edge module when no
Data-App is placed. Flows are fluid (no packets); concurrent flows crossing a
link share its bandwidth equally. Data that cannot be delivered (downtime,
link faults, bandwidth shortage) is buffered per flow up to the configured
buffer and dropped beyond it — loss is measured, never assumed away.

Aggregated results of edge-hosted Data-Apps trickle to the central cloud and
are counted in the uplink; when the serving app runs in the cloud, raw bytes
traverse gateway -> edge -> cloud and the uplink reflects that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import errors
from .catalog import Catalog
from .discovery import DiscoveryService
from .scheduler import InstanceStatus, Scheduler
from .topology import Tier, Topology


def generated_mb(rate_kbps: float, dt_ms: int) -> float:
    # kbps * ms = bits; 8e6 bits per MB (decimal units throughout)
    return rate_kbps * dt_ms / 8e6


@dataclass
class Flow:
    flow_id: str
    device_id: str
    src: str
    sink: str
    rate_kbps: float
    serving_instance: str | None = None
    active: bool = True
    paused: bool = False
    # cumulative MB counters; generated == delivered + dropped + buffered
    generated: float = 0.0
    delivered: float = 0.0
    dropped: float = 0.0
    buffered: float = 0.0
    uplinked: float = 0.0
    # per-window deltas, reset by close_window
    w_generated: float = 0.0
    w_delivered: float = 0.0
    w_dropped: float = 0.0
    w_uplinked: float = 0.0


@dataclass
class WindowMetrics:
    window_start: int
    window_end: int
    generated_mb: float
    delivered_mb: float
    dropped_mb: float
    uplink_mb: float
    flows: list[dict] = field(default_factory=list)
    links: dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.generated_mb == 0:
            raise errors.EmptyWindow(f"window [{self.window_start}, {self.window_end}]")
        return self.uplink_mb / self.generated_mb

    def ratio_or_none(self) -> float | None:
        try:
            return self.ratio
        except errors.EmptyWindow:
            return None


class FlowManager:
    def __init__(self, topology: Topology, catalog: Catalog,
                 discovery: DiscoveryService, scheduler: Scheduler,
                 buffer_mb: float = 10.0):
        self.topology = topology
        self.catalog = catalog
        self.discovery = discovery
        self.scheduler = scheduler
        self.buffer_mb = buffer_mb
        self.flows: dict[str, Flow] = {}
        self._next_id = 0
        self._window_link_mb: dict[str, float] = {}
        # aggregated output held back while the cloud is unreachable
        self.uplink_pending: float = 0.0
        # where edge-hosted Data-Apps send their aggregated output
        self._cloud = next((nid for nid in sorted(topology.nodes)
                            if topology.nodes[nid].tier is Tier.CENTRAL_CLOUD), None)

    # -- flow lifecycle -----------------------------------------------------------

    def open_flow(self, device_id: str, gateway: str, sink: str,
                  rate_kbps: float, serving_instance: str | None = None,
                  paused: bool = False) -> Flow:
        if self.discovery.current_gateway(device_id) != gateway:
            raise errors.NotAttached(f"{device_id} at {gateway}")
        if not paused:
            self.topology.path_latency(gateway, sink)  # raises Unreachable
        self._next_id += 1
        flow = Flow(f"flow-{self._next_id}", device_id, gateway, sink,
                    rate_kbps, serving_instance, paused=paused)
        self.flows[flow.flow_id] = flow
        return flow

    def flow(self, flow_id: str) -> Flow:
        try:
            return self.flows[flow_id]
        except KeyError:
            raise errors.UnknownFlow(flow_id) from None

    def close_flow(self, flow_id: str) -> Flow:
        flow = self.flow(flow_id)
        flow.active = False
        return flow

    def active_flow_for(self, device_id: str) -> Flow | None:
        for fid in sorted(self.flows):
            flow = self.flows[fid]
            if flow.active and flow.device_id == device_id:
                return flow
        return None

    # -- advancement ---------------------------------------------------------------

    def _path_or_none(self, a: str, b: str):
        try:
            return self.topology.shortest_path(a, b)
        except errors.Unreachable:
            return None

    def _is_blocked(self, flow: Flow) -> bool:
        if flow.paused:
            return True
        if flow.serving_instance is not None:
            inst = self.scheduler.instances.get(flow.serving_instance)
            if inst is not None and inst.status is not InstanceStatus.RUNNING:
                return True
        return False

    def advance_all(self, dt_ms: int) -> None:
        """Integrate all active flows over dt: generate, deliver up to the fair
        bandwidth share, buffer or drop the rest, drain buffers with headroom."""
        if dt_ms < 0:
            raise errors.ValidationError("dt must be >= 0")
        if dt_ms == 0:
            return
        flows = [self.flows[fid] for fid in sorted(self.flows)
                 if self.flows[fid].active]
        paths: dict[str, list] = {}
        link_users: dict[str, int] = {}
        for flow in flows:
            if self._is_blocked(flow):
                continue
            path = self._path_or_none(flow.src, flow.sink)
            if path is None:
                continue
            paths[flow.flow_id] = path
            for link in path:
                link_users[link.link_id] = link_users.get(link.link_id, 0) + 1

        for flow in flows:
            gen = generated_mb(flow.rate_kbps, dt_ms)
            flow.generated += gen
            flow.w_generated += gen
            path = paths.get(flow.flow_id)
            if path is None:
                self._absorb(flow, gen)
                continue
            share_mbps = min(link.bandwidth_mbps / link_users[link.link_id]
                             for link in path)
            capacity_mb = share_mbps * dt_ms / 8000.0
            send = min(gen + flow.buffered, capacity_mb)
            drained = max(0.0, send - gen)
            if drained > 0:
                flow.buffered -= drained
            self._deliver(flow, send, path)
            fresh_leftover = max(0.0, gen - send)
            if fresh_leftover > 0:
                self._absorb(flow, fresh_leftover)

    def _absorb(self, flow: Flow, amount_mb: float) -> None:
        """Buffer what fits, drop the overflow."""
        space = max(0.0, self.buffer_mb - flow.buffered)
        to_buffer = min(amount_mb, space)
        flow.buffered += to_buffer
        overflow = amount_mb - to_buffer
        flow.dropped += overflow
        flow.w_dropped += overflow

    def _deliver(self, flow: Flow, amount_mb: float, path: list) -> None:
        if amount_mb <= 0:
            return
        flow.delivered += amount_mb
        flow.w_delivered += amount_mb
        for link in path:
            self._window_link_mb[link.link_id] = \
                self._window_link_mb.get(link.link_id, 0.0) + amount_mb
        self._account_uplink(flow, amount_mb)

    def _account_uplink(self, flow: Flow, delivered_mb: float) -> None:
        if flow.serving_instance is None:
            return
        inst = self.scheduler.instances.get(flow.serving_instance)
        if inst is None:
            return
        app = self.catalog.app(inst.app_id)
        host_tier = self.topology.nodes[inst.host].tier
        if host_tier is Tier.CENTRAL_CLOUD:
            up = delivered_mb  # raw bytes already crossed edge -> cloud
        elif host_tier is Tier.EDGE_MODULE:
            up = delivered_mb / app.aggregation_factor
            if self._cloud is None or \
                    self._path_or_none(inst.host, self._cloud) is None:
                self.uplink_pending += up
                return
        else:
            return
        flow.uplinked += up
        flow.w_uplinked += up

    def flush_pending_uplink(self) -> float:
        """Release aggregated output held during a cloud partition. Credited to
        the network-level window counter, not to a single flow."""
        pending = self.uplink_pending
        self.uplink_pending = 0.0
        return pending

    # -- windows ----------------------------------------------------------------------

    def close_window(self, window_start: int, window_end: int,
                     extra_uplink_mb: float = 0.0) -> WindowMetrics:
        flows_out = []
        totals = [0.0, 0.0, 0.0, 0.0]
        for fid in sorted(self.flows):
            flow = self.flows[fid]
            if flow.w_generated == 0 and flow.w_delivered == 0 and \
                    flow.w_dropped == 0 and not flow.active:
                continue
            flows_out.append({
                "flow": flow.flow_id,
                "device": flow.device_id,
                "generated_mb": flow.w_generated,
                "delivered_mb": flow.w_delivered,
                "dropped_mb": flow.w_dropped,
                "uplink_mb": flow.w_uplinked,
                "buffered_mb": flow.buffered,
                "cum_generated_mb": flow.generated,
                "cum_delivered_mb": flow.delivered,
                "cum_dropped_mb": flow.dropped,
            })
            totals[0] += flow.w_generated
            totals[1] += flow.w_delivered
            totals[2] += flow.w_dropped
            totals[3] += flow.w_uplinked
            flow.w_generated = flow.w_delivered = flow.w_dropped = flow.w_uplinked = 0.0
        metrics = WindowMetrics(window_start, window_end, totals[0], totals[1],
                                totals[2], totals[3] + extra_uplink_mb,
                                flows_out, dict(self._window_link_mb))
        self._window_link_mb = {}
        return metrics
