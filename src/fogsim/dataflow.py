"""Fluid-flow accounting of sensed data.

Each attached, managed device feeds one flow from its gateway to a sink: the
host of the Data-App serving that gateway, or the nearest edge module when no
Data-App is placed. Flows are fluid (no packets); concurrent flows crossing a
link share its bandwidth equally. Data that cannot be delivered (downtime,
link faults, bandwidth shortage) is buffered per flow up to the configured
buffer and dropped beyond it — loss is measured, never assumed away.

Aggregated results of edge-hosted Data-Apps trickle to the central cloud and
are counted in the uplink; when the serving app runs in the cloud, raw bytes
traverse gateway -> edge -> cloud and the uplink reflects that. An edge's
aggregate is held while the edge has no route to the cloud and is released
into the first window that closes after it has one again.

Flows are integrated lazily, one contention group at a time (see
FlowManager), so flow state changes only through FlowManager methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import errors
from .catalog import Catalog
from .discovery import DiscoveryService
from .scheduler import InstanceStatus, Scheduler
from .topology import Link, Tier, Topology


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
    # per-window deltas, reset by close_window
    w_generated: float = 0.0
    w_delivered: float = 0.0
    w_dropped: float = 0.0
    w_uplinked: float = 0.0
    # kept by FlowManager: the time the counters reach, the links the flow
    # contends on (None while inactive, blocked or unreachable), its fair
    # share of the path's bandwidth in Mbps (the least over its links of the
    # link's bandwidth over its contenders; kept with the path, and read only
    # while it has one), and the (divisor, held_at) its deliveries count
    # toward the uplink with (None: not at all); held_at is the edge host
    # while it cannot reach the cloud
    last_ms: int = 0
    path: tuple[Link, ...] | None = None
    share_mbps: float = 0.0
    uplink: tuple[float, str | None] | None = None


@dataclass
class WindowMetrics:
    window_start: int
    window_end: int
    generated_mb: float
    delivered_mb: float
    dropped_mb: float
    uplink_mb: float
    # each reported flow's window: the values of its `flow_window` record,
    # in the order of that kind's row in kernel.RECORD_KINDS
    flows: list[tuple] = field(default_factory=list)
    links: dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float | None:
        """Uplink over generated volume; None when nothing was generated."""
        if self.generated_mb == 0:
            return None
        return self.uplink_mb / self.generated_mb


class FlowManager:
    """Every flow of a run, integrated lazily.

    A flow's delivery over an interval depends only on its rate, its route
    (the links it contends on, None while blocked or unreachable), the number
    of contenders on each of those links, and how its deliveries reach the
    uplink. Each flow keeps the time its counters reach, and is integrated
    only just before one of those inputs changes: `set_rate` integrates the
    flow itself; `open_flow`, `close_flow`, `set_paused`, `rebind`,
    `reroute_served` and `reroute_dropped` also integrate the flows on the
    links a flow leaves or joins. Only `advance_all`, for a window close,
    integrates every active flow. Integration reads only the indexed route,
    never the live topology or instance status, so a change there is
    followed by `reroute_dropped` (a link or node went up or down) or
    `reroute_served` (an instance's status or host changed). Time never goes
    backwards across these methods.

    A route reads two cached searches: the path comes from the search at
    the flow's source, and whether an edge-hosted Data-App's output is held
    from the cloud's search. A search that a fault does not drop answers as
    it did before, so `reroute_dropped` re-derives only the flows whose
    source's search was dropped and, when the cloud's was, the flows whose
    edge host gained or lost its route to the cloud. A blocked flow asks no
    search; `set_paused` or `reroute_served` re-derives it when it is
    unblocked.
    """

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
        self._now = 0
        self._window_link_mb: dict[str, float] = {}
        # device id -> its active flow
        self._active: dict[str, Flow] = {}
        # serving instance id (None: no serving Data-App) -> flow id -> active flow
        self._served: dict[str | None, dict[str, Flow]] = {}
        # link id -> flow id -> active flow routed over the link
        self._contenders: dict[str, dict[str, Flow]] = {}
        # edge host -> aggregated output held while it cannot reach the cloud
        self._held: dict[str, float] = {}
        # where edge-hosted Data-Apps send their aggregated output
        self._cloud = next((nid for nid in sorted(topology.nodes)
                            if topology.nodes[nid].tier is Tier.CENTRAL_CLOUD), None)

    # -- flow lifecycle -----------------------------------------------------------

    def open_flow(self, device_id: str, gateway: str, sink: str,
                  rate_kbps: float, now: int, serving_instance: str | None = None,
                  paused: bool = False) -> Flow:
        """Open a device's flow at `now`; a device has one active flow at a time."""
        self._advance_clock(now)
        if self.discovery.current_gateway(device_id) != gateway:
            raise errors.NotAttachedHere(f"{device_id} at {gateway}")
        if device_id in self._active:
            raise errors.InvariantViolation(
                f"{device_id} already has {self._active[device_id].flow_id}")
        if not paused and self.topology.path_latency_or_inf(gateway, sink) == math.inf:
            raise errors.Unreachable(f"{gateway} -> {sink}")
        self._next_id += 1
        flow = Flow(f"flow-{self._next_id}", device_id, gateway, sink,
                    rate_kbps, serving_instance, paused=paused, last_ms=now)
        self.flows[flow.flow_id] = flow
        self._active[device_id] = flow
        self._served.setdefault(serving_instance, {})[flow.flow_id] = flow
        self._reroute([flow], now)
        return flow

    def flow(self, flow_id: str) -> Flow:
        try:
            return self.flows[flow_id]
        except KeyError:
            raise errors.UnknownFlow(flow_id) from None

    def close_flow(self, flow_id: str, now: int) -> Flow:
        flow = self._integrated(flow_id, now)
        if flow.active:
            flow.active = False
            del self._active[flow.device_id]
            del self._served[flow.serving_instance][flow_id]
            self._reroute([flow], now)
        return flow

    def set_rate(self, flow_id: str, rate_kbps: float, now: int) -> None:
        self._integrated(flow_id, now).rate_kbps = rate_kbps

    def set_paused(self, flow_id: str, paused: bool, now: int) -> None:
        flow = self._integrated(flow_id, now)
        flow.paused = paused
        self._reroute([flow], now)

    def rebind(self, flow_id: str, sink: str, serving_instance: str | None,
               now: int) -> None:
        """Send the flow to `sink`, served by `serving_instance`."""
        flow = self._integrated(flow_id, now)
        if flow.active:
            del self._served[flow.serving_instance][flow_id]
            self._served.setdefault(serving_instance, {})[flow_id] = flow
        flow.sink = sink
        flow.serving_instance = serving_instance
        self._reroute([flow], now)

    def reroute_dropped(self, now: int) -> None:
        """Re-derive the routes a link or node going up or down can change:
        those of the active flows whose source's search the topology dropped
        since the last call and, if the cloud's search was dropped, of the
        routed flows whose uplink now differs, held at an edge host that
        regained the cloud or no longer held at one that lost it. Every
        other flow's route reads searches that answer as they did when it
        was derived."""
        self._advance_clock(now)
        dropped = self.topology.take_dropped()
        cloud_dropped = self._cloud in dropped
        self._reroute([flow for flow in self._active.values()
                       if flow.src in dropped
                       or cloud_dropped and flow.uplink is not None
                       and self._uplink(flow) != flow.uplink], now)

    def reroute_served(self, instance_id: str, now: int) -> None:
        """Re-derive the routes of the flows `instance_id` serves after its
        status or host changed."""
        self._advance_clock(now)
        self._reroute(list(self._served.get(instance_id, {}).values()), now)

    def active_flow_for(self, device_id: str) -> Flow | None:
        return self._active.get(device_id)

    def served_by(self, instance_id: str | None) -> list[Flow]:
        """The active flows `instance_id` serves (None: the flows no Data-App
        serves), by flow id."""
        served = self._served.get(instance_id, {})
        return [served[fid] for fid in sorted(served)]

    # -- routes -----------------------------------------------------------------------

    def _is_blocked(self, flow: Flow) -> bool:
        if flow.paused:
            return True
        if flow.serving_instance is not None:
            inst = self.scheduler.instances.get(flow.serving_instance)
            if inst is not None and inst.status is not InstanceStatus.RUNNING:
                return True
        return False

    def _route(self, flow: Flow) -> tuple[tuple[Link, ...] | None,
                                          tuple[float, str | None] | None]:
        """(path, uplink) of `flow` in the current topology and instance state."""
        if not flow.active or self._is_blocked(flow):
            return None, None
        try:
            path = self.topology.shortest_path(flow.src, flow.sink)
        except errors.Unreachable:
            return None, None
        return tuple(path), self._uplink(flow)

    def _reaches_cloud(self, host: str) -> bool:
        """Whether `host` has a route to the cloud. Links are undirected and
        a route needs both ends up, so this is whether the cloud reaches
        `host`, which the cloud's one search answers for every host."""
        return self._cloud is not None and \
            self.topology.path_latency_or_inf(self._cloud, host) != math.inf

    def _uplink(self, flow: Flow) -> tuple[float, str | None] | None:
        """(divisor, held_at) of the flow's deliveries on the uplink: raw bytes
        delivered to the cloud cross it already, an edge-hosted Data-App sends
        its aggregate on, held at its host while that cannot reach the cloud."""
        if flow.serving_instance is None:
            return None
        inst = self.scheduler.instances.get(flow.serving_instance)
        if inst is None:
            return None
        host_tier = self.topology.nodes[inst.host].tier
        if host_tier is Tier.CENTRAL_CLOUD:
            return 1.0, None
        if host_tier is Tier.EDGE_MODULE:
            held_at = None if self._reaches_cloud(inst.host) else inst.host
            return self.catalog.app(inst.app_id).aggregation_factor, held_at
        return None

    def _reroute(self, flows: list[Flow], now: int) -> None:
        """Re-derive the route of each of `flows`. A flow whose route changes,
        and every flow on a link it leaves or joins, is integrated to `now`
        under the old routes and shares first, then takes its new share."""
        changed = []
        for flow in flows:
            path, uplink = self._route(flow)
            if path != flow.path or uplink != flow.uplink:
                changed.append((flow, path, uplink))
        contenders = self._contenders
        due: dict[str, Flow] = {}
        for flow, path, _ in changed:
            due[flow.flow_id] = flow
            if path != flow.path:
                for link in (flow.path or ()) + (path or ()):
                    due.update(contenders.get(link.link_id, {}))
        for flow in due.values():
            self._integrate(flow, now)
        for flow, path, uplink in changed:
            if path != flow.path:
                for link in flow.path or ():
                    del contenders[link.link_id][flow.flow_id]
                for link in path or ():
                    contenders.setdefault(link.link_id, {})[flow.flow_id] = flow
            flow.path, flow.uplink = path, uplink
        # every flow on a link that gained or lost a contender is in `due`
        for flow in due.values():
            if flow.path is not None:
                flow.share_mbps = min(link.bandwidth_mbps / len(contenders[link.link_id])
                                      for link in flow.path)

    # -- integration ----------------------------------------------------------------

    def _advance_clock(self, now: int) -> None:
        if now < self._now:
            raise errors.ValidationError(f"time cannot go backwards: {now} < {self._now}")
        self._now = now

    def _integrated(self, flow_id: str, now: int) -> Flow:
        """The flow `flow_id`, integrated to `now` if it is active."""
        flow = self.flow(flow_id)
        self._advance_clock(now)
        if flow.active:
            self._integrate(flow, now)
        return flow

    def advance_all(self, now: int) -> None:
        """Integrate every active flow to `now`, for a window close."""
        self._advance_clock(now)
        for flow in self._active.values():
            self._integrate(flow, now)

    def _integrate(self, flow: Flow, now: int) -> None:
        """Carry the flow from its last integration to `now` under its indexed
        route and share: generate, deliver up to the fair bandwidth share,
        buffer or drop the rest, drain the buffer with headroom."""
        dt_ms = now - flow.last_ms
        if dt_ms == 0:
            return
        flow.last_ms = now
        gen = generated_mb(flow.rate_kbps, dt_ms)
        flow.generated += gen
        flow.w_generated += gen
        path = flow.path
        if path is None:
            self._absorb(flow, gen)
            return
        capacity_mb = flow.share_mbps * dt_ms / 8000.0
        offered = gen + flow.buffered
        send = min(offered, capacity_mb)
        if send == offered:
            # a full drain leaves an exact zero, not a rounding residue
            flow.buffered = 0.0
        elif send > gen:
            flow.buffered -= send - gen
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

    def _deliver(self, flow: Flow, amount_mb: float, path: tuple[Link, ...]) -> None:
        if amount_mb <= 0:
            return
        flow.delivered += amount_mb
        flow.w_delivered += amount_mb
        for link in path:
            self._window_link_mb[link.link_id] = \
                self._window_link_mb.get(link.link_id, 0.0) + amount_mb
        if flow.uplink is None:
            return
        divisor, held_at = flow.uplink
        up = amount_mb / divisor
        if held_at is not None:
            self._held[held_at] = self._held.get(held_at, 0.0) + up
            return
        flow.w_uplinked += up

    # -- windows ----------------------------------------------------------------------

    def close_window(self, window_start: int, window_end: int) -> WindowMetrics:
        """The window's metrics. Output held at an edge host that reaches the
        cloud again counts toward the window's uplink, not a flow's."""
        flows_out = []
        totals = [0.0, 0.0, 0.0, 0.0]
        for fid in sorted(self.flows):
            flow = self.flows[fid]
            if flow.w_generated == 0 and flow.w_delivered == 0 and \
                    flow.w_dropped == 0 and not flow.active:
                continue
            flows_out.append((flow.flow_id, flow.device_id, flow.w_generated,
                              flow.w_delivered, flow.w_dropped, flow.w_uplinked,
                              flow.buffered, flow.generated, flow.delivered,
                              flow.dropped))
            totals[0] += flow.w_generated
            totals[1] += flow.w_delivered
            totals[2] += flow.w_dropped
            totals[3] += flow.w_uplinked
            flow.w_generated = flow.w_delivered = flow.w_dropped = flow.w_uplinked = 0.0
        released = 0.0
        for host in sorted(self._held):
            if self._reaches_cloud(host):
                released += self._held.pop(host)
        metrics = WindowMetrics(window_start, window_end, totals[0], totals[1],
                                totals[2], totals[3] + released,
                                flows_out, dict(self._window_link_mb))
        self._window_link_mb = {}
        return metrics
