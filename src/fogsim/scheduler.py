"""Central orchestrator: placement, scaling, and the threshold-based offload loop.

Placement picks, among feasible hosts, the one minimizing source-to-host
latency, tie-broken by most free bottleneck capacity and then by node id.
It tests hosts nearest first and stops at the latency of the first feasible
one, which picks the host a scan of every host would.
The offload loop uses a high/low watermark pair for hysteresis: an edge
module above the high watermark sheds its largest Data-App instances until
it drops to the low watermark or nothing movable remains. The loop walks
only the edge modules above the high watermark, a set kept from the
allocations that changed, so a tick in which none changed costs nothing.

Decide and apply are split so that fault injection between them is testable:
actions are computed against a consistent snapshot and re-validated on apply
by MigrationEngine.start, the one check a move passes before it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import errors
from .catalog import AppKind, AppSpec, Catalog
from .kernel import Revision
from .topology import ResourceVector, Tier, Topology


class InstanceStatus(str, Enum):
    RUNNING = "Running"
    MIGRATING = "Migrating"
    STOPPED = "Stopped"


# each status's plain str value, read without the Enum `value` descriptor
_STATUS_VALUES = {member: member.value for member in InstanceStatus}


@dataclass
class StateBlob:
    """Application state carried across migrations (includes user status)."""

    size_mb: float = 0.0
    version: int = 1
    payload: dict = field(default_factory=dict)

    def snapshot(self) -> "StateBlob":
        """The state a move copies; it shares `payload`, which nothing mutates."""
        return StateBlob(self.size_mb, self.version, self.payload)


@dataclass
class AppInstance:
    instance_id: str
    app_id: str
    host: str
    replicas: int
    source: str  # data-source node the placement was requested for
    state: StateBlob
    bound_device: str | None = None
    status: InstanceStatus = InstanceStatus.RUNNING


@dataclass(frozen=True)
class Thresholds:
    high_watermark: float = 0.8
    low_watermark: float = 0.6

    def __post_init__(self):
        if not (0 < self.low_watermark < self.high_watermark <= 1):
            raise errors.InvariantViolation(
                f"thresholds must satisfy 0 < low < high <= 1, "
                f"got low={self.low_watermark}, high={self.high_watermark}")


@dataclass(frozen=True)
class PlacementRequest:
    app: str
    source: str
    replicas: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise errors.ValidationError("replicas must be >= 1")


@dataclass(frozen=True)
class Offload:
    instance_id: str
    target: str


@dataclass(frozen=True)
class Defer:
    node: str
    instance_id: str | None
    reason: str


Action = Offload | Defer


class Scheduler:
    def __init__(self, topology: Topology, catalog: Catalog,
                 thresholds: Thresholds | None = None):
        self.topology = topology
        self.catalog = catalog
        self.thresholds = thresholds or Thresholds()
        self.instances: dict[str, AppInstance] = {}
        self._counters: dict[str, int] = {}
        # device id -> the IoT-App instances bound to it
        self._bound: dict[str, list[AppInstance]] = {}
        # source node -> the Data-App instances placed for it
        self._data_apps: dict[str, list[AppInstance]] = {}
        # the edge modules whose allocation is above the high watermark, as
        # of the allocations check_thresholds last took from the topology
        self._hot: set[str] = set()
        # instance id -> status value, sorted, rebuilt by status_snapshot
        # only once an instance was added or a status written; the ids of
        # the instances whose status was written since it last ran
        self._statuses = Revision()
        self._written: set[str] = set()

    # -- helpers ---------------------------------------------------------------

    def _new_instance_id(self, app_id: str) -> str:
        n = self._counters.get(app_id, 0) + 1
        self._counters[app_id] = n
        return f"{app_id}-{n}"

    def set_status(self, inst: AppInstance, status: InstanceStatus) -> None:
        """Write an instance's status; the one way a status changes after
        the instance is added, so that status_snapshot sees it."""
        inst.status = status
        self._written.add(inst.instance_id)

    def status_snapshot(self) -> dict[str, str]:
        """Every instance's status value by instance id, sorted.

        The map is shared: the same object is returned until an instance
        is added or a status is written and the map differs, and trace
        records hold it, so it must never be mutated. A new map is a
        `Revision` of the one it replaces that names the instances whose
        status value changed, or, once an instance was added, one that
        replaces none.
        """
        old, instances = self._statuses, self.instances
        if len(old) != len(instances):  # instances were added
            self._written.clear()
            self._statuses = Revision({iid: _STATUS_VALUES[instances[iid].status]
                                       for iid in sorted(instances)})
        elif self._written:
            changed = [iid for iid in self._written if iid in old
                       and _STATUS_VALUES[instances[iid].status] != old[iid]]
            self._written.clear()
            if changed:
                statuses = self._statuses = Revision(old, old.token, changed)
                for iid in changed:
                    statuses[iid] = _STATUS_VALUES[instances[iid].status]
        return self._statuses

    def instance(self, instance_id: str) -> AppInstance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise errors.UnknownInstance(instance_id) from None

    def bound_instance(self, device_id: str) -> AppInstance | None:
        """The instance bound to the device, the first by id if several are."""
        return min(self._bound.get(device_id, ()),
                   key=lambda inst: inst.instance_id, default=None)

    def serving_instance(self, source: str) -> AppInstance | None:
        """The Data-App instance that serves data from `source`: the first by
        id that is running or migrating."""
        for inst in sorted(self._data_apps.get(source, ()),
                           key=lambda inst: inst.instance_id):
            if inst.status in (InstanceStatus.RUNNING, InstanceStatus.MIGRATING):
                return inst
        return None

    def select_host(self, app: AppSpec, source: str, replicas: int,
                    exclude: frozenset[str] = frozenset(),
                    alloc_override: dict[str, ResourceVector] | None = None,
                    util_cap_after: float | None = None) -> str | None:
        """Best feasible host for `replicas` of `app` fed from `source`, or None.

        Feasible: node up and not excluded, tier allowed, capacity for
        replicas x demand, reachable from source, and within the app's
        latency requirement.
        Objective: minimal source latency, then most free bottleneck capacity,
        then smallest node id. The hosts are tested nearest first (see
        Topology.nearest), and none beyond the latency of the first feasible
        one: every such host loses on latency, so the pick is that of a
        scan of every host. `alloc_override` maps some nodes to a tentative
        allocation (used by the offload loop); any other node is read at its
        own. `util_cap_after` additionally rejects hosts that the placement
        would push above that utilization.
        """
        nodes = self.topology.nodes
        demand = app.demand.scaled(replicas)
        overlay = alloc_override or {}

        def rank(node_id: str) -> tuple[float, str] | None:
            if node_id in exclude:
                return None
            node = nodes[node_id]
            alloc = overlay.get(node_id, node.allocated)
            util_after = alloc.fraction_with(demand, node.capacity)
            if util_after is None or (util_cap_after is not None
                                      and util_after > util_cap_after):
                return None
            return alloc.bottleneck_fraction(node.capacity), node_id

        limit = app.latency_requirement_ms
        return self.topology.nearest(source, app.allowed_tiers, rank,
                                     math.inf if limit is None else limit)

    # -- placement and scaling ---------------------------------------------------

    def place(self, req: PlacementRequest) -> AppInstance:
        """Place a new instance on the best feasible host and reserve resources."""
        app = self.catalog.app(req.app)
        self.topology.node(req.source)
        host = self.select_host(app, req.source, req.replicas)
        if host is None:
            raise errors.Unschedulable(f"{req.app} from {req.source} x{req.replicas}")
        self.topology.reserve(host, app.demand.scaled(req.replicas))
        inst = AppInstance(self._new_instance_id(req.app), req.app, host,
                           req.replicas, req.source,
                           StateBlob(size_mb=app.state_size_mb))
        self.instances[inst.instance_id] = inst
        if app.kind is AppKind.DATA_APP:
            self._data_apps.setdefault(req.source, []).append(inst)
        return inst

    def install_iot_app(self, device: str, gateway: str, app_id: str,
                        preferences: dict | None = None) -> AppInstance:
        """Deploy the IoT-App `app_id` for a freshly attached device on its
        gateway; the caller installs only for a device with no bound
        instance.

        Raises GatewayFull when the gateway is down or lacks capacity
        (device stays attached but unmanaged; the caller records the
        warning).
        """
        app = self.catalog.app(app_id)
        node = self.topology.node(gateway)
        if not node.up or not node.fits(app.demand):
            raise errors.GatewayFull(f"{gateway} cannot host {app_id} for {device}")
        self.topology.reserve(gateway, app.demand)
        state = StateBlob(size_mb=app.state_size_mb,
                          payload=dict(preferences or {}))
        inst = AppInstance(self._new_instance_id(app_id), app_id, gateway, 1,
                           gateway, state, bound_device=device)
        self.instances[inst.instance_id] = inst
        self._bound.setdefault(device, []).append(inst)
        return inst

    def scale(self, instance_id: str, new_replicas: int) -> AppInstance:
        """Adjust the reservation to new_replicas x demand on the current host."""
        if new_replicas < 1:
            raise errors.ValidationError("replicas must be >= 1")
        inst = self.instance(instance_id)
        if inst.status is not InstanceStatus.RUNNING:
            raise errors.InstanceNotRunning(instance_id)
        if new_replicas == inst.replicas:
            return inst
        app = self.catalog.app(inst.app_id)
        delta = new_replicas - inst.replicas
        if delta > 0:
            self.topology.reserve(inst.host, app.demand.scaled(delta))
        else:
            self.topology.release(inst.host, app.demand.scaled(-delta))
        inst.replicas = new_replicas
        return inst

    # -- threshold loop ------------------------------------------------------------

    def check_thresholds(self) -> list[Action]:
        """Offload decisions for every edge module above the high watermark.

        It walks only those edges, in id order, skipping the down ones: it
        takes the nodes Topology.take_reallocated names and re-tests just
        them to keep its set of edges over `high`, so a tick in which no
        allocation changed tests no node. Up/down changes move no
        allocation and need no update: a down edge stays in the set and is
        skipped.

        Victims are Running Data-App instances, largest bottleneck reservation
        first; IoT-Apps are pinned to their device's gateway and never moved.
        Targets must absorb the instance without themselves crossing the high
        watermark, which keeps constant workloads flap-free. Decisions are
        computed against tentative allocations so several actions in one tick
        stay mutually consistent; a target is never pushed above `high`, so
        no edge outside the set crosses it within the tick.
        """
        actions: list[Action] = []
        nodes = self.topology.nodes
        high, low = self.thresholds.high_watermark, self.thresholds.low_watermark
        hot = self._hot
        for node_id in self.topology.take_reallocated():
            node = nodes[node_id]
            if node.tier is Tier.EDGE_MODULE and \
                    node.allocated.bottleneck_fraction(node.capacity) > high:
                hot.add(node_id)
            else:
                hot.discard(node_id)
        # tentative allocations of the nodes this tick has moved load off or
        # onto; every other node's is its own
        alloc: dict[str, ResourceVector] = {}
        for node_id in sorted(hot):
            node = nodes[node_id]
            load = alloc.get(node_id, node.allocated)
            if not node.up or load.bottleneck_fraction(node.capacity) <= high:
                continue
            victims = []
            for inst in self.instances.values():
                if inst.host != node_id or inst.status is not InstanceStatus.RUNNING:
                    continue
                app = self.catalog.app(inst.app_id)
                if app.kind is not AppKind.DATA_APP:
                    continue
                victims.append((inst, app, app.demand.scaled(inst.replicas)))
            if not victims:
                actions.append(Defer(node_id, None, "NoMovableInstance"))
                continue
            victims.sort(key=lambda v: (
                -v[2].bottleneck_fraction(node.capacity), v[0].instance_id))
            deferred = False
            for inst, app, demand in victims:
                if load.bottleneck_fraction(node.capacity) <= low:
                    break
                target = self.select_host(
                    app, inst.source, inst.replicas,
                    exclude=frozenset({node_id}), alloc_override=alloc,
                    util_cap_after=high)
                if target is None:
                    actions.append(Defer(node_id, inst.instance_id, "NoFeasibleTarget"))
                    deferred = True
                    continue
                actions.append(Offload(inst.instance_id, target))
                load = alloc[node_id] = load - demand
                alloc[target] = alloc.get(target, nodes[target].allocated) + demand
            if load.bottleneck_fraction(node.capacity) > high and not deferred:
                actions.append(Defer(node_id, None, "NoMovableInstance"))
        return actions
