"""Stateful move operations: IoT-App roaming between gateways and Data-App
offloads between edge modules and the central cloud.

Migrations are stop-and-copy: the instance halts, its state blob is copied
over the network, and it resumes on the target. Downtime equals transfer
time, which makes the cost exactly computable. Container images are assumed
pre-provisioned; only state transfer costs time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import errors
from .scheduler import AppInstance, InstanceStatus, Scheduler
from .topology import Link


@dataclass(frozen=True)
class MigrationRecord:
    instance_id: str
    from_node: str
    to_node: str
    started_at: int
    completed_at: int
    bytes_moved_mb: float
    downtime_ms: int


def transfer_duration(size_mb: float, path: list[Link]) -> int:
    """Transfer time in ms for a state blob over a link path.

    duration = size * 8 / (min bandwidth along path, Mbps) * 1000
             + sum of link latencies, rounded up to whole ms.

    A duration that is not finite is TargetInfeasible: the state cannot
    cross the path.
    """
    if not path:
        raise errors.ValidationError("transfer path must be non-empty")
    for link in path:
        if not link.up:
            raise errors.LinkDown(link.link_id)
    min_bw = min(link.bandwidth_mbps for link in path)
    latency = sum(link.latency_ms for link in path)
    duration = size_mb * 8.0 / min_bw * 1000.0 + latency
    if not math.isfinite(duration):
        raise errors.TargetInfeasible(
            f"{size_mb!r} MB over {min_bw!r} Mbps takes no finite time")
    return math.ceil(duration)


class MigrationEngine:
    """Executes migrations in two phases: start (reserve target, snapshot,
    mark Migrating) and complete (release source, resume on target).

    Between the phases the instance's resources are reserved on both nodes,
    never on neither. It moves the scheduler's instances and writes their
    statuses through Scheduler.set_status.
    """

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.topology = scheduler.topology
        self.catalog = scheduler.catalog
        # instance_id -> (record, state snapshot, reserved demand)
        self._pending: dict[str, tuple] = {}

    def start(self, instance: AppInstance, target: str, time: int) -> MigrationRecord:
        """Begin a stop-and-copy move. Returns the (fully determined) record;
        the caller schedules completion at record.completed_at. The instance's
        own host is no target: TargetInfeasible, like any target it cannot
        move to."""
        if instance.status is not InstanceStatus.RUNNING:
            raise errors.InstanceNotRunning(instance.instance_id)
        app = self.catalog.app(instance.app_id)
        target_node = self.topology.node(target)
        if target == instance.host or not target_node.up \
                or target_node.tier not in app.allowed_tiers:
            raise errors.TargetInfeasible(f"{instance.instance_id} -> {target}")
        demand = app.demand.scaled(instance.replicas)
        if not target_node.fits(demand):
            raise errors.TargetInfeasible(
                f"{instance.instance_id} -> {target}: insufficient capacity")
        if app.latency_requirement_ms is not None:
            lat = self.topology.path_latency_or_inf(instance.source, target)
            if lat > app.latency_requirement_ms:
                raise errors.TargetInfeasible(
                    f"{instance.instance_id} -> {target}: latency {lat} ms "
                    f"exceeds {app.latency_requirement_ms} ms")
        try:
            path = self.topology.shortest_path(instance.host, target)
        except errors.Unreachable:
            raise errors.TargetInfeasible(
                f"{instance.instance_id} -> {target}: no up path") from None

        snapshot = instance.state.snapshot()
        duration = transfer_duration(snapshot.size_mb, path)
        self.topology.reserve(target, demand)
        self.scheduler.set_status(instance, InstanceStatus.MIGRATING)
        record = MigrationRecord(instance.instance_id, instance.host, target,
                                 time, time + duration, snapshot.size_mb, duration)
        self._pending[instance.instance_id] = (record, snapshot, demand)
        return record

    def complete(self, instance: AppInstance) -> MigrationRecord:
        """Finish the move: release the source, resume on the target with the
        state snapshot taken at start (version preserved)."""
        record, snapshot, demand = self._pending.pop(instance.instance_id)
        self.topology.release(record.from_node, demand)
        instance.host = record.to_node
        instance.state = snapshot
        self.scheduler.set_status(instance, InstanceStatus.RUNNING)
        return record

    def roam(self, instance: AppInstance, to_gateway: str, time: int) -> MigrationRecord:
        """Move a device's IoT-App to the gateway the device roamed to.

        When the target gateway lacks capacity the instance stays on the old
        gateway, Stopped; the caller records the warning. The instance's own
        gateway is no target: `start` raises TargetInfeasible.
        """
        app = self.catalog.app(instance.app_id)
        target_node = self.topology.node(to_gateway)
        demand = app.demand.scaled(instance.replicas)
        if not target_node.up or not target_node.fits(demand):
            self.scheduler.set_status(instance, InstanceStatus.STOPPED)
            raise errors.GatewayFull(f"{to_gateway} cannot host {instance.instance_id}")
        return self.start(instance, to_gateway, time)
