"""Wires topology, catalog, discovery, scheduler, migration and dataflow to
the event kernel and executes a scenario.

Flows are integrated lazily (see FlowManager). Handlers change flow state
only through FlowManager methods that take the clock, so an attach, detach,
roam, workload change, fault or migration completion integrates just the
flows whose rate, route, contenders or uplink it changes. Metric windows
close at every scheduler tick and at the end of the run, and closing one
integrates every active flow to the clock, so fluid counters are exact for
piecewise-constant rates. FlowManager also decides which held edge output a
window releases; a cloud partition here only defers scheduler ticks.
"""

from __future__ import annotations

from . import errors
from .dataflow import FlowManager
from .discovery import DiscoveryService
from .kernel import EventKind, FaultKind, Kernel
from .migration import MigrationEngine, MigrationRecord
from .scenario import SCRIPT_EVENTS, Scenario, validate_until
from .scheduler import AppInstance, Defer, InstanceStatus, Offload, \
    PlacementRequest, Scheduler


class Runtime:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.topology = scenario.build_topology()
        self.catalog = scenario.build_catalog()
        self.kernel = Kernel()
        self.discovery = DiscoveryService(self.topology, self.catalog)
        self.scheduler = Scheduler(self.topology, self.catalog, scenario.thresholds)
        self.migrations = MigrationEngine(self.scheduler)
        self.flows = FlowManager(self.topology, self.catalog, self.discovery,
                                 self.scheduler, scenario.buffer_mb)
        self.migrations_completed = 0
        self._window_start = 0
        self._partition_depth = 0
        self._deferred_ticks = 0
        # (set_link_up or set_node_up, element id) -> faults holding it down
        self._down_counts: dict[tuple, int] = {}
        self._rate_override: dict[str, float] = {}
        self._ran = False

        kernel = self.kernel
        kernel.register(EventKind.ATTACH, self._on_attach)
        kernel.register(EventKind.DETACH, self._on_detach)
        kernel.register(EventKind.ROAM, self._on_roam)
        kernel.register(EventKind.WORKLOAD_CHANGE, self._on_workload)
        kernel.register(EventKind.FLOW_ADVANCE,
                        lambda _: self.flows.advance_all(self.kernel.now))
        kernel.register(EventKind.SCHEDULER_TICK, self._on_tick)
        kernel.register(EventKind.MIGRATION_COMPLETE, self._on_migration_complete)
        kernel.register(EventKind.FAULT_START, self._on_fault_start)
        kernel.register(EventKind.FAULT_END, self._on_fault_end)
        kernel.register(EventKind.PLACE, self._on_place)
        kernel.register(EventKind.SCALE, self._on_scale)

        self._emit_scenario_loaded()
        self._schedule_script()

    # -- setup -------------------------------------------------------------------

    def _emit_scenario_loaded(self):
        # both maps go into the record as they are: ResourceVector rounds capacities
        nodes = {nid: {"tier": n.tier.value, "cpu": n.capacity.cpu,
                       "mem": n.capacity.mem, "storage": n.capacity.storage}
                 for nid, n in sorted(self.topology.nodes.items())}
        self.kernel.emit("scenario_loaded", self.scenario.name, {
            "nodes": nodes,
            "thresholds": {"high": round(self.scenario.thresholds.high_watermark, 9),
                           "low": round(self.scenario.thresholds.low_watermark, 9)},
            "scheduler_tick_ms": self.scenario.scheduler_tick_ms,
            "buffer_mb": self.scenario.buffer_mb,
            "seed": self.scenario.seed,
            "duration_ms": self.scenario.duration_ms,
        })

    def _schedule_script(self):
        """Queue each script entry, the start and the end of each fault
        window, and the scheduler ticks; each event's handler takes its
        entry as it is, and mutates none."""
        for entry in self.scenario.script:
            self.kernel.schedule(entry["time"], SCRIPT_EVENTS[entry["type"]], entry)
        for fault in self.scenario.faults:
            known = self.topology.links if fault["kind"] == FaultKind.LINK_DOWN \
                else self.topology.nodes
            if fault["target"] not in known:
                raise errors.UnknownTarget(fault["target"])
            self.kernel.schedule(fault["start"], EventKind.FAULT_START, fault)
            self.kernel.schedule(fault["start"] + fault["duration_ms"],
                                 EventKind.FAULT_END, fault)
        tick = self.scenario.scheduler_tick_ms
        for t in range(tick, self.scenario.duration_ms + 1, tick):
            self.kernel.schedule(t, EventKind.SCHEDULER_TICK)

    # -- execution ------------------------------------------------------------------

    def run(self, until: int | None = None):
        """Run to `until` (default: scenario duration), close the final metrics
        window, and return the trace. An `until` that is negative, or so far
        past the scenario's duration that the run's rates times it overflow
        (see validate_until), or an end before the clock a stepped kernel
        reached, is a ValidationError and starts no run. A Runtime runs
        once: a second call is an InvariantViolation and appends nothing. To
        step a run, step `kernel.run(t)`, then call this."""
        if self._ran:
            raise errors.InvariantViolation(
                f"{self.scenario.name}: the run ended at {self.kernel.now} ms; "
                f"a Runtime runs once")
        if until is not None:
            validate_until(self.scenario, until)
        horizon = self.scenario.duration_ms if until is None else until
        if horizon < self.kernel.now:
            raise errors.ValidationError(
                f"{self.scenario.name}: the run cannot end at {horizon} ms, "
                f"before the clock at {self.kernel.now} ms")
        self._ran = True
        self.kernel.run(horizon)
        if self.kernel.now < horizon:
            self.kernel.now = horizon
        self._close_window()
        self.kernel.emit("run_end", self.scenario.name,
                         {"duration_ms": horizon,
                          "migrations": self.migrations_completed})
        return self.kernel.trace

    def _warn(self, subject: str, reason: str, **details):
        self.kernel.emit("warning", subject, {"reason": reason, **details})

    # -- attach / detach / roam -------------------------------------------------------

    def _on_attach(self, entry: dict):
        self._do_attach(entry["device"], entry["gateway"], entry["model"],
                        entry["os_version"], entry["preferences"])

    def _do_attach(self, device: str, gateway: str, model: str,
                   os_version: str, preferences=None):
        if not os_version and model in self.catalog.profiles:
            os_version = self.catalog.profiles[model].os_version
        try:
            firmware, app_id = self.discovery.handle_attach(gateway, device, model,
                                                            os_version)
        except errors.FogSimError as exc:
            self._warn(device, type(exc).__name__, gateway=gateway, detail=str(exc))
            return
        self.kernel.emit("attach", device, {
            "gateway": gateway, "model": model, "firmware_version": firmware})
        if firmware is None:
            self._warn(device, "NoCompatibleFirmware", model=model,
                       os_version=os_version)
        if app_id is None:
            return  # idempotent re-attach at the same gateway
        self.kernel.emit("install_request", device, {"app": app_id, "gateway": gateway})
        existing = self.scheduler.bound_instance(device)
        if existing is not None:
            if existing.status is InstanceStatus.STOPPED:
                self._warn(device, "BoundAppStopped", instance=existing.instance_id)
                return
            if existing.host != gateway:
                self._start_roam(device, existing, gateway)
            else:  # it runs here still: nothing to install or place
                self._open_device_flow(device, gateway, paused=False)
            return
        try:
            inst = self.scheduler.install_iot_app(device, gateway, app_id, preferences)
        except errors.GatewayFull:
            self.kernel.emit("install_warning", device,
                             {"gateway": gateway, "reason": "GatewayFull"})
            return
        self.kernel.emit("instance_placed", inst.instance_id, {
            "app": inst.app_id, "host": inst.host, "replicas": inst.replicas,
            "device": device})
        self._open_device_flow(device, gateway, paused=False)

    def _on_detach(self, entry: dict):
        self._do_detach(entry["device"], entry["gateway"])

    def _do_detach(self, device: str, gateway: str):
        try:
            self.discovery.handle_detach(gateway, device)
        except errors.FogSimError as exc:
            self._warn(device, type(exc).__name__, gateway=gateway)
            return
        self.kernel.emit("detach", device, {"gateway": gateway})
        flow = self.flows.active_flow_for(device)
        if flow is not None:
            self.flows.close_flow(flow.flow_id, self.kernel.now)
            self.kernel.emit("flow_close", flow.flow_id, {"device": device})

    def _on_roam(self, entry: dict):
        """Scripted roam: detach from the current gateway, attach at the new
        one; the attach path migrates the bound IoT-App."""
        device = entry["device"]
        to_gateway = entry["to_gateway"]
        if self.scheduler.bound_instance(device) is None:
            self._warn(device, "NoBoundApp", to_gateway=to_gateway)
        attachment = self.discovery.attachments.get(device)
        if attachment is None:
            self._warn(device, "NotAttachedHere", to_gateway=to_gateway)
            return
        self._do_detach(device, attachment.gateway)
        self._do_attach(device, to_gateway, attachment.model, attachment.os_version)

    def _start_roam(self, device: str, instance: AppInstance, to_gateway: str):
        try:
            record = self.migrations.roam(instance, to_gateway, self.kernel.now)
        except errors.GatewayFull:
            self.kernel.emit("roam_warning", device, {
                "to_gateway": to_gateway, "reason": "TargetGatewayFull",
                "instance": instance.instance_id})
            return
        except errors.FogSimError as exc:
            self._warn(device, type(exc).__name__, to_gateway=to_gateway)
            return
        self._migration_started(record)
        # sensor data produced during downtime buffers at the new gateway
        self._open_device_flow(device, to_gateway, paused=True)

    def _migration_started(self, record: MigrationRecord):
        """Record a started move and schedule its completion."""
        self.kernel.emit("migration_started", record.instance_id, {
            "from": record.from_node, "to": record.to_node,
            "bytes_mb": record.bytes_moved_mb, "downtime_ms": record.downtime_ms})
        self.kernel.schedule(record.completed_at, EventKind.MIGRATION_COMPLETE, record)

    # -- flows ---------------------------------------------------------------------

    def _open_device_flow(self, device: str, gateway: str, paused: bool):
        attachment = self.discovery.attachments[device]
        profile = self.catalog.profile(attachment.model)
        rate = self._rate_override.get(device, profile.data_rate_kbps)
        serving = self.scheduler.serving_instance(gateway)
        if serving is not None:
            sink, serving_id = serving.host, serving.instance_id
        else:
            sink, serving_id = self.topology.nearest_edge_module(gateway), None
        if sink is None:
            self._warn(device, "NoSink", gateway=gateway)
            return
        try:
            flow = self.flows.open_flow(device, gateway, sink, rate,
                                        self.kernel.now, serving_id, paused)
        except errors.FogSimError as exc:
            self._warn(device, type(exc).__name__, gateway=gateway, sink=sink)
            return
        self.kernel.emit("flow_open", flow.flow_id, {
            "device": device, "src": gateway, "sink": sink,
            "rate_kbps": rate, "paused": paused})

    def _on_workload(self, entry: dict):
        device = entry["device"]
        rate = entry["data_rate_kbps"]
        self._rate_override[device] = rate
        flow = self.flows.active_flow_for(device)
        if flow is not None:
            self.flows.set_rate(flow.flow_id, rate, self.kernel.now)
        self.kernel.emit("workload_change", device, {"data_rate_kbps": rate})

    # -- scripted placement and scaling ------------------------------------------------

    def _on_place(self, entry: dict):
        req = PlacementRequest(entry["app"], entry["source"], entry["replicas"])
        try:
            inst = self.scheduler.place(req)
        except errors.Unschedulable as exc:
            self._warn(entry["app"], "Unschedulable", source=entry["source"],
                       detail=str(exc))
            return
        self.kernel.emit("instance_placed", inst.instance_id, {
            "app": inst.app_id, "host": inst.host, "replicas": inst.replicas,
            "source": inst.source})
        # existing flows from this source now have a serving Data-App
        for flow in self.flows.served_by(None):
            if flow.src == inst.source:
                self.flows.rebind(flow.flow_id, inst.host, inst.instance_id,
                                  self.kernel.now)
                self.kernel.emit("flow_rebind", flow.flow_id, {
                    "sink": inst.host, "serving": inst.instance_id})

    def _on_scale(self, entry: dict):
        app_id = entry["app"]
        host = entry["host"]
        target = min((inst for inst in self.scheduler.instances.values()
                      if inst.app_id == app_id and inst.status is InstanceStatus.RUNNING
                      and (host is None or inst.host == host)),
                     key=lambda inst: inst.instance_id, default=None)
        if target is None:
            self._warn(app_id, "NoRunningInstance", host=host or "")
            return
        old = target.replicas
        try:
            self.scheduler.scale(target.instance_id, entry["replicas"])
        except errors.FogSimError as exc:
            self.kernel.emit("scale_warning", target.instance_id, {
                "reason": type(exc).__name__, "requested": entry["replicas"]})
            return
        self.kernel.emit("scale", target.instance_id, {
            "replicas_from": old, "replicas_to": target.replicas,
            "host": target.host})

    # -- scheduler tick and threshold loop ----------------------------------------------

    def _on_tick(self, _):
        self._close_window()
        if self._partition_depth > 0:
            self._deferred_ticks += 1
            self.kernel.emit("scheduler_tick", "scheduler", {"skipped": True})
            return
        self.kernel.emit("scheduler_tick", "scheduler", {"skipped": False})
        self._run_threshold_loop()

    def _run_threshold_loop(self):
        actions = self.scheduler.check_thresholds()
        for action in actions:
            if isinstance(action, Defer):
                self.kernel.emit("defer", action.node, {
                    "instance": action.instance_id, "reason": action.reason})
                continue
            self._apply_offload(action)

    def _apply_offload(self, action: Offload):
        """Start a decided offload; MigrationEngine.start re-checks it, and a
        rejection is recorded as a stale_action naming start's error."""
        try:
            inst = self.scheduler.instance(action.instance_id)
            record = self.migrations.start(inst, action.target, self.kernel.now)
        except errors.FogSimError as exc:
            self.kernel.emit("stale_action", action.instance_id, {
                "target": action.target, "reason": type(exc).__name__,
                "detail": str(exc)})
            return
        self.flows.reroute_served(inst.instance_id, self.kernel.now)
        self.kernel.emit("offload", inst.instance_id, {
            "from": record.from_node, "to": record.to_node})
        self._migration_started(record)

    def _on_migration_complete(self, record: MigrationRecord):
        """Finish a move. Only IoT-Apps roam, and each is bound to its device,
        so the move of a bound instance is a roam, which resumes the device's
        flow; any other is an offload of a Data-App, which rebinds the flows
        it serves."""
        now = self.kernel.now
        iid = record.instance_id
        inst = self.scheduler.instance(iid)
        self.migrations.complete(inst)
        self.migrations_completed += 1
        self.kernel.emit("migration_completed", iid, {
            "from": record.from_node, "to": record.to_node,
            "started_at": record.started_at, "completed_at": record.completed_at,
            "bytes_moved_mb": record.bytes_moved_mb,
            "downtime_ms": record.downtime_ms,
            "state_version": inst.state.version, "replicas": inst.replicas})
        device = inst.bound_device
        if device is not None:
            flow = self.flows.active_flow_for(device)
            if flow is not None and flow.paused:
                self.flows.set_paused(flow.flow_id, False, now)
                self.kernel.emit("flow_resume", flow.flow_id, {
                    "src": flow.src, "sink": flow.sink})
            self.kernel.emit("roam_completed", device, {
                "from": record.from_node, "to": record.to_node, "instance": iid})
            self.kernel.emit("status_update", device, {
                "gateway": inst.host, "instance": iid,
                "state_version": inst.state.version})
        else:
            for flow in self.flows.served_by(iid):
                self.flows.rebind(flow.flow_id, inst.host, iid, now)
                self.kernel.emit("flow_rebind", flow.flow_id, {"sink": inst.host,
                                                               "serving": iid})

    # -- metric windows ------------------------------------------------------------------

    def _close_window(self):
        now = self.kernel.now
        self.flows.advance_all(now)
        if now <= self._window_start:
            return
        metrics = self.flows.close_window(self._window_start, now)
        kernel = self.kernel
        memo: dict = {}  # this window's floats -> their roundings
        for values in metrics.flows:
            kernel.emit("flow_window", values[0], values, memo)
        dt = now - self._window_start
        links = self.topology.links
        for link_id in sorted(metrics.links):
            kernel.emit("link_window", link_id, (
                metrics.links[link_id], links[link_id].bandwidth_mbps * dt / 8000.0),
                memo)
        kernel.emit("metrics_window", "network", (
            self._window_start, now, metrics.generated_mb, metrics.delivered_mb,
            metrics.dropped_mb, metrics.uplink_mb, metrics.ratio,
            self.scheduler.status_snapshot(), self.topology.utilization_snapshot(),
            self.topology.alloc_snapshot()), memo)
        self._window_start = now

    # -- faults -----------------------------------------------------------------------

    def _hold(self, fault: dict, delta: int):
        """Add delta to the down count of each element the fault entry holds
        (its link or node, or a partition's links at the cloud, which also
        defer ticks); an element is up exactly while no active fault holds it."""
        topo = self.topology
        if fault["kind"] == FaultKind.LINK_DOWN:
            held = [(topo.set_link_up, fault["target"])]
        elif fault["kind"] == FaultKind.NODE_DOWN:
            held = [(topo.set_node_up, fault["target"])]
        else:
            held = [(topo.set_link_up, lid) for lid in topo.links_at(fault["target"])]
            self._partition_depth += delta
        for set_up, target in held:
            count = self._down_counts.get((set_up, target), 0) + delta
            self._down_counts[set_up, target] = count
            set_up(target, count == 0)
        self.flows.reroute_dropped(self.kernel.now)

    def _on_fault_start(self, fault: dict):
        self._hold(fault, 1)
        self.kernel.emit("fault_start", fault["target"], {
            "fault_kind": fault["kind"], "duration_ms": fault["duration_ms"]})

    def _on_fault_end(self, fault: dict):
        self._hold(fault, -1)
        self.kernel.emit("fault_end", fault["target"], {"fault_kind": fault["kind"]})
        if fault["kind"] == FaultKind.CLOUD_PARTITION and \
                self._partition_depth == 0 and self._deferred_ticks > 0:
            replay = self._deferred_ticks
            self._deferred_ticks = 0
            for _ in range(replay):
                self.kernel.emit("scheduler_tick", "scheduler",
                                 {"skipped": False, "replayed": True})
                self._run_threshold_loop()
