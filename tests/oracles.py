"""Independent brute-force reference implementations, used only by tests.

These share no code with the production policies: shortest paths are found by
exhaustive simple-path enumeration (not Dijkstra), placement by full
enumeration over every node, and flow counters by re-accumulating trace
deltas. They may be exponential; the graphs they see are tiny.

Nine exceptions copy earlier production code. reference_shortest_path is the
uncached per-pair Dijkstra that Topology.shortest_path ran before routes were
cached per source; it pins the exact path, tie-breaks included, that a
cached search must return however far it had grown.
reference_settle_order is the eager search Topology._settle ran before it
held settled nodes, scanning each node's links as it settled; it pins the
order in which a cached search settles nodes, which the trace follows. reference_record_json is TraceRecord.to_json as it was when it
rounded every float again at serialisation; it pins the bytes of a record.
reference_advance_all is FlowManager.advance_all as it was when every event
integrated every active flow from the live topology and instance state; it
pins the counters that lazy integration must reach, and, with
reference_release_held, the output held at each edge host.
reference_load_yaml is the yaml.safe_load that load_scenario called before it
parsed with libyaml; it pins the objects a scenario document loads to.
reference_from_jsonl is Trace.from_jsonl as it was when it ran json.loads on
every line in full, splitting lines at "\n" only as the reader now does; it
pins the records and the errors of a trace text.
reference_shared_entries models, from a trace's text and json.loads alone,
which maps Trace.from_jsonl reads against the last map at their key; it pins
which entries of parsed maps are the objects of the map before them.
reference_window_maps is the per-node part of Runtime._close_window as it was
when every window built both maps for every node and the kernel rounded them
at emission; it pins the maps that the cached ones must equal. reference_nearest_edge is
Runtime._nearest_edge as it was before Topology.nearest_edge_module read its
latencies from the cached search, with latencies found afresh; it pins
the sink a flow without a serving Data-App goes to.
reference_check_thresholds is Scheduler.check_thresholds as it was when
every tick tested every up edge module against the high watermark; it pins
the actions that the loop over the kept set of hot edges must return.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

import yaml

from fogsim import errors
from fogsim.catalog import AppKind, AppSpec, Catalog
from fogsim.dataflow import Flow, generated_mb
from fogsim.kernel import TraceRecord
from fogsim.scheduler import Action, Defer, InstanceStatus, Offload, Scheduler
from fogsim.topology import Link, ResourceVector, Tier, Topology


def reference_shortest_path(topology: Topology, a: str, b: str) -> list[Link]:
    """Minimum-latency path over up links between up nodes, searched afresh.

    Empty list when a == b and a is up. Raises Unreachable when no up path
    exists; a down node reaches nothing, itself included. Nodes settle in
    (latency, path node ids) order and a path is replaced only by a strictly
    shorter one, so of equal-latency paths the one through the
    earliest-settled predecessor wins, as in Topology._settle.
    """
    topology.node(a)
    topology.node(b)
    if not topology.nodes[a].up:
        raise errors.Unreachable(f"{a} is down")
    if a == b:
        return []
    # Dijkstra keyed by (latency, path node ids); strict-< relaxation.
    best: dict[str, float] = {a: 0.0}
    heap: list[tuple[float, list[str], str, list[str]]] = [(0.0, [a], a, [])]
    while heap:
        dist, path_nodes, here, path_links = heapq.heappop(heap)
        if here == b:
            return [topology.links[lid] for lid in path_links]
        if dist > best.get(here, math.inf):
            continue
        for lid in topology.links_at(here):
            link = topology.links[lid]
            if not link.up:
                continue
            nxt = link.other_end(here)
            if not topology.nodes[nxt].up:
                continue
            ndist = dist + link.latency_ms
            if ndist < best.get(nxt, math.inf):
                best[nxt] = ndist
                heapq.heappush(heap, (ndist, path_nodes + [nxt], nxt,
                                      path_links + [lid]))
    raise errors.Unreachable(f"{a} -> {b}")


def reference_settle_order(topology: Topology,
                           source: str) -> list[tuple[str, str | None]]:
    """Every node the search from `source` settles over up links between up
    nodes, in settle order, each with the id of its path's last link (None
    for the source), searched afresh; empty for a down source.

    Nodes settle in (latency, path node ids) order; each scans its links in
    the order they were added as it settles, and a node's entry is replaced
    only by a strictly shorter one.
    """
    if not topology.nodes[source].up:
        return []
    best: dict[str, float] = {source: 0}
    heap: list[tuple[float, tuple[str, ...], str | None]] = [(0, (source,), None)]
    order: list[tuple[str, str | None]] = []
    settled: set[str] = set()
    while heap:
        dist, path_nodes, last_link = heapq.heappop(heap)
        here = path_nodes[-1]
        if here in settled:
            continue
        settled.add(here)
        order.append((here, last_link))
        for lid in topology.links_at(here):
            link = topology.links[lid]
            nxt = link.other_end(here)
            if not link.up or not topology.nodes[nxt].up:
                continue
            ndist = dist + link.latency_ms
            if ndist < best.get(nxt, math.inf):
                best[nxt] = ndist
                heapq.heappush(heap, (ndist, path_nodes + (nxt,), lid))
    return order


def reference_load_yaml(text: str):
    """The document in `text`, parsed by PyYAML's pure-Python SafeLoader."""
    return yaml.load(text, Loader=yaml.SafeLoader)


def reference_round_floats(value):
    """Recursive rounding of every float in a JSON-like value to 9 places."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: reference_round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_round_floats(v) for v in value]
    return value


def reference_record_json(record: TraceRecord) -> str:
    """The JSON line of `record`, rounding its details at serialisation."""
    return json.dumps({
        "time_ms": record.time_ms,
        "seq": record.seq,
        "kind": record.kind,
        "subject": record.subject,
        "details": reference_round_floats(record.details),
    }, sort_keys=True, separators=(",", ":"))


def reference_from_jsonl(text: str) -> list[TraceRecord]:
    """The records of a trace text, each line parsed in full by json.loads,
    with the error Trace.from_jsonl raises for a bad line. Lines end at
    "\n" only, and a line of JSON whitespace alone is skipped."""
    records = []
    for i, line in enumerate(text.split("\n")):
        if not line.strip(" \t\r"):
            continue
        try:
            obj = json.loads(line)
            records.append(TraceRecord(obj["time_ms"], obj["seq"], obj["kind"],
                                       obj["subject"], obj["details"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise errors.MalformedTrace(f"line {i + 1}: {exc}") from None
    return records


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def reference_shared_entries(
        text: str, chars_per_read: int) -> list[tuple[int, int, str, str, bool]]:
    """For each map of a trace text in the writer's form that follows a
    non-empty map at its detail key with other text, and each entry key of
    both maps whose value in the later one is a float, a dict or a list (a
    parse makes each anew): (the index of the record of the earlier map,
    that of the later one, the detail key, the entry key, whether the later
    map holds the earlier map's object there).

    Only a line whose details hold a `{` after the opening `{"details":{`,
    or a `[` anywhere, is read a detail at a time, so only such lines count.
    A key's value of the last text at the key is that value again. A map of
    other text after a non-empty map is spliced where its keys are the last
    map's keys in their order, and then holds the last map's object for
    each entry of equal text. Otherwise, or where the splice reads more
    entries, those of other text, than one per `chars_per_read` characters
    of the map's text, the key stops splicing, and its maps are read whole,
    holding none of the last map's objects, until a line read a detail at a
    time holds a value there that is no map."""
    opening = '{"details":{'
    shared, last = [], {}  # key -> (record index, text, value, stopped)
    index = -1
    for line in text.split("\n"):
        if not line.strip(" \t\r"):
            continue
        index += 1
        if not (line.startswith(opening)
                and (line.find("{", len(opening)) >= 0 or "[" in line)):
            continue
        for key, value in json.loads(line)["details"].items():
            value_text = _json_text(value)
            known = last.get(key)
            if known is not None and known[1] == value_text:
                continue
            stopped = False
            if type(value) is dict and known is not None:
                prev, stopped = known[2], known[3]
                if type(prev) is dict and prev:
                    spliced = not stopped and list(prev) == list(value)
                    same = {k: _json_text(v) == _json_text(prev[k])
                            for k, v in value.items() if k in prev}
                    shared += [(known[0], index, key, k, spliced and equal)
                               for k, equal in same.items()
                               if type(value[k]) in (float, dict, list)]
                    changed = len(value) - sum(same.values())
                    stopped = (not spliced
                               or changed * chars_per_read > len(value_text))
            last[key] = (index, value_text, value, stopped)
    return shared


def reference_window_maps(topology: Topology) -> dict:
    """The `utilization` and `alloc` maps of a metrics_window record, built
    afresh for every node and rounded as the kernel rounds details."""
    alloc = {nid: {"cpu": n.allocated.cpu, "mem": n.allocated.mem,
                   "storage": n.allocated.storage}
             for nid, n in sorted(topology.nodes.items())}
    utilization = {nid: n.utilization() for nid, n in sorted(topology.nodes.items())}
    return reference_round_floats({"utilization": utilization, "alloc": alloc})


def reference_check_thresholds(scheduler: Scheduler) -> list[Action]:
    """The offload decisions of one tick, testing every up edge module in id
    order against the high watermark; it reads the scheduler and changes
    nothing."""
    actions: list[Action] = []
    nodes = scheduler.topology.nodes
    alloc: dict[str, ResourceVector] = {}
    high = scheduler.thresholds.high_watermark
    low = scheduler.thresholds.low_watermark
    for node_id in scheduler.topology.nodes_of(Tier.EDGE_MODULE):
        node = nodes[node_id]
        load = alloc.get(node_id, node.allocated)
        if not node.up or load.bottleneck_fraction(node.capacity) <= high:
            continue
        victims = []
        for inst in scheduler.instances.values():
            if inst.host != node_id or inst.status is not InstanceStatus.RUNNING:
                continue
            app = scheduler.catalog.app(inst.app_id)
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
            target = scheduler.select_host(
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


def reference_hot_edges(scheduler: Scheduler) -> set[str]:
    """The edge modules, up or down, whose allocation is above the high
    watermark, found by testing every one."""
    nodes = scheduler.topology.nodes
    high = scheduler.thresholds.high_watermark
    return {nid for nid in scheduler.topology.nodes_of(Tier.EDGE_MODULE)
            if nodes[nid].allocated.bottleneck_fraction(nodes[nid].capacity) > high}


def brute_force_latency(topology: Topology, a: str, b: str) -> float:
    """Minimum latency over every simple path using only up links/nodes;
    math.inf when unreachable, as from a down node."""
    if not topology.nodes[a].up:
        return math.inf
    if a == b:
        return 0.0
    links = [l for l in topology.links.values() if l.up]
    best = math.inf

    def walk(here: str, seen: frozenset[str], cost: float):
        nonlocal best
        if cost >= best:
            return
        if here == b:
            best = cost
            return
        for link in links:
            if here not in (link.a, link.b):
                continue
            nxt = link.b if here == link.a else link.a
            if nxt in seen or not topology.nodes[nxt].up:
                continue
            walk(nxt, seen | {nxt}, cost + link.latency_ms)

    walk(a, frozenset({a}), 0.0)
    return best


def reference_nearest_edge(topology: Topology, gateway: str) -> str | None:
    """The up edge module with the least latency from `gateway`, the
    smaller id on a tie, scanning every edge module; None when none is
    reachable."""
    best = None
    for nid in sorted(topology.nodes):
        node = topology.nodes[nid]
        if node.tier is not Tier.EDGE_MODULE or not node.up:
            continue
        latency = brute_force_latency(topology, gateway, nid)
        if latency == math.inf:
            continue
        if best is None or (latency, nid) < best:
            best = (latency, nid)
    return best[1] if best else None


def all_pairs_latency(topology: Topology) -> dict[tuple[str, str], float]:
    ids = sorted(topology.nodes)
    return {(a, b): brute_force_latency(topology, a, b) for a in ids for b in ids}


def brute_force_place(topology: Topology, app: AppSpec, source: str,
                      replicas: int, exclude: frozenset[str] = frozenset(),
                      alloc_override: dict | None = None,
                      util_cap_after: float | None = None) -> str | None:
    """Enumerate every node; filter by exclusion, tier, capacity,
    reachability, latency requirement and, given `util_cap_after`, the
    utilization after placing; pick by (latency, bottleneck utilization,
    node_id). `alloc_override` maps some nodes to the allocation to use in
    place of their own. Each product and sum is rounded to 9 places, as a
    ResourceVector's components are."""
    candidates = []
    demand = (round(app.demand.cpu * replicas, 9), round(app.demand.mem * replicas, 9),
              round(app.demand.storage * replicas, 9))
    for node_id in sorted(topology.nodes):
        node = topology.nodes[node_id]
        if node_id in exclude or not node.up or node.tier not in app.allowed_tiers:
            continue
        vec = (alloc_override or {}).get(node_id, node.allocated)
        alloc = (vec.cpu, vec.mem, vec.storage)
        caps = (node.capacity.cpu, node.capacity.mem, node.capacity.storage)
        after = [round(a + d, 9) for a, d in zip(alloc, demand)]
        if any(a > c for a, c in zip(after, caps)):
            continue
        latency = brute_force_latency(topology, source, node_id)
        if latency == math.inf:
            continue
        if app.latency_requirement_ms is not None and \
                latency > app.latency_requirement_ms:
            continue
        if util_cap_after is not None and \
                max(a / c for a, c in zip(after, caps)) > util_cap_after:
            continue
        utilization = max(a / c for a, c in zip(alloc, caps))
        candidates.append((latency, utilization, node_id))
    if not candidates:
        return None
    return min(candidates)[2]


def recompute_counters(records) -> dict[str, dict[str, float]]:
    """Re-accumulate per-flow byte counters from flow_window deltas."""
    counters: dict[str, dict[str, float]] = {}
    for record in records:
        if record.kind != "flow_window":
            continue
        d = record.details
        acc = counters.setdefault(record.subject, {
            "generated_mb": 0.0, "delivered_mb": 0.0, "dropped_mb": 0.0})
        acc["generated_mb"] += d["generated_mb"]
        acc["delivered_mb"] += d["delivered_mb"]
        acc["dropped_mb"] += d["dropped_mb"]
        acc["buffered_mb"] = d["buffered_mb"]
    return counters


@dataclass
class ReferenceFlows:
    """The state reference_advance_all integrates: flows whose fields the
    caller writes directly, the window's per-link volumes, and the output
    held at each edge host that cannot reach the cloud."""

    topology: Topology
    catalog: Catalog
    scheduler: Scheduler
    buffer_mb: float
    flows: dict[str, Flow] = field(default_factory=dict)
    link_mb: dict[str, float] = field(default_factory=dict)
    held: dict[str, float] = field(default_factory=dict)


def _reference_path(ref: ReferenceFlows, a: str, b: str):
    try:
        return ref.topology.shortest_path(a, b)
    except errors.Unreachable:
        return None


def _reference_blocked(ref: ReferenceFlows, flow: Flow) -> bool:
    if flow.paused:
        return True
    if flow.serving_instance is not None:
        inst = ref.scheduler.instances.get(flow.serving_instance)
        if inst is not None and inst.status is not InstanceStatus.RUNNING:
            return True
    return False


def _reference_absorb(ref: ReferenceFlows, flow: Flow, amount_mb: float) -> None:
    space = max(0.0, ref.buffer_mb - flow.buffered)
    to_buffer = min(amount_mb, space)
    flow.buffered += to_buffer
    overflow = amount_mb - to_buffer
    flow.dropped += overflow
    flow.w_dropped += overflow


def _reference_reaches_cloud(ref: ReferenceFlows, host: str) -> bool:
    cloud = next((nid for nid in sorted(ref.topology.nodes)
                  if ref.topology.nodes[nid].tier is Tier.CENTRAL_CLOUD), None)
    return cloud is not None and _reference_path(ref, host, cloud) is not None


def reference_release_held(ref: ReferenceFlows) -> float:
    """Release, at a window close, the output held at every edge host that
    reaches the cloud again, in host order; the amount released."""
    released = 0.0
    for host in sorted(ref.held):
        if _reference_reaches_cloud(ref, host):
            released += ref.held.pop(host)
    return released


def _reference_uplink(ref: ReferenceFlows, flow: Flow, delivered_mb: float) -> None:
    if flow.serving_instance is None:
        return
    inst = ref.scheduler.instances.get(flow.serving_instance)
    if inst is None:
        return
    app = ref.catalog.app(inst.app_id)
    host_tier = ref.topology.nodes[inst.host].tier
    if host_tier is Tier.CENTRAL_CLOUD:
        up = delivered_mb
    elif host_tier is Tier.EDGE_MODULE:
        up = delivered_mb / app.aggregation_factor
        if not _reference_reaches_cloud(ref, inst.host):
            ref.held[inst.host] = ref.held.get(inst.host, 0.0) + up
            return
    else:
        return
    flow.w_uplinked += up


def reference_advance_all(ref: ReferenceFlows, dt_ms: int) -> None:
    """Integrate every active flow over dt from the current state."""
    if dt_ms < 0:
        raise errors.ValidationError("dt must be >= 0")
    if dt_ms == 0:
        return
    flows = [ref.flows[fid] for fid in sorted(ref.flows) if ref.flows[fid].active]
    paths: dict[str, list] = {}
    link_users: dict[str, int] = {}
    for flow in flows:
        if _reference_blocked(ref, flow):
            continue
        path = _reference_path(ref, flow.src, flow.sink)
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
            _reference_absorb(ref, flow, gen)
            continue
        share_mbps = min(link.bandwidth_mbps / link_users[link.link_id]
                         for link in path)
        capacity_mb = share_mbps * dt_ms / 8000.0
        send = min(gen + flow.buffered, capacity_mb)
        drained = max(0.0, send - gen)
        if drained > 0:
            flow.buffered -= drained
        if send > 0:
            flow.delivered += send
            flow.w_delivered += send
            for link in path:
                ref.link_mb[link.link_id] = ref.link_mb.get(link.link_id, 0.0) + send
            _reference_uplink(ref, flow, send)
        fresh_leftover = max(0.0, gen - send)
        if fresh_leftover > 0:
            _reference_absorb(ref, flow, fresh_leftover)
