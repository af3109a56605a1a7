"""Independent brute-force reference implementations, used only by tests.

These share no code with the production policies: shortest paths are found by
exhaustive simple-path enumeration (not Dijkstra), placement by full
enumeration over every node, and flow counters by re-accumulating trace
deltas. They may be exponential; the graphs they see are tiny.

Two exceptions copy earlier production code. reference_shortest_path is the
uncached per-pair Dijkstra that Topology.shortest_path ran before routes were
cached per source; it pins the exact path, tie-breaks included, that the cache
must return. reference_record_json is TraceRecord.to_json as it was when it
rounded every float again at serialisation; it pins the bytes of a record.
"""

from __future__ import annotations

import heapq
import json
import math

from fogsim import errors
from fogsim.catalog import AppSpec
from fogsim.kernel import TraceRecord
from fogsim.topology import Link, Topology


def reference_shortest_path(topology: Topology, a: str, b: str) -> list[Link]:
    """Minimum-latency path over up links between up nodes, searched afresh.

    Empty list when a == b. Raises Unreachable when no up path exists.
    Ties broken deterministically by (latency, hop node ids).
    """
    topology.node(a)
    topology.node(b)
    if a == b:
        return []
    # Dijkstra keyed by (latency, path node ids) for deterministic ties.
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


def brute_force_latency(topology: Topology, a: str, b: str) -> float:
    """Minimum latency over every simple path using only up links/nodes;
    math.inf when unreachable."""
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


def all_pairs_latency(topology: Topology) -> dict[tuple[str, str], float]:
    ids = sorted(topology.nodes)
    return {(a, b): brute_force_latency(topology, a, b) for a in ids for b in ids}


def brute_force_place(topology: Topology, app: AppSpec, source: str,
                      replicas: int) -> str | None:
    """Enumerate every node; filter by tier, capacity, reachability and
    latency requirement; pick by (latency, bottleneck utilization, node_id)."""
    candidates = []
    demand = (app.demand.cpu * replicas, app.demand.mem * replicas,
              app.demand.storage * replicas)
    for node_id in sorted(topology.nodes):
        node = topology.nodes[node_id]
        if not node.up or node.tier not in app.allowed_tiers:
            continue
        alloc = (node.allocated.cpu, node.allocated.mem, node.allocated.storage)
        caps = (node.capacity.cpu, node.capacity.mem, node.capacity.storage)
        if any(a + d > c for a, d, c in zip(alloc, demand, caps)):
            continue
        latency = brute_force_latency(topology, source, node_id)
        if latency == math.inf:
            continue
        if app.latency_requirement_ms is not None and \
                latency > app.latency_requirement_ms:
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
