"""Three-tier node graph with link latency/bandwidth and per-node resource accounting.

Nodes live in one of three tiers (central cloud, edge module, IoT gateway)
and carry a capacity and an allocation, each a ResourceVector of CPU
(millicores), memory (MB) and storage (MB). Reservations are all-or-nothing
so accounting stays auditable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

from . import errors


class Tier(str, Enum):
    CENTRAL_CLOUD = "CentralCloud"
    EDGE_MODULE = "EdgeModule"
    GATEWAY = "Gateway"


@dataclass(frozen=True)
class ResourceVector:
    """A (cpu, mem, storage) quantity: an app's demand, a node's capacity or
    its allocation. cpu in millicores, mem/storage in MB.

    Components are rounded to 9 decimal places, the trace's precision, when
    a vector is made; integral components are unchanged. Sums and
    differences of such vectors are then exact for integral components and
    for any components below 2**21, so releasing reserved demands in any
    order returns an allocation exactly to zero.
    """

    cpu: float = 0.0
    mem: float = 0.0
    storage: float = 0.0

    def __post_init__(self):
        if self.cpu < 0 or self.mem < 0 or self.storage < 0:
            raise errors.ValidationError(f"resource components must be >= 0: {self}")
        object.__setattr__(self, "cpu", round(self.cpu, 9))
        object.__setattr__(self, "mem", round(self.mem, 9))
        object.__setattr__(self, "storage", round(self.storage, 9))

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.mem + other.mem,
                              self.storage + other.storage)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.mem - other.mem,
                              self.storage - other.storage)

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.mem * factor, self.storage * factor)

    def fits_within(self, other: "ResourceVector") -> bool:
        return (self.cpu <= other.cpu and self.mem <= other.mem
                and self.storage <= other.storage)

    def bottleneck_fraction(self, capacity: "ResourceVector") -> float:
        """The largest per-resource fraction of `capacity` this vector takes."""
        return max(self.cpu / capacity.cpu, self.mem / capacity.mem,
                   self.storage / capacity.storage)


@dataclass
class Node:
    """A compute node. `capacity` and `allocated` are ResourceVectors;
    `allocated` changes only through Topology.reserve and release, which
    mark the node's metrics-window entries stale. `up` is written only
    through Topology.set_node_up, which drops the cached routes."""

    node_id: str
    tier: Tier
    capacity: ResourceVector
    allocated: ResourceVector = ResourceVector()
    up: bool = True

    @property
    def free(self) -> ResourceVector:
        return self.capacity - self.allocated

    def utilization(self) -> float:
        """Bottleneck utilization: the largest per-resource allocated fraction."""
        return self.allocated.bottleneck_fraction(self.capacity)


@dataclass
class Link:
    """An undirected link. `up` is written only through Topology.set_link_up,
    which drops the cached routes."""

    link_id: str
    a: str
    b: str
    latency_ms: float
    bandwidth_mbps: float
    up: bool = True

    def other_end(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a


@dataclass
class Topology:
    """Mutable node/link graph. Up/down state changes only through
    set_link_up and set_node_up: routes are cached per source, and those
    setters, add_node and add_link are what drop the cache. Allocations
    change only through reserve and release, which mark the node whose
    metrics-window entries must be rebuilt (see utilization_snapshot)."""

    nodes: dict[str, Node] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    _adjacency: dict[str, list[str]] = field(default_factory=dict)
    # source -> target -> link path, valid until the graph changes
    _routes: dict[str, dict[str, tuple[Link, ...]]] = field(
        default_factory=dict, repr=False, compare=False)
    # sorted edge-module ids, built on first use; tiers never change
    _edge_modules: tuple[str, ...] | None = field(
        default=None, repr=False, compare=False)
    # metrics-window maps, by node id: utilization rounded to the trace's
    # 9 places, and the allocation's components. Both are rebuilt as new
    # dicts, never updated in place, once a node in _stale changed.
    _stale: set[str] = field(default_factory=set, repr=False, compare=False)
    _utilization: dict[str, float] = field(
        default_factory=dict, repr=False, compare=False)
    _alloc: dict[str, dict[str, float]] = field(
        default_factory=dict, repr=False, compare=False)

    # -- construction --------------------------------------------------------

    def add_node(self, node_id: str, tier: Tier, cpu_capacity: float,
                 mem_capacity: float, storage_capacity: float) -> str:
        if node_id in self.nodes:
            raise errors.DuplicateNodeId(node_id)
        # below the 9-place precision of vectors and the trace, a capacity may round to 0
        if min(cpu_capacity, mem_capacity, storage_capacity) < 1e-9:
            raise errors.InvalidCapacity(
                f"{node_id}: capacities must be >= 1e-9 "
                f"(cpu={cpu_capacity}, mem={mem_capacity}, storage={storage_capacity})")
        self.nodes[node_id] = Node(node_id, Tier(tier), ResourceVector(
            cpu_capacity, mem_capacity, storage_capacity))
        self._adjacency[node_id] = []
        self._routes.clear()
        self._edge_modules = None
        self._stale.add(node_id)
        return node_id

    def add_link(self, a: str, b: str, latency_ms: float, bandwidth_mbps: float,
                 link_id: str | None = None) -> str:
        if a not in self.nodes:
            raise errors.UnknownNode(a)
        if b not in self.nodes:
            raise errors.UnknownNode(b)
        if a == b:
            raise errors.SelfLoop(a)
        if bandwidth_mbps <= 0:
            raise errors.NonPositiveBandwidth(f"{a}-{b}: {bandwidth_mbps}")
        if latency_ms < 0:
            raise errors.ValidationError(f"{a}-{b}: latency must be >= 0")
        if link_id is None:
            link_id = f"{a}--{b}"
        if link_id in self.links:
            raise errors.ValidationError(f"duplicate link id {link_id}")
        self.links[link_id] = Link(link_id, a, b, latency_ms, bandwidth_mbps)
        self._adjacency[a].append(link_id)
        self._adjacency[b].append(link_id)
        self._routes.clear()
        return link_id

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise errors.UnknownNode(node_id) from None

    def link(self, link_id: str) -> Link:
        try:
            return self.links[link_id]
        except KeyError:
            raise errors.UnknownTarget(link_id) from None

    @property
    def edge_modules(self) -> tuple[str, ...]:
        """Ids of the edge modules, sorted."""
        if self._edge_modules is None:
            self._edge_modules = tuple(sorted(
                nid for nid, node in self.nodes.items()
                if node.tier is Tier.EDGE_MODULE))
        return self._edge_modules

    def links_at(self, node_id: str) -> tuple[str, ...]:
        """Ids of the links incident to a node, in the order they were added."""
        self.node(node_id)
        return tuple(self._adjacency[node_id])

    # -- up/down state ---------------------------------------------------------

    def set_link_up(self, link_id: str, up: bool) -> bool:
        """Bring a link up or down; True when its state changed."""
        link = self.link(link_id)
        changed = link.up != up
        if changed:
            link.up = up
            self._routes.clear()
        return changed

    def set_node_up(self, node_id: str, up: bool) -> bool:
        """Bring a node up or down; True when its state changed."""
        node = self.node(node_id)
        changed = node.up != up
        if changed:
            node.up = up
            self._routes.clear()
        return changed

    # -- routing ---------------------------------------------------------------

    def shortest_path(self, a: str, b: str) -> list[Link]:
        """Minimum-latency path over up links between up nodes, as a link list.

        Empty list when a == b. Raises Unreachable when no up path exists.
        Of equal-latency paths, the first one the search finds wins (see
        _route_tree). Answers come from a cached shortest-path tree per
        source; the returned list is the caller's own.
        """
        tree = self._routes.get(a)
        if tree is None:
            self.node(a)
            tree = self._routes[a] = self._route_tree(a)
        route = tree.get(b)
        if route is None:
            self.node(b)
            raise errors.Unreachable(f"{a} -> {b}")
        return list(route)

    def _route_tree(self, a: str) -> dict[str, tuple[Link, ...]]:
        """The link path from a to every node reachable over up elements.

        Dijkstra that settles nodes in (latency, path node ids) order and
        scans a settled node's links in the order they were added. A node's
        path is replaced only by a strictly shorter one, so of equal-latency
        paths the one through the earliest-settled predecessor wins, not the
        one whose node ids sort first: with links s-a 1, a-z 2, a-b 1 and
        b-z 1, z is reached by s, a, z. Each node's path is the one on its
        first pop; pop order does not depend on a target, so it is the path
        a search stopping there returns.
        """
        tree: dict[str, tuple[Link, ...]] = {}
        best: dict[str, float] = {a: 0.0}
        heap: list[tuple[float, list[str], str, tuple[Link, ...]]] = [
            (0.0, [a], a, ())]
        while heap:
            dist, path_nodes, here, path_links = heapq.heappop(heap)
            if here in tree:
                continue
            tree[here] = path_links
            for lid in self._adjacency[here]:
                link = self.links[lid]
                if not link.up:
                    continue
                nxt = link.other_end(here)
                if not self.nodes[nxt].up:
                    continue
                ndist = dist + link.latency_ms
                if ndist < best.get(nxt, math.inf):
                    best[nxt] = ndist
                    heapq.heappush(heap, (ndist, path_nodes + [nxt], nxt,
                                          path_links + (link,)))
        return tree

    def path_latency(self, a: str, b: str) -> float:
        """Shortest-path latency in ms over up links; 0 when a == b."""
        return sum(link.latency_ms for link in self.shortest_path(a, b))

    def path_latency_or_inf(self, a: str, b: str) -> float:
        try:
            return self.path_latency(a, b)
        except errors.Unreachable:
            return math.inf

    # -- resource accounting ---------------------------------------------------

    def reserve(self, node_id: str, demand: ResourceVector) -> None:
        """Reserve a demand vector on a node, all-or-nothing."""
        node = self.node(node_id)
        allocated = node.allocated + demand
        if not allocated.fits_within(node.capacity):
            raise errors.InsufficientCapacity(
                f"{node_id}: demand {demand} exceeds free {node.free}")
        node.allocated = allocated
        self._stale.add(node_id)

    def release(self, node_id: str, demand: ResourceVector) -> None:
        node = self.node(node_id)
        if not demand.fits_within(node.allocated):
            raise errors.ReleaseUnderflow(
                f"{node_id}: release {demand} exceeds allocated {node.allocated}")
        node.allocated = node.allocated - demand
        self._stale.add(node_id)

    def utilization(self, node_id: str) -> float:
        return self.node(node_id).utilization()

    # -- metrics-window maps ----------------------------------------------------

    def utilization_snapshot(self) -> dict[str, float]:
        """Every node's utilization by node id, sorted, rounded to 9 places.

        The dict is shared: the same object is returned until an allocation
        changes, and trace records hold it, so it must never be mutated.
        """
        if self._stale:
            self._rebuild_window_maps()
        return self._utilization

    def alloc_snapshot(self) -> dict[str, dict[str, float]]:
        """Every node's allocation by node id, sorted, as cpu/mem/storage.
        Shared like utilization_snapshot's dict; never mutate it or its
        entries."""
        if self._stale:
            self._rebuild_window_maps()
        return self._alloc

    def _rebuild_window_maps(self) -> None:
        """New maps that rebuild the entries of the stale nodes only and
        share every other entry with the maps they replace."""
        utilization = dict(self._utilization)
        alloc = dict(self._alloc)
        for nid in self._stale:
            node = self.nodes[nid]
            vec = node.allocated
            utilization[nid] = round(node.utilization(), 9)
            # vector components are already rounded to 9 places
            alloc[nid] = {"cpu": vec.cpu, "mem": vec.mem, "storage": vec.storage}
        self._stale.clear()
        ids = sorted(utilization)
        self._utilization = {nid: utilization[nid] for nid in ids}
        self._alloc = {nid: alloc[nid] for nid in ids}
