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
    through Topology.set_node_up, which drops the cached routes that the
    change can alter."""

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
    which drops the cached routes that the change can alter."""

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
    set_link_up and set_node_up: routes are cached per source as a
    shortest-path tree, and those setters drop the trees that their change
    can alter, while add_node and add_link drop them all. Allocations
    change only through reserve and release, which mark the node whose
    metrics-window entries must be rebuilt (see utilization_snapshot)."""

    nodes: dict[str, Node] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    # node -> its links in the order they were added, each with its other end
    _adjacency: dict[str, list[tuple[Link, str]]] = field(default_factory=dict)
    # source -> its shortest-path tree, as (reached node -> last link of its
    # path, None for the source; reached node -> settled latency)
    _routes: dict[str, tuple[dict[str, Link | None], dict[str, float]]] = field(
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
        link = self.links[link_id] = Link(link_id, a, b, latency_ms, bandwidth_mbps)
        self._adjacency[a].append((link, b))
        self._adjacency[b].append((link, a))
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
        return tuple(link.link_id for link, _ in self._adjacency[node_id])

    # -- up/down state ---------------------------------------------------------

    def set_link_up(self, link_id: str, up: bool) -> bool:
        """Bring a link up or down; True when its state changed.

        Down, it drops the cached trees that hold it: the last link of the
        path to one of its ends, compared by identity since parallel links
        join the same ends. Up, it drops a tree when the search from its
        source would push an end of the link through it (see _pushes)."""
        link = self.link(link_id)
        changed = link.up != up
        if changed:
            link.up = up
            a, b, lat = link.a, link.b, link.latency_ms
            if up:
                self._drop_routes(lambda source, tree, latency:
                                  self._pushes(source, latency, a, b, lat)
                                  or self._pushes(source, latency, b, a, lat))
            else:
                self._drop_routes(lambda source, tree, latency:
                                  tree.get(a) is link or tree.get(b) is link)
        return changed

    def set_node_up(self, node_id: str, up: bool) -> bool:
        """Bring a node up or down; True when its state changed.

        Down, it drops the cached trees that reach it. Up, it drops the
        trees that reach one of its neighbours across an up link."""
        node = self.node(node_id)
        changed = node.up != up
        if changed:
            node.up = up
            if up:
                near = [nxt for link, nxt in self._adjacency[node_id] if link.up]
                self._drop_routes(lambda source, tree, latency:
                                  any(nid in tree for nid in near))
            else:
                self._drop_routes(lambda source, tree, latency: node_id in tree)
        return changed

    def _drop_routes(self, alters) -> None:
        """Drop the cached trees for which alters(source, tree, latency)
        holds; every other tree stays as the same object."""
        self._routes = {source: entry for source, entry in self._routes.items()
                        if not alters(source, *entry)}

    def _pushes(self, source: str, latency: dict[str, float], u: str, v: str,
                lat: float) -> bool:
        """Whether a search from source, on settling u, would push v across
        a new link of latency lat, and so may route v, and what lies beyond
        it, another way.

        u must be settled, and v must be enterable: up, or the source,
        whose own flag the search never checks. The comparison is <=, not
        <: an equal-latency entry for v can still win its tie. An
        unreached v counts as infinitely far.
        """
        du = latency.get(u)
        return (du is not None and (v == source or self.nodes[v].up)
                and du + lat <= latency.get(v, math.inf))

    # -- routing ---------------------------------------------------------------

    def shortest_path(self, a: str, b: str) -> list[Link]:
        """Minimum-latency path over up links between up nodes, as a link list.

        Empty list when a == b. Raises Unreachable when no up path exists.
        Of equal-latency paths, the first one the search finds wins (see
        _route_tree). Answers come from a cached shortest-path tree per
        source; the returned list is the caller's own.
        """
        tree = self._route(a)[0]
        if b not in tree:
            self.node(b)
            raise errors.Unreachable(f"{a} -> {b}")
        path = []
        while (link := tree[b]) is not None:
            path.append(link)
            b = link.other_end(b)
        path.reverse()
        return path

    def path_latency(self, a: str, b: str) -> float:
        """Shortest-path latency in ms over up links; 0 when a == b.

        It is the latency the search settled b at: the path's link latencies
        added in path order, starting from 0.
        """
        latency = self.path_latency_or_inf(a, b)
        if latency == math.inf:
            raise errors.Unreachable(f"{a} -> {b}")
        return latency

    def path_latency_or_inf(self, a: str, b: str) -> float:
        """path_latency, but math.inf when no up path exists."""
        latency = self._route(a)[1].get(b)
        if latency is None:
            self.node(b)
            return math.inf
        return latency

    def _route(self, a: str) -> tuple[dict[str, Link | None], dict[str, float]]:
        entry = self._routes.get(a)
        if entry is None:
            self.node(a)
            entry = self._routes[a] = self._route_tree(a)
        return entry

    def _route_tree(self, a: str) -> tuple[dict[str, Link | None], dict[str, float]]:
        """The shortest-path tree from a over up elements: the last link of
        the path to every reached node (None for a), and the latency each
        reached node was settled at.

        Dijkstra that settles nodes in (latency, path node ids) order and
        scans a settled node's links in the order they were added. The
        source's own up flag is never checked. A node's path is replaced
        only by a strictly shorter one, so of equal-latency paths the one
        through the earliest-settled predecessor wins, not the one whose
        node ids sort first: with links s-a 1, a-z 2, a-b 1 and b-z 1, z is
        reached by s, a, z. Each node's path is the one on its first pop;
        pop order does not depend on a target, so it is the path a search
        stopping there returns.
        """
        tree: dict[str, Link | None] = {}
        best: dict[str, float] = {a: 0}
        nodes, adjacency = self.nodes, self._adjacency
        heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf
        heap: list[tuple[float, tuple[str, ...], str, Link | None]] = [
            (0, (a,), a, None)]
        while heap:
            dist, path_nodes, here, last = heappop(heap)
            if here in tree:
                continue
            tree[here] = last
            for link, nxt in adjacency[here]:
                if not link.up or not nodes[nxt].up:
                    continue
                ndist = dist + link.latency_ms
                if ndist < best.get(nxt, inf):
                    best[nxt] = ndist
                    heappush(heap, (ndist, path_nodes + (nxt,), nxt, link))
        # pushes for a node only lower best, and its last push is its first
        # pop, so best holds the settled latency of every reached node
        return tree, best

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
