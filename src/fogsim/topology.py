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
from .kernel import Revision


class Tier(str, Enum):
    CENTRAL_CLOUD = "CentralCloud"
    EDGE_MODULE = "EdgeModule"
    GATEWAY = "Gateway"


_EDGE_MODULES = frozenset({Tier.EDGE_MODULE})


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

    def fraction_with(self, demand: "ResourceVector",
                      capacity: "ResourceVector") -> float | None:
        """`(self + demand).bottleneck_fraction(capacity)`, or None where
        `self + demand` does not fit within `capacity`, without building the
        sum: its components are rounded as `__post_init__` rounds them."""
        cpu = round(self.cpu + demand.cpu, 9)
        mem = round(self.mem + demand.mem, 9)
        storage = round(self.storage + demand.storage, 9)
        if cpu > capacity.cpu or mem > capacity.mem or storage > capacity.storage:
            return None
        return max(cpu / capacity.cpu, mem / capacity.mem, storage / capacity.storage)


@dataclass
class Node:
    """A compute node. `capacity` and `allocated` are ResourceVectors;
    `allocated` changes only through Topology.reserve and release, which
    mark the node's metrics-window entries stale and note it for the
    scheduler's hot set. `up` is written only
    through Topology.set_node_up, which drops the cached searches that the
    change can alter."""

    node_id: str
    tier: Tier
    capacity: ResourceVector
    allocated: ResourceVector = ResourceVector()
    up: bool = True

    def fits(self, demand: ResourceVector) -> bool:
        """Whether `demand` fits beside the allocation: the one capacity rule."""
        return self.allocated.fraction_with(demand, self.capacity) is not None

    def utilization(self) -> float:
        """Bottleneck utilization: the largest per-resource allocated fraction."""
        return self.allocated.bottleneck_fraction(self.capacity)


@dataclass
class Link:
    """An undirected link. `up` is written only through Topology.set_link_up,
    which drops the cached searches that the change can alter."""

    link_id: str
    a: str
    b: str
    latency_ms: float
    bandwidth_mbps: float
    up: bool = True

    def other_end(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a


class _Search:
    """A shortest-path search from one source, grown only as far as the
    queries on it have needed (see Topology._settle):

    - tree: settled node -> last link of its path (None for the source),
      in settle order;
    - best: reached node, settled or pending -> the least latency pushed
      for it, final once it settles;
    - via: reached node -> the link of that push (None for the source);
    - heap: pending (latency, path node ids) entries, holding no objects
      the garbage collector tracks; the node is the path's last id;
    - held: the popped entries of the settled nodes whose links are not
      scanned yet, in settle order, a suffix of tree;
    - held_min: the least latency a held node could push a neighbour at,
      its latency plus its shortest link's; inf when none is held.

    All but held_min are empty for a down source."""

    __slots__ = ("tree", "best", "via", "heap", "held", "held_min")

    def __init__(self, source: str, up: bool):
        self.tree: dict[str, Link | None] = {}
        self.best: dict[str, float] = {source: 0} if up else {}
        self.via: dict[str, Link | None] = {source: None} if up else {}
        self.heap: list[tuple[float, tuple[str, ...]]] = [(0, (source,))] if up else []
        self.held: list[tuple[float, tuple[str, ...]]] = []
        self.held_min = math.inf


@dataclass
class Topology:
    """Mutable node/link graph. Routes come from one cached search per
    source, grown only until it answers the query at hand: shortest_path
    for a path, path_latency_or_inf for a latency, nearest for the nearest
    node of some tiers that a caller accepts. A search scans a settled
    node's links only once a later pop needs them (see _settle). Up/down
    state changes only through set_link_up and set_node_up, which drop the
    searches whose settled or pending nodes their change can alter, while
    add_node and add_link drop them all; take_dropped names the sources
    dropped since it last ran. Allocations change only through reserve and
    release, which mark the node whose metrics-window entries must be
    rebuilt (see utilization_snapshot) and note it for take_reallocated,
    from which the scheduler keeps its set of edge modules over the high
    watermark: a tick in which no allocation changed tests no node."""

    nodes: dict[str, Node] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    # node -> its links in the order they were added, each with its other end
    _adjacency: dict[str, list[tuple[Link, str]]] = field(default_factory=dict)
    # node -> the least latency of its links, up or down; inf with none
    _shortest_link: dict[str, float] = field(default_factory=dict)
    # source -> its search, grown as far as queries have needed
    _routes: dict[str, _Search] = field(
        default_factory=dict, repr=False, compare=False)
    # sources whose searches were dropped since take_dropped last ran
    _dropped: set[str] = field(default_factory=set, repr=False, compare=False)
    # tier -> its sorted node ids, built on first use; tiers never change
    _tiers: dict[Tier, tuple[str, ...]] | None = field(
        default=None, repr=False, compare=False)
    # set of tiers -> the ids of their nodes, built on first use by nearest
    _members_of: dict[frozenset[Tier], frozenset[str]] = field(
        default_factory=dict, repr=False, compare=False)
    # metrics-window maps, by node id: utilization rounded to the trace's
    # 9 places, and the allocation's components. Both are rebuilt as new
    # revisions, never updated in place, once a node in _stale changed.
    _stale: set[str] = field(default_factory=set, repr=False, compare=False)
    _utilization: Revision = field(
        default_factory=Revision, repr=False, compare=False)
    _alloc: Revision = field(
        default_factory=Revision, repr=False, compare=False)
    # nodes whose allocation changed since take_reallocated last ran; a node
    # is added with none allocated, so it is noted only once it has some
    _reallocated: set[str] = field(default_factory=set, repr=False, compare=False)

    # -- construction --------------------------------------------------------

    def add_node(self, node_id: str, tier: Tier, cpu_capacity: float,
                 mem_capacity: float, storage_capacity: float) -> str:
        if node_id in self.nodes:
            raise errors.ValidationError(f"duplicate node id {node_id}")
        # below the 9-place precision of vectors and the trace, a capacity may round to 0
        if min(cpu_capacity, mem_capacity, storage_capacity) < 1e-9:
            raise errors.ValidationError(
                f"{node_id}: capacities must be >= 1e-9 "
                f"(cpu={cpu_capacity}, mem={mem_capacity}, storage={storage_capacity})")
        self.nodes[node_id] = Node(node_id, Tier(tier), ResourceVector(
            cpu_capacity, mem_capacity, storage_capacity))
        self._adjacency[node_id] = []
        self._shortest_link[node_id] = math.inf
        self._dropped.update(self._routes)
        self._routes.clear()
        self._tiers = None
        self._members_of.clear()
        self._stale.add(node_id)
        return node_id

    def add_link(self, a: str, b: str, latency_ms: float, bandwidth_mbps: float,
                 link_id: str | None = None) -> str:
        if a not in self.nodes:
            raise errors.UnknownNode(a)
        if b not in self.nodes:
            raise errors.UnknownNode(b)
        if a == b:
            raise errors.ValidationError(f"a self-loop at {a}")
        if bandwidth_mbps <= 0:
            raise errors.ValidationError(f"{a}-{b}: bandwidth must be > 0")
        if latency_ms < 0:
            raise errors.ValidationError(f"{a}-{b}: latency must be >= 0")
        if link_id is None:
            link_id = f"{a}--{b}"
        if link_id in self.links:
            raise errors.ValidationError(f"duplicate link id {link_id}")
        link = self.links[link_id] = Link(link_id, a, b, latency_ms, bandwidth_mbps)
        self._adjacency[a].append((link, b))
        self._adjacency[b].append((link, a))
        for end in (a, b):
            self._shortest_link[end] = min(self._shortest_link[end], latency_ms)
        self._dropped.update(self._routes)
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

    def nodes_of(self, tier: Tier) -> tuple[str, ...]:
        """Ids of the nodes of a tier, sorted."""
        if self._tiers is None:
            self._tiers = {t: tuple(sorted(nid for nid, node in self.nodes.items()
                                           if node.tier is t)) for t in Tier}
        return self._tiers[tier]

    def _members(self, tiers: frozenset[Tier]) -> frozenset[str]:
        """Ids of the nodes of a set of tiers."""
        members = self._members_of.get(tiers)
        if members is None:
            members = self._members_of[tiers] = frozenset(
                nid for tier in tiers for nid in self.nodes_of(tier))
        return members

    def links_at(self, node_id: str) -> tuple[str, ...]:
        """Ids of the links incident to a node, in the order they were added."""
        self.node(node_id)
        return tuple(link.link_id for link, _ in self._adjacency[node_id])

    # -- up/down state ---------------------------------------------------------

    def set_link_up(self, link_id: str, up: bool) -> bool:
        """Bring a link up or down; True when its state changed.

        Down, it drops the cached searches for which it is the best link of
        either end, settled or pending; it is compared by identity since
        parallel links join the same ends. Up, it drops a search that, on
        settling an end it has already settled, would have pushed the other
        end through it (see _pushes)."""
        link = self.link(link_id)
        changed = link.up != up
        if changed:
            link.up = up
            a, b, lat = link.a, link.b, link.latency_ms
            if up:
                self._drop_routes(lambda source, search:
                                  self._pushes(search, a, b, lat)
                                  or self._pushes(search, b, a, lat))
            else:
                self._drop_routes(lambda source, search:
                                  search.via.get(a) is link
                                  or search.via.get(b) is link)
        return changed

    def set_node_up(self, node_id: str, up: bool) -> bool:
        """Bring a node up or down; True when its state changed.

        Down, it drops the cached searches that have reached it, settled or
        pending. Up, it drops its own search and the searches that have
        settled one of its neighbours across an up link."""
        node = self.node(node_id)
        changed = node.up != up
        if changed:
            node.up = up
            if up:
                near = [nxt for link, nxt in self._adjacency[node_id] if link.up]
                self._drop_routes(lambda source, search: source == node_id
                                  or any(nid in search.tree for nid in near))
            else:
                self._drop_routes(lambda source, search: node_id in search.best)
        return changed

    def _drop_routes(self, alters) -> None:
        """Drop the cached searches for which alters(source, search) holds,
        and note their sources for take_dropped; every other search stays
        as the same object, and answers as a fresh search would."""
        kept = {}
        for source, search in self._routes.items():
            if alters(source, search):
                self._dropped.add(source)
            else:
                kept[source] = search
        self._routes = kept

    def take_dropped(self) -> set[str]:
        """The sources whose cached searches were dropped since the last
        call. Every other search cached then is the same object now, so a
        node it had settled keeps its path and latency, and a node it had
        found unreachable stays unreachable."""
        dropped, self._dropped = self._dropped, set()
        return dropped

    def _pushes(self, search: _Search, u: str, v: str, lat: float) -> bool:
        """Whether the search, on settling u, would push v across a new
        link of latency lat, and so may route v, and what lies beyond it,
        another way.

        Only a settled u can: an unsettled one scans its links, the new one
        included, when it settles. A held u, settled but not yet scanned,
        counts as settled, which may drop a search that did not need it
        but never keeps one that did. v must be up. The comparison is <=, not
        <: an equal-latency entry for v can still win its tie. An unreached
        v counts as infinitely far.
        """
        best = search.best
        return (u in search.tree and self.nodes[v].up
                and best[u] + lat <= best.get(v, math.inf))

    # -- routing ---------------------------------------------------------------

    def shortest_path(self, a: str, b: str) -> list[Link]:
        """Minimum-latency path over up links between up nodes, as a link list.

        Empty list when a == b and a is up. Raises Unreachable when no up
        path exists.
        Of equal-latency paths, the first one the search finds wins (see
        _settle). The search from a is cached and grown only until b
        settles; the returned list is the caller's own.
        """
        search = self._reach(a, b)
        if search is None:
            raise errors.Unreachable(f"{a} -> {b}")
        tree = search.tree
        path = []
        while (link := tree[b]) is not None:
            path.append(link)
            b = link.other_end(b)
        path.reverse()
        return path

    def path_latency_or_inf(self, a: str, b: str) -> float:
        """Shortest-path latency in ms over up links; 0 when a == b and a is
        up, and math.inf when no up path exists.

        It is the latency the search settled b at: the path's link latencies
        added in path order, starting from 0.
        """
        search = self._reach(a, b)
        return math.inf if search is None else search.best[b]

    def nearest_edge_module(self, gateway: str) -> str | None:
        """The edge module with the least path latency from a gateway, the
        smaller id on a tie; None when no edge module is reachable."""
        return self.nearest(gateway, _EDGE_MODULES, lambda nid: nid)

    def nearest(self, source: str, tiers: frozenset[Tier], rank,
                limit: float = math.inf) -> str | None:
        """The node of `tiers` with the least path latency from `source`,
        no more than `limit`, that `rank` accepts; None when there is none.
        rank(node id) is None to refuse a node, and of the accepted nodes
        at the least latency the one of least rank wins.

        The candidates are walked nearest first, in the order the source's
        search settles them, and the search grows only as far as the walk
        needs: until one is accepted at some latency d, and then while its
        next node lies no further than d, so every candidate at latency d
        is ranked and none beyond it is. rank must not query routes.
        """
        search = self._search(source)
        best = search.best
        members = self._members(tiers)
        chosen = chosen_rank = None
        for nid in search.tree:
            latency = best[nid]
            if latency > limit:
                return chosen
            if nid in members and (key := rank(nid)) is not None \
                    and (chosen is None or key < chosen_rank):
                chosen, chosen_rank, limit = nid, key, latency
        while (nid := self._settle(search, members, limit)) is not None:
            if (key := rank(nid)) is not None and (chosen is None or key < chosen_rank):
                chosen, chosen_rank, limit = nid, key, best[nid]
        return chosen

    def _search(self, a: str) -> _Search:
        search = self._routes.get(a)
        if search is None:
            self.node(a)
            search = self._routes[a] = _Search(a, self.nodes[a].up)
        return search

    def _reach(self, a: str, b: str) -> _Search | None:
        """The search from a, grown until b settles; None when b is
        unreachable from a."""
        search = self._search(a)
        if b not in search.tree and self._settle(search, (b,)) is None:
            self.node(b)
            return None
        return search

    def _settle(self, search: _Search, targets, limit: float = math.inf) -> str | None:
        """Grow the search until a node in `targets` settles, and return it;
        None once no pending node lies within `limit`.

        Dijkstra that settles nodes in (latency, path node ids) order and
        scans a settled node's links in the order they were added. A node's
        path is replaced only by a strictly shorter one, so of equal-latency
        paths the one through the earliest-settled predecessor wins, not the
        one whose node ids sort first: with links s-a 1, a-z 2, a-b 1 and
        b-z 1, z is reached by s, a, z. Pop order does not depend on the
        targets, so a search grown in steps settles every node as one grown
        at once does. A pushed node's best latency only falls and its last
        push is its first pop, so the popped entry is the one that via
        names; later entries for a settled node are skipped.

        A settled node is held, its links not yet scanned, until the next
        pop could be one of the entries it would push: until held_min, the
        least latency a held node could push at, is no greater than the
        heap top's (or `limit`, or the heap is empty). Then every held node
        is scanned in settle order, reading the links and nodes as they are
        then. Each scan pushes what it would have pushed at settling, and no
        entry it pushes could have popped before, so the pops, and the
        earliest-settled predecessor's win, are those of a search that
        scans each node as it settles.
        """
        tree, best, via, heap, held = (search.tree, search.best, search.via,
                                       search.heap, search.held)
        held_min = search.held_min
        nodes, adjacency, shortest_link = self.nodes, self._adjacency, self._shortest_link
        heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf
        found = None
        while True:
            if held and held_min <= (heap[0][0] if heap else inf) and held_min <= limit:
                for dist, path_nodes in held:
                    for link, nxt in adjacency[path_nodes[-1]]:
                        if not link.up or not nodes[nxt].up:
                            continue
                        ndist = dist + link.latency_ms
                        if ndist < best.get(nxt, inf):
                            best[nxt] = ndist
                            via[nxt] = link
                            heappush(heap, (ndist, path_nodes + (nxt,)))
                held.clear()
                held_min = inf
            if not heap or heap[0][0] > limit:
                break
            entry = heappop(heap)
            dist, path_nodes = entry
            here = path_nodes[-1]
            if here in tree:
                continue
            tree[here] = via[here]
            held.append(entry)
            reach = dist + shortest_link[here]
            if reach < held_min:
                held_min = reach
            if here in targets:
                found = here
                break
        search.held_min = held_min
        return found

    # -- resource accounting ---------------------------------------------------

    def reserve(self, node_id: str, demand: ResourceVector) -> None:
        """Reserve a demand vector on a node, all-or-nothing."""
        node = self.node(node_id)
        if not node.fits(demand):
            raise errors.InsufficientCapacity(
                f"{node_id}: demand {demand} exceeds free "
                f"{node.capacity - node.allocated}")
        node.allocated = node.allocated + demand
        self._stale.add(node_id)
        self._reallocated.add(node_id)

    def release(self, node_id: str, demand: ResourceVector) -> None:
        node = self.node(node_id)
        if not demand.fits_within(node.allocated):
            raise errors.ReleaseUnderflow(
                f"{node_id}: release {demand} exceeds allocated {node.allocated}")
        node.allocated = node.allocated - demand
        self._stale.add(node_id)
        self._reallocated.add(node_id)

    def take_reallocated(self) -> set[str]:
        """The nodes whose allocation reserve or release changed since the
        last call."""
        reallocated, self._reallocated = self._reallocated, set()
        return reallocated

    # -- metrics-window maps ----------------------------------------------------

    def utilization_snapshot(self) -> dict[str, float]:
        """Every node's utilization by node id, sorted, rounded to 9 places.

        The map is shared: the same object is returned until an allocation
        changes, and trace records hold it, so it must never be mutated.
        A new map is a `Revision` of the one it replaces that names the
        nodes whose entries were rebuilt, or, once a node was added, one
        that replaces none.
        """
        if self._stale:
            self._rebuild_window_maps()
        return self._utilization

    def alloc_snapshot(self) -> dict[str, dict[str, float]]:
        """Every node's allocation by node id, sorted, as cpu/mem/storage.
        Shared and revised like utilization_snapshot's map; never mutate it
        or its entries."""
        if self._stale:
            self._rebuild_window_maps()
        return self._alloc

    def _rebuild_window_maps(self) -> None:
        """New maps that rebuild the entries of the stale nodes only and
        share every other entry with the maps they replace, each a revision
        of the map it replaces that names the stale ids. A copy keeps the
        sorted order of the ids it copies, and a stale entry keeps its
        place, so the ids are sorted again only where a node was added, in
        new maps that replace none."""
        stale, self._stale = self._stale, set()
        utilization = Revision(self._utilization, self._utilization.token, stale)
        alloc = Revision(self._alloc, self._alloc.token, stale)
        for nid in stale:
            node = self.nodes[nid]
            vec = node.allocated
            utilization[nid] = round(node.utilization(), 9)
            # vector components are already rounded to 9 places
            alloc[nid] = {"cpu": vec.cpu, "mem": vec.mem, "storage": vec.storage}
        if len(utilization) > len(self._utilization):
            ids = sorted(utilization)
            utilization = Revision({nid: utilization[nid] for nid in ids})
            alloc = Revision({nid: alloc[nid] for nid in ids})
        self._utilization = utilization
        self._alloc = alloc
