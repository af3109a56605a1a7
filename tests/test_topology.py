from __future__ import annotations

import functools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim.topology import ResourceVector, Tier, Topology

from oracles import (all_pairs_latency, brute_force_latency, reference_nearest_edge,
                     reference_settle_order, reference_shortest_path)

MB = ResourceVector


def test_add_node_reference_hardware_profiles(three_tier):
    gw = three_tier.node("gw1")
    assert gw.capacity.mem == 1024 and gw.capacity.storage == 16384
    edge = three_tier.node("edge1")
    assert edge.capacity.mem == 16384 and edge.capacity.storage == 491520


def test_add_node_rejects_zero_capacity():
    topo = Topology()
    with pytest.raises(errors.ValidationError, match="^n: capacities must be >= 1e-9 "):
        topo.add_node("n", Tier.GATEWAY, 100, 0, 100)
    # would round to 0 in the vector
    with pytest.raises(errors.ValidationError, match="^n: capacities must be >= 1e-9 "):
        topo.add_node("n", Tier.GATEWAY, 100, 1e-10, 100)


def test_add_node_duplicate(three_tier):
    with pytest.raises(errors.ValidationError, match="^duplicate node id gw1$"):
        three_tier.add_node("gw1", Tier.GATEWAY, 1, 1, 1)


def test_add_link_validation(three_tier):
    with pytest.raises(errors.ValidationError, match="^a self-loop at gw1$"):
        three_tier.add_link("gw1", "gw1", 1, 10)
    with pytest.raises(errors.ValidationError,
                       match="^gw1-cloud: bandwidth must be > 0$"):
        three_tier.add_link("gw1", "cloud", 1, 0)
    with pytest.raises(errors.UnknownNode):
        three_tier.add_link("gw1", "nope", 1, 10)
    link_id = three_tier.add_link("gw1", "cloud", 30, 10)
    assert three_tier.links[link_id].up


def test_path_latency_identity(three_tier):
    assert three_tier.path_latency_or_inf("gw1", "gw1") == 0


def test_path_latency_two_hops(three_tier):
    assert three_tier.path_latency_or_inf("gw1", "cloud") == 22


def test_set_link_up_reports_a_change(three_tier):
    assert three_tier.set_link_up("edge1--cloud", False) is True
    assert three_tier.set_link_up("edge1--cloud", False) is False
    assert not three_tier.links["edge1--cloud"].up
    assert three_tier.path_latency_or_inf("gw1", "cloud") == math.inf
    assert three_tier.set_link_up("edge1--cloud", True) is True
    assert three_tier.set_link_up("edge1--cloud", True) is False
    assert three_tier.path_latency_or_inf("gw1", "cloud") == 22
    with pytest.raises(errors.UnknownTarget):
        three_tier.set_link_up("nope", False)


def test_set_node_up_reports_a_change(three_tier):
    assert three_tier.set_node_up("edge1", False) is True
    assert three_tier.set_node_up("edge1", False) is False
    assert not three_tier.nodes["edge1"].up
    assert three_tier.path_latency_or_inf("gw1", "cloud") == math.inf
    assert three_tier.set_node_up("edge1", True) is True
    assert three_tier.set_node_up("edge1", True) is False
    with pytest.raises(errors.UnknownNode):
        three_tier.set_node_up("nope", False)


def test_links_at_lists_incident_links(three_tier):
    assert three_tier.links_at("edge1") == ("gw1--edge1", "gw2--edge1",
                                            "edge1--cloud")
    assert three_tier.links_at("cloud") == ("edge1--cloud",)
    with pytest.raises(errors.UnknownNode):
        three_tier.links_at("nope")


def test_path_latency_partition(three_tier):
    three_tier.set_link_up("edge1--cloud", False)
    assert three_tier.path_latency_or_inf("gw1", "cloud") == math.inf


def test_reserve_release_roundtrip(three_tier):
    three_tier.reserve("gw1", MB(0, 512, 0))
    assert three_tier.node("gw1").allocated == MB(0, 512, 0)
    three_tier.release("gw1", MB(0, 512, 0))
    assert three_tier.node("gw1").allocated == MB(0, 0, 0)


def test_reserve_all_or_nothing(three_tier):
    with pytest.raises(errors.InsufficientCapacity):
        three_tier.reserve("gw1", MB(0, 2048, 0))
    assert three_tier.node("gw1").allocated == MB(0, 0, 0)


def test_reserve_zero_vector_is_noop(three_tier):
    three_tier.reserve("gw1", MB())
    assert three_tier.node("gw1").allocated == MB(0, 0, 0)


def test_release_underflow(three_tier):
    with pytest.raises(errors.ReleaseUnderflow):
        three_tier.release("gw1", MB(0, 1, 0))


def test_utilization_is_bottleneck_fraction(three_tier):
    assert three_tier.node("gw1").utilization() == 0.0
    three_tier.reserve("gw1", MB(0, 512, 0))
    assert three_tier.node("gw1").utilization() == 0.5
    three_tier.reserve("gw1", MB(4000, 512, 16384))
    assert three_tier.node("gw1").utilization() == 1.0


def test_utilization_unknown_node(three_tier):
    with pytest.raises(errors.UnknownNode):
        three_tier.node("nope").utilization()


# --- properties ------------------------------------------------------------

def _random_graph(seed: int) -> Topology:
    rng = random.Random(seed)
    topo = Topology()
    n = rng.randint(2, 8)
    for i in range(n):
        topo.add_node(f"n{i}", Tier.EDGE_MODULE, 1000, 1000, 1000)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                topo.add_link(f"n{i}", f"n{j}", rng.randint(1, 50), 100)
    return topo


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_path_latency_matches_bruteforce_and_is_metric(seed):
    topo = _random_graph(seed)
    oracle = all_pairs_latency(topo)
    ids = sorted(topo.nodes)
    for a in ids:
        for b in ids:
            assert topo.path_latency_or_inf(a, b) == oracle[(a, b)]
            # symmetry
            assert oracle[(a, b)] == oracle[(b, a)]
    # triangle inequality
    for a in ids:
        for b in ids:
            for c in ids:
                assert oracle[(a, c)] <= oracle[(a, b)] + oracle[(b, c)]


# a few repeated float latencies, so equal-latency ties and float sums
# such as 0.1 + 0.2 != 0.3 both occur
_LATENCIES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.5, 2.25, 7.0])


@st.composite
def _small_graphs(draw, max_nodes=6, min_links=0, max_links=12):
    n = draw(st.integers(2, max_nodes))
    topo = Topology()
    tiers = st.sampled_from([Tier.EDGE_MODULE, Tier.GATEWAY])
    for i in range(n):
        topo.add_node(f"n{i}", draw(tiers), 1000, 1000, 1000)
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    for k, (i, j) in enumerate(draw(st.lists(ends, min_size=min_links,
                                             max_size=max_links))):
        # explicit ids allow parallel links between one pair
        topo.add_link(f"n{i}", f"n{j}", draw(_LATENCIES), 100, link_id=f"l{k}")
    return topo


def _flip(topo, kind, element_id):
    """Take an up link or node down, or bring a down one up."""
    if kind == "link":
        topo.set_link_up(element_id, not topo.links[element_id].up)
    else:
        topo.set_node_up(element_id, not topo.nodes[element_id].up)


@st.composite
def _graph_and_flips(draw):
    """A graph of at least four links and flips of its links' and nodes'
    states: every flip changes the graph, so every one can invalidate a
    cached search."""
    topo = draw(_small_graphs(min_links=4))
    elements = [("link", lid) for lid in topo.links] + \
               [("node", nid) for nid in topo.nodes]
    return topo, draw(st.lists(st.sampled_from(elements), min_size=4, max_size=24))


def _assert_routes_match_fresh_search(topo):
    ids = sorted(topo.nodes)
    for a in ids:
        for b in ids:
            try:
                expected = [l.link_id for l in reference_shortest_path(topo, a, b)]
            except errors.Unreachable:
                expected = None
            try:
                path = topo.shortest_path(a, b)
            except errors.Unreachable:
                assert expected is None
                assert topo.path_latency_or_inf(a, b) == math.inf
            else:
                assert [l.link_id for l in path] == expected
                # added in path order; sum() compensates since Python 3.12
                assert topo.path_latency_or_inf(a, b) == functools.reduce(
                    operator.add, (l.latency_ms for l in path), 0)
                # the returned list is the caller's: mutating it changes nothing
                path.reverse()
                path.append(None)
                assert [l.link_id for l in topo.shortest_path(a, b)] == expected
            assert topo.path_latency_or_inf(a, b) == brute_force_latency(topo, a, b)
        if topo.nodes[a].tier is Tier.GATEWAY:
            # read from a's cached search, as the scan finds it afresh
            assert topo.nearest_edge_module(a) == reference_nearest_edge(topo, a)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_graph_and_flips())
def test_cached_routes_match_a_fresh_search_after_every_change(case):
    topo, flips = case
    _assert_routes_match_fresh_search(topo)
    for kind, element_id in flips:
        _flip(topo, kind, element_id)
        _assert_routes_match_fresh_search(topo)


@st.composite
def _graph_and_operations(draw):
    """A graph and a mix of single queries and flips of a link's or a
    node's state, so that searches are still partial when a change comes."""
    topo = draw(_small_graphs(max_nodes=8, min_links=6, max_links=14))
    ids = sorted(topo.nodes)
    queries = st.tuples(st.sampled_from(["path", "latency", "nearest"]),
                        st.sampled_from(ids), st.sampled_from(ids))
    flips = st.sampled_from([("link", lid) for lid in topo.links]
                            + [("node", nid) for nid in topo.nodes])
    return topo, draw(st.lists(st.one_of(queries, flips), min_size=10, max_size=40))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_graph_and_operations())
def test_partial_searches_answer_as_a_fresh_search_between_changes(case):
    topo, operations = case
    for operation in operations:
        if len(operation) == 2:
            _flip(topo, *operation)
            continue
        query, a, b = operation
        if query == "nearest":
            assert topo.nearest_edge_module(a) == reference_nearest_edge(topo, a)
        elif query == "latency":
            assert topo.path_latency_or_inf(a, b) == brute_force_latency(topo, a, b)
        else:
            try:
                expected = [l.link_id for l in reference_shortest_path(topo, a, b)]
            except errors.Unreachable:
                with pytest.raises(errors.Unreachable):
                    topo.shortest_path(a, b)
            else:
                assert [l.link_id for l in topo.shortest_path(a, b)] == expected


def _run_query(topo, query, a, b):
    if query == "nearest":
        topo.nearest_edge_module(a)
    elif query == "latency":
        topo.path_latency_or_inf(a, b)
    else:
        try:
            topo.shortest_path(a, b)
        except errors.Unreachable:
            pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_graph_and_operations())
def test_cached_searches_settle_in_the_reference_order(case):
    """The trace follows the order in which searches settle nodes, not only
    their answers: after every query or flip, each cached search has
    settled a prefix of the nodes an eager search on the current graph
    settles, in the same order and each through the same last link."""
    topo, operations = case
    for operation in operations:
        if len(operation) == 2:
            _flip(topo, *operation)
        else:
            _run_query(topo, *operation)
        for source, search in topo._routes.items():
            settled = [(nid, link and link.link_id) for nid, link in search.tree.items()]
            assert settled == reference_settle_order(topo, source)[:len(settled)]


def test_a_near_query_leaves_the_far_nodes_unsettled():
    # a chain n0 - n1 - ... - n7 with an edge module at each end
    ids = [f"n{i}" for i in range(8)]
    topo = Topology()
    for nid in ids:
        tier = Tier.EDGE_MODULE if nid in ("n0", "n7") else Tier.GATEWAY
        topo.add_node(nid, tier, 1000, 1000, 1000)
    for a, b in zip(ids, ids[1:]):
        topo.add_link(a, b, 1.0, 100)
    assert topo.path_latency_or_inf("n2", "n3") == 1.0
    search = topo._routes["n2"]
    # n2 settled first, then n1 and n3 at 1 ms; these two are held, their
    # links unscanned, so n0 and n4 are not reached yet
    assert list(search.tree) == ["n2", "n1", "n3"]
    assert [path[-1] for _, path in search.held] == ["n1", "n3"]
    assert search.held_min == 2.0
    assert set(search.best) == {"n1", "n2", "n3"}
    assert topo.nearest_edge_module("n2") == "n0"
    assert "n5" not in search.tree and "n7" not in search.best
    assert topo.path_latency_or_inf("n2", "n7") == 5.0
    assert list(search.tree) == ["n2", "n1", "n3", "n0", "n4", "n5", "n6", "n7"]


def test_queries_from_a_gateway_to_every_edge_reach_no_other_edge_s_gateways():
    """A cloud with four edges of four gateways each: settling an edge
    holds it, and the next edge pops before any held edge's gateway could,
    so no gateway under another edge is ever pushed."""
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 1000, 1000, 1000)
    edges = [f"e{i}" for i in range(4)]
    for edge in edges:
        topo.add_node(edge, Tier.EDGE_MODULE, 1000, 1000, 1000)
        topo.add_link("cloud", edge, 20, 100)
        for j in range(4):
            topo.add_node(f"{edge}g{j}", Tier.GATEWAY, 1000, 1000, 1000)
            topo.add_link(edge, f"{edge}g{j}", 2, 100)
    for edge in edges:
        assert topo.path_latency_or_inf("e0g0", edge) == (2 if edge == "e0" else 42)
    search = topo._routes["e0g0"]
    assert set(search.tree) == {"e0g0", "e0", "e0g1", "e0g2", "e0g3", "cloud", *edges}
    assert not any(nid in search.best for edge in edges[1:]
                   for nid in topo.nodes if nid.startswith(f"{edge}g"))
    assert topo.path_latency_or_inf("e0g0", "e3g3") == 44
    assert "e1g0" in search.best


def test_equal_latency_tie_goes_to_the_smaller_hop_node_ids():
    # s-b-y-t and s-c-x-t both take 3 ms; [s, b, y] sorts before [s, c, x]
    # although x sorts before y
    topo = Topology()
    for nid in ("s", "b", "c", "x", "y", "t"):
        topo.add_node(nid, Tier.EDGE_MODULE, 1000, 1000, 1000)
    for a, b in (("s", "c"), ("c", "x"), ("x", "t"),
                 ("s", "b"), ("b", "y"), ("y", "t")):
        topo.add_link(a, b, 1.0, 100)
    expected = ["s--b", "b--y", "y--t"]
    assert [l.link_id for l in reference_shortest_path(topo, "s", "t")] == expected
    assert [l.link_id for l in topo.shortest_path("s", "t")] == expected


def test_equal_latency_tie_goes_to_the_path_found_first():
    # s-a-z and s-a-b-z both take 3 ms; [s, a, b, z] sorts first, but s-a-z
    # is found when a settles, and b's equal-latency path does not replace it
    topo = Topology()
    for nid in ("s", "a", "b", "z"):
        topo.add_node(nid, Tier.EDGE_MODULE, 1000, 1000, 1000)
    for a, b, latency in (("s", "a", 1.0), ("a", "z", 2.0),
                          ("a", "b", 1.0), ("b", "z", 1.0)):
        topo.add_link(a, b, latency, 100)
    expected = ["s--a", "a--z"]
    assert [l.link_id for l in reference_shortest_path(topo, "s", "z")] == expected
    assert [l.link_id for l in topo.shortest_path("s", "z")] == expected


def test_held_nodes_are_scanned_in_settle_order():
    # s-a-z and s-b-z both take 6 ms; a and b are both held when z is
    # first needed, and a, settled first, must push z first
    topo = Topology()
    for nid in ("s", "a", "b", "z"):
        topo.add_node(nid, Tier.EDGE_MODULE, 1000, 1000, 1000)
    for a, b, latency in (("s", "a", 2.0), ("s", "b", 3.0),
                          ("a", "z", 4.0), ("b", "z", 3.0)):
        topo.add_link(a, b, latency, 100)
    assert topo.path_latency_or_inf("s", "b") == 3.0
    assert [path[-1] for _, path in topo._routes["s"].held] == ["a", "b"]
    expected = ["s--a", "a--z"]
    assert [l.link_id for l in reference_shortest_path(topo, "s", "z")] == expected
    assert [l.link_id for l in topo.shortest_path("s", "z")] == expected


def test_adding_elements_drops_cached_routes(three_tier):
    assert three_tier.path_latency_or_inf("gw1", "cloud") == 22
    three_tier.add_link("gw1", "cloud", 5, 100)
    assert three_tier.path_latency_or_inf("gw1", "cloud") == 5
    three_tier.add_node("edge2", Tier.EDGE_MODULE, 8000, 16384, 491520)
    three_tier.add_link("edge2", "gw1", 1, 100)
    assert three_tier.path_latency_or_inf("gw1", "edge2") == 1


def _graph(nodes, links):
    """Edge modules `nodes`, and links (a, b, latency) with ids a--b."""
    topo = Topology()
    for nid in nodes:
        topo.add_node(nid, Tier.EDGE_MODULE, 1000, 1000, 1000)
    for a, b, latency in links:
        topo.add_link(a, b, latency, 100)
    return topo


def _route_ids(topo, a, b):
    return [l.link_id for l in topo.shortest_path(a, b)]


def test_equal_latency_link_coming_up_takes_over_the_route():
    # with a--z down, z is reached by s, a, b, z at 3 ms; a--z brings
    # s, a, z at the same 3 ms, found first since a settles before b
    topo = _graph("sabz", [("s", "a", 1.0), ("a", "z", 2.0),
                           ("a", "b", 1.0), ("b", "z", 1.0)])
    topo.set_link_up("a--z", False)
    assert _route_ids(topo, "s", "z") == ["s--a", "a--b", "b--z"]
    topo.set_link_up("a--z", True)
    assert _route_ids(topo, "s", "z") == ["s--a", "a--z"]


@pytest.mark.parametrize("source, target", [("s", "t"), ("t", "s")])
def test_link_going_down_drops_the_trees_that_cross_it_either_way(source, target):
    # s--x is entered at x from s and at s from t: a tree holds it as the
    # last link of the path to either of its ends
    topo = _graph("sxyt", [("s", "x", 1.0), ("x", "t", 1.0),
                           ("s", "y", 2.0), ("y", "t", 2.0)])
    assert "s--x" in _route_ids(topo, source, target)
    topo.set_link_up("s--x", False)
    assert topo.path_latency_or_inf(source, target) == 4.0
    assert "s--x" not in _route_ids(topo, source, target)


def test_node_going_down_drops_the_trees_that_reach_it():
    topo = _graph("sxyt", [("s", "x", 1.0), ("x", "t", 1.0),
                           ("s", "y", 2.0), ("y", "t", 2.0)])
    assert _route_ids(topo, "s", "t") == ["s--x", "x--t"]
    topo.set_node_up("x", False)
    assert _route_ids(topo, "s", "t") == ["s--y", "y--t"]
    with pytest.raises(errors.Unreachable):
        topo.shortest_path("s", "x")


@pytest.mark.parametrize("set_up, element", [("set_link_up", "s--t"),
                                             ("set_node_up", "t")],
                         ids=["link", "neighbour"])
def test_a_down_source_reaches_nothing_until_it_comes_up(set_up, element):
    """A link or neighbour coming up at a down source brings back no route,
    not even to the source itself; the source coming up does."""
    topo = _graph("st", [("s", "t", 1.0)])
    topo.set_node_up("s", False)
    getattr(topo, set_up)(element, False)
    getattr(topo, set_up)(element, True)
    for target in ("s", "t"):
        with pytest.raises(errors.Unreachable):
            topo.shortest_path("s", target)
        assert topo.path_latency_or_inf("s", target) == math.inf
    topo.set_node_up("s", True)
    assert _route_ids(topo, "s", "t") == ["s--t"]
    assert topo.path_latency_or_inf("s", "s") == 0


def test_changes_no_cached_tree_can_feel_keep_every_tree():
    # l1 runs beside s--a but is slower, so no tree uses it; x and y are
    # reached from neither cached source
    topo = _graph("saxy", [("s", "a", 1.0)])
    topo.add_link("s", "a", 2.0, 100, link_id="l1")
    topo.add_link("x", "y", 1.0, 100)
    topo.set_link_up("x--y", False)
    assert _route_ids(topo, "s", "a") == ["s--a"]
    assert _route_ids(topo, "a", "s") == ["s--a"]
    cached = dict(topo._routes)
    assert set(cached) == {"s", "a"}
    topo.set_link_up("l1", False)
    topo.set_link_up("x--y", True)
    assert topo._routes.keys() == cached.keys()
    assert all(topo._routes[source] is cached[source] for source in cached)
    assert _route_ids(topo, "s", "a") == ["s--a"]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_link_down_never_shortens_paths(seed):
    topo = _random_graph(seed)
    if not topo.links:
        return
    before = all_pairs_latency(topo)
    rng = random.Random(seed + 1)
    victim = rng.choice(sorted(topo.links))
    topo.links[victim].up = False
    after = all_pairs_latency(topo)
    assert all(after[pair] >= before[pair] for pair in before)


def test_window_maps_are_shared_until_an_allocation_changes(three_tier):
    util, alloc = three_tier.utilization_snapshot(), three_tier.alloc_snapshot()
    assert list(util) == list(alloc) == sorted(three_tier.nodes)
    assert three_tier.utilization_snapshot() is util
    assert three_tier.alloc_snapshot() is alloc
    three_tier.reserve("gw1", MB(1000 / 3, 0, 0))
    new_util, new_alloc = three_tier.utilization_snapshot(), three_tier.alloc_snapshot()
    assert new_util["gw1"] == 0.083333333 and util["gw1"] == 0.0
    assert new_alloc["gw1"] == {"cpu": 333.333333333, "mem": 0.0, "storage": 0.0}
    assert alloc["gw1"]["cpu"] == 0.0
    # what did not change is shared with the maps before
    assert new_alloc["edge1"] is alloc["edge1"]
    assert list(new_util) == list(new_alloc) == sorted(three_tier.nodes)
    three_tier.release("gw1", MB(1000 / 3, 0, 0))
    assert three_tier.utilization_snapshot() == util
    assert three_tier.alloc_snapshot() == alloc


def test_a_node_added_after_a_snapshot_joins_the_maps_in_sorted_order(three_tier):
    util, alloc = three_tier.utilization_snapshot(), three_tier.alloc_snapshot()
    three_tier.add_node("edge0", Tier.EDGE_MODULE, 8000, 16384, 491520)
    three_tier.reserve("gw1", MB(500, 0, 0))
    new_util, new_alloc = three_tier.utilization_snapshot(), three_tier.alloc_snapshot()
    assert list(new_util) == list(new_alloc) == sorted(three_tier.nodes)
    assert new_util["edge0"] == 0.0 and new_util["gw1"] == 0.125
    assert new_alloc["edge0"] == {"cpu": 0.0, "mem": 0.0, "storage": 0.0}
    # every entry that did not change is shared with the maps before
    assert all(new_alloc[nid] is alloc[nid] for nid in alloc if nid != "gw1")
    assert new_alloc["gw1"] is not alloc["gw1"]
    # the next rebuild adds no node, and keeps the order
    three_tier.reserve("cloud", MB(1, 0, 0))
    assert list(three_tier.utilization_snapshot()) == sorted(three_tier.nodes)
    assert list(three_tier.alloc_snapshot()) == sorted(three_tier.nodes)
    assert list(util) == list(alloc) == ["cloud", "edge1", "gw1", "gw2"]


def test_nodes_of_a_tier_are_sorted_and_follow_added_nodes(three_tier):
    assert three_tier.nodes_of(Tier.EDGE_MODULE) == ("edge1",)
    three_tier.add_node("edge0", Tier.EDGE_MODULE, 8000, 16384, 491520)
    assert three_tier.nodes_of(Tier.EDGE_MODULE) == ("edge0", "edge1")
    assert three_tier.nodes_of(Tier.CENTRAL_CLOUD) == ("cloud",)
    assert three_tier.nodes_of(Tier.GATEWAY) == ("gw1", "gw2")


@settings(max_examples=50, deadline=None)
@given(cpu=st.integers(0, 1000), mem=st.integers(0, 1000),
       storage=st.integers(0, 1000))
def test_reserve_release_is_exact_inverse(cpu, mem, storage):
    topo = Topology()
    topo.add_node("n", Tier.EDGE_MODULE, 1000, 1000, 1000)
    demand = ResourceVector(cpu, mem, storage)
    topo.reserve("n", demand)
    topo.release("n", demand)
    assert topo.node("n").allocated == ResourceVector(0, 0, 0)


# one-decimal cpu demands and the order in which they are released
_tenths_and_release_order = st.lists(st.integers(1, 99), min_size=1, max_size=6).flatmap(
    lambda tenths: st.tuples(st.just(tenths), st.permutations(range(len(tenths)))))


@settings(max_examples=100, deadline=None)
@example(([42, 38, 21, 13], [0, 2, 1, 3]))
@given(case=_tenths_and_release_order)
def test_fractional_demands_release_in_any_order_to_exactly_zero(case):
    tenths, order = case
    topo = Topology()
    topo.add_node("n", Tier.EDGE_MODULE, 1000, 1000, 1000)
    demands = [ResourceVector(t / 10, 0, 0) for t in tenths]
    for demand in demands:
        topo.reserve("n", demand)
    for i in order:
        topo.release("n", demands[i])
    assert topo.node("n").allocated == ResourceVector(0, 0, 0)
