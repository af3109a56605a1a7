"""End-to-end acceptance gate.

Each test is one release criterion; the terminal summary prints a PASS/FAIL
line per criterion (see conftest). The criteria exercise the shipped fixture
scenarios plus randomized cross-checks against the brute-force oracles.
"""

from __future__ import annotations

import random
import time

import pytest

from fogsim import errors
from fogsim.catalog import AppKind
from fogsim.control import run_scenario, run_scenario_file
from fogsim.kernel import Trace
from fogsim.migration import transfer_duration
from fogsim.scenario import load_scenario, scenario_from_dict
from fogsim.scheduler import PlacementRequest, Scheduler
from fogsim.topology import Link

from fixture_paths import FIXTURES, SCENARIO_DIR
from oracles import brute_force_place, recompute_counters
from test_properties import random_world

ROAMING = SCENARIO_DIR / "roaming.yaml"
SCALING = SCENARIO_DIR / "scaling.yaml"
PARTITION = SCENARIO_DIR / "partition.yaml"


def assert_subsequence(expected, got):
    """Every expected item appears in `got`, in order (gaps allowed)."""
    it = iter(got)
    for item in expected:
        assert item in it, f"missing or out of order: {item}"


def test_criterion_1_roaming_storyboard():
    started = time.monotonic()
    trace, report = run_scenario_file(ROAMING)
    events = [(r.kind, r.subject, r.details) for r in trace]
    keys = [(r.kind, r.subject) for r in trace]
    assert_subsequence([
        ("attach", "wearable-1"),                     # device appears at gw1
        ("instance_placed", "life-signs-agent-1"),    # IoT-App installed
        ("flow_open", "flow-1"),                      # sensing flows to edge
        ("detach", "wearable-1"),                     # device leaves gw1
        ("attach", "wearable-1"),                     # ... and appears at gw2
        ("migration_started", "life-signs-agent-1"),  # app follows the device
        ("migration_completed", "life-signs-agent-1"),
        ("flow_resume", "flow-2"),                    # sensing continues at gw2
        ("roam_completed", "wearable-1"),
        ("status_update", "wearable-1"),              # central status notified
    ], keys)
    placed = next(d for k, s, d in events if k == "instance_placed")
    assert placed["host"] == "gw1"
    migration = next(d for k, s, d in events if k == "migration_completed")
    assert (migration["from"], migration["to"]) == ("gw1", "gw2")
    status = next(d for k, s, d in events if k == "status_update")
    assert status["gateway"] == "gw2"
    assert status["state_version"] == 1  # state survived the move unchanged
    # downtime * data rate is far below the buffer: nothing may be lost
    flow_windows = [r.details for r in trace if r.kind == "flow_window"]
    assert flow_windows, "no flow accounting in the trace"
    assert all(w["cum_dropped_mb"] == 0 for w in flow_windows)
    last = flow_windows[-1]
    assert last["cum_delivered_mb"] + last["buffered_mb"] == \
        pytest.approx(last["cum_generated_mb"])
    assert report.summary["total_loss_mb"] == 0
    assert time.monotonic() - started < 5


def test_criterion_2_scaling_storyboard():
    started = time.monotonic()
    trace, report = run_scenario_file(SCALING)
    # edge-hosted aggregation: a tenth of the raw data crosses the uplink
    ratios = [w["uplink_ratio"] for w in report.uplink_windows
              if w["uplink_ratio"] is not None]
    assert ratios, "no non-empty windows"
    assert all(abs(r - 0.100) <= 0.001 for r in ratios)
    offloads = [r for r in trace if r.kind == "offload"]
    defers = [r for r in trace if r.kind == "defer"]
    assert offloads or defers
    assert len(offloads) >= 1
    # after the offload the hot edge is back under the high watermark
    last_offload = offloads[-1]
    source = last_offload.details["from"]
    post = [r.details["utilization"][source] for r in trace
            if r.kind == "metrics_window" and r.time_ms > last_offload.time_ms]
    assert post and all(u <= 0.8 + 1e-9 for u in post)
    assert time.monotonic() - started < 5


def test_criterion_3_scheduler_matches_oracle():
    started = time.monotonic()
    # shipped fixtures: replay every scripted placement against the oracle
    for path in FIXTURES:
        scenario = load_scenario(path)
        topo = scenario.build_topology()
        catalog = scenario.build_catalog()
        scheduler = Scheduler(topo, catalog, scenario.thresholds)
        for entry in scenario.script:
            if entry["type"] != "place":
                continue
            app = catalog.app(entry["app"])
            replicas = int(entry.get("replicas", 1))
            expected = brute_force_place(topo, app, entry["source"], replicas)
            inst = scheduler.place(PlacementRequest(entry["app"],
                                                    entry["source"], replicas))
            assert inst.host == expected, f"{path.name}: {entry}"
    # 200 seeded random scenarios, <= 6 nodes, <= 4 requests each
    for seed in range(200):
        topo, catalog, source, rng = random_world(seed)
        scheduler = Scheduler(topo, catalog)
        app = catalog.app("app")
        for _ in range(rng.randint(1, 4)):
            expected = brute_force_place(topo, app, source, 1)
            if expected is None:
                with pytest.raises(errors.Unschedulable):
                    scheduler.place(PlacementRequest("app", source, 1))
                break
            assert scheduler.place(PlacementRequest("app", source, 1)).host \
                == expected, f"seed {seed}"
    assert time.monotonic() - started < 30


def test_criterion_4_determinism():
    for path in FIXTURES:
        hashes = {run_scenario_file(path)[0].hash() for _ in range(10)}
        assert len(hashes) == 1, f"{path.name} is not deterministic"


def test_criterion_5_conservation():
    for path in FIXTURES:
        trace, _ = run_scenario_file(path)
        replayed = Trace.from_jsonl(trace.to_jsonl())
        caps = next(r for r in replayed if r.kind == "scenario_loaded").details["nodes"]
        final_flow: dict[str, dict] = {}
        for record in replayed:
            if record.kind == "metrics_window":
                for node, alloc in record.details["alloc"].items():
                    for res in ("cpu", "mem", "storage"):
                        assert 0 <= alloc[res] <= caps[node][res], \
                            f"{path.name}: {node} {res} out of bounds"
            elif record.kind == "flow_window":
                d = record.details
                assert d["cum_generated_mb"] == pytest.approx(
                    d["cum_delivered_mb"] + d["cum_dropped_mb"] + d["buffered_mb"]
                ), f"{path.name}: {record.subject} leaks bytes"
                final_flow[record.subject] = d
        # independent re-accumulation of the per-window deltas
        for flow_id, acc in recompute_counters(replayed).items():
            d = final_flow[flow_id]
            for key in ("generated_mb", "delivered_mb", "dropped_mb"):
                assert acc[key] == pytest.approx(d[f"cum_{key}"]), \
                    f"{path.name}: {flow_id} {key} disagrees with replay"


def test_criterion_6_edge_autonomy_under_partition():
    trace, _ = run_scenario_file(PARTITION)
    start = next(r for r in trace if r.kind == "fault_start")
    end = next(r for r in trace if r.kind == "fault_end")
    assert start.details["fault_kind"] == "CloudPartition"
    in_partition = [r for r in trace
                    if start.time_ms < r.time_ms <= end.time_ms]
    # edge-hosted instances keep running and gateway->edge delivery continues
    windows = [r.details for r in in_partition if r.kind == "metrics_window"]
    assert windows
    for w in windows:
        assert all(s == "Running" for s in w["instances"].values())
        assert w["delivered_mb"] > 0
    # cloud coordination pauses: ticks are skipped, then replayed afterwards
    skipped = [r for r in trace
               if r.kind == "scheduler_tick" and r.details.get("skipped")]
    assert all(start.time_ms <= r.time_ms <= end.time_ms for r in skipped)
    replayed = [r for r in trace if r.kind == "scheduler_tick"
                and r.details.get("replayed")]
    assert len(skipped) == 60
    assert len(replayed) == len(skipped)
    assert all(r.time_ms >= end.time_ms for r in replayed)
    # nothing broke: cumulative uplink never exceeds what was generated
    mw = [r.details for r in trace if r.kind == "metrics_window"]
    total_up = sum(w["uplink_mb"] for w in mw)
    total_gen = sum(w["generated_mb"] for w in mw)
    assert 0 < total_up <= total_gen + 1e-9


def test_criterion_7_migration_cost_arithmetic():
    link = Link("l", "a", "b", latency_ms=2, bandwidth_mbps=100)
    assert transfer_duration(100, [link]) == 8002


def test_criterion_8_no_offload_flapping():
    # constant workload held for 100 scheduler ticks after a scale-up pushes
    # one edge past the high watermark: instances may move, but never back
    raw = load_scenario(SCALING)
    scenario = scenario_from_dict({
        "schema_version": 1,
        "name": "no-flap",
        "duration_ms": 101_000,
        "seed": 7,
        "topology": {"nodes": raw.nodes, "links": raw.links},
        "apps": raw.apps,
        "devices": raw.devices,
        "firmware": raw.firmware,
        "script": [e for e in raw.script if e["time"] <= 1000] + [
            {"type": "scale", "time": 1500, "app": "city-analytics",
             "replicas": 3},
        ],
    })
    trace, _ = run_scenario(scenario)
    ticks = [r for r in trace if r.kind == "scheduler_tick"
             and not r.details.get("skipped")]
    assert len(ticks) >= 100
    hosts: dict[str, list[str]] = {}
    for r in trace:
        if r.kind == "instance_placed":
            hosts[r.subject] = [r.details["host"]]
        elif r.kind == "migration_completed":
            hosts.setdefault(r.subject, [r.details["from"]])
            hosts[r.subject].append(r.details["to"])
    assert any(len(h) > 1 for h in hosts.values()), "no offload ever happened"
    for instance, history in hosts.items():
        assert len(history) == len(set(history)), \
            f"{instance} revisited a host: {history}"
