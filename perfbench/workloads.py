"""Seeded synthetic scenarios for the fogsim benchmark.

Each workload is a function of (seed, scale) that returns a scenario mapping
in the schema that `fogsim.scenario.load_scenario` reads; `scenario_yaml`
renders it as YAML, which is all the program under test ever sees.

The sizes of a workload are fixed: a seed changes which devices, gateways,
times, rates and fault targets are drawn, not how many, so that runs with
different seeds do the same amount of work. `scale` shrinks horizon and
counts together for smoke tests; the benchmark always uses scale 1.
"""

from __future__ import annotations

import random

import yaml

CLOUD = {"id": "cloud", "tier": "CentralCloud", "cpu": 256000,
         "mem": 393216, "storage": 46137344}

IOT_APP = {"id": "sensor-agent", "kind": "IoTApp", "cpu": 100, "mem": 64,
           "storage": 16, "state_size_mb": 1}

DATA_APPS = [
    {"id": "stream-analytics", "kind": "DataApp", "cpu": 500, "mem": 2048,
     "storage": 1024, "latency_requirement_ms": 60, "aggregation_factor": 10,
     "state_size_mb": 5},
    {"id": "video-analytics", "kind": "DataApp", "cpu": 1000, "mem": 2048,
     "storage": 2048, "latency_requirement_ms": 60, "aggregation_factor": 20,
     "state_size_mb": 10},
    {"id": "city-dashboard", "kind": "DataApp", "cpu": 500, "mem": 4096,
     "storage": 1024, "latency_requirement_ms": 60, "aggregation_factor": 5,
     "state_size_mb": 10},
]

DEVICE_MODELS = [
    {"model": "smartband", "os_version": "1.0", "protocol": "BLE",
     "data_rate_kbps": 100, "iot_app": "sensor-agent"},
    {"model": "env-sensor", "os_version": "1.3", "protocol": "LoRa",
     "data_rate_kbps": 200, "iot_app": "sensor-agent"},
    {"model": "traffic-cam", "os_version": "2.1", "protocol": "ZigBee",
     "data_rate_kbps": 800, "iot_app": "sensor-agent"},
]

FIRMWARE = [
    {"model": "smartband", "os_version": "1.0", "version": "1.2"},
    {"model": "smartband", "os_version": "1.0", "version": "1.4"},
    {"model": "env-sensor", "os_version": "1.3", "version": "0.9"},
    {"model": "traffic-cam", "os_version": "2.1", "version": "3.0"},
]


def _n(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _edge(e: int) -> dict:
    return {"id": f"edge{e:02d}", "tier": "EdgeModule", "cpu": 8000,
            "mem": 16384, "storage": 491520}


def _gateway(e: int, g: int) -> dict:
    return {"id": f"gw{e:02d}-{g:02d}", "tier": "Gateway", "cpu": 4000,
            "mem": 1024, "storage": 16384}


def _link(a: str, b: str, latency_ms: int, bandwidth_mbps: int) -> dict:
    return {"a": a, "b": b, "latency_ms": latency_ms,
            "bandwidth_mbps": bandwidth_mbps}


def _attaches(rng: random.Random, gateways: list[str], per_gateway: int,
              until_ms: int) -> tuple[list[dict], dict[str, str]]:
    """One attach per device, spread uniformly over [0, until_ms]."""
    script, home = [], {}
    for gw in gateways:
        for _ in range(per_gateway):
            device = f"dev{len(home) + 1:05d}"
            model = rng.choice(DEVICE_MODELS)
            home[device] = gw
            script.append({"time": rng.randint(0, until_ms), "type": "attach",
                           "device": device, "gateway": gw,
                           "model": model["model"],
                           "os_version": model["os_version"]})
    return script, home


def _scenario(name: str, seed: int, horizon: int, tick: int, buffer_mb: float,
              nodes: list, links: list, apps: list, devices: list,
              script: list, faults: list) -> dict:
    # stable sort: events at the same millisecond keep their generation order
    script = sorted(script, key=lambda entry: entry["time"])
    return {
        "schema_version": 1,
        "name": f"{name}-{seed}",
        "seed": seed,
        "duration_ms": horizon,
        "scheduler_tick_ms": tick,
        "buffer_mb": buffer_mb,
        "thresholds": {"high": 0.8, "low": 0.6},
        "topology": {"nodes": nodes, "links": links},
        "apps": apps,
        "devices": devices,
        "firmware": FIRMWARE if devices else [],
        "script": script,
        "faults": faults,
    }


def star_steady(seed: int, scale: float = 1.0) -> dict:
    """A static star: 1 cloud, 8 edges, 8 gateways per edge, 5 devices per
    gateway. Devices attach over the first tenth of the horizon, then sensor
    rates change at random times. No Data-Apps and no faults, so every event
    at a new millisecond re-routes and re-integrates every flow over a
    topology that never changes."""
    rng = random.Random(f"star_steady:{seed}")
    horizon = _n(10000, scale)
    nodes, links, gateways = [CLOUD], [], []
    for e in range(1, 9):
        edge = _edge(e)
        nodes.append(edge)
        links.append(_link(edge["id"], "cloud", rng.randint(15, 30), 1000))
        for g in range(1, 9):
            gw = _gateway(e, g)
            nodes.append(gw)
            gateways.append(gw["id"])
            links.append(_link(gw["id"], edge["id"], rng.randint(1, 5), 100))
    script, home = _attaches(rng, gateways, _n(5, scale), horizon // 10)
    devices = sorted(home)
    for _ in range(_n(200, scale)):
        script.append({"time": rng.randint(horizon // 10 + 1, horizon),
                       "type": "workload", "device": rng.choice(devices),
                       "data_rate_kbps": rng.randint(50, 1000)})
    return _scenario("star_steady", seed, horizon, 1000, 10, nodes, links,
                     [IOT_APP], DEVICE_MODELS, script, [])


def mesh_churn(seed: int, scale: float = 1.0) -> dict:
    """A mesh that keeps changing: 6 edges in a ring, each also linked to the
    cloud; 5 gateways per edge, each dual-homed to the next edge; 2 devices
    per gateway; 3 Data-Apps per edge. Devices roam, a Data-App on each edge
    is scaled past the high watermark, and link faults and cloud partitions
    come and go. The buffer is small, so flows blocked by downtime or
    partitions drop data."""
    rng = random.Random(f"mesh_churn:{seed}")
    horizon = _n(10000, scale)
    edges = [f"edge{e:02d}" for e in range(1, 7)]
    nodes, links, gateways = [CLOUD], [], []
    edge_cloud, gw_edge = [], []
    for e in range(1, 7):
        nodes.append(_edge(e))
    # Fixed backbone latencies: how far a search from a gateway must spread
    # before it reaches the cloud depends on them, and that should not vary
    # with the seed.
    for i, edge in enumerate(edges):
        links.append(_link(edge, edges[(i + 1) % 6], 4, 1000))
        links.append(_link(edge, "cloud", 20, 1000))
        edge_cloud.append(f"{edge}--cloud")
    for i, edge in enumerate(edges):
        for g in range(1, 6):
            gw = _gateway(i + 1, g)
            nodes.append(gw)
            gateways.append(gw["id"])
            links.append(_link(gw["id"], edge, rng.randint(1, 4), 100))
            links.append(_link(gw["id"], edges[(i + 1) % 6], rng.randint(2, 6), 100))
            gw_edge.append(f"{gw['id']}--{edge}")

    script = [{"time": 0, "type": "place", "app": app["id"],
               "source": gateways[5 * i + k]}
              for i in range(6) for k, app in enumerate(DATA_APPS)]
    attaches, home = _attaches(rng, gateways, _n(2, scale), horizon // 20)
    script += attaches
    devices = sorted(home)
    for _ in range(_n(50, scale)):
        device = rng.choice(devices)
        here = gateways.index(home[device])
        # roam within the current edge or to the next one
        base = 5 * (here // 5)
        nearby = [gateways[(base + j) % len(gateways)] for j in range(10)]
        target = rng.choice([gw for gw in nearby if gw != home[device]])
        home[device] = target
        script.append({"time": rng.randint(horizon // 20 + 1, horizon),
                       "type": "roam", "device": device, "to_gateway": target})
    # One surge per edge, in a random order: tripling the largest Data-App
    # pushes its edge past the high watermark, and only the cloud can take
    # it. Offloaded apps move their flows' sinks to the cloud, which makes
    # routing dearer, so every seed offloads the same number of apps.
    slot = horizon // 8
    for k, edge in enumerate(rng.sample(edges, len(edges))):
        script.append({"time": slot * (k + 1) + rng.randint(0, slot // 2),
                       "type": "scale", "app": DATA_APPS[2]["id"],
                       "host": edge, "replicas": 3})

    # Cloud partitions have fixed times and length: while one lasts, every
    # flow served from an edge probes the unreachable cloud, the costliest
    # routing call there is, so their total length would otherwise set how
    # much work a seed asks for.
    faults = [{"target": "cloud", "kind": "CloudPartition",
               "start": horizon * k // 4, "duration_ms": horizon // 10}
              for k in range(1, 4)]
    used = set()
    for targets in [edge_cloud] * _n(6, scale) + [gw_edge] * _n(5, scale):
        while True:
            target = rng.choice(targets)
            start = rng.randint(horizon // 20, horizon - horizon // 10)
            if (target, start) not in used:
                break
        used.add((target, start))
        faults.append({"target": target, "kind": "LinkDown", "start": start,
                       "duration_ms": horizon // 10})
    return _scenario("mesh_churn", seed, horizon, 500, 0.05, nodes, links,
                     [IOT_APP] + DATA_APPS, DEVICE_MODELS, script, faults)


def fleet_ticks(seed: int, scale: float = 1.0) -> dict:
    """A large fleet with no devices: 16 edges x 16 gateways, 3 Data-Apps per
    edge, and one surge per edge that pushes it past the high watermark.
    Ticks every 100 ms, each closing a metrics window over every node and
    instance, so trace emission and the threshold loop carry the run."""
    rng = random.Random(f"fleet_ticks:{seed}")
    horizon = _n(20000, scale)
    nodes, links, script = [CLOUD], [], []
    for e in range(1, 17):
        edge = _edge(e)
        nodes.append(edge)
        links.append(_link(edge["id"], "cloud", 20, 1000))
        for g in range(1, 17):
            gw = _gateway(e, g)
            nodes.append(gw)
            links.append(_link(gw["id"], edge["id"], rng.randint(1, 5), 100))
            if g <= len(DATA_APPS):
                script.append({"time": 0, "type": "place",
                               "app": DATA_APPS[g - 1]["id"], "source": gw["id"]})
    # as in mesh_churn, every seed offloads one app per edge to the cloud
    edges = [node["id"] for node in nodes if node["tier"] == "EdgeModule"]
    slot = horizon // (len(edges) + 1)
    for k, edge in enumerate(rng.sample(edges, len(edges))):
        script.append({"time": slot * (k + 1) + rng.randint(0, slot // 2),
                       "type": "scale", "app": DATA_APPS[2]["id"],
                       "host": edge, "replicas": 3})
    return _scenario("fleet_ticks", seed, horizon, 100, 10, nodes, links,
                     DATA_APPS, [], script, [])


WORKLOADS = {"star_steady": star_steady, "mesh_churn": mesh_churn,
             "fleet_ticks": fleet_ticks}


def scenario_yaml(workload: str, seed: int, scale: float = 1.0) -> str:
    """The workload's scenario for `seed`, as a YAML document."""
    scenario = WORKLOADS[workload](seed, scale)
    return yaml.dump(scenario, Dumper=yaml.SafeDumper, sort_keys=False,
                     default_flow_style=None, width=100)
