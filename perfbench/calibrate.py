"""Host-speed calibration: a fixed reference workload timed around every phase.

The benchmark runs on shared virtual machines whose speed drifts. Over spans
from a fraction of a second to more than a minute, all code on them, a pure
arithmetic loop included, runs up to 2x slower. A slow span that covers most
of a run moves the median, and even the minimum, of raw wall-clock times by
more than any useful regression bound.

So `harness.run_pass` calls `gauge()` before, between and after its four
phases. `gauge()` times `unit()`, a fixed amount of the kinds of work fogsim
does: shortest paths over a dict graph with a heap, building records with
rounded floats, JSON and SHA-256. It never touches fogsim, so a change to the
program cannot move it. `normalise` scales each phase's wall-clock time by
REFERENCE_UNIT_S over the mean of the two gauges around it. The result is the
time the phase would have taken had the host run `unit()` in exactly
REFERENCE_UNIT_S: a change to fogsim moves it, a change of host speed cancels.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import time

# Sets only the scale of the reported numbers. On a 2-vCPU Xeon VM with
# Python 3.11, `unit()` takes about this long, so normalised times read
# close to the wall-clock times seen there.
REFERENCE_UNIT_S = 0.004
UNITS_PER_GAUGE = 2

_NODES = 300


def _graph() -> dict[int, list[tuple[int, int]]]:
    rng = random.Random(7)
    adjacency = {node: [] for node in range(_NODES)}
    for node in range(_NODES):
        for _ in range(3):
            other, weight = rng.randrange(_NODES), rng.randint(1, 20)
            adjacency[node].append((other, weight))
            adjacency[other].append((node, weight))
    return adjacency


_GRAPH = _graph()


def unit() -> str:
    """One unit of reference work; returns a digest that never changes."""
    records = []
    for source in range(0, _NODES, 60):
        dist, heap = {source: 0}, [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for other, weight in _GRAPH[node]:
                if d + weight < dist.get(other, float("inf")):
                    dist[other] = d + weight
                    heapq.heappush(heap, (d + weight, other))
        records.append({"source": source, "reached": len(dist),
                        "mean": round(sum(dist.values()) / len(dist), 6)})
    text = json.dumps(records * 20)
    return hashlib.sha256(text.encode()).hexdigest()


def gauge() -> float:
    """Host seconds per `unit()`, measured now."""
    start = time.perf_counter()
    for _ in range(UNITS_PER_GAUGE):
        unit()
    return (time.perf_counter() - start) / UNITS_PER_GAUGE


def normalise(times: dict[str, float], phases: tuple[str, ...],
              gauges: list[float]) -> dict[str, float]:
    """Each phase of `times` at the reference host speed, given the gauges
    taken before, between and after the phases; total_s is their sum."""
    scaled = {name: times[name] * REFERENCE_UNIT_S
              / ((gauges[i] + gauges[i + 1]) / 2)
              for i, name in enumerate(phases)}
    scaled["total_s"] = sum(scaled.values())
    return scaled
