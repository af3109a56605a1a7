"""A reference twin of fogsim: a run with every incremental structure it
has a from-scratch form for swapped for that form, used only by tests.

Inside `twin()`:
- each route query starts a fresh search from its source, and each up/down
  change drops every search, so no query reads a search an earlier one
  grew (Topology._search, Topology._drop_routes);
- each scheduler tick tests every up edge module against the high
  watermark (reference_check_thresholds), still draining
  Topology.take_reallocated;
- each metrics window builds its utilization and alloc maps for every node
  (reference_window_maps) and its status map for every instance, all as
  plain dicts, so none names the map it replaces;
- a trace is written a record at a time by reference_record_json and read
  a line at a time by reference_from_jsonl (Trace.to_jsonl,
  Trace.from_jsonl).

A trace the twin writes must equal, byte for byte, the one the incremental
code writes; `twin_text` gives the twin's text of a scenario document, read
by PyYAML's pure-Python loader.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from fogsim.kernel import Trace
from fogsim.runtime import Runtime
from fogsim.scenario import scenario_from_dict
from fogsim.scheduler import Scheduler
from fogsim.topology import Topology, _Search

from oracles import (reference_check_thresholds, reference_from_jsonl,
                     reference_load_yaml, reference_record_json,
                     reference_window_maps)


def _fresh_search(topology: Topology, source: str) -> _Search:
    topology.node(source)
    search = topology._routes[source] = _Search(source, topology.nodes[source].up)
    return search


def _drop_every_route(topology: Topology, alters) -> None:
    topology._dropped.update(topology._routes)
    topology._routes = {}


def _check_every_edge(scheduler: Scheduler):
    scheduler.topology.take_reallocated()
    return reference_check_thresholds(scheduler)


def _statuses(scheduler: Scheduler) -> dict[str, str]:
    return {iid: inst.status.value for iid, inst in sorted(scheduler.instances.items())}


def _reference_text(trace: Trace) -> str:
    return "".join(reference_record_json(r) + "\n" for r in trace.records)


@contextmanager
def twin():
    """Patch the from-scratch forms in for as long as the block runs."""
    with ExitStack() as stack:
        for owner, name, form in (
                (Topology, "_search", _fresh_search),
                (Topology, "_drop_routes", _drop_every_route),
                (Scheduler, "check_thresholds", _check_every_edge),
                (Topology, "utilization_snapshot",
                 lambda topology: reference_window_maps(topology)["utilization"]),
                (Topology, "alloc_snapshot",
                 lambda topology: reference_window_maps(topology)["alloc"]),
                (Scheduler, "status_snapshot", _statuses),
                (Trace, "to_jsonl", _reference_text),
                (Trace, "from_jsonl",
                 classmethod(lambda cls, text: cls(reference_from_jsonl(text))))):
            stack.enter_context(mock.patch.object(owner, name, form))
        yield


def twin_text(scenario_text: str) -> str:
    """The trace text of a run of the scenario document, under the twin."""
    with twin():
        runtime = Runtime(scenario_from_dict(reference_load_yaml(scenario_text)))
        return runtime.run().to_jsonl()
