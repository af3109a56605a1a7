"""Post-run reporting. A report is a pure function of the trace, so replaying
a stored trace yields exactly the report the run produced."""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import errors
from .kernel import RECORD_KINDS, TraceRecord


@dataclass
class Report:
    scenario: str = ""
    utilization_series: list[tuple[int, dict[str, float]]] = field(default_factory=list)
    uplink_windows: list[dict] = field(default_factory=list)
    migrations: list[dict] = field(default_factory=list)
    loss_mb: dict[str, float] = field(default_factory=dict)
    deferred: list[dict] = field(default_factory=list)
    warnings: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        lines = [f"scenario: {self.scenario}"]
        for key in sorted(self.summary):
            lines.append(f"  {key}: {self.summary[key]}")
        return lines


# a numeric type of a detail the report reads -> the exact types of its
# values, so a bool is no number
_TYPES = {"number": (int, float), "number or null": (int, float, type(None))}
# the metrics_window numbers the report copies or adds up, each with the type
# kernel.RECORD_KINDS declares for it and that type's values
_WINDOW = tuple((key, ftype, _TYPES[ftype]) for key, ftype
                in RECORD_KINDS["metrics_window"] if ftype in _TYPES)
# a number the report reads lies within this of zero, the largest float: so
# it is no NaN, no infinity, and no int too large to add to a float
_LARGEST = sys.float_info.max
_MISSING = object()


def _bad_detail(record: TraceRecord, key: str, ftype: str) -> errors.MalformedTrace:
    """The error of a detail `key` of `record` that is missing or not of
    `ftype`, naming the record's seq, its kind and the key."""
    problem = (f"must be a {ftype}, got {record.details[key]!r}"
               if key in record.details else "is missing")
    return errors.MalformedTrace(f"record {record.seq} ({record.kind}): {key} {problem}")


# kinds the summary counts: record kind -> its summary key
_COUNTED = {"attach": "attaches", "detach": "detaches", "instance_placed": "installs",
            "offload": "offloads", "defer": "defers", "roam_completed": "roams",
            "fault_start": "faults", "stale_action": "stale_actions"}


def report_from_trace(trace: Iterable[TraceRecord]) -> Report:
    """The report of `trace`, any iterable of records, such as a `Trace` or
    the stream `kernel.records` reads, folded in one pass that keeps no
    record. Each record must have an int `seq` and `time_ms` (a bool is
    not one), a str kind and subject, and a mapping of details; `seq`
    strictly increases, the clock never goes back, and the last record is
    run_end, the only one. A record that breaks these, or a detail the
    report reads that is missing, not of its declared type or, for a
    number, not finite, raises MalformedTrace naming the record."""
    report = Report()
    totals = {"generated_mb": 0.0, "delivered_mb": 0.0, "dropped_mb": 0.0,
              "uplink_mb": 0.0}
    counts = dict.fromkeys(_COUNTED, 0)
    last_time, last_seq, kind, events = -1, 0, None, 0
    number, largest = _TYPES["number"], _LARGEST
    for events, record in enumerate(trace, 1):
        if kind == "run_end":
            raise errors.MalformedTrace(
                f"record {record.seq} ({record.kind}): after run_end")
        seq, time_ms, kind, d = record.seq, record.time_ms, record.kind, record.details
        if (type(seq) is not int or type(time_ms) is not int
                or not isinstance(kind, str) or not isinstance(record.subject, str)):
            raise errors.MalformedTrace(f"record {seq}: bad field types")
        if not isinstance(d, dict):
            raise errors.MalformedTrace(
                f"record {seq} ({kind}): details must be a mapping, got {d!r}")
        if time_ms < last_time:
            raise errors.MalformedTrace(
                f"record {seq}: clock went backwards ({time_ms} < {last_time})")
        if seq <= last_seq:
            raise errors.MalformedTrace(
                f"record {seq}: sequence not strictly increasing")
        last_time, last_seq = time_ms, seq
        if kind in counts:
            counts[kind] += 1
        # the most frequent kinds first
        if kind == "flow_window":
            dropped = d.get("cum_dropped_mb")
            if type(dropped) not in number or not -largest <= dropped <= largest:
                raise _bad_detail(record, "cum_dropped_mb", "finite number")
            report.loss_mb[record.subject] = dropped
        elif kind == "metrics_window":
            for key, ftype, types in _WINDOW:
                value = d.get(key, _MISSING)
                if type(value) not in types or (
                        value is not None and not -largest <= value <= largest):
                    raise _bad_detail(record, key, f"finite {ftype}")
            if not isinstance(d.get("utilization"), dict):
                raise _bad_detail(record, "utilization", "mapping")
            report.utilization_series.append((time_ms, d["utilization"]))
            report.uplink_windows.append({
                "window_start": d["window_start"], "window_end": d["window_end"],
                "generated_mb": d["generated_mb"], "uplink_mb": d["uplink_mb"],
                "uplink_ratio": d["uplink_ratio"]})
            for key in totals:
                totals[key] += d[key]
        elif kind == "scenario_loaded":
            report.scenario = record.subject
        elif kind == "migration_completed":
            report.migrations.append({"instance": record.subject, **d})
        elif kind == "defer":
            report.deferred.append({"node": record.subject, "time_ms": time_ms, **d})
        elif kind in ("warning", "install_warning", "roam_warning",
                      "scale_warning"):
            report.warnings.append({"kind": kind, "subject": record.subject,
                                    "time_ms": time_ms, **d})
    if kind != "run_end":
        raise errors.MalformedTrace("trace is truncated: no run_end record")

    ratios = [w["uplink_ratio"] for w in report.uplink_windows
              if w["uplink_ratio"] is not None]
    report.summary = {
        **{key: counts[kind] for kind, key in _COUNTED.items()},
        "events": events,
        "migrations": len(report.migrations),
        "total_generated_mb": round(totals["generated_mb"], 9),
        "total_delivered_mb": round(totals["delivered_mb"], 9),
        "total_dropped_mb": round(totals["dropped_mb"], 9),
        "total_uplink_mb": round(totals["uplink_mb"], 9),
        "total_loss_mb": round(sum(report.loss_mb.values(), 0.0), 9),
        "mean_uplink_ratio": (round(sum(ratios) / len(ratios), 9)
                              if ratios else None),
    }
    return report
