"""Post-run reporting. A report is a pure function of the trace, so replaying
a stored trace yields exactly the report the run produced."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import errors
from .kernel import Trace


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


def validate_trace(trace: Trace) -> None:
    """Structural checks: integer clock and sequence numbers (a bool is not
    one), string kind and subject, monotone clock, strictly increasing
    sequence numbers, and a terminal run_end record."""
    last_time = -1
    last_seq = 0
    for record in trace:
        if (not isinstance(record.time_ms, int) or not isinstance(record.seq, int)
                or isinstance(record.time_ms, bool) or isinstance(record.seq, bool)
                or not isinstance(record.kind, str)
                or not isinstance(record.subject, str)):
            raise errors.MalformedTrace(f"record {record.seq}: bad field types")
        if record.time_ms < last_time:
            raise errors.MalformedTrace(
                f"record {record.seq}: clock went backwards "
                f"({record.time_ms} < {last_time})")
        if record.seq <= last_seq:
            raise errors.MalformedTrace(
                f"record {record.seq}: sequence not strictly increasing")
        last_time = record.time_ms
        last_seq = record.seq
    if len(trace) == 0 or trace.records[-1].kind != "run_end":
        raise errors.MalformedTrace("trace is truncated: no run_end record")


def _number(value, nullable: bool = False):
    """A detail the summary adds up after the record loop, checked while its
    record is known: a number, or None where nullable."""
    if value is None and nullable:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


# kinds the summary counts: record kind -> its summary key
_COUNTED = {"attach": "attaches", "detach": "detaches", "instance_placed": "installs",
            "offload": "offloads", "defer": "defers", "roam_completed": "roams",
            "fault_start": "faults", "stale_action": "stale_actions"}


def report_from_trace(trace: Trace) -> Report:
    validate_trace(trace)
    report = Report()
    totals = {"generated_mb": 0.0, "delivered_mb": 0.0, "dropped_mb": 0.0,
              "uplink_mb": 0.0}
    counts = dict.fromkeys(_COUNTED, 0)
    try:
        for record in trace:
            kind = record.kind
            d = record.details
            if kind in counts:
                counts[kind] += 1
            if kind == "scenario_loaded":
                report.scenario = record.subject
            elif kind == "metrics_window":
                report.utilization_series.append((record.time_ms, d["utilization"]))
                report.uplink_windows.append({
                    "window_start": d["window_start"],
                    "window_end": d["window_end"],
                    "generated_mb": d["generated_mb"],
                    "uplink_mb": d["uplink_mb"],
                    "uplink_ratio": _number(d["uplink_ratio"], nullable=True),
                })
                for key in totals:
                    totals[key] += d[key]
            elif kind == "migration_completed":
                report.migrations.append({"instance": record.subject, **d})
            elif kind == "flow_window":
                report.loss_mb[record.subject] = _number(d["cum_dropped_mb"])
            elif kind == "defer":
                report.deferred.append({"node": record.subject,
                                        "time_ms": record.time_ms, **d})
            elif kind in ("warning", "install_warning", "roam_warning",
                          "scale_warning"):
                report.warnings.append({"kind": kind, "subject": record.subject,
                                        "time_ms": record.time_ms, **d})
    except (KeyError, TypeError) as exc:
        # details of the wrong shape: a missing key, a list, or a value the
        # summary cannot add up
        raise errors.MalformedTrace(
            f"record {record.seq} ({record.kind}): {type(exc).__name__}: {exc}") \
            from None

    ratios = [w["uplink_ratio"] for w in report.uplink_windows
              if w["uplink_ratio"] is not None]
    report.summary = {
        **{key: counts[kind] for kind, key in _COUNTED.items()},
        "events": len(trace),
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
