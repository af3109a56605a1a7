"""fogsim: deterministic simulator for a hierarchical edge-cloud IoT platform.

Models a three-tier topology (central cloud, edge modules, IoT gateways),
device discovery and roaming with IoT-App migration, a threshold-based
orchestrator that places, scales and offloads Data-Apps, and fluid dataflow
accounting -- all driven by a deterministic discrete-event kernel and
declarative YAML scenarios.
"""

from .catalog import AppKind, AppSpec, Catalog, DeviceProfile, FirmwareEntry
from .control import run_scenario, run_scenario_file
from .dataflow import Flow, FlowManager, WindowMetrics
from .discovery import Attachment, DiscoveryService
from .kernel import EventKind, FaultKind, Kernel, Trace, TraceRecord
from .migration import MigrationEngine, MigrationRecord, transfer_duration
from .report import Report, report_from_trace
from .runtime import Runtime
from .scenario import Scenario, load_scenario, scenario_from_dict
from .scheduler import (AppInstance, Defer, InstanceStatus, Offload,
                        PlacementRequest, Scheduler, StateBlob, Thresholds)
from .topology import Link, Node, ResourceVector, Tier, Topology

__version__ = "0.1.0"
