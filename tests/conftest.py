from __future__ import annotations

import pytest

from fogsim.catalog import AppKind, AppSpec, Catalog, DeviceProfile, FirmwareEntry
from fogsim.topology import ResourceVector, Tier, Topology

# one pass/fail line per acceptance criterion, printed after the run
_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _acceptance_results[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict} {name}")


@pytest.fixture
def three_tier() -> Topology:
    """gw1 --2ms-- edge1 --20ms-- cloud, plus a second gateway on edge1."""
    topo = Topology()
    topo.add_node("cloud", Tier.CENTRAL_CLOUD, 64000, 98304, 11534336)
    topo.add_node("edge1", Tier.EDGE_MODULE, 8000, 16384, 491520)
    topo.add_node("gw1", Tier.GATEWAY, 4000, 1024, 16384)
    topo.add_node("gw2", Tier.GATEWAY, 4000, 1024, 16384)
    topo.add_link("gw1", "edge1", 2, 100)
    topo.add_link("gw2", "edge1", 2, 100)
    topo.add_link("edge1", "cloud", 20, 1000)
    return topo


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.register_app(AppSpec("agent", AppKind.IOT_APP,
                             ResourceVector(100, 64, 16), state_size_mb=1))
    cat.register_app(AppSpec("analytics", AppKind.DATA_APP,
                             ResourceVector(500, 4096, 1024),
                             latency_requirement_ms=50, aggregation_factor=10,
                             state_size_mb=10))
    cat.register_profile(DeviceProfile("smartband", "1.0", "BLE", 100, "agent"))
    cat.register_firmware(FirmwareEntry("smartband", "1.0", "1.2"))
    cat.register_firmware(FirmwareEntry("smartband", "1.0", "1.4"))
    return cat
