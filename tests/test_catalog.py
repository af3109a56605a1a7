from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import errors
from fogsim.catalog import (KIND_TIERS, AppKind, AppSpec, Catalog, DeviceProfile,
                            FirmwareEntry, parse_version)
from fogsim.scenario import scenario_from_dict
from fogsim.topology import ResourceVector, Tier


def test_register_data_app(catalog):
    spec = catalog.app("analytics")
    assert spec.kind is AppKind.DATA_APP
    assert spec.latency_requirement_ms == 50
    assert spec.allowed_tiers == {Tier.EDGE_MODULE, Tier.CENTRAL_CLOUD}


def test_iot_app_defaults_to_gateway_tier(catalog):
    assert catalog.app("agent").allowed_tiers == {Tier.GATEWAY}


def test_iot_app_on_edge_is_tier_violation():
    with pytest.raises(errors.ValidationError,
                       match="^bad: IoTApp apps run only on Gateway$"):
        AppSpec("bad", AppKind.IOT_APP, ResourceVector(1, 1, 1),
                allowed_tiers=frozenset({Tier.EDGE_MODULE}))


def test_data_app_on_gateway_is_tier_violation():
    with pytest.raises(errors.ValidationError,
                       match="^bad: DataApp apps run only on CentralCloud, EdgeModule$"):
        AppSpec("bad", AppKind.DATA_APP, ResourceVector(1, 1, 1),
                allowed_tiers=frozenset({Tier.GATEWAY}))


@pytest.mark.parametrize("kind", list(AppKind), ids=lambda kind: kind.value)
def test_an_app_kind_s_tiers_are_one_row_of_the_tier_table(kind):
    """AppSpec's default tiers and the scenario's tier check both read
    KIND_TIERS: an app naming no tier gets the row, and a scenario app
    naming one outside it is rejected."""
    row = KIND_TIERS[kind]
    assert AppSpec("a", kind, ResourceVector(1, 1, 1)).allowed_tiers == row
    outside = sorted(tier.value for tier in set(Tier) - row)
    raw = {"schema_version": 1, "duration_ms": 1000,
           "apps": [{"id": "a", "kind": kind.value, "allowed_tiers": outside[:1]}]}
    with pytest.raises(errors.InvariantViolation,
                       match=rf"^apps\[0\]: {kind.value} apps run only on "
                             f"{', '.join(sorted(tier.value for tier in row))}$"):
        scenario_from_dict(raw)


def test_aggregation_factor_below_one_rejected():
    with pytest.raises(errors.ValidationError):
        AppSpec("bad", AppKind.DATA_APP, ResourceVector(1, 1, 1),
                aggregation_factor=0.5)


def test_duplicate_app_id(catalog):
    with pytest.raises(errors.ValidationError, match="^duplicate app id: agent$"):
        catalog.register_app(AppSpec("agent", AppKind.IOT_APP,
                                     ResourceVector(1, 1, 1)))


def test_register_firmware_and_duplicates(catalog):
    catalog.register_firmware(FirmwareEntry("m1", "os2", "1.4"))
    with pytest.raises(errors.ValidationError,
                       match=r"^duplicate firmware: \('m1', 'os2', '1\.4'\)$"):
        catalog.register_firmware(FirmwareEntry("m1", "os2", "1.4"))
    with pytest.raises(errors.ValidationError):
        FirmwareEntry("", "os2", "1.0")


def test_match_firmware_picks_highest(catalog):
    assert catalog.match_firmware("smartband", "1.0") == "1.4"


def test_match_firmware_numeric_component_order():
    cat = Catalog()
    cat.register_firmware(FirmwareEntry("m", "os", "1.9"))
    cat.register_firmware(FirmwareEntry("m", "os", "1.10"))
    assert cat.match_firmware("m", "os") == "1.10"


def test_match_firmware_singleton():
    cat = Catalog()
    cat.register_firmware(FirmwareEntry("m1", "os2", "1.0"))
    assert cat.match_firmware("m1", "os2") == "1.0"


def test_match_firmware_unknown_model(catalog):
    assert catalog.match_firmware("toaster", "1.0") is None


def test_unparseable_version_rejected():
    with pytest.raises(errors.ValidationError):
        parse_version("1.x")


def test_device_profile_validation():
    with pytest.raises(errors.ValidationError):
        DeviceProfile("m", "os", "BLE", 0, "agent")


def test_profile_must_reference_iot_app(catalog):
    with pytest.raises(errors.ValidationError, match="^profile cam must reference an "
                       "IoT-App, analytics is a DataApp$"):
        catalog.register_profile(
            DeviceProfile("cam", "2.0", "ZigBee", 10, "analytics"))


def test_resolve_unknown_profile(catalog):
    with pytest.raises(errors.UnknownProfile):
        catalog.profile("toaster")


def test_resolve_dangling_app_reference(catalog):
    del catalog.apps["agent"]
    with pytest.raises(errors.DanglingAppReference):
        catalog.app(catalog.profile("smartband").iot_app)


@pytest.mark.parametrize("first, second", [("1.0", "1.00"), ("1.00", "1.0")])
def test_match_firmware_keeps_the_first_of_equal_versions(first, second):
    """As max() does: 1.0 and 1.00 parse to the same version."""
    cat = Catalog()
    cat.register_firmware(FirmwareEntry("m", "os", first))
    cat.register_firmware(FirmwareEntry("m", "os", second))
    assert cat.match_firmware("m", "os") == first


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_match_firmware_equals_bruteforce_max(seed):
    rng = random.Random(seed)
    cat = Catalog()
    entries = []
    seen = set()
    for _ in range(rng.randint(1, 12)):
        version = ".".join(str(rng.randint(0, 12))
                           for _ in range(rng.randint(1, 3)))
        key = ("m", "os", version)
        if key in seen:
            continue
        seen.add(key)
        entries.append(version)
        cat.register_firmware(FirmwareEntry("m", "os", version))
    expected = max(entries, key=parse_version)
    assert parse_version(cat.match_firmware("m", "os")) == parse_version(expected)
