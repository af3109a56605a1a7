"""Registry of application specs, device profiles and firmware versions.

Write-once at scenario load, read-only during a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import errors
from .topology import ResourceVector, Tier


class AppKind(str, Enum):
    IOT_APP = "IoTApp"
    DATA_APP = "DataApp"


# app kind -> the tiers its apps may run on, and those an app runs on when
# it names none
KIND_TIERS: dict[AppKind, frozenset[Tier]] = {
    AppKind.IOT_APP: frozenset({Tier.GATEWAY}),
    AppKind.DATA_APP: frozenset({Tier.EDGE_MODULE, Tier.CENTRAL_CLOUD}),
}


def parse_version(version: str) -> tuple[int, ...]:
    """Parse a dotted numeric version; components compare numerically (1.10 > 1.9)."""
    try:
        parts = tuple(int(p) for p in version.split("."))
    except (ValueError, AttributeError):
        raise errors.ValidationError(f"unparseable firmware version: {version!r}") from None
    if not parts:
        raise errors.ValidationError("empty firmware version")
    return parts


@dataclass(frozen=True)
class AppSpec:
    """Catalog entry for either an IoT-App (gateway-pinned device agent) or a
    Data-App (edge/cloud analytics workload)."""

    app_id: str
    kind: AppKind
    demand: ResourceVector
    latency_requirement_ms: float | None = None
    aggregation_factor: float = 1.0
    state_size_mb: float = 0.0
    allowed_tiers: frozenset[Tier] = field(default=frozenset())

    def __post_init__(self):
        if not self.app_id:
            raise errors.ValidationError("app_id must be non-empty")
        if self.aggregation_factor < 1:
            raise errors.ValidationError(
                f"{self.app_id}: aggregation_factor must be >= 1")
        if self.state_size_mb < 0:
            raise errors.ValidationError(f"{self.app_id}: state_size must be >= 0")
        kind_tiers = KIND_TIERS[self.kind]
        tiers = self.allowed_tiers or kind_tiers
        if not tiers <= kind_tiers:
            raise errors.ValidationError(
                f"{self.app_id}: {self.kind.value} apps run only on "
                f"{', '.join(sorted(t.value for t in kind_tiers))}")
        object.__setattr__(self, "allowed_tiers", tiers)


@dataclass(frozen=True)
class DeviceProfile:
    model: str
    os_version: str
    protocol: str
    data_rate_kbps: float
    iot_app: str

    def __post_init__(self):
        if not self.model:
            raise errors.ValidationError("device model must be non-empty")
        if self.data_rate_kbps <= 0:
            raise errors.ValidationError(f"{self.model}: data_rate must be > 0")


@dataclass(frozen=True)
class FirmwareEntry:
    model: str
    os_version: str
    firmware_version: str

    def __post_init__(self):
        if not self.model or not self.os_version:
            raise errors.ValidationError("firmware model/os_version must be non-empty")
        parse_version(self.firmware_version)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.model, self.os_version, self.firmware_version)


class Catalog:
    """App specs keyed by app_id, device profiles keyed by model, firmware
    entries keyed by (model, os_version, version), and the highest firmware
    version keyed by (model, os_version)."""

    def __init__(self):
        self.apps: dict[str, AppSpec] = {}
        self.profiles: dict[str, DeviceProfile] = {}
        self.firmware: dict[tuple[str, str, str], FirmwareEntry] = {}
        self.latest_firmware: dict[tuple[str, str], str] = {}

    def register_app(self, spec: AppSpec) -> str:
        if spec.app_id in self.apps:
            raise errors.ValidationError(f"duplicate app id: {spec.app_id}")
        self.apps[spec.app_id] = spec
        return spec.app_id

    def app(self, app_id: str) -> AppSpec:
        try:
            return self.apps[app_id]
        except KeyError:
            raise errors.DanglingAppReference(app_id) from None

    def register_profile(self, profile: DeviceProfile) -> str:
        if profile.model in self.profiles:
            raise errors.ValidationError(f"duplicate device profile: {profile.model}")
        existing = self.apps.get(profile.iot_app)
        if existing is not None and existing.kind is not AppKind.IOT_APP:
            raise errors.ValidationError(
                f"profile {profile.model} must reference an IoT-App, "
                f"{profile.iot_app} is a {existing.kind.value}")
        self.profiles[profile.model] = profile
        return profile.model

    def profile(self, model: str) -> DeviceProfile:
        try:
            return self.profiles[model]
        except KeyError:
            raise errors.UnknownProfile(model) from None

    def register_firmware(self, entry: FirmwareEntry) -> None:
        if entry.key in self.firmware:
            raise errors.ValidationError(f"duplicate firmware: {entry.key}")
        self.firmware[entry.key] = entry
        platform = entry.model, entry.os_version
        latest = self.latest_firmware.get(platform)
        # of equal versions, such as 1.0 and 1.00, the first registered stays
        if latest is None or parse_version(entry.firmware_version) > parse_version(latest):
            self.latest_firmware[platform] = entry.firmware_version

    def match_firmware(self, model: str, os_version: str) -> str | None:
        """Highest firmware version exactly matching (model, os_version), or
        None where none does."""
        return self.latest_firmware.get((model, os_version))
