"""Gateway agent behavior: device attach/detach, firmware matching, and the
IoT-App a newly attached device asks the orchestrator to install.

Discovery is event-driven: the scenario script injects attach/detach events
and roaming is an explicit detach followed by an attach at the new gateway.
Firmware lookup is recorded in the trace but costs no simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .catalog import Catalog
from .topology import Tier, Topology


@dataclass
class Attachment:
    device_id: str
    model: str
    os_version: str
    gateway: str


class DiscoveryService:
    def __init__(self, topology: Topology, catalog: Catalog):
        self.topology = topology
        self.catalog = catalog
        # device_id -> its Attachment, while the device is attached
        self.attachments: dict[str, Attachment] = {}

    def handle_attach(self, gateway: str, device_id: str, model: str,
                      os_version: str) -> tuple[str | None, str | None]:
        """Discover a device at a gateway and return `(firmware_version,
        app_id)`: the best-matching firmware, None where none matches (which
        does not block onboarding), and the profile's IoT-App to install.

        Re-attaching at the same gateway is idempotent and returns no app id.
        Attaching while attached elsewhere is an error: roaming detaches first.
        """
        node = self.topology.node(gateway)
        if node.tier is not Tier.GATEWAY:
            raise errors.NotAGateway(gateway)
        app_id = self.catalog.profile(model).iot_app
        current = self.attachments.get(device_id)
        if current is None:
            self.attachments[device_id] = Attachment(device_id, model, os_version,
                                                     gateway)
        elif current.gateway == gateway:
            app_id = None
        else:
            raise errors.AlreadyAttachedElsewhere(
                f"{device_id} is attached at {current.gateway}")
        return self.catalog.match_firmware(model, os_version), app_id

    def handle_detach(self, gateway: str, device_id: str) -> None:
        current = self.attachments.get(device_id)
        if current is None or current.gateway != gateway:
            raise errors.NotAttachedHere(f"{device_id} at {gateway}")
        del self.attachments[device_id]

    def current_gateway(self, device_id: str) -> str | None:
        current = self.attachments.get(device_id)
        return None if current is None else current.gateway
