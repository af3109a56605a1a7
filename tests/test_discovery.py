from __future__ import annotations

import pytest

from fogsim import errors
from fogsim.discovery import DiscoveryService


@pytest.fixture
def discovery(three_tier, catalog):
    return DiscoveryService(three_tier, catalog)


def test_attach_emits_install_request_and_firmware(discovery):
    assert discovery.handle_attach("gw1", "dev1", "smartband", "1.0") == ("1.4", "agent")
    assert discovery.current_gateway("dev1") == "gw1"


def test_reattach_same_gateway_is_idempotent(discovery):
    discovery.handle_attach("gw1", "dev1", "smartband", "1.0")
    assert discovery.handle_attach("gw1", "dev1", "smartband", "1.0") == ("1.4", None)
    assert discovery.current_gateway("dev1") == "gw1"


def test_attach_unknown_model(discovery):
    with pytest.raises(errors.UnknownProfile, match="^toaster$"):
        discovery.handle_attach("gw1", "dev1", "toaster", "1.0")
    assert discovery.current_gateway("dev1") is None


def test_attach_on_non_gateway(discovery):
    with pytest.raises(errors.NotAGateway):
        discovery.handle_attach("edge1", "dev1", "smartband", "1.0")


def test_attach_elsewhere_requires_detach(discovery):
    discovery.handle_attach("gw1", "dev1", "smartband", "1.0")
    with pytest.raises(errors.AlreadyAttachedElsewhere):
        discovery.handle_attach("gw2", "dev1", "smartband", "1.0")
    discovery.handle_detach("gw1", "dev1")
    assert discovery.handle_attach("gw2", "dev1", "smartband", "1.0") == ("1.4", "agent")
    assert discovery.current_gateway("dev1") == "gw2"


def test_detach_transitions_and_errors(discovery):
    discovery.handle_attach("gw1", "dev1", "smartband", "1.0")
    discovery.handle_detach("gw1", "dev1")
    assert discovery.current_gateway("dev1") is None
    with pytest.raises(errors.NotAttachedHere):
        discovery.handle_detach("gw1", "dev1")


def test_detach_wrong_gateway(discovery):
    discovery.handle_attach("gw1", "dev1", "smartband", "1.0")
    with pytest.raises(errors.NotAttachedHere):
        discovery.handle_detach("gw2", "dev1")
    assert discovery.current_gateway("dev1") == "gw1"


def test_current_gateway_for_unknown_device(discovery):
    assert discovery.current_gateway("ghost") is None


def test_missing_firmware_does_not_block_onboarding(discovery):
    assert discovery.handle_attach("gw1", "dev1", "smartband", "9.9") == (None, "agent")
