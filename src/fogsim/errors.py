"""Exception hierarchy shared by all simulator components."""


class FogSimError(Exception):
    """Base class for every error raised by the simulator."""


# --- topology ---------------------------------------------------------------

class DuplicateNodeId(FogSimError):
    pass


class InvalidCapacity(FogSimError):
    pass


class UnknownNode(FogSimError):
    pass


class SelfLoop(FogSimError):
    pass


class NonPositiveBandwidth(FogSimError):
    pass


class Unreachable(FogSimError):
    pass


class InsufficientCapacity(FogSimError):
    pass


class ReleaseUnderflow(FogSimError):
    pass


# --- catalog ----------------------------------------------------------------

class DuplicateAppId(FogSimError):
    pass


class TierViolation(FogSimError):
    pass


class ValidationError(FogSimError):
    pass


class DuplicateFirmware(FogSimError):
    pass


class NoCompatibleFirmware(FogSimError):
    pass


class UnknownProfile(FogSimError):
    pass


class DanglingAppReference(FogSimError):
    pass


# --- discovery --------------------------------------------------------------

class NotAGateway(FogSimError):
    pass


class UnknownDeviceProfile(FogSimError):
    pass


class AlreadyAttachedElsewhere(FogSimError):
    pass


class NotAttachedHere(FogSimError):
    pass


# --- scheduler --------------------------------------------------------------

class Unschedulable(FogSimError):
    pass


class UnknownInstance(FogSimError):
    pass


class GatewayFull(FogSimError):
    pass


# --- migration --------------------------------------------------------------

class LinkDown(FogSimError):
    pass


class TargetInfeasible(FogSimError):
    pass


class InstanceNotRunning(FogSimError):
    pass


class TargetGatewayFull(FogSimError):
    pass


# --- dataflow ---------------------------------------------------------------

class NotAttached(FogSimError):
    pass


class UnknownFlow(FogSimError):
    pass


# --- kernel -----------------------------------------------------------------

class TimeInPast(FogSimError):
    pass


class UnknownTarget(FogSimError):
    pass


# --- control ----------------------------------------------------------------

class ParseError(FogSimError):
    pass


class UnknownReference(FogSimError):
    pass


class InvariantViolation(FogSimError):
    pass


class MalformedTrace(FogSimError):
    pass
