"""Exception hierarchy shared by all simulator components."""


class FogSimError(Exception):
    """Base class for every error raised by the simulator."""


class ValidationError(FogSimError):
    """A constructor or call argument breaks a rule of the object it builds."""


# --- topology ---------------------------------------------------------------

class UnknownNode(FogSimError):
    pass


class Unreachable(FogSimError):
    pass


class InsufficientCapacity(FogSimError):
    pass


class ReleaseUnderflow(FogSimError):
    pass


# --- catalog ----------------------------------------------------------------

class UnknownProfile(FogSimError):
    pass


class DanglingAppReference(FogSimError):
    pass


# --- discovery --------------------------------------------------------------

class NotAGateway(FogSimError):
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


# --- dataflow ---------------------------------------------------------------

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
