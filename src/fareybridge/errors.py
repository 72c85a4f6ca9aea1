"""Exception taxonomy shared by all modules.

Two families matter to callers: DomainError (bad input, CLI exit 1) and
ResourceLimit (a configured cap was hit, CLI exit 2).
"""

__all__ = [
    "FareyBridgeError",
    "DomainError",
    "ResourceLimit",
    "EmptyLadder",
    "DegenerateLadder",
    "SpineUndefined",
    "OutOfBound",
    "LadderTooLarge",
    "EnumerationOverflow",
    "OracleBudget",
]


class FareyBridgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FareyBridgeError, ValueError):
    """Input outside an operation's domain."""


class ResourceLimit(FareyBridgeError, RuntimeError):
    """A configured size or budget cap was exceeded."""


class EmptyLadder(DomainError):
    """Ladder requested for equal endpoints (distance 0, no triangles)."""


class DegenerateLadder(DomainError):
    """Ladder requested for adjacent endpoints (distance 1, no interior)."""


class SpineUndefined(DomainError):
    """Spine requested for a ladder with fewer than 3 triangles."""


class OutOfBound(DomainError):
    """Oracle endpoint lies outside the bounded subgraph."""


class LadderTooLarge(ResourceLimit):
    """Ladder vertex count would exceed the configured cap."""


class EnumerationOverflow(ResourceLimit):
    """Geodesic enumeration would exceed the configured path cap."""


class OracleBudget(ResourceLimit):
    """Oracle stabilization would exceed its bound budget."""
