"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure originating in the reproduction with a single except
clause while still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class ConfigurationError(ReproError):
    """A protocol parameter or simulation option is invalid or inconsistent."""


class ProtocolViolationError(ReproError):
    """A protocol-level invariant was violated during execution.

    Raised, for example, when an operation is applied to a cluster that no
    longer exists, or when a membership update references an unknown node.
    """


class UnknownNodeError(ReproError):
    """An operation referenced a node identifier not present in the system."""


class UnknownClusterError(ReproError):
    """An operation referenced a cluster identifier not present in the overlay."""


class AgreementError(ReproError):
    """A Byzantine agreement instance failed to reach a valid decision."""


class WalkError(ReproError):
    """A random walk could not be carried out (e.g. empty or disconnected overlay)."""
