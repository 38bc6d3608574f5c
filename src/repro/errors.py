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


class ClusterCompromisedError(ReproError):
    """A cluster reached a Byzantine fraction of at least one third.

    Once a cluster is compromised the adversary controls its majority-rule
    channel, so the guarantees of NOW no longer hold.  Simulations may either
    raise this error (``strict`` mode) or record the event and continue
    (``observe`` mode) depending on configuration.
    """

    def __init__(self, cluster_id: int, fraction: float, time_step: int) -> None:
        self.cluster_id = cluster_id
        self.fraction = fraction
        self.time_step = time_step
        super().__init__(
            f"cluster {cluster_id} compromised at time step {time_step}: "
            f"Byzantine fraction {fraction:.3f} >= 1/3"
        )


class UnknownNodeError(ReproError):
    """An operation referenced a node identifier not present in the system."""


class UnknownClusterError(ReproError):
    """An operation referenced a cluster identifier not present in the overlay."""


class NetworkSizeError(ReproError):
    """The network size left the admissible range ``[sqrt(N), N]``."""


class AgreementError(ReproError):
    """A Byzantine agreement instance failed to reach a valid decision."""


class WalkError(ReproError):
    """A random walk could not be carried out (e.g. empty or disconnected overlay)."""
