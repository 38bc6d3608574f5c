"""The engine interface shared by NOW and every baseline scheme.

:class:`EngineProtocol` is a structural (:mod:`typing`) protocol: any object
exposing this surface can be driven by the workloads, the adversaries and the
:class:`~repro.scenarios.runner.SimulationRunner`.  Both
:class:`~repro.core.engine.NowEngine` and
:class:`~repro.baselines.common.BaselineEngine` satisfy it, which is what
lets an experiment swap the maintained protocol for a baseline without
touching the driving code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Protocol, Sequence, runtime_checkable

from ..params import ProtocolParameters
from .cluster import ClusterId
from .events import ChurnEvent
from .state import SystemState


@runtime_checkable
class EngineProtocol(Protocol):
    """Structural interface of a churn-driven clustering engine.

    Per-step reports differ between engines (``MaintenanceReport`` for NOW,
    ``BaselineStepReport`` for baselines) but share the fields the runner and
    the probes read: ``time_step``, ``event``, ``network_size``,
    ``cluster_count``, ``worst_byzantine_fraction`` and
    ``compromised_clusters`` (plus ``operation`` on NOW reports).
    """

    state: SystemState

    # -- observation ---------------------------------------------------
    @property
    def parameters(self) -> ProtocolParameters: ...

    @property
    def network_size(self) -> int: ...

    @property
    def cluster_count(self) -> int: ...

    def cluster_sizes(self) -> Dict[ClusterId, int]: ...

    def byzantine_fractions(self) -> Dict[ClusterId, float]: ...

    def worst_cluster_fraction(self) -> float: ...

    def compromised_clusters(self) -> List[ClusterId]: ...

    def random_member(self, honest_only: bool = False, rng=None) -> int: ...

    def random_cluster(self) -> ClusterId: ...

    # -- churn driving -------------------------------------------------
    def apply_event(self, event: ChurnEvent): ...

    def run_trace(self, events: Iterable[ChurnEvent]) -> Sequence: ...
