"""Churn workloads: the oblivious event sources.

A workload is an online :class:`~repro.adversary.base.EventSource`: its
``next_event(context)`` reads the driver's
:class:`~repro.adversary.base.AdversaryContext` — the system size, the
protocol parameters and uniform draws from the active nodes, never the
cluster interiors — and produces the next
:class:`~repro.core.events.ChurnEvent`.  Workloads are online rather than
pre-generated traces because leave events must name nodes that are
*currently* active, which depends on how the system evolved so far.
"""

from __future__ import annotations

import random
from typing import Optional

from ..adversary.base import AdversaryContext, EventSource
from ..core.events import ChurnEvent
from ..errors import ConfigurationError
from ..network.node import NodeRole


class ChurnWorkload(EventSource):
    """Base class of churn workloads (an event source blind to cluster interiors)."""

    #: Probability that a joining node is Byzantine (``None``: the
    #: parameters' ``tau``).
    _byzantine_join_fraction: Optional[float] = None

    def _join(self, context: AdversaryContext) -> ChurnEvent:
        """A join, corrupted with the workload's Byzantine join fraction (a
        static adversary corrupting nodes as they join, as the model allows)."""
        fraction = self._byzantine_join_fraction
        if fraction is None:
            fraction = context.params.tau
        if self._rng.random() < fraction:
            return ChurnEvent.join(role=NodeRole.BYZANTINE)
        return ChurnEvent.join(role=NodeRole.HONEST)

    def _leave(self, context: AdversaryContext) -> ChurnEvent:
        """A leave of a node drawn uniformly among the active ones, from the
        workload's own stream."""
        return ChurnEvent.leave(context.sample_active(self._rng))


class UniformChurn(ChurnWorkload):
    """Size-stable churn: joins and leaves with equal probability.

    ``byzantine_join_fraction`` defaults to the parameters' ``tau`` so the global
    corruption level stays roughly constant as the population turns over.
    """

    def __init__(
        self,
        rng: random.Random,
        join_probability: float = 0.5,
        byzantine_join_fraction: Optional[float] = None,
    ) -> None:
        super().__init__(rng)
        if not 0.0 <= join_probability <= 1.0:
            raise ConfigurationError("join_probability must lie in [0, 1]")
        self._join_probability = join_probability
        self._byzantine_join_fraction = byzantine_join_fraction

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        if self._rng.random() < self._join_probability:
            return self._join(context)
        if context.network_size() <= context.params.lower_size_bound:
            return self._join(context)
        return self._leave(context)


class GrowthWorkload(ChurnWorkload):
    """Monotone growth towards ``target_size`` (pure joins, then idle)."""

    def __init__(
        self,
        rng: random.Random,
        target_size: int,
        byzantine_join_fraction: Optional[float] = None,
    ) -> None:
        super().__init__(rng)
        if target_size < 1:
            raise ConfigurationError("target_size must be positive")
        self._target_size = target_size
        self._byzantine_join_fraction = byzantine_join_fraction

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        if context.network_size() >= self._target_size:
            return None
        return self._join(context)


class ShrinkWorkload(ChurnWorkload):
    """Monotone shrink towards ``target_size`` (pure leaves, then idle)."""

    def __init__(self, rng: random.Random, target_size: int) -> None:
        super().__init__(rng)
        if target_size < 1:
            raise ConfigurationError("target_size must be positive")
        self._target_size = target_size

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        if context.network_size() <= self._target_size:
            return None
        return self._leave(context)


class OscillatingWorkload(ChurnWorkload):
    """Repeated expansion/contraction between a low and a high size.

    This is the polynomial size variation of the paper taken to its extreme:
    the system repeatedly sweeps between ``low_size`` (think ``sqrt(N)``) and
    ``high_size`` (think ``N``) while the maintenance keeps running.
    """

    def __init__(
        self,
        rng: random.Random,
        low_size: int,
        high_size: int,
        byzantine_join_fraction: Optional[float] = None,
    ) -> None:
        super().__init__(rng)
        if not 1 <= low_size < high_size:
            raise ConfigurationError("need 1 <= low_size < high_size")
        self._low_size = low_size
        self._high_size = high_size
        self._byzantine_join_fraction = byzantine_join_fraction
        self._growing = True

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        size = context.network_size()
        if self._growing and size >= self._high_size:
            self._growing = False
        elif not self._growing and size <= self._low_size:
            self._growing = True
        if self._growing:
            return self._join(context)
        return self._leave(context)

    def _snapshot_extra(self) -> dict:
        return {"growing": self._growing}

    def _restore_extra(self, extra: dict) -> None:
        self._growing = bool(extra.get("growing", True))
