"""Churn workload generators.

A workload is an online event source: given the current engine (anything
exposing ``state``, ``network_size`` and ``random_member``), it produces the
next :class:`~repro.core.events.ChurnEvent`.  Workloads are online rather than pre-generated traces because leave events
must name nodes that are *currently* active, which depends on how the system
evolved so far.
"""

from __future__ import annotations

import abc
import random
from typing import Optional

from ..core.events import ChurnEvent
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..rng import rng_state_from_json, rng_state_to_json


class ChurnWorkload(abc.ABC):
    """Base class of churn event sources (same per-step interface as adversaries)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    @abc.abstractmethod
    def next_event(self, engine) -> Optional[ChurnEvent]:
        """Return the next churn event for ``engine`` (``None`` to idle this step)."""

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of the workload's RNG stream and mutable state."""
        return {
            "kind": type(self).__name__,
            "rng": rng_state_to_json(self._rng.getstate()),
            "extra": self._snapshot_extra(),
        }

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot onto a workload built with the same spec."""
        if data.get("kind") != type(self).__name__:
            raise ConfigurationError(
                f"snapshot is for {data.get('kind')!r}, not {type(self).__name__!r}"
            )
        self._rng.setstate(rng_state_from_json(data["rng"]))
        self._restore_extra(data.get("extra", {}))

    def _snapshot_extra(self) -> dict:
        """Subclass hook: mutable fields beyond the RNG (default: none)."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Subclass hook: inverse of :meth:`_snapshot_extra`."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _join_role(self, byzantine_join_fraction: float) -> NodeRole:
        """Corrupt the joining node with the given probability (static adversary
        choosing to corrupt nodes at the moment they join, as the model allows)."""
        if self._rng.random() < byzantine_join_fraction:
            return NodeRole.BYZANTINE
        return NodeRole.HONEST

    def _random_active_node(self, engine, honest_only: bool = False):
        """Pick a departing node uniformly among the active nodes.

        The draw consumes the *workload's* RNG stream, not the engine's:
        the engine stream must advance only inside ``apply_event`` so a
        recorded event sequence replays bit-identically (``repro.trace``).
        """
        return engine.random_member(honest_only=honest_only, rng=self._rng)


class UniformChurn(ChurnWorkload):
    """Size-stable churn: joins and leaves with equal probability.

    ``byzantine_join_fraction`` defaults to the engine's ``tau`` so the global
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

    def next_event(self, engine) -> Optional[ChurnEvent]:
        fraction = (
            self._byzantine_join_fraction
            if self._byzantine_join_fraction is not None
            else engine.parameters.tau
        )
        if self._rng.random() < self._join_probability:
            return ChurnEvent.join(role=self._join_role(fraction))
        if engine.network_size <= engine.parameters.lower_size_bound:
            return ChurnEvent.join(role=self._join_role(fraction))
        return ChurnEvent.leave(self._random_active_node(engine))


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

    def next_event(self, engine) -> Optional[ChurnEvent]:
        if engine.network_size >= self._target_size:
            return None
        fraction = (
            self._byzantine_join_fraction
            if self._byzantine_join_fraction is not None
            else engine.parameters.tau
        )
        return ChurnEvent.join(role=self._join_role(fraction))


class ShrinkWorkload(ChurnWorkload):
    """Monotone shrink towards ``target_size`` (pure leaves, then idle)."""

    def __init__(self, rng: random.Random, target_size: int) -> None:
        super().__init__(rng)
        if target_size < 1:
            raise ConfigurationError("target_size must be positive")
        self._target_size = target_size

    def next_event(self, engine) -> Optional[ChurnEvent]:
        if engine.network_size <= self._target_size:
            return None
        return ChurnEvent.leave(self._random_active_node(engine))


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

    def next_event(self, engine) -> Optional[ChurnEvent]:
        size = engine.network_size
        if self._growing and size >= self._high_size:
            self._growing = False
        elif not self._growing and size <= self._low_size:
            self._growing = True
        if self._growing:
            fraction = (
                self._byzantine_join_fraction
                if self._byzantine_join_fraction is not None
                else engine.parameters.tau
            )
            return ChurnEvent.join(role=self._join_role(fraction))
        return ChurnEvent.leave(self._random_active_node(engine))

    def _snapshot_extra(self) -> dict:
        return {"growing": self._growing}

    def _restore_extra(self, extra: dict) -> None:
        self._growing = bool(extra.get("growing", True))
