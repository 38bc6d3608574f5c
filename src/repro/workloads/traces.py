"""Drivers: run one or several event sources against an engine.

Workloads (:mod:`repro.workloads.churn`) and adversaries
(:mod:`repro.adversary`) are one kind of object, an
:class:`~repro.adversary.base.EventSource`: each step they read one
:class:`~repro.adversary.base.AdversaryContext` and give the next event.
:class:`MixedDriver` is a source too, handing its context to its parts, so
experiments can interleave background churn with an attack using a single
loop.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..adversary.base import AdversaryContext, EventSource
from ..core.events import ChurnEvent
from ..errors import ConfigurationError


def drive(engine, source, steps: int) -> List:
    """Run a single event source against ``engine`` for ``steps`` time steps.

    Steps on which the source returns ``None`` are skipped (no event, no time
    advance), matching the paper's "or nothing occurs" case.
    Returns the per-step reports produced by the engine.

    This is a thin convenience wrapper over
    :class:`~repro.scenarios.runner.SimulationRunner`, which owns the step
    loop (and supports probes and stop conditions for anything beyond a
    fixed-step drive); the reports reach it the way every observation does,
    through the observation bus, collected by an inline probe.
    """
    # Local import: repro.scenarios builds on the workloads.
    from ..scenarios.probes import CallbackProbe
    from ..scenarios.runner import SimulationRunner

    reports = CallbackProbe(lambda _engine, report, _step: report, name="reports")
    SimulationRunner(engine, source, probes=[reports], name="drive").run(steps)
    return reports.values


class MixedDriver(EventSource):
    """Interleaves several event sources with fixed probabilities.

    A typical experiment mixes background honest churn with an adversary's
    attack stream, e.g. ``MixedDriver([(workload, 0.7), (attack, 0.3)], rng)``.
    Its snapshot holds its parts' snapshots under ``sources``.
    """

    _extra_key = "sources"

    def __init__(self, sources: Sequence[Tuple[EventSource, float]], rng: random.Random) -> None:
        super().__init__(rng)
        if not sources:
            raise ConfigurationError("MixedDriver requires at least one source")
        if any(weight < 0 for _, weight in sources):
            raise ConfigurationError("source weights must be non-negative")
        total = float(sum(weight for _, weight in sources))
        if total <= 0:
            raise ConfigurationError("source weights must sum to a positive value")
        self._sources = [(source, weight / total) for source, weight in sources]
        #: Whether any mixed source reads cluster interiors.
        self.reads_clusters = any(getattr(source, "reads_clusters", False) for source, _ in sources)

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        """Pick a source by weight and return its event (falling back to the others)."""
        order = sorted(range(len(self._sources)), key=lambda _index: self._rng.random())
        roll = self._rng.random()
        cumulative = 0.0
        chosen = len(self._sources) - 1
        for index, (_source, weight) in enumerate(self._sources):
            cumulative += weight
            if roll <= cumulative:
                chosen = index
                break
        event = self._sources[chosen][0].next_event(context)
        if event is not None:
            return event
        # The chosen source is idle; give the others a chance this step.
        for index in order:
            if index == chosen:
                continue
            event = self._sources[index][0].next_event(context)
            if event is not None:
                return event
        return None

    def _snapshot_extra(self) -> List[dict]:
        return [source.snapshot_state() for source, _weight in self._sources]

    def _restore_extra(self, snapshots) -> None:
        if len(snapshots) != len(self._sources):
            raise ConfigurationError(
                f"snapshot has {len(snapshots)} sources, driver has {len(self._sources)}"
            )
        for (source, _weight), snapshot in zip(self._sources, snapshots):
            source.restore_state(snapshot)
