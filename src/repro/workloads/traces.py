"""Drivers: run one or several event sources against an engine.

Workloads (:mod:`repro.workloads.churn`) and adversaries
(:mod:`repro.adversary`) expose the same per-step interface — "give me the
next event for this system" — but adversaries receive an
:class:`~repro.adversary.base.AdversaryContext` while workloads receive the
engine directly; :func:`~repro.scenarios.runner.bind_event_source` binds
each, so experiments can interleave background churn with an attack using a
single loop.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

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


class MixedDriver:
    """Interleaves several event sources with fixed probabilities.

    A typical experiment mixes background honest churn with an adversary's
    attack stream, e.g. ``MixedDriver([(workload, 0.7), (attack, 0.3)], rng)``.
    """

    def __init__(self, sources: Sequence[Tuple[object, float]], rng: random.Random) -> None:
        if not sources:
            raise ConfigurationError("MixedDriver requires at least one source")
        total = float(sum(weight for _, weight in sources))
        if total <= 0:
            raise ConfigurationError("source weights must sum to a positive value")
        self._sources = [(source, weight / total) for source, weight in sources]
        self._rng = rng
        #: Whether any mixed source reads cluster interiors.
        self.reads_clusters = any(getattr(source, "reads_clusters", False) for source, _ in sources)

    def bind(self, bind_source: Callable) -> Callable[[], Optional[ChurnEvent]]:
        """The mix's zero-argument pull, each source bound by ``bind_source``."""
        pulls = [bind_source(source) for source, _ in self._sources]
        return lambda: self._next_event(pulls)

    def _next_event(self, pulls: List[Callable]) -> Optional[ChurnEvent]:
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
        event = pulls[chosen]()
        if event is not None:
            return event
        # The chosen source is idle; give the others a chance this step.
        for index in order:
            if index == chosen:
                continue
            event = pulls[index]()
            if event is not None:
                return event
        return None

    def run(self, engine, steps: int) -> List:
        """Drive ``engine`` for ``steps`` steps with the mixed stream."""
        return drive(engine, self, steps)

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot: own RNG plus every underlying source's state."""
        from ..rng import rng_state_to_json  # local import: avoids a cycle

        return {
            "kind": type(self).__name__,
            "rng": rng_state_to_json(self._rng.getstate()),
            "sources": [source.snapshot_state() for source, _weight in self._sources],
        }

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot onto a driver built with the same source specs."""
        from ..rng import rng_state_from_json

        if data.get("kind") != type(self).__name__:
            raise ConfigurationError(
                f"snapshot is for {data.get('kind')!r}, not {type(self).__name__!r}"
            )
        snapshots = data.get("sources", [])
        if len(snapshots) != len(self._sources):
            raise ConfigurationError(
                f"snapshot has {len(snapshots)} sources, driver has {len(self._sources)}"
            )
        self._rng.setstate(rng_state_from_json(data["rng"]))
        for (source, _weight), snapshot in zip(self._sources, snapshots):
            source.restore_state(snapshot)
