"""The backend seam: how an admitted churn window reaches the engine(s).

Every state change of NOW is a join or a leave applied to the cluster
partition, so ``serve``, ``serve --shards``, ``run-scenario --shards`` and
``replay`` of any trace are one job: apply an admitted event sequence, get
one :class:`~repro.scenarios.bus.StepRecord` back per event, hash the state.
The only decision that differs is *how the window travels*, and that is all
a backend is:

``dispatch(events) -> token`` / ``collect(token) -> [StepRecord]``
    the two halves of one window.  :class:`EngineBackend` applies the events
    inline at dispatch (its window completes synchronously);
    :class:`ShardBackend` chunks them to the coordinator's
    ``events_until_barrier()`` and queues them on the workers, so the caller
    can do other work until ``collect``.  Both publish the window to
    ``bus`` (the sharded one inside the coordinator's ``serve_collect``).
``nodes`` / ``params``
    the :class:`~repro.core.state.NodeRegistry` view and protocol parameters
    the session's pre-flight admission rules are written against.  Both are
    current as of the last *dispatched* event.
``state_hash()`` / ``status()`` / ``close()``
    the state fingerprint (window boundaries only), the backend's share of
    the ``status`` response, worker shutdown.
``sample()`` / ``broadcast(payload)`` / ``reads_fresh``
    reads, one implementation for both backends (:class:`_ReadLane`): a
    :class:`~repro.shard.serve.ShardReadModel` over the backend's engine
    views — one for the single engine, one per shard — drawing from the
    ``read_rng`` the backend was opened with.  ``collect`` drops the views,
    the next read rebuilds them, and ``reads_fresh`` says whether a read can
    be served while a window is in flight (it cannot when that rebuild is
    due).

It lives in :mod:`repro.trace` because it is the unit replay certifies.
Two callers, whose events are given to them, both through
:func:`open_backend` — the one place that picks a backend, by
``scenario.shards``: the live session (:mod:`repro.service.session`) and the
replay driver (:class:`repro.trace.replay.ReplayEngine`, no read stream),
both from a scenario.  A batch run pulls its events from the scenario's own
source instead, so it opens a *driver* that owns one
(:func:`repro.trace.session.open_driver`, the other seam) — the
``SimulationRunner``, or the coordinator itself, whose ``run`` is the same
two window halves ``dispatch`` and ``collect`` call, under the same barrier
rule.  Whatever applies the events, one
:class:`~repro.trace.session.Recorder` writes them down.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from ..scenarios.bus import ObservationBus, StepRecord
from .hashing import state_hash


class _ReadLane:
    """``sample`` / ``broadcast`` over the backend's views (see the module docstring).

    Opened by the one caller with a read stream, the live session; batch
    runs and replay leave ``read_model`` unset and never import it.
    """

    read_model = None

    def _open_reads(self, read_rng: Optional[random.Random]) -> None:
        if read_rng is None:
            return
        # Local import: repro.shard builds on repro.trace, and a batch run or
        # replay should not pay for loading it.
        from ..shard.serve import ShardReadModel

        self.read_model = ShardReadModel(
            self._read_views, self.params, self.nodes.is_byzantine
        )
        self._read_rng = read_rng

    def _close_window(self) -> None:
        if self.read_model is not None:
            self.read_model.invalidate()

    @property
    def reads_fresh(self) -> bool:
        """Rebuilding the views reads the engines (on shards: a worker round
        trip down FIFO pipes), which cannot happen under an open window."""
        return self.read_model.fresh

    def sample(self) -> Dict[str, Any]:
        return self.read_model.sample(self._read_rng)

    def broadcast(self, payload: Any) -> Dict[str, Any]:
        return self.read_model.broadcast(self._read_rng)


class EngineBackend(_ReadLane):
    """One :class:`~repro.core.engine.NowEngine`; windows apply inline."""

    #: ``contact_cluster``-targeted joins name a cluster of this one engine.
    contact_joins = True

    def __init__(
        self,
        engine,
        read_rng: Optional[random.Random] = None,
        probes: Sequence = (),
    ) -> None:
        self.engine = engine
        self.params = engine.parameters
        self.nodes = engine.state.nodes
        self.bus = ObservationBus(engine, probes)
        self._events = 0
        self._open_reads(read_rng)

    def _read_views(self) -> List[Dict[str, Any]]:
        from ..shard.serve import engine_view

        return [engine_view(self.engine)]

    def dispatch(self, events: Sequence) -> List[StepRecord]:
        records = []
        for event in events:
            report = self.engine.apply_event(event)
            self._events += 1
            records.append(self.bus.publish(report, self._events, True))
        return records

    def collect(self, token: List[StepRecord]) -> List[StepRecord]:
        self._close_window()
        return token

    def state_hash(self) -> str:
        return state_hash(self.engine)

    def status(self) -> Dict[str, Any]:
        engine = self.engine
        return {
            "network_size": engine.network_size,
            "cluster_count": engine.cluster_count,
            "worst_byzantine_fraction": engine.worst_cluster_fraction(),
            "time_step": engine.state.time_step,
        }

    def close(self) -> None:
        pass


class ShardBackend(_ReadLane):
    """A :class:`~repro.shard.coordinator.ShardCoordinator`; windows pipeline.

    Windows never straddle a multiple of the coordinator's
    ``barrier_interval``, so shard evolution is a pure function of the
    admitted event sequence — independent of the worker count (``workers=1``
    is the inline oracle) and of how callers cut it into windows.
    """

    #: Cluster ids are shard-local, so a join cannot name its contact.
    contact_joins = False

    def __init__(
        self,
        scenario,
        read_rng: Optional[random.Random] = None,
        workers: int = 1,
        probes: Sequence = (),
    ) -> None:
        # Local import: repro.shard builds on repro.trace, and a single-engine
        # run or replay should not pay for the worker-process machinery.
        from ..shard.coordinator import ShardCoordinator

        self.coordinator = ShardCoordinator(scenario, workers=workers, probes=probes)
        self.params = self.coordinator.params
        self.nodes = self.coordinator.directory.nodes
        self.bus = self.coordinator.bus
        self._open_reads(read_rng)

    def _read_views(self) -> List[Dict[str, Any]]:
        shards = range(self.coordinator.shards)
        views = self.coordinator._gather_shards([(shard, ()) for shard in shards], "read_view")
        return [views[shard] for shard in shards]

    def dispatch(self, events: Sequence) -> List[Dict[str, Any]]:
        coordinator = self.coordinator
        tokens = []
        start = 0
        while start < len(events):
            stop = start + coordinator.events_until_barrier()
            tokens.append(coordinator.serve_dispatch(events[start:stop]))
            start = stop
        return tokens

    def collect(self, token: List[Dict[str, Any]]) -> List[StepRecord]:
        records: List[StepRecord] = []
        for part in token:
            records += self.coordinator.serve_collect(part)
        self._close_window()
        return records

    def state_hash(self) -> str:
        return self.coordinator.state_hash()

    def status(self) -> Dict[str, Any]:
        return self.coordinator.status()

    def close(self) -> None:
        self.coordinator.close()


def open_backend(
    scenario,
    read_rng: Optional[random.Random] = None,
    workers: int = 1,
    probes: Sequence = (),
):
    """Open the backend ``scenario`` runs on — this seam's one fork on ``shards``.

    ``workers`` applies to the sharded backend only.
    """
    if scenario.shards:
        return ShardBackend(scenario, read_rng, workers, probes)
    return EngineBackend(scenario.build_engine(), read_rng, probes)
