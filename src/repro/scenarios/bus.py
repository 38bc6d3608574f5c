"""The observation bus: batched delivery of step records to buffered probes.

Before this module, every probe ran inline inside the engine's hot loop —
one Python call per probe per applied event, each reading the engine and the
per-step report directly.  Cheap O(1) probes are fine there, but expensive
consumers (spectral-gap estimates, costly :class:`~repro.scenarios.probes.
CallbackProbe` functions, anything that formats or writes) were paying their
cost *per event*, capping exactly the long-horizon runs the paper's
asymptotic claims need.

:class:`ObservationBus` splits observation into two lanes:

* **inline probes** (``probe.inline`` is true) keep today's contract — they
  are called synchronously per applied event with the live engine and
  report, for measurements that must read engine state at the instant of
  the event (e.g. a targeted cluster's corruption);
* **buffered probes** receive batches of lightweight, immutable
  :class:`StepRecord` objects every ``buffer_size`` events (and at run
  end).  A record carries every per-step observable the built-in probes
  consume, so trajectory and ledger probes never touch the engine and the
  hot loop does one tuple-ish allocation per event instead of N probe
  calls.

Determinism contract: the bus and its records are *pure observation* — no
randomness is drawn, the engine is never mutated, and record contents are
computed from the report alone — so a run with buffered probes is
trajectory-identical and measurement-identical to the same run with inline
probes (property-tested in ``tests/test_observation_bus.py``).  Buffering
changes only *when* a probe sees an observation, never *what* it sees.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Applied events between buffered-probe deliveries: a constant, because
#: batching changes only when a probe sees a record, never what it sees.
DEFAULT_PROBE_BUFFER = 64


class StepRecord(NamedTuple):
    """Immutable per-event observation record delivered to buffered probes.

    One record is built per applied churn event from the engine's
    :class:`~repro.core.engine.MaintenanceReport`.
    Field values mirror the trace event frame: the *input* event plus the
    step observables.  A NamedTuple rather than a dataclass: one record is
    allocated per applied event on the hot loop, and tuple construction is
    several times cheaper than field-by-field dataclass initialisation.
    """

    step_index: int
    time_step: int
    kind: str
    role: str
    node_id: Optional[int]
    contact_cluster: Optional[int]
    assigned_node: Optional[int]
    network_size: int
    cluster_count: int
    worst_fraction: float
    operation: str
    messages: int
    rounds: int
    walk_hops: int


def step_record(report, step_index: int) -> StepRecord:
    """Build the :class:`StepRecord` for one applied event's report."""
    event = report.event
    operation = report.operation
    return StepRecord(
        step_index=step_index,
        time_step=report.time_step,
        kind=event.kind.value,
        role=event.role.value,
        node_id=event.node_id,
        contact_cluster=event.contact_cluster,
        assigned_node=operation.node_id,
        network_size=report.network_size,
        cluster_count=report.cluster_count,
        worst_fraction=report.worst_byzantine_fraction,
        operation=operation.operation,
        messages=operation.messages,
        rounds=operation.rounds,
        walk_hops=operation.walk_hops,
    )


def split_probes(probes: Sequence, inline_lane: bool = True) -> Tuple[List, List]:
    """The ``(inline, buffered)`` lanes of a probe list, names checked.

    ``RunResult.probes`` is keyed by name, so a collision would silently
    drop one probe's measurements: duplicate names are refused.  Without an
    ``inline_lane`` (sharded execution) inline probes are refused too.
    """
    names = [probe.name for probe in probes]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ConfigurationError(
            f"duplicate probe names {sorted(duplicates)}; give each probe "
            "a distinct name= (e.g. CallbackProbe(fn, name='...'))"
        )
    inline = [probe for probe in probes if probe.inline]
    if inline and not inline_lane:
        raise ConfigurationError(
            f"inline probes {[probe.name for probe in inline]} are not supported "
            "under sharded execution (there is no single live engine to read "
            "per event); use buffered probes"
        )
    return inline, [probe for probe in probes if not probe.inline]


class ObservationBus:
    """Routes per-event observations to inline and buffered probes.

    The one way a run's steps reach a caller (an inline ``CallbackProbe``
    collects the reports themselves).  The
    :class:`~repro.scenarios.runner.SimulationRunner` publishes once per
    applied event; the bus fans out synchronously to inline probes and
    accumulates a :class:`StepRecord` for buffered ones, flushing the batch
    every ``buffer_size`` events.  :meth:`flush` is called by the batch loop
    at the end of every ``run()`` segment, so probe results are always complete
    when a :class:`~repro.scenarios.runner.RunResult` is assembled.
    """

    #: Events per buffered-probe batch (:data:`DEFAULT_PROBE_BUFFER`).
    buffer_size = DEFAULT_PROBE_BUFFER

    def __init__(self, engine, probes: Sequence, inline_lane: bool = True) -> None:
        self.engine = engine
        # Whether inline probes may attach (see split_probes).
        self._inline_lane = inline_lane
        self.inline_probes: List = []
        self.buffered_probes: List = []
        self.sync(probes)
        self.records_published = 0
        self._buffer: List[StepRecord] = []
        self._started = False

    def sync(self, probes: Sequence) -> None:
        """Re-split the lanes from the current probe list.

        A driver's ``probes`` is a public list; callers may append to it
        between runs.  The batch loop re-syncs at the top of every ``run()``
        segment so late-attached probes are observed (matching the
        pre-streaming behaviour of iterating the live list per event).
        """
        self.inline_probes, self.buffered_probes = split_probes(probes, self._inline_lane)

    def on_start(self) -> None:
        """Forward the run-start hook to every probe (inline first), once per bus."""
        if self._started:
            return
        self._started = True
        for probe in self.inline_probes:
            probe.on_start(self.engine)
        for probe in self.buffered_probes:
            probe.on_start(self.engine)

    def publish(self, report, step_index: int, build: bool = False) -> Optional[StepRecord]:
        """Deliver one applied event: inline probes now, buffered on flush.

        Returns the event's :class:`StepRecord` when one was built — buffered
        probes are attached, or the caller asked with ``build`` because it
        records the event itself — so no caller builds a second one.
        """
        for probe in self.inline_probes:
            probe.on_step(self.engine, report, step_index)
        if not (build or self.buffered_probes):
            return None
        record = step_record(report, step_index)
        self.publish_record(record)
        return record

    def publish_record(self, record: StepRecord) -> None:
        """Deliver one pre-built record to the buffered probes.

        :meth:`publish`'s second half, and the sharded merge layer's entry
        point (``ShardCoordinator.serve_collect``, whoever collects the
        window).  Sharded runs assemble composite :class:`StepRecord`
        objects away from any live engine, so there is no report to extract
        from — and no inline lane: the coordinator's bus refuses inline
        probes (``inline_lane=False``) because there is no single engine for
        them to read.
        """
        if self.buffered_probes:
            self._buffer.append(record)
            self.records_published += 1
            if len(self._buffer) >= self.buffer_size:
                self.flush()

    def flush(self) -> None:
        """Deliver the pending batch to every buffered probe.

        Every probe receives the batch even when another probe's
        ``on_records`` raises — one failing consumer must not cost its
        siblings up to ``buffer_size`` observations.  The first error is
        re-raised after delivery completes.
        """
        if not self._buffer:
            return
        records = self._buffer
        self._buffer = []
        first_error: Exception | None = None
        for probe in self.buffered_probes:
            try:
                probe.on_records(self.engine, records)
            except Exception as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    @property
    def pending(self) -> int:
        """Records accumulated but not yet delivered."""
        return len(self._buffer)
