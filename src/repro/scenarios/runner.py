"""The simulation runner: one shared step loop for every experiment.

Before this subsystem existed, every benchmark, example and app hand-rolled
the same loop — ask the workload/adversary for an event, apply it to the
engine, measure something, decide whether to stop.  :class:`SimulationRunner`
owns that loop once, for a :class:`~repro.core.engine.NowEngine` under any
placement rule:

    workload/adversary -> engine.apply_event -> observation bus -> stop conditions

Observation goes through the :class:`~repro.scenarios.bus.ObservationBus`
and nothing else: inline probes run per event, buffered probes receive
batched step records (see :mod:`repro.scenarios.bus`).

Event sources have one contract (:mod:`repro.adversary.base`): a
:class:`~repro.workloads.churn.ChurnWorkload`, an
:class:`~repro.adversary.base.Adversary`, a
:class:`~repro.workloads.traces.MixedDriver`, or anything with a
``next_event(context)`` method reads the one
:class:`~repro.adversary.base.AdversaryContext` that
:func:`bind_event_source` builds over the driver.  Stop conditions have one
too, on both drivers: ``fn(record, driver)`` over the event's
:class:`~repro.scenarios.bus.StepRecord`.

The runner may be invoked repeatedly on the same engine (checkpoint-style
experiments run it once per growth target); each :meth:`SimulationRunner.run`
call returns a fresh :class:`RunResult` while probes keep accumulating.

:func:`run_windows` is the one batch loop, shared with the shard
coordinator: both drivers move in windows through the same two halves,
``serve_dispatch`` / ``serve_collect``, drawn from one :class:`EventPull`
(the idle rule's one copy).  The runner's window is one event, applied at
dispatch; the coordinator's runs up to its next barrier, on the workers.
A run whose events are *given* — a live ``serve`` session, ``replay`` —
drives the same halves through :meth:`WindowDriver.dispatch` /
:meth:`~WindowDriver.collect`; its scenario has no source, and
:meth:`~SimulationRunner.run` refuses it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..adversary.base import AdversaryContext
from ..analysis.reporting import format_table
from ..core.cluster import ClusterId
from ..errors import ConfigurationError
from .bus import ObservationBus, StepRecord
from .probes import Probe

#: Why :func:`run_windows` refuses a scenario without a workload or
#: adversary (``{}``: the scenario's name).
NO_SOURCE = (
    "scenario {!r} has no event source (no workload or adversary): its events "
    "are given to the driver's dispatch, so there is nothing to run"
)

#: A stop condition: ``fn(record, driver) -> Optional[str]``, over an
#: applied event's :class:`~repro.scenarios.bus.StepRecord` and the driver
#: that applied it.  Returning a non-empty string stops the run with that
#: reason.
StopCondition = Callable[[StepRecord, Any], Optional[str]]


def bind_event_source(source, driver) -> Callable[[], Any]:
    """A zero-argument ``next_event`` for ``source``, reading one
    :class:`~repro.adversary.base.AdversaryContext` over ``driver``'s
    registry, parameters and (if the source reads clusters) read model."""
    next_event = getattr(source, "next_event", None)
    if next_event is None:
        raise ConfigurationError(f"event source {source!r} has no next_event method")
    model = driver.read_model if getattr(source, "reads_clusters", False) else None
    context = AdversaryContext(model, driver.nodes, driver.params)
    return lambda: next_event(context)


# ----------------------------------------------------------------------
# Stop-condition helpers
# ----------------------------------------------------------------------
def first_stop(conditions: Sequence[StopCondition], record: StepRecord, driver) -> Optional[str]:
    """The first reason one of ``conditions`` gives to stop, or ``None``."""
    for condition in conditions:
        reason = condition(record, driver)
        if reason is not None:
            return reason
    return None


def stop_when_size_at_least(target: int) -> StopCondition:
    """Stop once the network grew to ``target`` nodes."""

    def condition(record: StepRecord, driver) -> Optional[str]:
        if record.network_size >= target:
            return f"size >= {target}"
        return None

    return condition


def stop_when_size_at_most(target: int) -> StopCondition:
    """Stop once the network shrank to ``target`` nodes."""

    def condition(record: StepRecord, driver) -> Optional[str]:
        if record.network_size <= target:
            return f"size <= {target}"
        return None

    return condition


def stop_when_compromised(cluster_id: Optional[ClusterId] = None) -> StopCondition:
    """Stop when any cluster (or a specific one) reaches the alarm threshold."""

    def condition(record: StepRecord, driver) -> Optional[str]:
        compromised = driver.compromised_clusters()
        if cluster_id is None:
            if compromised:
                return f"cluster {compromised[0]} compromised"
        elif cluster_id in compromised:
            return f"cluster {cluster_id} compromised"
        return None

    return condition


@dataclass
class RunResult:
    """Summary of one batch run (:func:`run_windows`)."""

    scenario: str
    steps: int
    events: int
    idle_steps: int
    elapsed_seconds: float
    final_size: int
    final_cluster_count: int
    final_worst_fraction: float
    peak_worst_fraction: float
    compromised_clusters: List[ClusterId]
    stop_reason: str
    probes: Dict[str, Any] = field(default_factory=dict)
    #: Logical shard count of a sharded run (0 for the classic single-engine
    #: path); under sharding, ``compromised_clusters`` holds composite
    #: cluster names (:func:`~repro.shard.messages.cluster_name`).
    shards: int = 0

    @property
    def events_per_second(self) -> float:
        """Applied churn events per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events / self.elapsed_seconds

    @property
    def safe(self) -> bool:
        """Whether no cluster was compromised at the end of the run."""
        return not self.compromised_clusters

    def summary_rows(self) -> List[List[Any]]:
        """The result as (metric, value) rows for table rendering."""
        return ([["shards", self.shards]] if self.shards else []) + [
            ["scenario", self.scenario],
            ["steps", self.steps],
            ["events applied", self.events],
            ["idle steps", self.idle_steps],
            ["elapsed seconds", f"{self.elapsed_seconds:.3f}"],
            ["events / second", f"{self.events_per_second:.1f}"],
            ["final network size", self.final_size],
            ["final cluster count", self.final_cluster_count],
            ["final worst corruption", f"{self.final_worst_fraction:.3f}"],
            ["peak worst corruption", f"{self.peak_worst_fraction:.3f}"],
            ["compromised clusters", len(self.compromised_clusters)],
            ["stop reason", self.stop_reason],
        ]

    def summary_table(self) -> str:
        """A plain-text summary table (the CLI's ``run-scenario`` output)."""
        return format_table(["metric", "value"], self.summary_rows())


class EventPull:
    """One run's pull on its event source: a time step per pull, and the idle rule.

    Iterating yields ``(step, event)`` for each time step that brought an
    event, numbered on from ``first_step``; a step whose source returned
    ``None`` is idle.  The pull ends once ``steps`` time steps are taken, or
    once ``max_idle_streak`` consecutive steps idled (:attr:`source_idle`:
    a finite workload such as pure growth idles forever once its target is
    reached).  The streak spans the windows of one pull, and each run starts
    a new pull.  Given events come as a pull that never idles
    (:meth:`given`) and ends when they run out.
    """

    def __init__(
        self,
        next_event: Callable[[], Any],
        steps: int,
        first_step: int = 1,
        max_idle_streak: Optional[int] = None,
    ) -> None:
        self._next_event = next_event
        self._budget = steps
        self._first = first_step
        self._max_idle = max_idle_streak
        self._streak = 0
        #: Time steps taken so far, and how many of them idled.
        self.steps = 0
        self.idle = 0
        #: Whether the pull ended on ``max_idle_streak`` idle steps in a row.
        self.source_idle = False

    @classmethod
    def given(cls, events: Iterable, first_step: int) -> "EventPull":
        """A pull over given events, one time step each (none is ``None``),
        taken lazily; it ends, taking no step, when they run out."""
        return cls(iter(events).__next__, sys.maxsize, first_step)

    @property
    def done(self) -> bool:
        """Whether the pull has ended (its budget spent, or its source idle)."""
        return self.source_idle or self.steps >= self._budget

    @property
    def events(self) -> int:
        """Time steps taken that brought an event."""
        return self.steps - self.idle

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        return self

    def __next__(self) -> Tuple[int, Any]:
        while not self.source_idle and self.steps < self._budget:
            try:
                event = self._next_event()
            except StopIteration:
                self._budget = self.steps  # given events ran out
                raise
            self.steps += 1
            if event is not None:
                self._streak = 0
                return self._first + self.steps - 1, event
            self.idle += 1
            self._streak += 1
            if self._max_idle is not None and self._streak >= self._max_idle:
                self.source_idle = True
        raise StopIteration


def refuse_run(driver, steps: int) -> None:
    """Refuse a batch run of ``steps`` time steps that ``driver`` cannot make."""
    if steps < 0:
        raise ConfigurationError("steps must be non-negative")
    if driver.source is None:
        raise ConfigurationError(NO_SOURCE.format(driver.name))


def run_windows(driver, steps: int, recorder=None) -> RunResult:
    """The batch loop: run up to ``steps`` time steps of ``driver``'s own source.

    ``driver`` (a :class:`SimulationRunner` or a shard coordinator) takes its
    windows from one :class:`EventPull` through its two halves:
    ``serve_dispatch(pull, observe)`` returns a window's token and
    ``serve_collect(token)`` its records, which the driver has published to
    its bus; ``recorder`` (a :class:`repro.trace.session.Recorder`, or the
    replay verifier in its seat) receives each collected window.

    It **routes ahead** — takes window *k+1*'s send half before window *k*'s
    receive half, so a coordinator routes while its workers execute — only
    when window *k* is still in flight (a runner's completes at dispatch, so
    the runner never pulls its next event early) and not ``driver.paced``,
    no stop condition is set
    (a stop can end the run mid-window, and routing ahead would consume
    source RNG for events that never execute), and the recorder will not
    hash or snapshot at window *k*'s end (``recorder.due``).  Every decision
    is still made in the serial order, so routing ahead moves no result bit.
    The stop reason is ``"steps exhausted"``, a stop condition's, or
    ``"source idle"`` (which wins).
    """
    refuse_run(driver, steps)
    bus = driver.bus
    # probes is a public list: pick up anything attached since the last
    # segment (the bus refuses a probe this driver cannot serve).
    bus.sync(driver.probes)
    bus.on_start()
    recording = recorder is not None
    stops = bool(driver.stop_conditions)
    observe = bool(bus.buffered_probes or recording or stops)
    pull = driver.pull(steps)
    collected = driver.total_events
    driver.peak_worst = 0.0
    stop_reason = "steps exhausted"
    started_at = time.perf_counter()
    try:
        token = None if pull.done else driver.serve_dispatch(pull, observe)
        while token is not None:
            in_flight = 0 if driver.paced else pull.events - (driver.total_events - collected)
            ahead = None
            if in_flight and not pull.done and not stops and not (recording and recorder.due(in_flight)):
                ahead = driver.serve_dispatch(pull, observe)
            records = driver.serve_collect(token)
            if recording:
                recorder.window(records)
            if driver.stopped is not None:
                stop_reason = driver.stopped[1]
                break
            if ahead is None and not pull.done:
                ahead = driver.serve_dispatch(pull, observe)
            token = ahead
    finally:
        # Deliver any partially filled batch — on clean exit so probe
        # results are complete before they go into the RunResult, and on
        # an exception so buffered probes are exact to the interrupt
        # point (as per-event inline probes always were).
        bus.flush()
    elapsed = time.perf_counter() - started_at
    if pull.source_idle:
        stop_reason = "source idle"

    status = driver.status()
    return RunResult(
        scenario=driver.name,
        steps=pull.steps,
        events=pull.events,
        idle_steps=pull.idle,
        elapsed_seconds=elapsed,
        final_size=status["network_size"],
        final_cluster_count=status["cluster_count"],
        final_worst_fraction=status["worst_byzantine_fraction"],
        peak_worst_fraction=driver.peak_worst,
        compromised_clusters=list(driver.compromised_clusters()),
        stop_reason=stop_reason,
        probes={probe.name: probe.result() for probe in driver.probes},
        shards=driver.shards,
    )


class WindowDriver:
    """What both drivers share beside :func:`run_windows`: given events.

    A run whose events are given (the live session, replay) moves through
    the same two halves as the batch loop: :meth:`dispatch` takes every
    event (one time step each, numbered by admission) and returns the
    token, :meth:`collect` its records.  A driver is a context manager that
    closes it.
    """

    _read_model = None
    #: Whether the source reads a fresh view before each event it draws:
    #: the coordinator then runs one-event windows, never routed ahead.
    paced = False

    @property
    def read_model(self):
        """The one :class:`~repro.shard.serve.ShardReadModel` over ``read_views``
        (built on first use; each collected window invalidates it)."""
        if self._read_model is None:
            from ..shard.serve import ShardReadModel  # local import: shard builds on scenarios

            self._read_model = ShardReadModel(self.read_views, self.params, self.nodes.is_byzantine)
        return self._read_model

    def views_changed(self) -> None:
        """Drop the read model's views: a window was applied."""
        if self._read_model is not None:
            self._read_model.invalidate()

    def take_source(self, source) -> None:
        """Make ``source`` the run's event source (``None``: events are given),
        bound by :func:`bind_event_source`."""
        self.source = source
        self.paced = bool(getattr(source, "reads_clusters", False))
        self._next_event = None if source is None else bind_event_source(source, self)

    def dispatch(self, events: Iterable) -> List[Any]:
        """Queue ``events`` as the driver's windows; the token.  Each event is
        taken once every earlier one is applied (runner) or routed (coordinator)."""
        pull = EventPull.given(events, self.total_steps + 1)
        tokens = []
        while not pull.done:
            tokens.append(self.serve_dispatch(pull))
        return tokens

    def collect(self, token: List[Any]) -> List[StepRecord]:
        """The records of every window :meth:`dispatch` queued, in admission order."""
        records: List[StepRecord] = []
        for part in token:
            records += self.serve_collect(part)
        return records

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SimulationRunner(WindowDriver):
    """Drives one engine with one event source, probing every step.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.engine.NowEngine` (any placement rule).
    source:
        Per-step event source (workload, adversary, mixed driver, or any
        object with ``next_event``), reading the read-only
        :class:`~repro.adversary.base.AdversaryContext`.  ``None`` for a
        run whose events are given to :meth:`dispatch`.
    probes:
        :class:`~repro.scenarios.probes.Probe` instances observing the run.
    stop_conditions:
        :data:`StopCondition` callables evaluated after each applied event;
        the first non-``None`` reason ends the run.
    max_idle_streak:
        Stop after this many consecutive idle steps (see :class:`EventPull`);
        ``None`` keeps looping through idle steps.
    """

    #: Logical shard count in a :class:`RunResult`: 0, the single engine.
    shards = 0

    def __init__(
        self,
        engine,
        source,
        probes: Sequence[Probe] = (),
        stop_conditions: Sequence[StopCondition] = (),
        max_idle_streak: Optional[int] = None,
        name: str = "scenario",
    ) -> None:
        self.engine = engine
        #: What pre-flight admission reads (see ``repro.service.session``).
        self.params = engine.parameters
        self.probes: List[Probe] = list(probes)
        self.bus = ObservationBus(engine, self.probes)
        self.stop_conditions: List[StopCondition] = list(stop_conditions)
        self.max_idle_streak = max_idle_streak
        self.name = name
        #: The raw event source (exposed so checkpointing can snapshot its
        #: RNG streams alongside the engine state — see ``repro.trace``).
        self.take_source(source)
        self.total_steps = 0
        self.total_events = 0
        #: ``(1, reason)`` if the last window's event fired a stop condition.
        self.stopped: Optional[Tuple[int, str]] = None
        #: The worst corruption any applied event reported since
        #: :func:`run_windows` last reset it (a run's peak).
        self.peak_worst = 0.0

    # ------------------------------------------------------------------
    # The step loop
    # ------------------------------------------------------------------
    def run(self, steps: int, recorder=None) -> RunResult:
        """Run up to ``steps`` time steps and return the result summary (:func:`run_windows`)."""
        return run_windows(self, steps, recorder)

    def pull(self, steps: int) -> EventPull:
        """A run's pull on the source; its steps are numbered from 1, the run's own."""
        return EventPull(self._next_event, steps, 1, self.max_idle_streak)

    def serve_dispatch(self, pull: EventPull, observe: bool = True) -> List[StepRecord]:
        """Apply ``pull``'s next event inline: a window of one, complete at dispatch.

        The token is the window's records: the event's, when one was built
        (``observe``, or a buffered probe), and none for a window that only
        idled.  :attr:`stopped` says whether the event fired a stop condition.
        """
        taken = pull.steps
        pulled = next(pull, None)
        # Kept current so a mid-run checkpoint reads its progress here.
        self.total_steps += pull.steps - taken
        self.stopped = None
        if pulled is None:
            return []
        step, event = pulled
        report = self.engine.apply_event(event)
        self.total_events += 1
        if report.worst_byzantine_fraction > self.peak_worst:
            self.peak_worst = report.worst_byzantine_fraction
        record = self.bus.publish(report, step, observe)
        if self.stop_conditions:
            reason = first_stop(self.stop_conditions, record, self)
            if reason is not None:
                self.stopped = (1, reason)
        return [] if record is None else [record]

    def serve_collect(self, token: List[StepRecord]) -> List[StepRecord]:
        """The dispatched window's records (it completed at dispatch)."""
        self.views_changed()
        return token

    @property
    def nodes(self):
        """The engine's node registry, current as of the last dispatch."""
        return self.engine.state.nodes

    def state_hash(self) -> str:
        """The engine's state hash."""
        return self.engine.state_hash()

    def compromised_clusters(self) -> List[ClusterId]:
        """The engine's compromised clusters (what ``stop_when_compromised`` reads)."""
        return self.engine.compromised_clusters()

    def status(self) -> Dict[str, Any]:
        """The engine's observables: the live ``status`` response's share."""
        engine = self.engine
        return {
            "network_size": engine.network_size,
            "cluster_count": engine.cluster_count,
            "worst_byzantine_fraction": engine.worst_cluster_fraction(),
            "time_step": engine.state.time_step,
        }

    def read_views(self) -> List[Dict[str, Any]]:
        """The one engine's read view (see :mod:`repro.shard.serve`)."""
        from ..shard.serve import engine_view  # local import: shard builds on scenarios

        return [engine_view(self.engine)]

    def close(self) -> None:
        """Nothing to shut down: the engine lives in this process."""

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run_until_size(self, target: int, max_steps: int) -> RunResult:
        """Run until the network reaches ``target`` nodes (bounded by ``max_steps``).

        Grows or shrinks towards the target depending on the current size;
        already at the target, it returns immediately without stepping.
        """
        size = self.engine.network_size
        if size == target:
            return self.run(0)
        condition = (
            stop_when_size_at_least(target)
            if size < target
            else stop_when_size_at_most(target)
        )
        self.stop_conditions.append(condition)
        try:
            return self.run(max_steps)
        finally:
            self.stop_conditions.remove(condition)
