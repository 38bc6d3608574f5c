"""Probes: pluggable observers for :class:`~repro.scenarios.runner.SimulationRunner`.

A probe watches a run without owning the loop.  Since the streaming
observation pipeline, probes come in two flavours, declared by the
``inline`` attribute:

* **inline probes** (``inline = True``) — the runner's
  :class:`~repro.scenarios.bus.ObservationBus` calls
  :meth:`Probe.on_step(engine, report, step_index)` synchronously after
  every applied event.  Use this only for O(1) reads that must see the
  engine at the instant of the event (e.g. a targeted cluster's corruption
  fraction).
* **buffered probes** (``inline = False``) — the bus batches lightweight
  :class:`~repro.scenarios.bus.StepRecord` objects and calls
  :meth:`Probe.on_records(engine, records)` every N events, keeping
  arbitrary measurement cost off the engine's hot loop.  Records carry
  every per-step observable, so the built-ins below never touch the engine.

Either way, probes draw no randomness and never mutate the engine, so
attaching probes does not change a run's trajectory — and buffered
observation is measurement-identical to inline observation (property-tested).

The built-ins stream into O(1) running aggregates
(:class:`~repro.analysis.statistics.RunningSummary`: count / peak /
Welford mean-variance, plus a bounded deterministically decimated series)
instead of unbounded per-step lists, so memory stays flat over million-event
horizons:

* :class:`CorruptionTrajectoryProbe` — worst (or targeted) cluster corruption,
* :class:`SizeTrajectoryProbe`       — network size / cluster count,
* :class:`CostLedgerProbe`           — per-operation message/round costs as
  running sums and counts,
* :class:`CallbackProbe`             — arbitrary measurement hooks, inline or
  buffered, optionally sampled every ``every`` steps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..analysis.statistics import DEFAULT_SAMPLE_CAP, RunningSummary, TrajectorySummary
from ..core.cluster import ClusterId
from .bus import StepRecord

#: Default cap on retained trajectory points before deterministic decimation
#: (one constant shared with :class:`~repro.analysis.statistics.RunningSummary`).
DEFAULT_SERIES_CAP = DEFAULT_SAMPLE_CAP


class Probe:
    """Base class of run observers (all hooks optional).

    Subclasses set ``inline = False`` (class- or instance-level) to receive
    batched :meth:`on_records` deliveries instead of per-event
    :meth:`on_step` calls.
    """

    name = "probe"
    #: Whether the probe runs synchronously per applied event (True) or as a
    #: buffered consumer of batched step records (False).
    inline = True

    def on_start(self, engine) -> None:
        """Called once before the first step the probe observes."""

    def on_step(self, engine, report, step_index: int) -> None:
        """Inline hook: called after each applied event with the live report."""

    def on_records(self, engine, records: Sequence[StepRecord]) -> None:
        """Buffered hook: called with a batch of step records on flush.

        ``engine`` is the live engine *at flush time* — batched records in
        between may have moved it past the individual events, so buffered
        probes should measure from the records, not the engine.
        """

    def result(self) -> Any:
        """The probe's accumulated measurement (stored in the run result)."""
        return None


class CorruptionTrajectoryProbe(Probe):
    """Tracks cluster corruption per step with O(1) running aggregates.

    Without a target, the tracked series is the worst per-cluster fraction —
    carried on every step record, so the probe runs buffered (off the hot
    path) by default; pass ``inline=True`` (the same flag every probe takes)
    to force the synchronous per-event lane.  With ``target_cluster`` set,
    the probe follows that cluster specifically — the join–leave-attack
    measurements — which requires reading the engine at the instant of each
    event, so the probe forces itself inline (falling back to the worst
    fraction once the target is dissolved).  ``target_cluster="first"`` (as
    in an adversary spec) names the started engine's lowest cluster id.

    ``series`` is the retained trajectory: complete up to ``series_cap``
    points, then deterministically decimated (every ``series_stride``-th
    point kept) so memory stays bounded on million-event runs.  Peak, mean,
    exceedance counts and the first threshold crossing stay exact.
    """

    name = "corruption"

    def __init__(
        self,
        threshold: float = 1.0 / 3.0,
        target_cluster: "ClusterId | str | None" = None,
        inline: bool = False,
        series_cap: int = DEFAULT_SERIES_CAP,
    ) -> None:
        self.threshold = threshold
        self.target_cluster = target_cluster
        self.inline = inline or target_cluster is not None
        self._stat = RunningSummary(threshold=threshold, sample_cap=series_cap)
        self.first_step_at_threshold: Optional[int] = None

    def on_start(self, engine) -> None:
        if self.target_cluster == "first":
            self.target_cluster = engine.state.clusters.cluster_ids()[0]

    def _observe(self, fraction: float, step_index: int) -> None:
        self._stat.push(fraction)
        if self.first_step_at_threshold is None and fraction >= self.threshold:
            self.first_step_at_threshold = step_index

    def on_step(self, engine, report, step_index: int) -> None:
        if self.target_cluster is not None and self.target_cluster in engine.state.clusters:
            fraction = engine.state.cluster_byzantine_fraction(self.target_cluster)
        else:
            fraction = report.worst_byzantine_fraction
        self._observe(fraction, step_index)

    def on_records(self, engine, records: Sequence[StepRecord]) -> None:
        for record in records:
            self._observe(record.worst_fraction, record.step_index)

    @property
    def series(self) -> List[float]:
        """The retained corruption trajectory (decimated beyond the cap)."""
        return self._stat.series

    @property
    def series_stride(self) -> int:
        """Spacing between retained points (1 while the series is complete)."""
        return self._stat.series_stride

    @property
    def count(self) -> int:
        """Number of observed steps (exact, unaffected by decimation)."""
        return self._stat.count

    @property
    def peak(self) -> float:
        """Highest tracked fraction so far (exact)."""
        return self._stat.maximum if self._stat.count else 0.0

    @property
    def captured(self) -> bool:
        """Whether the tracked fraction ever reached the threshold."""
        return self.first_step_at_threshold is not None

    def summary(self) -> TrajectorySummary:
        """Trajectory summary statistics (mean / quantiles / exceedances)."""
        return self._stat.summary()

    def result(self) -> Dict[str, Any]:
        return {
            "series": self.series,
            "series_stride": self.series_stride,
            "count": self.count,
            "peak": self.peak,
            "first_step_at_threshold": self.first_step_at_threshold,
            "captured": self.captured,
        }


class SizeTrajectoryProbe(Probe):
    """Records network size and cluster count with running aggregates.

    Buffered by default (``inline=True`` forces the per-event lane) — both
    quantities ride on every step record.  The ``sizes`` / ``cluster_counts``
    series are retained up to ``series_cap`` points each, then decimated;
    final / max / min stay exact.
    """

    name = "size"

    def __init__(self, inline: bool = False, series_cap: int = DEFAULT_SERIES_CAP) -> None:
        self.inline = inline
        self._sizes = RunningSummary(sample_cap=series_cap)
        self._clusters = RunningSummary(sample_cap=series_cap)

    def _observe(self, size: int, cluster_count: int) -> None:
        self._sizes.push(size)
        self._clusters.push(cluster_count)

    def on_step(self, engine, report, step_index: int) -> None:
        self._observe(report.network_size, report.cluster_count)

    def on_records(self, engine, records: Sequence[StepRecord]) -> None:
        for record in records:
            self._observe(record.network_size, record.cluster_count)

    @property
    def sizes(self) -> List[int]:
        """Retained network-size trajectory (decimated beyond the cap)."""
        return self._sizes.series

    @property
    def cluster_counts(self) -> List[int]:
        """Retained cluster-count trajectory (decimated beyond the cap)."""
        return self._clusters.series

    @property
    def count(self) -> int:
        """Number of observed steps (exact)."""
        return self._sizes.count

    def result(self) -> Dict[str, Any]:
        observed = self._sizes.count > 0
        return {
            "sizes": self.sizes,
            "cluster_counts": self.cluster_counts,
            "series_stride": self._sizes.series_stride,
            "count": self._sizes.count,
            "final_size": self._sizes.last if observed else None,
            "max_size": self._sizes.maximum if observed else None,
            "min_size": self._sizes.minimum if observed else None,
        }


class CostLedgerProbe(Probe):
    """Accumulates per-operation communication costs as running sums.

    Every step's :class:`~repro.core.engine.MaintenanceReport` carries an
    ``operation`` report, under every placement rule, so cost tables compare
    across rules (a comparison rule's placement itself is free; its splits
    and merges are NOW's and cost what they cost there).

    Memory is O(#operations): only per-operation sums and counts are kept
    (the per-step cost lists of the original implementation grew without
    bound).  The ``count`` / ``mean_*`` / ``total_messages`` API and the
    :meth:`result` shape are unchanged; ``messages_by_operation`` /
    ``rounds_by_operation`` now map operation name -> running total.
    """

    name = "costs"
    inline = False

    def __init__(self) -> None:
        self._message_totals: Dict[str, int] = {}
        self._round_totals: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}

    def _observe(self, name: str, messages: int, rounds: int) -> None:
        self._message_totals[name] = self._message_totals.get(name, 0) + messages
        self._round_totals[name] = self._round_totals.get(name, 0) + rounds
        self._counts[name] = self._counts.get(name, 0) + 1

    def on_step(self, engine, report, step_index: int) -> None:
        operation = report.operation
        self._observe(operation.operation, operation.messages, operation.rounds)

    def on_records(self, engine, records: Sequence[StepRecord]) -> None:
        for record in records:
            self._observe(record.operation, record.messages, record.rounds)

    @property
    def messages_by_operation(self) -> Dict[str, int]:
        """Running message totals keyed by operation name."""
        return dict(self._message_totals)

    def operations(self) -> List[str]:
        """The recorded operation names, sorted."""
        return sorted(self._counts)

    def count(self, operation: str) -> int:
        """Number of recorded steps whose primary operation was ``operation``."""
        return self._counts.get(operation, 0)

    def mean_messages(self, operation: str) -> float:
        """Mean message cost of ``operation`` steps (0.0 when none occurred)."""
        steps = self._counts.get(operation, 0)
        return self._message_totals.get(operation, 0) / steps if steps else 0.0

    def mean_rounds(self, operation: str) -> float:
        """Mean round cost of ``operation`` steps (0.0 when none occurred)."""
        steps = self._counts.get(operation, 0)
        return self._round_totals.get(operation, 0) / steps if steps else 0.0

    def mean_messages_overall(self) -> float:
        """Mean message cost across every recorded step (0.0 when empty)."""
        total_steps = sum(self._counts.values())
        return self.total_messages() / total_steps if total_steps else 0.0

    def total_messages(self) -> int:
        """Total messages across every recorded operation."""
        return sum(self._message_totals.values())

    def result(self) -> Dict[str, Any]:
        return {
            "mean_messages": {name: self.mean_messages(name) for name in self._counts},
            "counts": dict(self._counts),
            "total_messages": self.total_messages(),
        }


class CallbackProbe(Probe):
    """Runs a measurement callable every ``every`` applied events.

    Inline (the default), ``fn(engine, report, step_index)`` runs
    synchronously per sampled event with the live report — use this when the
    callback must read engine state at the instant of the event.

    With ``inline=False`` the callback runs at buffer-flush boundaries and
    receives the :class:`~repro.scenarios.bus.StepRecord` in place of the
    report: ``fn(engine, record, step_index)``.  Callbacks that measure from
    the record alone are measurement-identical to their inline counterparts;
    callbacks that read the engine see it at flush time.  This is the lane
    for expensive measurements (spectral gap, expansion estimates) that must
    not stall the hot loop.

    ``None`` results are collected too, so the callback can be used purely
    for side effects such as sampling the overlay.
    """

    name = "callback"

    def __init__(
        self,
        fn: Callable,
        every: int = 1,
        name: Optional[str] = None,
        inline: bool = True,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self._fn = fn
        self._every = every
        self._calls = 0
        self.inline = inline
        self.values: List[Any] = []
        if name is not None:
            self.name = name

    def on_step(self, engine, report, step_index: int) -> None:
        self._calls += 1
        if self._calls % self._every == 0:
            self.values.append(self._fn(engine, report, step_index))

    def on_records(self, engine, records: Sequence[StepRecord]) -> None:
        for record in records:
            self._calls += 1
            if self._calls % self._every == 0:
                self.values.append(self._fn(engine, record, record.step_index))

    def result(self) -> List[Any]:
        return self.values
