"""The shard coordinator: barrier-windowed execution of one sharded run.

:class:`ShardCoordinator` owns the single-threaded side of a sharded run —
the event source, the router/directory, the observation bus and the merge
state — and drives the shard workers in **barrier windows**:

1. pull up to ``barrier_interval`` events from the workload/adversary (which
   sample the *composite* population through the
   :class:`~repro.shard.router.ShardedEngineFacade`), routing the window in
   one batched pass (:meth:`~repro.shard.router.EventRouter.route_window`)
   into packed per-shard wire buffers;
2. **dispatch** the window — queue each shard's packed batch on its worker
   transport, plan the barrier's rebalance move from the directory and
   queue its handoff commands behind the batches;
3. **route the next window while the workers execute** (the pipelining that
   gives the overlap): routing depends only on the directory and the
   source's own RNG streams, both coordinator-owned, so routing window
   *k+1* before window *k*'s replies arrive is bit-identical to the serial
   order.  Due index frames/checkpoints, idle exhaustion and stop
   conditions flush the pipeline (see :meth:`ShardCoordinator.run`);
4. receive window *k*'s replies, fold the packed observation rows back into
   the global event order (:class:`~repro.shard.merge.ObservationMerger`),
   publish the merged records to the observation bus / trace writer,
   evaluate stop conditions, and drain the barrier's seq-numbered
   :class:`~repro.shard.messages.HandoffMessage` replies.

Everything that decides future behaviour happens on this single thread in a
fixed order — route *k*, plan barrier *k*, route *k+1* — so the run is
**bit-identical for every worker count and for both pipeline modes**: the
workers only execute the per-shard event batches, whose content never
depends on how shards are packed into processes or on when replies are
collected.  ``workers=1`` executes the same logical shards through the
in-process :class:`~repro.shard.worker.InlineTransport` and is the
correctness oracle the property tests compare against.  ``phase_times``
accumulates a per-phase wall-time breakdown
(route / serialize / worker_execute / merge / idle) that the throughput
benchmark records next to its rates.

Two semantics differ from the single-engine runner, both barrier-granular by
construction and documented in ``docs/SHARDING.md``:

* stop conditions are evaluated on the *merged* records after each window —
  when one triggers, observation (probes, trace) is truncated at the
  triggering record but the shard engines complete the window;
* the compromised-cluster set fed to stop conditions refreshes once per
  window (cluster interiors live on the workers), so a compromise anywhere
  in a window is visible to all of that window's records.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import DEFAULT_PROBE_BUFFER, ObservationBus, StepRecord
from ..scenarios.runner import RunResult, StopCondition, bind_event_source
from .merge import ObservationMerger, composite_state_hash
from .messages import HandoffMessage, RoutedEvent
from .router import (
    EventRouter,
    ShardDirectory,
    ShardedEngineFacade,
    WindowBatch,
    plan_rebalance,
    slice_sizes,
)
from .worker import InlineTransport, ProcessTransport, ShardWorkerError

#: The coordinator's per-phase wall-time buckets (see ``phase_times``).
PHASE_KEYS = ("route", "serialize", "worker_execute", "merge", "idle")

#: Events per barrier window (cross-shard handoffs drain on this cadence).
DEFAULT_BARRIER_INTERVAL = 64
#: Shard-size spread above which a rebalance move is planned.
DEFAULT_REBALANCE_THRESHOLD = 16

#: Adversaries that work against the composite facade.  The other strategies
#: read cluster interiors (targets, membership) — knowledge that lives on the
#: workers, not the coordinator — and are rejected up front.
SUPPORTED_ADVERSARIES = {"oblivious"}

_SHARD_OPTION_KEYS = {"barrier_interval", "rebalance_threshold", "min_shard_size"}


class _RecordEngineView:
    """Engine stand-in for stop conditions: the merged record's observables."""

    __slots__ = ("network_size", "cluster_count")

    def __init__(self, record: StepRecord) -> None:
        self.network_size = record.network_size
        self.cluster_count = record.cluster_count


class _RecordReportView:
    """Report stand-in for stop conditions evaluated on a merged record."""

    __slots__ = (
        "time_step",
        "network_size",
        "cluster_count",
        "worst_byzantine_fraction",
        "compromised_clusters",
    )

    def __init__(self, record: StepRecord, compromised: List[Tuple[int, int]]) -> None:
        self.time_step = record.time_step
        self.network_size = record.network_size
        self.cluster_count = record.cluster_count
        self.worst_byzantine_fraction = record.worst_fraction
        self.compromised_clusters = compromised


class ShardCoordinator:
    """Runs one scenario as ``scenario.shards`` engines across worker processes.

    ``workers`` is an execution choice only (clamped to ``[1, shards]``);
    the logical shard count — and therefore every result bit — comes from
    the scenario.  ``workers=1`` executes inline in this process.
    """

    def __init__(
        self,
        scenario,
        workers: int = 1,
        probes: Sequence = (),
        stop_conditions: Sequence[StopCondition] = (),
        probe_buffer: int = DEFAULT_PROBE_BUFFER,
        barrier_interval: Optional[int] = None,
        trace_writer=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        pipeline: bool = True,
        _checkpoint: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.scenario = scenario
        self.shards = int(getattr(scenario, "shards", 0))
        if self.shards < 1:
            raise ConfigurationError(
                "sharded execution needs scenario.shards >= 1 "
                "(set the spec's 'shards' field or pass --shards)"
            )
        self._validate_scenario(scenario)
        self.params = scenario.parameters()

        options = dict(getattr(scenario, "shard_options", None) or {})
        unknown = set(options) - _SHARD_OPTION_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown shard_options {sorted(unknown)}; "
                f"expected a subset of {sorted(_SHARD_OPTION_KEYS)}"
            )
        self.barrier_interval = int(
            barrier_interval
            if barrier_interval is not None
            else options.get("barrier_interval", DEFAULT_BARRIER_INTERVAL)
        )
        if self.barrier_interval < 1:
            raise ConfigurationError("barrier_interval must be >= 1")
        self.rebalance_threshold = int(
            options.get("rebalance_threshold", DEFAULT_REBALANCE_THRESHOLD)
        )
        self.min_shard_size = int(
            options.get("min_shard_size", self.params.target_cluster_size)
        )
        if self.min_shard_size < 1:
            raise ConfigurationError("min_shard_size must be >= 1")

        self.probes = list(probes)
        self._validate_probes(self.probes)
        self.stop_conditions: List[StopCondition] = list(stop_conditions)
        self.trace_writer = trace_writer
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every

        sizes0 = slice_sizes(scenario.initial_size, self.shards)
        # Each slice bootstraps its own engine, which needs at least two
        # clusters to shuffle between.
        slice_floor = 2 * self.params.target_cluster_size
        if min(sizes0) < slice_floor:
            raise ConfigurationError(
                f"initial_size {scenario.initial_size} over {self.shards} shards "
                f"gives a slice of {min(sizes0)} nodes, below the two-cluster "
                f"minimum {slice_floor} (2x target cluster size); use fewer "
                "shards or a larger initial population"
            )

        self.workers = max(1, min(int(workers), self.shards))
        scenario_data = scenario.to_dict()
        restore = None
        if _checkpoint is not None:
            restore = {
                int(shard): payload for shard, payload in _checkpoint["shards"].items()
            }
            if sorted(restore) != list(range(self.shards)):
                raise ConfigurationError(
                    "checkpoint shard snapshots do not cover shards "
                    f"0..{self.shards - 1}"
                )
        self._transports = []
        self._transport_of: Dict[int, Any] = {}
        for worker in range(self.workers):
            hosted = [
                shard
                for shard in range(self.shards)
                if shard * self.workers // self.shards == worker
            ]
            hosted_restore = (
                {shard: restore[shard] for shard in hosted} if restore else None
            )
            transport_cls = InlineTransport if self.workers == 1 else ProcessTransport
            transport = transport_cls(scenario_data, hosted, sizes0, restore=hosted_restore)
            self._transports.append(transport)
            for shard in hosted:
                self._transport_of[shard] = transport

        if _checkpoint is None:
            self.directory = ShardDirectory(self.shards)
            info = self._gather_all("bootstrap_info")
            merged_info: Dict[int, Dict[str, Any]] = {}
            for payload in info:
                merged_info.update(payload)
            base = 0
            summaries: List[Dict[str, Any]] = []
            for shard in range(self.shards):
                byzantine = set(merged_info[shard]["byzantine"])
                for gid in range(base, base + sizes0[shard]):
                    role = (
                        NodeRole.BYZANTINE if gid in byzantine else NodeRole.HONEST
                    )
                    self.directory.register_initial(shard, gid, role)
                base += sizes0[shard]
                summaries.append(merged_info[shard]["summary"])
            self.merger = ObservationMerger(summaries)
            self._seq: Dict[Tuple[int, int], int] = {}
            self.total_steps = 0
            self.total_events = 0
        else:
            self.directory = ShardDirectory.from_snapshot(_checkpoint["router"])
            self.merger = ObservationMerger.from_snapshot(_checkpoint["merge"])
            self._seq = {
                (int(src), int(dst)): int(seq)
                for src, dst, seq in _checkpoint.get("seq", [])
            }
            self.total_steps = int(_checkpoint.get("steps_done", 0))
            self.total_events = int(_checkpoint.get("events_done", 0))

        self.router = EventRouter(self.directory)
        self.facade = ShardedEngineFacade(self.params, self.directory)
        self._refresh_facade()
        if scenario.workload is None and scenario.adversary is None:
            # Serve mode (repro.trace.backend): events arrive from live
            # clients through serve_dispatch, not from a workload source.
            self.source = None
        else:
            self.source = scenario.build_source(self.facade)
        if _checkpoint is not None:
            self.source.restore_state(_checkpoint["source"])
            expected = _checkpoint.get("state_hash")
            restored = self.state_hash()
            if expected is not None and restored != expected:
                raise ConfigurationError(
                    "restored sharded state hash does not match the checkpoint "
                    f"({restored[:12]} != {expected[:12]}); the checkpoint is "
                    "corrupt or was produced by an incompatible version"
                )
        self._next_event = (
            bind_event_source(self.facade, self.source)
            if self.source is not None
            else None
        )
        #: Events accepted by serve_dispatch (== total_events once collected);
        #: serve-mode barriers run when this crosses a barrier_interval
        #: multiple, so shard evolution is a pure function of the admitted
        #: event sequence, independent of how the live pump chunks windows.
        self.events_admitted = self.total_events
        try:
            self.bus = ObservationBus(self.facade, self.probes, buffer_size=probe_buffer)
        except ValueError as error:
            raise ConfigurationError(str(error)) from None

        self._started = False
        self.handoffs_sent = 0
        self.last_handoffs: List[HandoffMessage] = []
        self.barriers_run = 0
        self._last_indexed = 0
        self._events_since_checkpoint = 0
        #: ``pipeline=False`` forces the serial route→execute→merge loop
        #: (the oracle the pipelined ≡ unpipelined property compares
        #: against); pipelining is an execution choice, never semantic.
        self.pipeline = bool(pipeline)
        #: Windows whose routing overlapped the previous window's execution.
        self.windows_pipelined = 0
        #: Cumulative per-phase wall seconds across ``run`` calls.
        #: ``route``/``serialize``/``merge`` are coordinator work;
        #: ``worker_execute`` sums the workers' self-timed apply seconds
        #: (an aggregate across processes, so it can exceed wall time);
        #: ``idle`` is coordinator time blocked on apply replies beyond the
        #: matching self-timed seconds — the residual pipelining removes.
        self.phase_times: Dict[str, float] = {key: 0.0 for key in PHASE_KEYS}

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_scenario(scenario) -> None:
        if scenario.engine != "now":
            raise ConfigurationError(
                f"sharded execution supports the 'now' engine only, not "
                f"{scenario.engine!r}"
            )
        if scenario.keep_reports:
            raise ConfigurationError(
                "keep_reports is not supported under sharded execution "
                "(per-event MaintenanceReports are shard-local)"
            )
        adversary = scenario.adversary
        if adversary is not None:
            kind = adversary.get("kind")
            if kind not in SUPPORTED_ADVERSARIES:
                raise ConfigurationError(
                    f"adversary kind {kind!r} is not supported under sharded "
                    f"execution (it needs cluster-interior knowledge, which is "
                    f"shard-local); supported: {sorted(SUPPORTED_ADVERSARIES)}"
                )

    @staticmethod
    def _validate_probes(probes: Sequence) -> None:
        names = [probe.name for probe in probes]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ConfigurationError(
                f"duplicate probe names {sorted(duplicates)}; give each probe "
                "a distinct name="
            )
        inline = [probe.name for probe in probes if probe.inline]
        if inline:
            raise ConfigurationError(
                f"inline probes {inline} are not supported under sharded "
                "execution (there is no single live engine to read per event); "
                "use buffered probes"
            )

    # ------------------------------------------------------------------
    # Worker fan-out helpers
    # ------------------------------------------------------------------
    def _gather_all(self, method: str, *args: Any) -> List[Any]:
        """Run a no-shard-argument command on every transport concurrently."""
        for transport in self._transports:
            transport.send(method, *args)
        return [transport.recv() for transport in self._transports]

    def _gather_shards(
        self, requests: List[Tuple[int, tuple]], method: str
    ) -> Dict[int, Any]:
        """Run ``method(shard, *args)`` for each request, overlapping workers."""
        order: List[Tuple[int, Any]] = []
        for shard, args in requests:
            transport = self._transport_of[shard]
            transport.send(method, shard, *args)
            order.append((shard, transport))
        return {shard: transport.recv() for shard, transport in order}

    # ------------------------------------------------------------------
    # Composite state
    # ------------------------------------------------------------------
    def state_hash(self) -> str:
        """The composite state hash: per-shard engine hashes + router state."""
        hashes = self._gather_shards(
            [(shard, ()) for shard in range(self.shards)], "state_hash"
        )
        return composite_state_hash(
            [hashes[shard] for shard in range(self.shards)],
            self.directory.fingerprint(),
        )

    def _refresh_facade(self) -> None:
        self.facade.update_composite(
            self.merger.cluster_count,
            self.merger.worst_fraction,
            self.merger.compromised(),
        )

    # ------------------------------------------------------------------
    # The barrier-window loop
    # ------------------------------------------------------------------
    def run(self, steps: int) -> RunResult:
        """Run up to ``steps`` time steps and return the result summary.

        The loop is **double-buffered**: window *k*'s apply batches and
        barrier commands are dispatched (queued on the transport pipes),
        window *k+1* is routed while the workers execute them, and only
        then are *k*'s replies received and merged.  Every decision is
        still made on this thread in the serial order — route *k*, plan
        barrier *k*, route *k+1* — so the pipelined run is bit-identical
        to the serial one (``pipeline=False``), which the equivalence
        property tests pin.

        Three conditions flush the pipeline (window *k+1* is not routed
        ahead): a due trace index frame or checkpoint (both hash worker
        state, so the pipe must drain first — predicted exactly from the
        window's event count before dispatch), an idle-exhausted window,
        and stop conditions, which disable pipelining outright: a stop can
        truncate the run mid-window, and routing ahead would consume
        source RNG for events that never execute.
        """
        if steps < 0:
            raise ConfigurationError("steps must be non-negative")
        if self._next_event is None:
            raise ConfigurationError(
                "this coordinator has no event source (serve mode); drive it "
                "through serve_dispatch/serve_collect instead of run()"
            )
        self.bus.sync(self.probes)
        if not self._started:
            self.bus.on_start()
            self._started = True
        observe = bool(
            self.bus.buffered_probes or self.trace_writer or self.stop_conditions
        )
        max_idle_streak = self.scenario.max_idle_streak
        pipelining = self.pipeline and not self.stop_conditions
        phase = self.phase_times
        perf = time.perf_counter

        events = 0
        idle = 0
        executed = 0
        peak_worst = 0.0
        stop_reason = "steps exhausted"
        stopping = False
        started_at = perf()

        def route_next(next_step: int, remaining: int, streak: int) -> WindowBatch:
            clock = perf()
            window = self.router.route_window(
                self._next_event,
                next_step=next_step,
                limit=self.barrier_interval,
                max_steps=remaining,
                idle_streak=streak,
                max_idle_streak=max_idle_streak,
            )
            phase["route"] += perf() - clock
            return window

        try:
            window = route_next(1, steps, 0) if steps > 0 else None
            while window is not None and window.steps > 0 and not stopping:
                executed += window.steps
                idle += window.idle
                routed_window = window.routed

                # -- 1. dispatch window k (send only; replies stay queued)
                order: List[Tuple[int, Any]] = []
                apply_expected: Dict[int, int] = {}
                if routed_window:
                    apply_expected = {
                        shard: self.directory.sizes[shard] for shard in window.batches
                    }
                    clock = perf()
                    for shard, batch in sorted(window.batches.items()):
                        transport = self._transport_of[shard]
                        transport.send("apply", shard, batch, observe)
                        order.append((shard, transport))
                    phase["serialize"] += perf() - clock

                # -- 2. plan barrier k from the directory and queue it ---
                barrier = self._send_barrier()

                # -- 3. route window k+1 while the workers execute k -----
                next_window: Optional[WindowBatch] = None
                if (
                    pipelining
                    and routed_window
                    and window.idle_reason is None
                    and executed < steps
                    and not self._index_due(len(routed_window))
                    and not self._checkpoint_due(len(routed_window))
                ):
                    next_window = route_next(
                        executed + 1, steps - executed, window.idle_streak
                    )
                    self.windows_pipelined += 1

                # -- 4. receive and merge window k's observations --------
                if routed_window:
                    replies: Dict[int, Dict[str, Any]] = {}
                    for shard, transport in order:
                        clock = perf()
                        reply = transport.recv()
                        waited = perf() - clock
                        worker_elapsed = reply.get("elapsed", 0.0)
                        phase["worker_execute"] += worker_elapsed
                        phase["idle"] += max(0.0, waited - worker_elapsed)
                        replies[shard] = reply
                    events += len(routed_window)
                    self.total_events += len(routed_window)
                    self._events_since_checkpoint += len(routed_window)
                    clock = perf()
                    if observe:
                        records = self.merger.merge_window(
                            routed_window,
                            {shard: reply["rows"] for shard, reply in replies.items()},
                        )
                    else:
                        self.merger.events_merged += len(routed_window)
                        records = []
                    self.merger.update_summaries(
                        {shard: reply["summary"] for shard, reply in replies.items()}
                    )
                    phase["merge"] += perf() - clock
                    self._check_sizes(replies, apply_expected)

                    # -- 5. publish + stop conditions --------------------
                    compromised = self.merger.compromised()
                    for record in records:
                        self.bus.publish_record(record)
                        if self.trace_writer is not None:
                            self.trace_writer.write_record(record)
                        if record.worst_fraction > peak_worst:
                            peak_worst = record.worst_fraction
                        reason = self._evaluate_stop(record, compromised)
                        if reason is not None:
                            stop_reason = reason
                            stopping = True
                            break

                # -- 6. drain barrier k, refresh composites --------------
                self._recv_barrier(barrier)
                self.barriers_run += 1
                self._refresh_facade()
                if self.merger.worst_fraction > peak_worst:
                    peak_worst = self.merger.worst_fraction
                if not stopping:
                    self._write_index_if_due(executed)
                    self._checkpoint_if_due()
                if window.idle_reason is not None:
                    stop_reason = window.idle_reason
                    break
                if stopping or executed >= steps:
                    break
                window = (
                    next_window
                    if next_window is not None
                    else route_next(executed + 1, steps - executed, window.idle_streak)
                )
        finally:
            self.bus.flush()
        elapsed = perf() - started_at
        self.total_steps += executed

        return RunResult(
            scenario=self.scenario.name,
            steps=executed,
            events=events,
            idle_steps=idle,
            elapsed_seconds=elapsed,
            final_size=self.directory.active_count(),
            final_cluster_count=self.merger.cluster_count,
            final_worst_fraction=self.merger.worst_fraction,
            peak_worst_fraction=peak_worst,
            compromised_clusters=self.merger.compromised(),
            stop_reason=stop_reason,
            probes={probe.name: probe.result() for probe in self.probes},
            reports=[],
            shards=self.shards,
        )

    def _evaluate_stop(
        self, record: StepRecord, compromised: List[Tuple[int, int]]
    ) -> Optional[str]:
        if not self.stop_conditions:
            return None
        engine_view = _RecordEngineView(record)
        report_view = _RecordReportView(record, compromised)
        for condition in self.stop_conditions:
            reason = condition(engine_view, report_view, record.step_index)
            if reason is not None:
                return reason
        return None

    def _check_sizes(
        self, replies: Dict[int, Dict[str, Any]], expected: Dict[int, int]
    ) -> None:
        """Cross-check worker sizes against the directory *as of the window*.

        ``expected`` is the directory's per-shard sizes captured at
        dispatch time: by the time the replies arrive, the live directory
        may already reflect the barrier's moves and the prefetched next
        window.
        """
        for shard, reply in replies.items():
            if reply["summary"]["size"] != expected[shard]:
                raise ShardWorkerError(
                    f"shard {shard} size diverged from the directory "
                    f"({reply['summary']['size']} != {expected[shard]})"
                )

    # ------------------------------------------------------------------
    # Barrier handoff (send/recv halves so the pipeline can overlap them)
    # ------------------------------------------------------------------
    def _send_barrier(self) -> Optional[Dict[str, Any]]:
        """Plan at most one rebalance move and queue its worker commands.

        The emigrant set is computed from the directory
        (:meth:`~repro.shard.router.ShardDirectory.emigrants` — the same
        largest-gids-first selection the donor worker used to make), so
        planning needs no worker round trip and the commands can queue
        behind the window's apply batches.  Both halves piggyback their
        post-handoff summary on the reply, consumed by
        :meth:`_recv_barrier` after the window's observations are merged.
        """
        self.last_handoffs = []
        plan = plan_rebalance(
            self.directory.sizes, self.rebalance_threshold, self.min_shard_size
        )
        if plan is None:
            return None
        src, dst, count = plan
        moves = self.directory.emigrants(src, count)
        base = self._seq.get((src, dst), 0)
        messages = [
            HandoffMessage(seq=base + offset, src=src, dst=dst, node_id=gid, role=role)
            for offset, (gid, role) in enumerate(moves)
        ]
        self._seq[(src, dst)] = base + len(messages)
        for message in messages:
            self.directory.move(message.node_id, dst)
        payload = [
            (message.src, message.seq, message.node_id, message.role)
            for message in sorted(messages, key=lambda m: (m.src, m.seq))
        ]
        src_transport = self._transport_of[src]
        dst_transport = self._transport_of[dst]
        src_transport.send("emigrate_ids", src, [m.node_id for m in messages])
        dst_transport.send("immigrate", dst, payload)
        self.handoffs_sent += len(messages)
        self.last_handoffs = messages
        return {
            "src": src,
            "dst": dst,
            "src_transport": src_transport,
            "dst_transport": dst_transport,
            # Post-move sizes, captured before any prefetch routing can
            # advance the live directory past this barrier.
            "expected": {
                src: self.directory.sizes[src],
                dst: self.directory.sizes[dst],
            },
        }

    def _recv_barrier(self, barrier: Optional[Dict[str, Any]]) -> None:
        """Drain the queued handoff replies and re-anchor the merge state."""
        if barrier is None:
            return
        src, dst = barrier["src"], barrier["dst"]
        summaries = {
            src: barrier["src_transport"].recv()["summary"],
            dst: barrier["dst_transport"].recv()["summary"],
        }
        self.merger.update_summaries(summaries)
        expected = barrier["expected"]
        for shard in (src, dst):
            if summaries[shard]["size"] != expected[shard]:
                raise ShardWorkerError(
                    f"post-handoff size of shard {shard} diverged from the "
                    f"directory ({summaries[shard]['size']} != "
                    f"{expected[shard]})"
                )

    # ------------------------------------------------------------------
    # Serve mode: explicit event windows from the live service
    # ------------------------------------------------------------------
    def events_until_barrier(self) -> int:
        """Remaining capacity of the current serve window (>= 1).

        Serve-mode barriers run when the cumulative admitted event count
        crosses a multiple of ``barrier_interval`` — never "once per pump
        window" — so a window may not straddle a multiple.  Callers chunk
        their admitted writes to this capacity.
        """
        return self.barrier_interval - (self.events_admitted % self.barrier_interval)

    def serve_dispatch(self, events: Sequence) -> Dict[str, Any]:
        """Route one window of client churn events and queue it (send half).

        The live service's entry point: ``events`` are pre-validated
        :class:`~repro.core.events.ChurnEvent` objects in admission order
        (leaves always name their node — the session resolves anonymous
        leaves against the directory before building the event).  The window
        is routed through :meth:`~repro.shard.router.EventRouter.
        route_window` into packed per-shard wire batches and dispatched
        without waiting for replies, so the caller can serve read traffic
        while the workers execute; :meth:`serve_collect` receives and merges
        the window.  If the window fills the current barrier interval, the
        barrier's handoff commands are planned and queued behind it, exactly
        as in the batch loop.
        """
        if self._next_event is not None:
            raise ConfigurationError(
                "serve_dispatch drives source-less coordinators only; this "
                "one owns a workload source (use run())"
            )
        count = len(events)
        if count < 1:
            raise ConfigurationError("a serve window needs at least one event")
        if count > self.events_until_barrier():
            raise ConfigurationError(
                f"serve window of {count} events crosses the next barrier "
                f"boundary ({self.events_until_barrier()} events away)"
            )
        phase = self.phase_times
        perf = time.perf_counter
        queue = iter(events)
        clock = perf()
        window = self.router.route_window(
            lambda: next(queue, None),
            next_step=self.events_admitted + 1,
            limit=count,
            max_steps=count,
        )
        phase["route"] += perf() - clock
        order: List[Tuple[int, Any]] = []
        apply_expected = {
            shard: self.directory.sizes[shard] for shard in window.batches
        }
        clock = perf()
        for shard, batch in sorted(window.batches.items()):
            transport = self._transport_of[shard]
            transport.send("apply", shard, batch, True)
            order.append((shard, transport))
        phase["serialize"] += perf() - clock
        self.events_admitted += count
        barrier = None
        if self.events_admitted % self.barrier_interval == 0:
            barrier = self._send_barrier()
        return {
            "window": window,
            "order": order,
            "expected": apply_expected,
            "barrier": barrier,
        }

    def serve_collect(self, token: Dict[str, Any]) -> List[StepRecord]:
        """Receive and merge one dispatched serve window (recv half).

        Returns the window's composite :class:`~repro.scenarios.bus.
        StepRecord` objects in admission order — one per event, carrying the
        observables the session's responses and trace frames are built from.
        A worker dying mid-window surfaces here as
        :class:`~repro.shard.worker.ShardWorkerError`.
        """
        window = token["window"]
        routed = window.routed
        phase = self.phase_times
        perf = time.perf_counter
        replies: Dict[int, Dict[str, Any]] = {}
        for shard, transport in token["order"]:
            clock = perf()
            reply = transport.recv()
            waited = perf() - clock
            worker_elapsed = reply.get("elapsed", 0.0)
            phase["worker_execute"] += worker_elapsed
            phase["idle"] += max(0.0, waited - worker_elapsed)
            replies[shard] = reply
        self.total_events += len(routed)
        clock = perf()
        records = self.merger.merge_window(
            routed, {shard: reply["rows"] for shard, reply in replies.items()}
        )
        self.merger.update_summaries(
            {shard: reply["summary"] for shard, reply in replies.items()}
        )
        phase["merge"] += perf() - clock
        self._check_sizes(replies, token["expected"])
        self._recv_barrier(token["barrier"])
        if token["barrier"] is not None:
            self.barriers_run += 1
        self._refresh_facade()
        return records

    # ------------------------------------------------------------------
    # Trace / checkpoint cadence (barrier-aligned)
    # ------------------------------------------------------------------
    def _index_due(self, pending: int) -> bool:
        """Will an index frame be due once ``pending`` records are written?

        Evaluated *before* dispatching a window: index frames call
        :meth:`state_hash`, which round-trips every worker, so the window
        after which one is due must flush the pipeline.  Exact, not a
        heuristic — without stop conditions (pipelining is off with them)
        every routed event becomes exactly one written record.
        """
        writer = self.trace_writer
        if writer is None:
            return False
        return writer.events_written + pending - self._last_indexed >= writer.index_every

    def _checkpoint_due(self, pending: int) -> bool:
        """Will a checkpoint be due once ``pending`` events are merged?"""
        if self.checkpoint_path is None or self.checkpoint_every is None:
            return False
        return self._events_since_checkpoint + pending >= self.checkpoint_every

    def _write_index_if_due(self, step_index: int) -> None:
        writer = self.trace_writer
        if writer is None:
            return
        if writer.events_written - self._last_indexed >= writer.index_every:
            writer.write_index_frame(
                step_index=step_index,
                time_step=self.merger.events_merged,
                state_hash=self.state_hash(),
                network_size=self.directory.active_count(),
            )
            self._last_indexed = writer.events_written

    def _checkpoint_if_due(self) -> None:
        if self.checkpoint_path is None or self.checkpoint_every is None:
            return
        if self._events_since_checkpoint >= self.checkpoint_every:
            self.write_checkpoint()

    def write_checkpoint(self) -> None:
        """Capture and atomically write a sharded checkpoint (barrier state)."""
        if self.checkpoint_path is None:
            raise ConfigurationError("no checkpoint path configured")
        from .session import capture_sharded_checkpoint, write_sharded_checkpoint

        write_sharded_checkpoint(self.checkpoint_path, capture_sharded_checkpoint(self))
        self._events_since_checkpoint = 0

    def capture_state(self) -> Dict[str, Any]:
        """The checkpointable coordinator state (valid at barriers only)."""
        if self.source is None:
            raise ConfigurationError(
                "serve-mode coordinators do not checkpoint (a live session's "
                "durability artefact is its recorded trace)"
            )
        snapshots = self._gather_shards(
            [(shard, ()) for shard in range(self.shards)], "snapshot"
        )
        return {
            "scenario": self.scenario.to_dict(),
            "steps_done": self.total_steps,
            "events_done": self.total_events,
            "source": self.source.snapshot_state(),
            "router": self.directory.snapshot_state(),
            "seq": sorted(
                [src, dst, seq] for (src, dst), seq in self._seq.items()
            ),
            "merge": self.merger.snapshot_state(),
            "shards": {str(shard): snapshots[shard] for shard in range(self.shards)},
            "state_hash": self.state_hash(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down worker transports (idempotent)."""
        for transport in self._transports:
            transport.close()
        self._transports = []
        self._transport_of = {}

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
