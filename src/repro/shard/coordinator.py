"""The shard coordinator: barrier-windowed execution of one sharded run.

:class:`ShardCoordinator` owns the single-threaded side of a sharded run —
the router/directory, the observation bus, the merge state and (for batch
runs) the event source — and drives the shard workers in **windows**, each
moved by two halves:

:meth:`~ShardCoordinator.serve_dispatch` (send half)
    route the window's events in one batched pass
    (:meth:`~repro.shard.router.EventRouter.route_window`) into packed
    per-shard wire buffers and queue each on its worker transport.  The
    events come from an :class:`~repro.scenarios.runner.EventPull`: over
    given events (the live service, replay) or over the scenario's own
    source, which reads the one :class:`~repro.adversary.base.
    AdversaryContext` over the directory's registry (the *composite*
    population) and, if it reads clusters, the read model — pull and route
    stay interleaved, so each pull sees the exact post-event directory; a
    ``paced`` source gets one-event windows.  If
    the window brings the cumulative admitted event count to a multiple of
    ``barrier_interval``, the barrier's rebalance move — one planned list
    ``(src, dst, directory.emigrants(src, count))`` — is applied to the
    directory and its two worker commands are queued behind the batches.
:meth:`~ShardCoordinator.serve_collect` (receive half)
    receive the replies, fold the packed observation rows back into the
    global event order (:class:`~repro.shard.merge.ObservationMerger`, the
    one source of composite observables), cross-check worker sizes against
    the directory, drain the barrier move's two replies, and publish the
    merged window to the observation bus — the one place a sharded window
    reaches it, whichever caller collects.

**One barrier rule.**  A barrier runs when the admitted event count crosses
a multiple of ``barrier_interval`` — never because a call, a window or a
step budget ended — and a window never straddles a multiple.  Shard
evolution is therefore a pure function of the admitted event sequence:
independent of the worker count, of routing ahead, of how a live pump
chunks its windows and of where a batch run was cut into ``run()`` calls or
checkpoint/resume segments.

:meth:`~ShardCoordinator.run` is the batch loop shared with the
single-engine runner (:func:`~repro.scenarios.runner.run_windows`) over the
two halves; it routes window *k+1* while the workers execute window *k*
(never for a ``paced`` source).
``workers=1`` executes the same logical shards through the in-process
:class:`~repro.shard.worker.InlineTransport` and is the correctness oracle
the property tests compare against.  ``phase_times`` accumulates a
per-phase wall-time breakdown (route / serialize / worker_execute / merge /
idle) that the throughput benchmark records next to its rates.

Two semantics differ from the single-engine runner, both window-granular by
construction and documented in ``docs/SHARDING.md``:

* stop conditions (``fn(record, driver)``, as on the single engine) are
  evaluated on the *merged* records as
  :meth:`~ShardCoordinator.serve_collect` publishes them — when one
  triggers, probe observation is cut at the triggering record but the shard
  engines complete the window (and a recorder still receives all of it: the
  trace follows the engines);
* the compromised-cluster set that :meth:`~ShardCoordinator.
  compromised_clusters` gives stop conditions refreshes once per window
  (cluster interiors live on the workers), so a compromise anywhere in a
  window is visible to all of that window's records.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.invariants import InvariantReport
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import ObservationBus, StepRecord
from ..scenarios.runner import (
    EventPull,
    RunResult,
    StopCondition,
    WindowDriver,
    first_stop,
    run_windows,
)
from ..trace.checkpoint import engine_fault
from .merge import ObservationMerger, composite_state_hash
from .messages import cluster_name
from .router import (
    EventRouter,
    ShardDirectory,
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

_SHARD_OPTION_KEYS = {"barrier_interval", "rebalance_threshold", "min_shard_size"}


class ShardCoordinator(WindowDriver):
    """Runs one scenario as ``scenario.shards`` engines across worker processes.

    ``workers`` is an execution choice only (clamped to ``[1, shards]``);
    the logical shard count — and therefore every result bit — comes from
    the scenario, ``shard_options`` included.  ``workers=1`` executes inline
    in this process.  ``checkpoint`` is a loaded ``repro-checkpoint``
    document of kind ``"sharded"`` to continue from.
    """

    #: The ``engine`` kind this driver stamps on trace headers and checkpoints.
    engine_kind = "sharded"

    def __init__(
        self,
        scenario,
        workers: int = 1,
        probes: Sequence = (),
        stop_conditions: Sequence[StopCondition] = (),
        checkpoint: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.scenario = scenario
        self.name = scenario.name
        self.max_idle_streak = scenario.max_idle_streak
        self.shards = int(getattr(scenario, "shards", 0))
        if self.shards < 1:
            raise ConfigurationError(
                "sharded execution needs scenario.shards >= 1 "
                "(set the spec's 'shards' field or pass --shards)"
            )
        self.params = scenario.parameters()

        options = dict(getattr(scenario, "shard_options", None) or {})
        unknown = set(options) - _SHARD_OPTION_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown shard_options {sorted(unknown)}; "
                f"expected a subset of {sorted(_SHARD_OPTION_KEYS)}"
            )
        self.barrier_interval = int(
            options.get("barrier_interval", DEFAULT_BARRIER_INTERVAL)
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
        # Built before any worker starts, so it refuses an inline probe
        # first.
        self.bus = ObservationBus(self, self.probes, inline_lane=False)
        self.stop_conditions: List[StopCondition] = list(stop_conditions)

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
        restore = None
        if checkpoint is not None:
            restore = {
                int(shard): payload
                for shard, payload in checkpoint["engine"]["shards"].items()
            }
            if sorted(restore) != list(range(self.shards)):
                raise ConfigurationError(
                    "checkpoint shard snapshots do not cover shards "
                    f"0..{self.shards - 1}"
                )
            for shard, payload in restore.items():
                # Refuse a malformed engine here, not inside a worker.
                problem = engine_fault(payload["engine"], f"engine/shards/{shard}/engine/")
                if problem:
                    raise ConfigurationError(f"malformed checkpoint: {problem}")
        self._transports: List[Any] = []
        self._transport_of: Dict[int, Any] = {}
        try:
            self._start(scenario, sizes0, restore, checkpoint)
        except BaseException:
            # A refusal once workers run (a failed bootstrap, a checkpoint
            # whose state hash does not match) leaves none of them behind.
            self.close()
            raise
        #: Events taken by serve_dispatch (== total_events once collected;
        #: total_steps counts the time steps taken by serve_dispatch, read
        #: with nothing in flight).  Barriers run when events_admitted
        #: crosses a barrier_interval multiple — the one barrier rule.
        self.events_admitted = self.total_events
        #: ``(records published, reason)`` if the last collected window stopped.
        self.stopped: Optional[Tuple[int, str]] = None
        #: The worst composite corruption a published record or a collected
        #: window's end showed since ``run_windows`` last reset it.
        self.peak_worst = 0.0

        self.handoffs_sent = 0
        self.barriers_run = 0
        #: Windows routed while an earlier window was still in flight (the
        #: batch loop routes ahead; the schedule never changes a result bit).
        self.windows_pipelined = 0
        #: Cumulative per-phase wall seconds across ``run`` calls.
        #: ``route``/``serialize``/``merge`` are coordinator work;
        #: ``worker_execute`` sums the workers' self-timed apply seconds
        #: (an aggregate across processes, so it can exceed wall time);
        #: ``idle`` is coordinator time blocked on apply replies beyond the
        #: matching self-timed seconds — the residual pipelining removes.
        self.phase_times: Dict[str, float] = {key: 0.0 for key in PHASE_KEYS}

    def _start(
        self,
        scenario,
        sizes0: List[int],
        restore: Optional[Dict[int, Dict[str, Any]]],
        checkpoint: Optional[Dict[str, Any]],
    ) -> None:
        """Start the workers, then build the composite state over them.

        Every worker process is started before any bootstrap
        acknowledgement is awaited, so the shard engines bootstrap in
        parallel.
        """
        scenario_data = scenario.to_dict()
        transport_cls = InlineTransport if self.workers == 1 else ProcessTransport
        for worker in range(self.workers):
            hosted = [
                shard
                for shard in range(self.shards)
                if shard * self.workers // self.shards == worker
            ]
            hosted_restore = (
                {shard: restore[shard] for shard in hosted} if restore else None
            )
            transport = transport_cls(scenario_data, hosted, sizes0, restore=hosted_restore)
            self._transports.append(transport)
            for shard in hosted:
                self._transport_of[shard] = transport
        for transport in self._transports:
            transport.wait_started()

        if checkpoint is None:
            self.directory = ShardDirectory(self.shards)
            info = self._gather_each("bootstrap_info")
            base = 0
            for shard, shard_info in enumerate(info):
                byzantine = set(shard_info["byzantine"])
                for gid in range(base, base + sizes0[shard]):
                    role = NodeRole.BYZANTINE if gid in byzantine else NodeRole.HONEST
                    self.directory.register_initial(shard, gid, role)
                base += sizes0[shard]
            self.merger = ObservationMerger([shard_info["summary"] for shard_info in info])
            self.total_steps = 0
            self.total_events = 0
        else:
            state = checkpoint["engine"]
            self.directory = ShardDirectory.from_snapshot(state["router"])
            self.merger = ObservationMerger.from_snapshot(state["merge"])
            self.total_steps = int(checkpoint.get("steps_done", 0))
            self.total_events = int(checkpoint.get("events_done", 0))

        self.router = EventRouter(self.directory)
        # None for a live session's scenario: its events are given to dispatch.
        self.take_source(scenario.build_source(self))
        if checkpoint is not None:
            self.source.restore_state(checkpoint["source"])
            expected = checkpoint.get("state_hash")
            restored = self.state_hash()
            if expected is not None and restored != expected:
                raise ConfigurationError(
                    "restored sharded state hash does not match the checkpoint "
                    f"({restored[:12]} != {expected[:12]}); the checkpoint is "
                    "corrupt or was produced by an incompatible version"
                )

    # ------------------------------------------------------------------
    # Worker fan-out helpers
    # ------------------------------------------------------------------
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

    def _gather_each(self, method: str) -> List[Any]:
        """``method(shard)`` on every shard, overlapping workers; shard order."""
        replies = self._gather_shards([(shard, ()) for shard in range(self.shards)], method)
        return [replies[shard] for shard in range(self.shards)]

    # ------------------------------------------------------------------
    # Composite state
    # ------------------------------------------------------------------
    @property
    def engine(self) -> "ShardCoordinator":
        """A driver's ``engine`` is what gets hashed and snapshotted: here, itself."""
        return self

    def state_hash(self) -> str:
        """The composite state hash: per-shard engine hashes + router state."""
        return composite_state_hash(self._gather_each("state_hash"), self.directory.fingerprint())

    def check_invariants(self, check_honest_majority: bool = True) -> InvariantReport:
        """One structural verdict for the composite run (no window in flight).

        Every shard engine runs its own check (the worker
        ``check_invariants`` command, one round trip overlapping all
        workers), and each shard's size must equal the directory's.  The
        shard reports fold into one :class:`~repro.core.invariants.
        InvariantReport`: violations prefixed ``shard s:``, sizes and
        cluster counts summed, worst values maximised, compromised clusters
        by their composite names, ascending.
        """
        reports = self._gather_shards(
            [(shard, (check_honest_majority,)) for shard in range(self.shards)],
            "check_invariants",
        )
        violations: List[str] = []
        for shard, report in reports.items():
            violations += [f"shard {shard}: {violation}" for violation in report.violations]
            if report.network_size != self.directory.sizes[shard]:
                violations.append(
                    f"shard {shard}: size {report.network_size} differs from the "
                    f"directory's {self.directory.sizes[shard]}"
                )
        folded = reports.values()
        return InvariantReport(
            time_step=self.total_events,
            holds=not violations,
            violations=violations,
            cluster_count=sum(report.cluster_count for report in folded),
            network_size=self.directory.active_count(),
            min_cluster_size=min(report.min_cluster_size for report in folded),
            max_cluster_size=max(report.max_cluster_size for report in folded),
            worst_byzantine_fraction=max(r.worst_byzantine_fraction for r in folded),
            compromised_clusters=sorted(
                cluster_name(shard, cid, self.shards)
                for shard, report in reports.items()
                for cid in report.compromised_clusters
            ),
            overlay_max_degree=max(report.overlay_max_degree for report in folded),
            overlay_connected=all(report.overlay_connected for report in folded),
        )

    # ------------------------------------------------------------------
    # The two window halves
    # ------------------------------------------------------------------
    def pull(self, steps: int) -> EventPull:
        """A run's pull on the source; its steps are numbered on from those taken."""
        return EventPull(self._next_event, steps, self.total_steps + 1, self.max_idle_streak)

    def serve_dispatch(self, pull: EventPull, observe: bool = True) -> Dict[str, Any]:
        """Route one window from ``pull`` and queue it on the workers (send half).

        The one window implementation.  It takes events from ``pull`` — the
        scenario's own source (:meth:`pull`), or given events
        (:meth:`dispatch`): pre-validated
        :class:`~repro.core.events.ChurnEvent` objects in admission order,
        leaves always naming their node — up to the next barrier boundary:
        barriers run when the cumulative admitted event count crosses a
        multiple of ``barrier_interval``, so a window never straddles one.

        Nothing is waited for, so the caller can serve reads or route the
        next window while the workers execute; :meth:`serve_collect`
        receives and merges.  If the window fills the barrier interval, the
        barrier's handoff commands are planned and queued behind it.
        ``observe=False`` spares the workers the observation rows (no
        records come back).
        """
        if self.events_admitted > self.total_events:
            self.windows_pipelined += 1
        phase = self.phase_times
        perf = time.perf_counter
        clock = perf()
        limit = 1 if self.paced else self.barrier_interval - self.events_admitted % self.barrier_interval
        taken = pull.steps
        window = self.router.route_window(pull, limit)
        phase["route"] += perf() - clock
        order: List[Tuple[int, Any]] = []
        apply_expected = {
            shard: self.directory.sizes[shard] for shard in window.batches
        }
        clock = perf()
        for shard, batch in sorted(window.batches.items()):
            transport = self._transport_of[shard]
            transport.send("apply", shard, batch, observe)
            order.append((shard, transport))
        phase["serialize"] += perf() - clock
        # Every time step the window consumed, idle ones included.
        self.total_steps += pull.steps - taken
        self.events_admitted += len(window.routed)
        barrier = None
        if window.routed and self.events_admitted % self.barrier_interval == 0:
            barrier = self._send_barrier()
        return {
            "window": window,
            "order": order,
            "expected": apply_expected,
            "barrier": barrier,
            "observe": observe,
        }

    def serve_collect(self, token: Dict[str, Any]) -> List[StepRecord]:
        """Receive, merge and publish one dispatched window (receive half).

        Returns the window's composite :class:`~repro.scenarios.bus.
        StepRecord` objects in admission order — one per event, carrying the
        observables responses, probes and trace frames are built from (none
        when the window was dispatched with ``observe=False``).  They are
        published to :attr:`bus` in that order, cut at the first record a
        stop condition triggers on; :attr:`stopped` says where and why.  A
        worker dying mid-window surfaces here as
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
        if token["observe"]:
            records = self.merger.merge_window(
                routed, {shard: reply["rows"] for shard, reply in replies.items()}
            )
        else:
            self.merger.events_merged += len(routed)
            records = []
        self.merger.update_summaries(
            {shard: reply["summary"] for shard, reply in replies.items()}
        )
        phase["merge"] += perf() - clock
        self._check_sizes(replies, token["expected"])
        if token["barrier"] is not None:
            self._recv_barrier(token["barrier"])
            self.barriers_run += 1
        self.views_changed()
        self.stopped = self._publish(records)
        published = records if self.stopped is None else records[: self.stopped[0]]
        worst = [record.worst_fraction for record in published]
        self.peak_worst = max([self.peak_worst, self.merger.worst_fraction, *worst])
        return records

    def _publish(self, records: List[StepRecord]) -> Optional[Tuple[int, str]]:
        """Publish a merged window up to the first stop-condition trigger."""
        for count, record in enumerate(records, 1):
            self.bus.publish_record(record)
            if self.stop_conditions:
                reason = first_stop(self.stop_conditions, record, self)
                if reason is not None:
                    return count, reason
        return None

    def _check_sizes(
        self, replies: Dict[int, Dict[str, Any]], expected: Dict[int, int]
    ) -> None:
        """Cross-check worker sizes against the directory *as of the window*.

        ``expected`` is the directory's per-shard sizes captured at
        dispatch time: by the time the replies arrive, the live directory
        may already reflect the barrier's moves and the next window.
        """
        for shard, reply in replies.items():
            if reply["summary"]["size"] != expected[shard]:
                raise ShardWorkerError(
                    f"shard {shard} size diverged from the directory "
                    f"({reply['summary']['size']} != {expected[shard]})"
                )

    # ------------------------------------------------------------------
    # Barrier move (send/recv halves, riding on the window's halves)
    # ------------------------------------------------------------------
    def _send_barrier(self) -> Optional[List[Tuple[int, Any, int]]]:
        """Plan at most one rebalance move and queue its worker commands.

        The move is one list, ``(src, dst, directory.emigrants(src,
        count))``: the donor's largest gids with their registered roles,
        computed from the directory, so planning needs no worker round trip
        and the commands can queue behind the window's apply batches.  The
        donor evicts the gids and the recipient admits the ``(gid, role)``
        pairs, both in that list's order.  Both piggyback their post-move
        summary on the reply, consumed by :meth:`_recv_barrier` after the
        window's observations are merged.
        """
        plan = plan_rebalance(
            self.directory.sizes, self.rebalance_threshold, self.min_shard_size
        )
        if plan is None:
            return None
        src, dst, count = plan
        moves = self.directory.emigrants(src, count)
        for gid, _role in moves:
            self.directory.move(gid, dst)
        self._transport_of[src].send("emigrate_ids", src, [gid for gid, _role in moves])
        self._transport_of[dst].send("immigrate", dst, moves)
        self.handoffs_sent += len(moves)
        # The two replies to drain, each with its shard's post-move size,
        # captured before routing the next window advances the directory.
        return [
            (shard, self._transport_of[shard], self.directory.sizes[shard])
            for shard in (src, dst)
        ]

    def _recv_barrier(self, barrier: List[Tuple[int, Any, int]]) -> None:
        """Drain the move's two replies, re-anchor the merge state, check sizes."""
        replies = {shard: transport.recv() for shard, transport, _size in barrier}
        self.merger.update_summaries(
            {shard: reply["summary"] for shard, reply in replies.items()}
        )
        self._check_sizes(replies, {shard: size for shard, _transport, size in barrier})

    # ------------------------------------------------------------------
    # The batch loop
    # ------------------------------------------------------------------
    def run(self, steps: int, recorder=None) -> RunResult:
        """Run up to ``steps`` time steps and return the result summary (:func:`run_windows`)."""
        return run_windows(self, steps, recorder)

    @property
    def nodes(self):
        """The directory's registry, current as of the last dispatched event."""
        return self.directory.nodes

    def read_views(self) -> List[Dict[str, Any]]:
        """One read view per shard, in shard order (see :mod:`repro.shard.serve`).

        A worker round trip: nothing may be in flight.
        """
        return self._gather_each("read_view")

    # ------------------------------------------------------------------
    # What the live session and the checkpoint envelope read
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Composite observables as of the last collected window."""
        return {
            "network_size": self.directory.active_count(),
            "cluster_count": self.merger.cluster_count,
            "worst_byzantine_fraction": self.merger.worst_fraction,
            "time_step": self.merger.events_merged,
            "shards": self.shards,
            "workers": self.workers,
            "barriers_run": self.barriers_run,
        }

    def compromised_clusters(self) -> List[int]:
        """Compromised clusters as of the last collected window, by composite name."""
        return self.merger.compromised()

    def capture_snapshot(self) -> Dict[str, Any]:
        """The ``engine`` payload of a sharded checkpoint.

        Valid wherever no window is in flight (not only at barriers: the
        admitted-event count rides in the envelope, so a restored run knows
        how far into the barrier interval it is).
        """
        snapshots = self._gather_each("snapshot")
        return {
            "router": self.directory.snapshot_state(),
            "merge": self.merger.snapshot_state(),
            "shards": {str(shard): snapshot for shard, snapshot in enumerate(snapshots)},
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
