"""The live session: one continuously running driver behind a queue.

:class:`LiveEngineSession` owns everything about a live service that does
not depend on how events reach the engine(s): lifecycle, trace attach, the
operation counters, ``status``/``ping``, the pre-flight admission rules, the
reads, and the one schedule of a pump batch (:meth:`~LiveEngineSession.serve`:
the writes as one window, the reads beside it or after it) — so this is the
one module that tells reads from writes.  The engine side is the driver
:func:`repro.trace.session.open_driver` opens for the scenario, as for every
run: the single-engine runner when ``scenario.shards`` is 0, the shard
coordinator otherwise.  The scenario has no event source, so the session
drives it through ``dispatch`` / ``collect``.  Reads go to the driver's
:class:`~repro.shard.serve.ShardReadModel`, dropped after every collected
window.

Seed fan-out (one table, both drivers): seed → engine, +1 workload,
+2 adversary, +3 mixer, **+4 service writes** (the anonymous-leave pick),
**+5 service reads** (sample/broadcast draws).  The engine stream is part of
the state fingerprint and is consumed only by ``apply_event`` — that is what
makes a recorded trace replayable by re-applying its event frames.  Reads
are not part of the trace, so they get a stream of their own: any
interleaving of reads leaves the write stream's draws, the trace and the
state hash bit-identical.

Pre-flight validation (why requests cannot fail inside the engine):
``apply_event`` advances protocol time *before* executing the operation, so
an event that raises halfway leaves the engine one time step ahead of the
recorded trace — permanent replay divergence.  Every rejectable condition
(unknown node, double join, size bounds, a rejoin naming a role other than
the node's registered one, an id no trace can hold) is checked against the
driver's node registry as the driver pulls the request, after every
earlier event of its batch was applied (the single engine) or routed (the
shard coordinator): one rule, however the pump chunks the requests, and by
the time an event is dispatched, it cannot fail.  A rejoin that names no role takes the
registered one, on both drivers; a ``contact_cluster`` join goes to its
cluster's shard.
"""

from __future__ import annotations

import random
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..core.events import ChurnEvent
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import StepRecord
from ..scenarios.scenario import Scenario
from ..trace.log import DEFAULT_FLUSH_EVERY, DEFAULT_INDEX_EVERY, TraceWriter
from ..trace.session import Recorder, open_driver
from .protocol import ERROR_FAILED, ProtocolError

#: Seed offsets of the service streams (see the module docstring's table).
SERVICE_RNG_OFFSET = 4
SERVICE_READ_RNG_OFFSET = 5

#: Operations that become churn events, and those a session answers as
#: reads (``shutdown`` is the frontend's own).
WRITE_OPS = frozenset({"join", "leave"})
READ_OPS = frozenset({"sample", "broadcast", "status", "ping"})


def live_scenario(
    name: str = "live-service",
    seed: int = 1,
    max_size: int = 4096,
    initial_size: int = 300,
    tau: float = 0.15,
    **overrides: Any,
) -> Scenario:
    """The default scenario a live service runs: engine only, no workload.

    Events come from clients, not a generator, so ``workload`` is ``None``
    and ``steps`` is 0.  The scenario still rides in the trace header
    (``shards`` included — it shapes every result bit), so ``replay``
    rebuilds the identical driver from it.
    """
    return Scenario(
        name=name,
        seed=seed,
        max_size=max_size,
        initial_size=initial_size,
        tau=tau,
        steps=0,
        workload=None,
        **overrides,
    )


class LiveEngineSession:
    """Serialised execution of service requests against one driver.

    ``workers`` is an execution choice of the shard coordinator only
    (clamped to ``[1, scenario.shards]``; results never depend on it).
    """

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        workers: int = 1,
        probes: Sequence = (),
    ) -> None:
        self.scenario = scenario if scenario is not None else live_scenario()
        if self.scenario.workload is not None or self.scenario.adversary is not None:
            raise ConfigurationError(
                "a live session is driven by client requests; the scenario "
                "must not carry a workload or adversary"
            )
        self.rng = random.Random(self.scenario.seed + SERVICE_RNG_OFFSET)
        self.read_rng = random.Random(self.scenario.seed + SERVICE_READ_RNG_OFFSET)
        self.driver = driver = open_driver(self.scenario, probes, workers=workers)
        self.bus = driver.bus
        self.read_model = driver.read_model
        self._recorder: Optional[Recorder] = None
        self.events_applied = 0
        self.operations: Dict[str, int] = {}
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach_trace(
        self,
        path: str,
        index_every: int = DEFAULT_INDEX_EVERY,
        trace_format: str = "jsonl",
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> TraceWriter:
        """Record every churn event this session applies to ``path``.

        Must be attached before the first event so the trace is complete
        from the bootstrap state (which the header's scenario reproduces).
        The session records through the one :class:`~repro.trace.session.
        Recorder`, a pump batch per window.
        """
        if self.events_applied:
            raise ConfigurationError(
                "attach the trace before the first churn event; "
                f"{self.events_applied} already applied"
            )
        if self._recorder is not None:
            raise ConfigurationError("a trace is already being recorded")
        recorder = Recorder(
            self.scenario,
            self.driver,
            trace_path=path,
            index_every=index_every,
            trace_format=trace_format,
            flush_every=flush_every,
        )
        self.start()
        self._recorder = recorder
        return recorder.writer

    def start(self) -> None:
        """Fire the probes' run-start hooks (idempotent)."""
        if not self._started:
            self.bus.on_start()
            self._started = True

    def close(self, ok: bool = True) -> None:
        """Flush observations, seal the trace, shut the driver down.

        ``ok=True`` writes the trace end frame (final state hash);
        ``ok=False`` is the crash path — buffered frames are flushed but no
        end frame is written (hashing could round-trip a dead worker),
        leaving a crashed-run-shape trace that is still replayable up to
        its last complete frame.
        """
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self.bus.flush()
            except BaseException:
                ok = False
                raise
            finally:
                if self._recorder is not None:
                    self._recorder.seal(ok)
        finally:
            self.driver.close()

    @property
    def closed(self) -> bool:
        """Whether the session was sealed."""
        return self._closed

    @property
    def network_size(self) -> int:
        """Current active population."""
        return self.driver.nodes.active_count()

    def state_hash(self) -> str:
        """The driver's state hash (window boundaries only)."""
        return self.driver.state_hash()

    # ------------------------------------------------------------------
    # Serving a pump batch
    # ------------------------------------------------------------------
    def serve(self, frames: Sequence[Dict[str, Any]], answer: Callable[[int, Any], None]) -> None:
        """Serve one pump batch; ``answer(index, outcome)`` gets each frame's
        outcome (its result dict, or a :class:`ProtocolError`) once it is ready.

        The batch's writes (join/leave) are one window: the driver pulls them
        in admission order, each checked as it is pulled (the module
        docstring's pre-flight rule), and a refused one takes no time step.
        While the window is out, each read is answered beside it if its views
        are fresh (``status``/``ping`` always): rebuilding them reads the
        engines (on shards a worker round trip down FIFO pipes), which cannot
        happen under an open window.  Then the window is collected, counted,
        recorded and answered, and the deferred reads are answered from its
        views.  A batch without writes is all reads, answered in order.

        A read that raises is answered ``failed`` (reads change no state).
        Only the window raises: a failure there (a dead shard worker, a trace
        write error) leaves events applied but unrecorded, so callers must
        treat it as fatal and close the session with ``ok=False``; what was
        answered before it keeps its answer.  Frames must have passed
        :func:`~repro.service.protocol.parse_request`; a batch naming an
        operation the session does not serve (``shutdown``) is refused
        whole before anything runs.
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        ops = {frame["op"] for frame in frames}
        if not ops <= WRITE_OPS | READ_OPS:
            raise ConfigurationError(f"a session does not serve {sorted(ops - WRITE_OPS - READ_OPS)}")
        self.start()
        window = not ops.isdisjoint(WRITE_OPS)
        admitted: List[int] = []
        if window:
            token = self.driver.dispatch(self._admitted(frames, admitted, answer))
        deferred = []
        for index, frame in enumerate(frames):
            op = frame["op"]
            if op in WRITE_OPS:
                continue
            if not window or op in ("status", "ping") or self.read_model.fresh:
                answer(index, self._read(frame))
            else:
                deferred.append(index)
        if not window:
            return
        records = self.driver.collect(token)
        applied = list(zip(admitted, records))
        self.events_applied += len(applied)
        for index, _record in applied:
            op = frames[index]["op"]
            self.operations[op] = self.operations.get(op, 0) + 1
        if self._recorder is not None:
            self._recorder.window(records)
        for index, record in applied:
            answer(index, _churn_result(record))
        for index in deferred:
            answer(index, self._read(frames[index]))

    def execute(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`serve` of one frame: its result payload, or its
        :class:`ProtocolError` (``failed``) raised."""
        outcomes: List[Any] = []
        self.serve([frame], lambda _index, outcome: outcomes.append(outcome))
        (outcome,) = outcomes
        if isinstance(outcome, ProtocolError):
            raise outcome
        return outcome

    def _admitted(
        self, frames: Sequence[Dict[str, Any]], admitted: List[int], answer: Callable
    ) -> Iterator[ChurnEvent]:
        """The batch's admitted events, each checked when the driver pulls it;
        a refused one is answered there and then."""
        for index, frame in enumerate(frames):
            if frame["op"] not in WRITE_OPS:
                continue
            try:
                event = self._admit(frame)
            except ProtocolError as error:
                answer(index, error)
                continue
            admitted.append(index)
            yield event

    def _admit(self, frame: Dict[str, Any]) -> ChurnEvent:
        """The event a write request asks for, checked against the live
        registry (never the engine); a refusal raises its ``failed`` error."""
        nodes, params = self.driver.nodes, self.driver.params
        node_id = frame.get("node_id")
        known = node_id in nodes  # a registered id (None never is)
        if frame["op"] == "leave":
            if nodes.active_count() <= params.lower_size_bound:
                raise _rejected(frame, f"network is at its lower size bound {params.lower_size_bound}")
            if node_id is None:
                # An anonymous departure: the service picks the leaver from
                # its own write stream (never the engine's) over the
                # registry's sampling array, then records the concrete id.
                return ChurnEvent.leave(nodes.sample_active(self.rng))
            if not known or not nodes.is_active(node_id):
                raise _rejected(frame, f"node {node_id} is not active")
            return ChurnEvent.leave(node_id)
        # A trace records both as an i32.
        if node_id is not None and not 0 <= node_id < 2**31:
            raise _rejected(frame, f"node_id {node_id} is no node id a trace can hold")
        contact = frame.get("contact_cluster")
        if contact is not None and not 0 <= contact < 2**31:
            raise _rejected(frame, f"contact_cluster {contact} is no cluster name")
        if nodes.active_count() >= params.max_size:
            raise _rejected(frame, f"network is at its maximum size {params.max_size}")
        role = frame.get("role")
        if known:
            descriptor = nodes.get(node_id)
            if descriptor.is_active:
                raise _rejected(frame, f"node {node_id} is already active")
            # One role per identity: a rejoin keeps its registered role.
            if role not in (None, descriptor.role.value):
                raise _rejected(frame, f"node {node_id} is registered {descriptor.role.value}, not {role}")
            role = descriptor.role.value
        return ChurnEvent.join(
            role=NodeRole(role or "honest"), node_id=node_id, contact_cluster=contact
        )

    def _read(self, frame: Dict[str, Any]) -> Any:
        """One read's outcome; a read that raises is answered ``failed``."""
        op = frame["op"]
        try:
            if op == "sample":
                result = self.read_model.sample(self.read_rng)
            elif op == "broadcast":
                result = self.read_model.broadcast(self.read_rng)
            elif op == "status":
                result = self.driver.status()
                result["events_applied"] = self.events_applied
                result["operations"] = dict(self.operations)
                result["recording"] = self._recorder.trace_path if self._recorder else None
            else:  # ping
                result = {"pong": True}
        except Exception as error:
            print(f"service: {op} request failed: {error!r}", file=sys.stderr)
            return ProtocolError(ERROR_FAILED, f"internal error: {error}")
        self.operations[op] = self.operations.get(op, 0) + 1
        return result


def _rejected(frame: Dict[str, Any], message: str) -> ProtocolError:
    return ProtocolError(
        ERROR_FAILED, message, request_id=frame.get("id"), op=frame["op"]
    )


def _churn_result(record: StepRecord) -> Dict[str, Any]:
    """The response payload of one applied churn event."""
    return {
        "node_id": record.assigned_node,
        "time_step": record.time_step,
        "network_size": record.network_size,
        "cluster_count": record.cluster_count,
        "messages": record.messages,
        "rounds": record.rounds,
    }
