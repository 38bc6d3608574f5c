"""Shard workers: complete NOW engines over population slices.

Each logical shard is a full :class:`~repro.core.engine.NowEngine` — its own
``NodeRegistry``, ``ClusterRegistry``, overlay and RNG stream — applying the
events routed to it.  A :class:`ShardWorker` hosts one or more shard slots
(several logical shards can share a worker process: the logical shard count
is a *scenario* property, the worker count an *execution* choice) and speaks
a small command protocol:

``bootstrap_info``
    a shard's initial roles and cluster summary (the coordinator registers
    global ids in the directory from these);
``apply``
    one barrier window's batch of routed events (a packed wire buffer — see
    :mod:`repro.shard.messages`), returning packed per-event observation
    rows, the end-of-batch shard summary and the worker's self-timed
    execution seconds;
``emigrate_ids`` / ``immigrate``
    the two halves of a barrier move.  The coordinator plans the move from
    its directory as one list (so the donor needs no planning round trip):
    the donor gets its gids, the recipient the ``(gid, role)`` pairs, in
    that list's order.  Both commands piggyback the post-move shard summary;
``check_invariants``
    the hosted shard engine's structural invariant report;
``state_hash`` / ``snapshot``
    the determinism/checkpoint surface (a snapshot is restored through the
    constructor's ``restore=``).

Workers never see global state: every event arrives naming a *global* node
id, and the slot's ``g2l``/``l2g`` maps translate to the shard-local
identity space.

:class:`InlineTransport` executes commands in the coordinator's process
(lane 0 of every coordinator; all of ``workers=1``, the correctness
oracle); :class:`ProcessTransport` runs the same worker behind a
``multiprocessing`` pipe (lanes 1…W−1).  Both expose send-all-then-recv-all
so the coordinator overlaps the lanes' work each window.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import EngineConfig, NowEngine
from ..core.events import ChurnEvent
from ..core.invariants import InvariantReport
from ..errors import ConfigurationError
from ..network.node import NodeRole
from .messages import (
    JOIN,
    LEAVE,
    SHARD_SEED_OFFSET,
    EventBatch,
    iter_events,
    pack_rows,
)
from .serve import engine_view


class ShardWorkerError(RuntimeError):
    """A shard worker command failed; carries the remote traceback text."""


class _ShardSlot:
    """One logical shard hosted by this worker: engine + id translation."""

    def __init__(self, shard: int, engine: NowEngine, base_gid: int) -> None:
        self.shard = shard
        self.engine = engine
        # The bootstrap population gets contiguous global ids [base, base+m):
        # local id i <-> global id base + i, because bootstrap registers
        # locals 0..m-1 in order.
        size = engine.network_size
        self.l2g: Dict[int, int] = {local: base_gid + local for local in range(size)}
        self.g2l: Dict[int, int] = {base_gid + local: local for local in range(size)}

    def map_new(self, gid: int, local: int) -> None:
        self.l2g[local] = gid
        self.g2l[gid] = local

    @classmethod
    def from_snapshot(cls, shard: int, data: Dict[str, Any], rule: str) -> "_ShardSlot":
        """Rebuild a hosted shard from a checkpoint payload."""
        slot = cls.__new__(cls)
        slot.shard = shard
        slot.engine = NowEngine.restore(data["engine"], rule=rule)
        slot.l2g = {int(local): int(gid) for local, gid in data["l2g"]}
        slot.g2l = {gid: local for local, gid in slot.l2g.items()}
        return slot


class ShardWorker:
    """Hosts shard engines and executes coordinator commands against them."""

    def __init__(
        self,
        scenario_data: Dict[str, Any],
        shard_ids: Sequence[int],
        sizes: Sequence[int],
        restore: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        # Late import: scenario.py imports nothing from repro.shard, but the
        # local import keeps the worker module cheap to load in child
        # processes and avoids future cycles.
        from ..scenarios.scenario import Scenario

        scenario = Scenario.from_dict(dict(scenario_data))
        params = scenario.parameters()
        self.shards = scenario.shards
        config = EngineConfig(**scenario.engine_options)
        self.slots: Dict[int, _ShardSlot] = {}
        for shard in shard_ids:
            if restore is not None and shard in restore:
                self.slots[shard] = _ShardSlot.from_snapshot(
                    shard, restore[shard], scenario.engine
                )
                continue
            engine = NowEngine.bootstrap(
                params,
                initial_size=sizes[shard],
                byzantine_fraction=scenario.tau,
                seed=scenario.seed + SHARD_SEED_OFFSET + shard,
                config=config,
                rule=scenario.engine,
            )
            base_gid = sum(sizes[:shard])
            self.slots[shard] = _ShardSlot(shard, engine, base_gid)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _slot(self, shard: int) -> _ShardSlot:
        try:
            return self.slots[shard]
        except KeyError:
            raise ConfigurationError(f"shard {shard} is not hosted by this worker")

    @staticmethod
    def _summary(engine: NowEngine) -> Dict[str, Any]:
        return {
            "size": engine.network_size,
            "clusters": engine.cluster_count,
            "worst": engine.worst_cluster_fraction(),
            "compromised": sorted(engine.compromised_clusters()),
        }

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def bootstrap_info(self, shard: int) -> Dict[str, Any]:
        """A hosted shard's initial roles and summary (for directory seeding)."""
        slot = self._slot(shard)
        byzantine = sorted(slot.l2g[local] for local in slot.engine.state.nodes.active_byzantine())
        return {"byzantine": byzantine, "summary": self._summary(slot.engine)}

    def apply(self, shard: int, batch: EventBatch, observe: bool) -> Dict[str, Any]:
        """Apply one window's routed events; return packed rows + summary.

        ``batch`` is a packed event buffer; the reply's ``rows`` are packed
        the same way — decoded only at the merge boundary.  Each row carries
        *global* identities
        plus the shard-local observables the merge layer folds into
        composite step records: ``(step, kind, role, node_id, assigned,
        clusters, worst, operation, messages, rounds, walk_hops)``.
        ``node_id`` is ``None`` for an anonymous join (mirroring the classic
        record, whose event names no id) and the global id otherwise.
        ``elapsed`` is the worker's own execution wall time, the
        ``worker_execute`` input of the coordinator's phase breakdown.
        """
        started = time.perf_counter()
        slot = self._slot(shard)
        engine = slot.engine
        rows: List[tuple] = []
        for step, kind, gid, role_value, anonymous, contact in iter_events(batch):
            if kind == JOIN:
                local = slot.g2l.get(gid)
                report = engine.apply_event(
                    ChurnEvent.join(
                        role=NodeRole(role_value), node_id=local, contact_cluster=contact
                    )
                )
                if local is None:
                    slot.map_new(gid, report.operation.node_id)
            elif kind == LEAVE:
                report = engine.apply_event(ChurnEvent.leave(slot.g2l[gid]))
            else:
                raise ConfigurationError(f"unknown routed event kind {kind!r}")
            if observe:
                operation = report.operation
                rows.append(
                    (
                        step,
                        kind,
                        role_value,
                        None if anonymous else gid,
                        gid,
                        report.cluster_count,
                        report.worst_byzantine_fraction,
                        operation.operation,
                        operation.messages,
                        operation.rounds,
                        operation.walk_hops,
                    )
                )
        return {
            "rows": pack_rows(rows) if observe else rows,
            "summary": self._summary(engine),
            "elapsed": time.perf_counter() - started,
        }

    def emigrate_ids(self, shard: int, gids: Sequence[int]) -> Dict[str, Any]:
        """Evict the named nodes for a barrier move (in the given order).

        The coordinator plans the emigrant set from its directory — the
        shard's largest active global ids, largest first, a pure function
        of routed history — so the donor worker only executes.  The reply
        piggybacks the post-departure summary, so a barrier needs no extra
        round trip.
        """
        slot = self._slot(shard)
        engine = slot.engine
        g2l = slot.g2l
        for gid in gids:
            engine.apply_event(ChurnEvent.leave(g2l[gid]))
        return {"summary": self._summary(engine)}

    def immigrate(self, shard: int, moves: Sequence[Tuple[int, str]]) -> Dict[str, Any]:
        """Admit moved nodes as joins, ``(gid, role)`` pairs in the planned order."""
        slot = self._slot(shard)
        engine = slot.engine
        for gid, role_value in moves:
            local = slot.g2l.get(gid)
            report = engine.apply_event(
                ChurnEvent.join(role=NodeRole(role_value), node_id=local)
            )
            if local is None:
                slot.map_new(gid, report.operation.node_id)
        return {"summary": self._summary(engine)}

    def read_view(self, shard: int) -> Dict[str, Any]:
        """The shard's :func:`~repro.shard.serve.engine_view`, in global ids and cluster names."""
        slot = self._slot(shard)
        return engine_view(slot.engine, slot.l2g, shard, self.shards)

    def check_invariants(self, shard: int, check_honest_majority: bool) -> InvariantReport:
        """The hosted shard engine's structural invariant report."""
        return self._slot(shard).engine.check_invariants(
            check_honest_majority=check_honest_majority
        )

    def state_hash(self, shard: int) -> str:
        """The hosted shard engine's canonical state hash."""
        return self._slot(shard).engine.state_hash()

    def snapshot(self, shard: int) -> Dict[str, Any]:
        """Checkpoint payload for one shard: engine snapshot + id map."""
        slot = self._slot(shard)
        return {
            "engine": slot.engine.capture_snapshot(),
            "l2g": sorted(slot.l2g.items()),
        }

    def stop(self) -> None:
        """No-op acknowledgement; the transport tears the process down."""


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class InlineTransport:
    """Executes worker commands in the coordinator process (lane 0).

    Commands queue on ``send`` and execute lazily on ``recv`` — the same
    FIFO discipline as the process pipe.  That keeps the pipelined
    dispatch order identical across transports, it lets lane 0 execute
    while the worker processes execute the commands sent to them, and it
    keeps the coordinator's phase breakdown honest: lane 0's execution
    time lands in the recv window, where the coordinator accounts for it,
    not inside ``send``.  A command that raises raises here, unwrapped.
    """

    def __init__(
        self,
        scenario_data: Dict[str, Any],
        shard_ids: Sequence[int],
        sizes: Sequence[int],
        restore: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        self.worker = ShardWorker(scenario_data, shard_ids, sizes, restore=restore)
        self._pending: List[Tuple[str, tuple]] = []

    def wait_started(self) -> None:
        """The worker was built in the constructor: nothing to wait for."""

    def send(self, method: str, *args: Any) -> None:
        self._pending.append((method, args))

    def recv(self) -> Any:
        method, args = self._pending.pop(0)
        return getattr(self.worker, method)(*args)

    def close(self) -> None:
        self._pending.clear()


#: The parent ends of every live worker pipe of this process.  A forked
#: worker closes its copies first thing: while any process still holds a
#: pipe's parent end, its worker never reads EOF, and it would outlive a
#: killed coordinator (holding the coordinator's stdout and stderr open).
_PARENT_ENDS: weakref.WeakSet = weakref.WeakSet()


def worker_main(
    conn,
    scenario_data: Dict[str, Any],
    shard_ids: Sequence[int],
    sizes: Sequence[int],
    restore: Optional[Dict[int, Dict[str, Any]]] = None,
) -> None:
    """Child-process loop: execute ``(method, args)`` commands until ``stop``
    or EOF (the coordinator closed its end, or died)."""
    for inherited in list(_PARENT_ENDS):
        inherited.close()
    try:
        worker = ShardWorker(scenario_data, shard_ids, sizes, restore=restore)
    except BaseException:
        conn.send((False, traceback.format_exc()))
        conn.close()
        return
    conn.send((True, None))
    while True:
        try:
            method, args = conn.recv()
        except EOFError:
            break
        try:
            reply = (True, getattr(worker, method)(*args))
        except BaseException:
            reply = (False, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            break  # the coordinator closed its end, or died, before this reply
        if method == "stop":
            break
    conn.close()


class ProcessTransport:
    """Runs a :class:`ShardWorker` in a child process behind a pipe.

    The fork start method is preferred (cheap, inherits the loaded modules);
    where unavailable the default context is used — every command payload is
    picklable plain data, so spawn works too, just slower to start.
    """

    def __init__(
        self,
        scenario_data: Dict[str, Any],
        shard_ids: Sequence[int],
        sizes: Sequence[int],
        restore: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        _PARENT_ENDS.add(self._conn)
        self._process = ctx.Process(
            target=worker_main,
            args=(child, dict(scenario_data), list(shard_ids), list(sizes), restore),
            daemon=True,
        )
        self._process.start()
        child.close()
        self._acknowledged = False

    def wait_started(self) -> None:
        """Take the worker's bootstrap acknowledgement (raises if its init failed).

        Not awaited in the constructor: a coordinator starts every worker
        first, so their engines bootstrap in parallel.
        """
        if not self._acknowledged:
            self._acknowledged = True
            self.recv()

    def _died(self, cause: BaseException) -> ShardWorkerError:
        self._process.join(timeout=1)
        exitcode = self._process.exitcode
        return ShardWorkerError(
            "shard worker process died mid-command "
            f"(exitcode {exitcode}): {cause.__class__.__name__}"
        )

    def send(self, method: str, *args: Any) -> None:
        try:
            self._conn.send((method, args))
        except (BrokenPipeError, OSError) as error:
            raise self._died(error) from None

    def recv(self) -> Any:
        try:
            ok, payload = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as error:
            # The child vanished without replying (killed, OOM, segfault):
            # the pipe reports EOF rather than a traceback.  Surface a
            # ShardWorkerError instead of leaving the raw EOFError to
            # propagate as a confusing coordinator crash.
            raise self._died(error) from None
        if not ok:
            raise ShardWorkerError(f"shard worker command failed:\n{payload}")
        return payload

    def close(self) -> None:
        try:
            self.wait_started()
            self.send("stop")
            self.recv()
        except (OSError, EOFError, BrokenPipeError, ShardWorkerError):
            pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
