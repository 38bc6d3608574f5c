"""Sharded execution: one scenario run split across execution lanes.

``repro.shard`` is the first multi-process execution path for the engine
itself (sweeps parallelise across independent runs; this parallelises
*within* one run).  A scenario with ``shards = S`` is executed as ``S``
independent NOW engines — one per shard, each owning a slice of the
population and its own cluster partition — coordinated by a single
deterministic event router:

* the :class:`~repro.shard.router.ShardDirectory` owns global node
  identities, roles and liveness — it is the one copy of placement, and a
  rejoining node keeps its registered role;
* the :class:`~repro.shard.coordinator.ShardCoordinator` takes events —
  pulled from the scenario's event source, or given by the live service or
  replay — routes each to its owning shard (joins to the least-loaded shard,
  leaves to the owner), and dispatches per-shard batches to
  :class:`~repro.shard.worker.ShardWorker` lanes (lane 0 in this process,
  the rest in worker processes) in *windows* that never
  straddle a multiple of ``barrier_interval`` admitted events;
* at every such multiple (a barrier), at most one cross-shard move runs: one
  planned list ``(src, dst, directory.emigrants(src, count))`` of explicit
  ``(gid, role)`` pairs — never shared memory — so the whole run is
  replayable and bit-identical **regardless of the lane count**
  (``workers=1`` runs every logical shard inline and is the correctness
  oracle);
* the merge layer (:mod:`repro.shard.merge`) recombines per-shard
  observation batches at flush boundaries into composite step records — the
  one source of composite observables — and folds per-shard ``state_hash``
  digests into one composite hash;
* :meth:`~repro.shard.coordinator.ShardCoordinator.check_invariants` gives
  the composite run one structural verdict: every shard's check plus
  directory-vs-worker size agreement.

Running, recording, checkpointing, resuming, serving and replaying a
sharded run go through the same entry points as a single-engine one, all
opening their driver with :func:`repro.trace.session.open_driver`, which
picks the coordinator from ``scenario.shards``.
``docs/SHARDING.md`` describes the protocol in detail.
"""

from .coordinator import PHASE_KEYS, ShardCoordinator
from .merge import composite_state_hash
from .messages import iter_events, iter_rows, pack_rows
from .router import (
    EventRouter,
    ShardDirectory,
    WindowBatch,
    plan_rebalance,
    slice_sizes,
)
from .serve import ShardReadModel
from .worker import ShardWorker, ShardWorkerError

__all__ = [
    "EventRouter",
    "PHASE_KEYS",
    "ShardCoordinator",
    "ShardDirectory",
    "ShardReadModel",
    "ShardWorker",
    "ShardWorkerError",
    "WindowBatch",
    "composite_state_hash",
    "iter_events",
    "iter_rows",
    "pack_rows",
    "plan_rebalance",
    "slice_sizes",
]
