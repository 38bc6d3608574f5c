"""Deterministic trace, checkpoint and replay: resumable, auditable runs.

The paper's guarantees are asymptotic — they only become visible over very
long event sequences — and a million-event run that dies at event 900 000
used to lose everything, while a diverging run could not be debugged after
the fact.  This subsystem turns any scenario run into a restartable,
machine-checkable execution:

* :mod:`repro.trace.log` — ``TraceWriter`` / ``TraceReader``: an
  append-only event log with periodic state-hash index frames (the
  documented frame format), write-buffered and format-agnostic;
* :mod:`repro.trace.codec` — the two physical encodings behind that API:
  line-delimited JSON and a struct-packed binary container (~6x smaller,
  faster decode), sniffed automatically on read so formats can be mixed;
* :mod:`repro.trace.checkpoint` — ``Checkpoint``: full engine + event
  source state captured to one atomic JSON file and restored to continue
  bit-identically (all RNG streams included);
* :mod:`repro.trace.replay` — ``TraceVerifier``, the one check of a
  re-executed run against its recorded frames (every event frame, every
  index and end hash; the first divergence raises
  ``TraceDivergenceError``), fed by ``ReplayEngine``, which re-applies a
  recorded trace through a rebuilt driver, and by
  ``checkpoint_from_trace``; ``trace_diff`` pinpoints the first diverging
  event between two runs;
* :mod:`repro.trace.hashing` — the canonical state fingerprint both of the
  above compare;
* :mod:`repro.trace.session` — ``open_driver``, the one place a run's
  driver (single-engine runner or shard coordinator) is built, for batch
  runs, the live service and replay alike — so a replayed trace certifies
  the object the recording ran; ``Recorder``,
  the one place that decides when a recorded run writes an index frame or a
  checkpoint and how a recording is sealed or left crashed-shape, with three
  callers (the single-engine runner, the shard coordinator, the live
  session); and ``record_scenario`` / ``resume_from_checkpoint`` / ``checkpoint_from_trace``,
  the functions behind the CLI's ``run-scenario --record``, ``resume`` and
  ``replay --to-step N --checkpoint`` (the last re-drives the scenario with
  the ``TraceVerifier`` in its recorder's seat).

The determinism contract this relies on (every RNG-visible enumeration in
the engine stack is canonically ordered) is documented in
``docs/ARCHITECTURE.md``.
"""

from .checkpoint import Checkpoint, write_json_atomic
from .codec import (
    BINARY_MAGIC,
    DEFAULT_FLUSH_EVERY,
    TRACE_FORMATS,
    read_trace_frames,
    sniff_trace_format,
)
from .hashing import canonical_json, digest, state_fingerprint, state_hash
from .log import (
    DEFAULT_INDEX_EVERY,
    TraceReader,
    TraceWriter,
    churn_event_from_frame,
)
from .replay import (
    ReplayEngine,
    ReplayReport,
    TraceDiff,
    TraceDivergenceError,
    TraceVerifier,
    replay_trace,
    trace_diff,
)
from .session import (
    Recorder,
    SessionResult,
    TraceCheckpointResult,
    checkpoint_from_trace,
    open_driver,
    record_scenario,
    resume_from_checkpoint,
)

__all__ = [
    "BINARY_MAGIC",
    "Checkpoint",
    "DEFAULT_FLUSH_EVERY",
    "DEFAULT_INDEX_EVERY",
    "Recorder",
    "ReplayEngine",
    "ReplayReport",
    "SessionResult",
    "TRACE_FORMATS",
    "TraceCheckpointResult",
    "TraceDiff",
    "TraceDivergenceError",
    "TraceReader",
    "TraceVerifier",
    "TraceWriter",
    "canonical_json",
    "checkpoint_from_trace",
    "churn_event_from_frame",
    "digest",
    "open_driver",
    "read_trace_frames",
    "record_scenario",
    "replay_trace",
    "resume_from_checkpoint",
    "sniff_trace_format",
    "state_fingerprint",
    "state_hash",
    "trace_diff",
    "write_json_atomic",
]
