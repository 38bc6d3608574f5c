"""Deterministic trace, checkpoint and replay: resumable, auditable runs.

The paper's guarantees are asymptotic — they only become visible over very
long event sequences — so any scenario run can be made a restartable,
machine-checkable execution:

* :mod:`repro.trace.log` — the frame layout, declared once, and
  ``TraceWriter`` / ``TraceReader``: an append-only event log with periodic
  state-hash index frames, every frame checked against the layout on read;
* :mod:`repro.trace.codec` — its two physical encodings, line-delimited
  JSON and a struct-packed binary container, sniffed on read;
* :mod:`repro.trace.checkpoint` — ``Checkpoint``: full engine + event source
  state in one atomic JSON file, restored to continue bit-identically;
* :mod:`repro.trace.replay` — ``TraceVerifier``, the one check of a
  re-executed run against its recorded frames (the first divergence raises
  ``TraceDivergenceError``), fed by ``ReplayEngine`` and by
  ``checkpoint_from_trace``; ``trace_diff`` pinpoints the first diverging
  event between two runs;
* :mod:`repro.trace.hashing` — the canonical state fingerprint;
* :mod:`repro.trace.session` — ``open_driver``, the one place a run's
  driver is built; ``Recorder``, the one place a recorded run's index frames,
  checkpoints and seal are decided; and ``record_scenario`` /
  ``resume_from_checkpoint`` / ``checkpoint_from_trace``, behind the CLI's
  ``run-scenario --record``, ``resume`` and ``replay --to-step``.

The determinism contract this relies on (every RNG-visible enumeration in
the engine stack is canonically ordered) is documented in
``docs/ARCHITECTURE.md``.
"""

from .checkpoint import Checkpoint, write_json_atomic
from .codec import BINARY_MAGIC, TRACE_FORMATS, sniff_trace_format
from .hashing import canonical_json, digest, state_fingerprint, state_hash
from .log import (
    DEFAULT_FLUSH_EVERY,
    DEFAULT_INDEX_EVERY,
    TraceReader,
    TraceWriter,
    churn_event_from_frame,
    read_trace_frames,
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
