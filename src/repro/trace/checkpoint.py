"""Checkpoints: full run state on disk, restored to continue bit-identically.

A checkpoint is one JSON document — one envelope for every backend —
capturing everything a run needs to pick up exactly where it stopped:

* the engine snapshot, as the backend's ``capture_snapshot`` gives it: for
  :class:`~repro.core.engine.NowEngine` parameters, config, both registries
  with their RNG-visible array orders (every cluster's member slots
  included: version 3 stores the slot order of trace v4), the overlay graph with its version
  counter, metrics, the engine RNG stream and the hop engine's stream
  state and unconsumed uniform buffer; for the
  :class:`~repro.shard.coordinator.ShardCoordinator` the router directory,
  merge state and one such engine snapshot per logical shard.
  ``engine_kind`` names which (absent means ``"now"``),
* the event source snapshot (workload / adversary / mixed driver RNG
  streams and mutable state),
* the scenario spec (so ``resume`` can rebuild the source object), and
* run bookkeeping (steps and events completed — the latter is also how far
  into its barrier interval a sharded run is) plus the state hash at capture
  time (an integrity check on restore).

Files are written atomically (temp file + ``os.replace``), so a run killed
mid-checkpoint leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from typing import Any, Dict, Optional, Tuple, get_type_hints

from ..core.engine import EngineConfig
from ..errors import ConfigurationError
from ..rng import rng_state_from_json
from ..scenarios.scenario import annotated_field
from ..walks.sampler import check_kernel_snapshot
from .hashing import state_hash
from .log import Field, field_fault

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 3

_OBJECT = (dict,)

#: The envelope every checkpoint carries, checked (with the trace layout's
#: field checker, like the top levels of its snapshots below) before
#: anything reads it.
ENVELOPE_FIELDS = (
    Field("engine", "engine snapshot", _OBJECT),
    Field("source", "event-source snapshot", _OBJECT, nullable=True),
    Field("scenario", "scenario", _OBJECT, nullable=True),
    Field("steps_done", "steps done", (int,), low=0),
    Field("events_done", "events done", (int,), low=0),
    Field("state_hash", "state hash", (str,), nullable=True),
    Field("engine_kind", "engine kind", (str,), values=("sharded",), optional=True),
)

#: Engine kind -> the top level of its ``engine`` snapshot.
ENGINE_FIELDS = {
    "now": tuple(Field(key, f"engine {key}", _OBJECT) for key in ("config", "state", "randcl")),
    "sharded": tuple(Field(key, f"shard {key}", _OBJECT) for key in ("router", "merge", "shards")),
}

#: A single engine's ``config``: the :class:`EngineConfig` fields, typed as
#: annotated (resolved once, at import, like a spec's), and no other key.
CONFIG_FIELDS = tuple(annotated_field(key, hint) for key, hint in get_type_hints(EngineConfig).items())
#: A single engine's ``randcl``: the hop engine's stream, null before any walk.
RANDCL_FIELDS = (Field("kernel", "walk-kernel snapshot", _OBJECT, nullable=True),)

#: The top level of an event source's snapshot (a mixed driver's has ``sources``).
SOURCE_FIELDS = (
    Field("kind", "source kind", (str,)),
    Field("rng", "source stream", (list,)),
    Field("extra", "source state", _OBJECT, optional=True),
    Field("sources", "mixed sources", (list,), optional=True),
)


def _fault(document: Dict[str, Any], fields: Tuple[Field, ...], path: str) -> Optional[str]:
    """``"<path><key> <why>"`` for the first key of ``document`` that ``fields`` refuse."""
    fault = field_fault(document, fields)
    return None if fault is None else f"{path}{fault[0].key} {fault[1]}"


def engine_fault(engine: Dict[str, Any], path: str) -> Optional[str]:
    """The first malformed key of a single engine's snapshot at ``path``, down
    to its config and kernel stream (whose backend is checked here too)."""
    problem = _fault(engine, ENGINE_FIELDS["now"], path)
    if problem:
        return problem
    config = engine["config"]
    unknown = sorted(set(config) - {field.key for field in CONFIG_FIELDS})
    if unknown:
        return f"{path}config/{unknown[0]} is not an engine option"
    problem = _fault(config, CONFIG_FIELDS, f"{path}config/") or _fault(
        engine["randcl"], RANDCL_FIELDS, f"{path}randcl/"
    )
    if problem:
        return problem
    for key, value in config.items():
        try:
            EngineConfig(**{key: value})  # the option's own value check
        except (ConfigurationError, ValueError) as error:
            return f"{path}config/{key} is {value!r} ({error})"
    if engine["randcl"]["kernel"] is not None:
        check_kernel_snapshot(engine["randcl"]["kernel"])
    return None


def _stream_fault(state: Any, path: str) -> Optional[str]:
    """Why ``state`` is no generator state ``rng_state_to_json`` wrote, or ``None``."""
    try:
        random.Random().setstate(rng_state_from_json(state))
    except (TypeError, ValueError):
        return f"{path} is {state!r:.60} (expected a generator state)"
    return None


def write_json_atomic(path: str, data: Any, indent: Optional[int] = None) -> None:
    """Write ``data`` as JSON to ``path`` via a temp file + rename.

    ``os.replace`` is atomic on POSIX, so readers never observe a partial
    file and an interrupted writer cannot corrupt an existing one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            # ``json.dumps`` runs the C encoder; ``json.dump`` would stream
            # through the pure-Python one, to the same bytes.
            handle.write(json.dumps(data, indent=indent, sort_keys=True))
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


class Checkpoint:
    """One captured run state: engine + event source + bookkeeping."""

    def __init__(self, data: Dict[str, Any]) -> None:
        document = data.get("format") if isinstance(data, dict) else None
        if document == "repro-sharded-checkpoint":
            raise ConfigurationError(
                "this is a 'repro-sharded-checkpoint' file from an earlier "
                "version, whose per-run barrier schedule no longer exists; "
                "re-run the scenario to produce a 'repro-checkpoint'"
            )
        if document != FORMAT_NAME:
            raise ConfigurationError("not a repro checkpoint document")
        if data.get("version") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {data.get('version')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        kind = data.get("engine_kind", "now")
        problem = _fault(data, ENVELOPE_FIELDS, "")
        if not problem:
            problem = (
                engine_fault(data["engine"], "engine/")
                if kind == "now"
                else _fault(data["engine"], ENGINE_FIELDS[kind], "engine/")
            )
        if not problem and data["source"] is not None:
            problem = _fault(data["source"], SOURCE_FIELDS, "source/") or _stream_fault(
                data["source"]["rng"], "source/rng"
            )
        if problem:
            raise ConfigurationError(f"malformed checkpoint: {problem}")
        self.data = data

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        engine,
        source=None,
        scenario=None,
        steps_done: int = 0,
        events_done: int = 0,
    ) -> "Checkpoint":
        """Capture the full state of a running scenario.

        ``engine`` is the single engine (under any placement rule) or the
        shard coordinator, which also names its ``engine_kind``.  ``source``
        is the live event source whose RNG streams must survive the restart;
        ``scenario`` the spec used to rebuild it.
        """
        data = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "engine": engine.capture_snapshot(),
            "source": source.snapshot_state() if source is not None else None,
            "scenario": scenario.to_dict() if scenario is not None else None,
            "steps_done": int(steps_done),
            "events_done": int(events_done),
            "state_hash": engine.state_hash(),
        }
        kind = getattr(engine, "engine_kind", "now")
        if kind != "now":
            data["engine_kind"] = kind
        return cls(data)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the checkpoint atomically to ``path``."""
        write_json_atomic(path, self.data)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Load a checkpoint document from disk."""
        if not os.path.exists(path):
            raise ConfigurationError(f"checkpoint file {path!r} does not exist")
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as error:
                raise ConfigurationError(f"checkpoint file {path!r} is not JSON: {error}") from None
        return cls(data)

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore_engine(self, rule: str = "now"):
        """Rebuild the single engine and verify it hashes to the captured state.

        ``rule`` is the placement rule of the scenario the checkpoint carries.

        A sharded checkpoint restores through the coordinator
        :func:`~repro.trace.session.open_driver` builds instead, which runs
        the same integrity check on the composite hash.
        """
        from ..core.engine import NowEngine  # local import: avoids a cycle

        engine = NowEngine.restore(self.data["engine"], rule=rule)
        restored_hash = state_hash(engine)
        expected = self.data["state_hash"]
        if expected is not None and restored_hash != expected:
            raise ConfigurationError(
                "restored engine state hash does not match the checkpoint "
                f"({restored_hash[:12]} != {expected[:12]}); the checkpoint is "
                "corrupt or was produced by an incompatible version"
            )
        return engine

    def restore_source(self, source) -> None:
        """Restore the captured event-source state onto a freshly built source."""
        snapshot = self.data["source"]
        if snapshot is None:
            raise ConfigurationError("checkpoint carries no event-source state")
        source.restore_state(snapshot)

    # ------------------------------------------------------------------
    # Bookkeeping accessors
    # ------------------------------------------------------------------
    @property
    def scenario_dict(self) -> Optional[Dict[str, Any]]:
        """The scenario spec captured alongside the state (``None`` if absent)."""
        return self.data["scenario"]

    @property
    def steps_done(self) -> int:
        """Time steps the run had executed when the checkpoint was taken."""
        return self.data["steps_done"]

    @property
    def events_done(self) -> int:
        """Churn events the run had applied when the checkpoint was taken."""
        return self.data["events_done"]

    @property
    def captured_hash(self) -> Optional[str]:
        """State hash recorded at capture time."""
        return self.data["state_hash"]
