"""Parallel multi-seed experiment sweeps over :class:`~repro.scenarios.scenario.Scenario` presets.

A single scenario run is one Monte-Carlo sample; every quantitative claim in
the paper is about distributions over runs.  This module turns "run scenario
X under parameters P with seed s" into a first-class, parallelisable unit:

* :class:`SweepSpec` — a base scenario (inline fields or a named preset), a
  parameter *grid* (scenario field -> list of values, dotted keys reaching
  into nested dicts such as ``engine_options.walk_mode`` — sweeping
  ``simulated`` vs ``oracle`` ablates the walks themselves) and a *seed
  list*.  The spec expands to the
  cartesian product ``grid x seeds`` and is JSON round-trippable for the
  CLI's ``run-sweep --spec``.
* :class:`SweepRunner` — fans the expanded runs out over a
  ``concurrent.futures.ProcessPoolExecutor`` (scenario runs share no state,
  so they parallelise embarrassingly; ``workers <= 1`` runs inline, which
  tests and debugging use).  Each worker opens the scenario's driver at the
  driver seam (:func:`repro.trace.session.open_driver`), attaches the
  standard probes, runs it, and ships back a plain-dict record.  The seam
  picks the driver, so ``shards`` and ``shard_options.*`` are ordinary grid
  keys: a sharded unit runs its coordinator inline, this pool parallelises.
* :class:`SweepResult` — the records plus per-grid-point aggregation:
  mean / sample std / 95% CI over seeds for every numeric metric, via
  :func:`repro.analysis.statistics.mean_confidence`.

The CLI front end is ``python -m repro.cli run-sweep``; the ported
benchmarks (``bench_joinleave_attack``, ``bench_ablation_walk_mode``) are
library examples of driving it programmatically.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table
from ..analysis.statistics import MeanConfidence, mean_confidence
from ..errors import ConfigurationError
from ..rng import sha256
from ..scenarios.probes import CorruptionTrajectoryProbe, CostLedgerProbe, Probe
from ..scenarios.scenario import NAMED_SCENARIOS, Scenario
from ..trace.session import open_driver

#: Metrics aggregated per grid point (every one is a numeric field of the
#: per-run record).
AGGREGATED_METRICS: Tuple[str, ...] = (
    "events",
    "events_per_second",
    "final_size",
    "final_cluster_count",
    "final_worst_fraction",
    "peak_worst_fraction",
    "mean_worst_fraction",
    "steps_above_threshold",
    "mean_messages_per_event",
    "walk_hops",
    "target_peak_fraction",
)


@dataclass
class SweepSpec:
    """A parameter grid x seed list over one base scenario.

    ``scenario`` holds the base :class:`Scenario` fields (as a plain dict);
    alternatively ``preset`` names an entry of ``NAMED_SCENARIOS`` whose
    fields become the base (explicit ``scenario`` entries override preset
    fields).  ``grid`` maps scenario fields to candidate values; a dotted key
    (``engine_options.walk_mode``) writes into a nested dict field.  Each
    grid point runs once per seed.
    """

    name: str = "sweep"
    preset: Optional[str] = None
    scenario: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=lambda: [1, 2])
    workers: int = 2
    steps: Optional[int] = None
    track_target_cluster: bool = False

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def base_fields(self) -> Dict[str, Any]:
        """The base scenario fields (preset merged with inline overrides)."""
        fields: Dict[str, Any] = {}
        if self.preset is not None:
            if self.preset not in NAMED_SCENARIOS:
                raise ConfigurationError(
                    f"unknown preset {self.preset!r}; available: {sorted(NAMED_SCENARIOS)}"
                )
            fields.update(NAMED_SCENARIOS[self.preset])
        fields.update(self.scenario)
        if self.steps is not None:
            fields["steps"] = self.steps
        return fields

    def grid_points(self) -> List[Dict[str, Any]]:
        """Every grid combination as an ``{field: value}`` dict (sorted keys)."""
        if not self.grid:
            return [{}]
        keys = sorted(self.grid)
        empty = [key for key in keys if not self.grid[key]]
        if empty:
            raise ConfigurationError(f"grid fields with no values: {empty}")
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[key] for key in keys))
        ]

    def payloads(self) -> List[Dict[str, Any]]:
        """One worker payload per (grid point, seed), in deterministic order."""
        base = self.base_fields()
        payloads = []
        sharded = []
        for point in self.grid_points():
            label = ", ".join(f"{key}={value}" for key, value in point.items()) or "(base)"
            for seed in self.seeds:
                fields = json.loads(json.dumps(base))  # deep copy, JSON-safe
                for key, value in point.items():
                    _assign_dotted(fields, key, value)
                fields["seed"] = int(seed)
                scenario = Scenario.from_dict(fields)  # validate eagerly
                if scenario.shards and label not in sharded:
                    sharded.append(label)
                scenario_dict = scenario.to_dict()
                payloads.append(
                    {
                        "sweep": self.name,
                        "point": dict(point),
                        "seed": int(seed),
                        "scenario": scenario_dict,
                        "spec_digest": spec_digest(scenario_dict),
                        "track_target_cluster": self.track_target_cluster,
                    }
                )
        if self.track_target_cluster and sharded:
            # The target probe reads one engine's clusters inline, which a
            # sharded driver refuses: every such unit would only fail.
            raise ConfigurationError(
                "track_target_cluster needs a single-engine run; refused for "
                f"the sharded grid point(s): {'; '.join(sharded)}"
            )
        return payloads

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """JSON text form."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        """Build a spec from its plain-dict form (unknown keys rejected)."""
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown sweep fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))


def _assign_dotted(fields: Dict[str, Any], key: str, value: Any) -> None:
    """Assign ``value`` at a possibly dotted ``key`` inside ``fields``."""
    parts = key.split(".")
    target = fields
    for part in parts[:-1]:
        node = target.get(part)
        if node is None:
            node = {}
            target[part] = node
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"grid key {key!r} traverses non-dict field {part!r}"
            )
        target = node
    target[parts[-1]] = value


class _WalkHopsProbe(Probe):
    """Running total of walk hops across every applied event.

    A buffered consumer with O(1) memory — the sweep record only needs the
    sum, so no per-event list is kept even over million-event horizons.
    """

    name = "walk-hops"
    inline = False

    def __init__(self) -> None:
        self.total = 0

    def on_records(self, engine, records) -> None:
        for record in records:
            self.total += record.walk_hops

    def result(self) -> int:
        return self.total


def _structural_invariants_ok(engine) -> bool:
    """Post-run structural invariant verdict of the engine, under any rule.

    The shard coordinator's composite
    :meth:`~repro.shard.coordinator.ShardCoordinator.check_invariants`
    needs live workers: call it before the driver closes.
    """
    return bool(engine.check_invariants(check_honest_majority=False).holds)


def run_sweep_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one sweep unit (module-level so process pools can pickle it).

    Opens the scenario's driver (:func:`repro.trace.session.open_driver`)
    with the standard probes attached (corruption trajectory, cost ledger,
    walk-hop counter; plus a first-cluster target probe when requested — the
    join–leave attack measurements), runs it and returns the flat, picklable
    per-run record.

    All standard probes ride the buffered observation bus: they consume
    batched step records off the engine's hot loop, so sweep workers pay no
    inline-probe overhead per event.  Only the target-cluster probe reads
    the engine per step — a sharded unit has no single engine to read, so
    :meth:`SweepSpec.payloads` refuses that combination before any unit runs.
    """
    scenario = Scenario.from_dict(payload["scenario"])
    corruption = CorruptionTrajectoryProbe()
    costs = CostLedgerProbe()
    hops = _WalkHopsProbe()
    probes = [corruption, costs, hops]
    target_probe = None
    if payload.get("track_target_cluster"):
        target_probe = CorruptionTrajectoryProbe(target_cluster="first")
        target_probe.name = "target-corruption"
        probes.append(target_probe)
    with open_driver(scenario, probes) as driver:
        result = driver.run(scenario.steps)
        invariants_ok = _structural_invariants_ok(driver.engine)
    summary = corruption.summary()
    record = {
        "sweep": payload["sweep"],
        "point": dict(payload["point"]),
        "seed": payload["seed"],
        "spec_digest": payload.get("spec_digest"),
        "scenario": scenario.name,
        "steps": result.steps,
        "events": result.events,
        "elapsed_seconds": result.elapsed_seconds,
        "events_per_second": result.events_per_second,
        "final_size": result.final_size,
        "final_cluster_count": result.final_cluster_count,
        "final_worst_fraction": result.final_worst_fraction,
        "peak_worst_fraction": result.peak_worst_fraction,
        "mean_worst_fraction": summary.mean,
        "steps_above_threshold": summary.steps_above_threshold,
        "mean_messages_per_event": costs.mean_messages_overall(),
        "walk_hops": float(hops.total),
        "safe": result.safe,
        "stop_reason": result.stop_reason,
        "invariants_ok": invariants_ok,
    }
    if target_probe is not None:
        record["target_peak_fraction"] = target_probe.peak
        record["target_captured"] = target_probe.captured
        record["target_capture_step"] = target_probe.first_step_at_threshold
    return record


@dataclass
class SweepResult:
    """Per-run records plus per-grid-point aggregates of one sweep."""

    name: str
    records: List[Dict[str, Any]]
    workers_used: int

    def points(self) -> List[Dict[str, Any]]:
        """The distinct grid points, in first-seen order."""
        seen: List[Dict[str, Any]] = []
        for record in self.records:
            if record["point"] not in seen:
                seen.append(record["point"])
        return seen

    def failures(self) -> List[Dict[str, Any]]:
        """Units that failed even after their retry (empty on a clean sweep)."""
        return [record for record in self.records if record.get("failed")]

    def records_for(self, point: Dict[str, Any]) -> List[Dict[str, Any]]:
        """All *successful* per-seed records of one grid point.

        Failed units (see :meth:`failures`) are excluded so aggregates never
        mix placeholder records into the statistics.
        """
        return [
            record
            for record in self.records
            if record["point"] == point and not record.get("failed")
        ]

    def aggregate(self, point: Dict[str, Any]) -> Dict[str, MeanConfidence]:
        """Mean/std/CI over seeds for every aggregated metric of ``point``."""
        rows = self.records_for(point)
        aggregates: Dict[str, MeanConfidence] = {}
        for metric in AGGREGATED_METRICS:
            values = [row[metric] for row in rows if metric in row]
            if values:
                aggregates[metric] = mean_confidence(values)
        return aggregates

    def aggregates(self) -> List[Tuple[Dict[str, Any], Dict[str, MeanConfidence]]]:
        """``(grid point, metric aggregates)`` for every point."""
        return [(point, self.aggregate(point)) for point in self.points()]

    def metric(self, point: Dict[str, Any], name: str) -> MeanConfidence:
        """One aggregated metric of one grid point (error when absent)."""
        aggregates = self.aggregate(point)
        if name not in aggregates:
            raise ConfigurationError(
                f"metric {name!r} was not recorded for point {point!r}"
            )
        return aggregates[name]

    def summary_table(
        self, metrics: Sequence[str] = ("events_per_second", "peak_worst_fraction", "mean_worst_fraction")
    ) -> str:
        """A plain-text table: one row per grid point, ``mean ± ci95`` cells."""
        headers = ["grid point", "seeds"] + list(metrics)
        rows: List[List[Any]] = []
        for point, aggregates in self.aggregates():
            label = ", ".join(f"{k}={v}" for k, v in sorted(point.items())) or "(base)"
            row: List[Any] = [label, aggregates[next(iter(aggregates))].count if aggregates else 0]
            for metric in metrics:
                row.append(str(aggregates[metric]) if metric in aggregates else "-")
            rows.append(row)
        return format_table(headers, rows)


def spec_digest(scenario_fields: Dict[str, Any]) -> str:
    """Short digest of a unit's fully-expanded scenario dict.

    Part of the resume identity: a progress file written for 40-step runs
    must not satisfy an 80-step sweep just because grid points and seeds
    coincide, so completed records only match when the entire expanded
    scenario (steps, preset fields, overrides — everything) is identical.
    """
    canonical = json.dumps(scenario_fields, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _payload_key(payload_or_record: Dict[str, Any]) -> str:
    """Canonical identity of one sweep unit: grid point + seed + scenario digest."""
    return json.dumps(
        {
            "point": payload_or_record["point"],
            "seed": payload_or_record["seed"],
            "spec": payload_or_record.get("spec_digest"),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def load_sweep_progress(path: str) -> Dict[str, Dict[str, Any]]:
    """Completed per-run records from a resume file, keyed by unit identity.

    The file is JSONL (one record per line, appended as units finish); a
    truncated final line — the signature of an interrupted sweep — is
    skipped, so every complete record survives.
    """
    completed: Dict[str, Dict[str, Any]] = {}
    if not os.path.exists(path):
        return completed
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # interrupted mid-write; later lines may still parse
            if "point" in record and "seed" in record:
                completed[_payload_key(record)] = record
    return completed


def failed_sweep_record(payload: Dict[str, Any], error: BaseException) -> Dict[str, Any]:
    """The placeholder record for a unit that failed its run and its retry.

    Carries the full unit identity (point, seed, spec digest) so a resume
    file keeps the failure addressable — a later ``run(resume_path=...)``
    recognises the unit and re-runs it instead of serving the failure as a
    completed result.
    """
    return {
        "sweep": payload["sweep"],
        "point": dict(payload["point"]),
        "seed": payload["seed"],
        "spec_digest": payload.get("spec_digest"),
        "scenario": payload["scenario"].get("name", "scenario"),
        "failed": True,
        "error": f"{type(error).__name__}: {error}",
    }


class SweepRunner:
    """Executes a :class:`SweepSpec`, fanning runs out across processes."""

    def __init__(self, spec: SweepSpec) -> None:
        if spec.workers < 0:
            raise ConfigurationError("workers must be non-negative")
        if not spec.seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        self.spec = spec
        #: Units served from the resume file instead of re-running (set by
        #: the latest :meth:`run` call; the CLI reports it).
        self.resumed_count: int = 0

    def run(self, resume_path: Optional[str] = None) -> SweepResult:
        """Run every (grid point, seed) unit and return the merged result.

        With ``workers <= 1`` the units run inline in this process —
        deterministic and debugger-friendly; otherwise a
        ``ProcessPoolExecutor`` with ``workers`` processes executes them.
        The record list follows payload order either way.

        ``resume_path`` makes the sweep interruptible: every finished unit
        is appended to the file immediately (JSONL), and on a re-run any
        unit already present is served from the file instead of being
        re-executed — an interrupted sweep re-runs only unfinished points.

        A unit whose worker raises is retried exactly once (transient
        failures — an OOM-killed worker, a flaky filesystem — should not
        void an hours-long sweep); a second failure yields a placeholder
        record with ``failed: True`` and the error text.  Failed records
        land in the progress file too, but are never served as completed on
        resume — re-running the sweep retries them.
        """
        payloads = self.spec.payloads()
        completed = load_sweep_progress(resume_path) if resume_path else {}
        progress = None
        if resume_path:
            progress = open(resume_path, "a", encoding="utf-8")

        def record_done(record: Dict[str, Any]) -> None:
            if progress is not None:
                progress.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                progress.write("\n")
                progress.flush()

        records: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        pending: List[Tuple[int, Dict[str, Any]]] = []
        for index, payload in enumerate(payloads):
            cached = completed.get(_payload_key(payload))
            if cached is not None and not cached.get("failed"):
                records[index] = cached
            else:
                pending.append((index, payload))
        self.resumed_count = len(payloads) - len(pending)

        workers = self.spec.workers
        try:
            if workers <= 1 or not pending:
                used = 1
                for index, payload in pending:
                    try:
                        record = run_sweep_payload(payload)
                    except Exception:
                        try:
                            record = run_sweep_payload(payload)  # the one retry
                        except Exception as error:
                            record = failed_sweep_record(payload, error)
                    records[index] = record
                    record_done(record)
            else:
                # Imported here: it brings multiprocessing, which a sweep
                # run inline (and every other command) never needs.
                from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

                used = min(workers, len(pending)) or 1
                with ProcessPoolExecutor(max_workers=used) as pool:
                    futures = {
                        pool.submit(run_sweep_payload, payload): (index, payload, 0)
                        for index, payload in pending
                    }
                    remaining = set(futures)
                    while remaining:
                        done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                        for future in done:
                            index, payload, attempt = futures.pop(future)
                            try:
                                record = future.result()
                            except Exception as error:
                                if attempt == 0:
                                    retry = pool.submit(run_sweep_payload, payload)
                                    futures[retry] = (index, payload, 1)
                                    remaining.add(retry)
                                    continue
                                record = failed_sweep_record(payload, error)
                            records[index] = record
                            record_done(record)
        finally:
            if progress is not None:
                progress.close()
        return SweepResult(name=self.spec.name, records=list(records), workers_used=used)


def run_sweep(spec: SweepSpec, resume_path: Optional[str] = None) -> SweepResult:
    """Convenience wrapper: ``SweepRunner(spec).run(resume_path)``."""
    return SweepRunner(spec).run(resume_path=resume_path)
