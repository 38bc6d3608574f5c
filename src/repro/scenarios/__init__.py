"""The scenario subsystem: one shared run loop for every experiment.

Four layers, smallest on top:

* :mod:`repro.scenarios.scenario` — :class:`Scenario`, a declarative
  description of one experiment (parameters, engine flavour, workload and
  adversary specs, seed discipline), JSON-serialisable and available as named
  presets for the CLI,
* :mod:`repro.scenarios.runner` — :class:`SimulationRunner` and
  ``run_windows``, the step loop (workload/adversary → engine → observation
  bus → stop conditions) shared by every benchmark, example, the CLI and the
  shard coordinator, returning a :class:`RunResult`,
* :mod:`repro.scenarios.bus` — :class:`ObservationBus` and
  :class:`StepRecord`, the streaming observation pipeline: inline probes run
  per event, buffered probes receive batched step records off the hot path,
* :mod:`repro.scenarios.probes` — the pluggable :class:`Probe` API
  (corruption trajectory, size trajectory, cost ledgers, custom callbacks),
  all built-ins streaming into O(1) running aggregates.

See ``docs/ARCHITECTURE.md`` for how this layer sits on the engine stack.
"""

from .bus import DEFAULT_PROBE_BUFFER, ObservationBus, StepRecord, step_record
from .probes import (
    DEFAULT_SERIES_CAP,
    CallbackProbe,
    CorruptionTrajectoryProbe,
    CostLedgerProbe,
    Probe,
    SizeTrajectoryProbe,
)
from .runner import (
    RunResult,
    SimulationRunner,
    stop_when_compromised,
    stop_when_size_at_least,
    stop_when_size_at_most,
)
from .scenario import NAMED_SCENARIOS, Scenario, named_scenario

__all__ = [
    "DEFAULT_PROBE_BUFFER",
    "DEFAULT_SERIES_CAP",
    "ObservationBus",
    "StepRecord",
    "step_record",
    "Probe",
    "CallbackProbe",
    "CorruptionTrajectoryProbe",
    "CostLedgerProbe",
    "SizeTrajectoryProbe",
    "RunResult",
    "SimulationRunner",
    "stop_when_compromised",
    "stop_when_size_at_least",
    "stop_when_size_at_most",
    "Scenario",
    "NAMED_SCENARIOS",
    "named_scenario",
]
