"""repro — reproduction of "Highly Dynamic Distributed Computing with Byzantine Failures".

This library implements, in pure Python, the NOW (Neighbors On Watch)
clustering protocol of Guerraoui, Huc and Kermarrec (PODC 2013) together with
every substrate it relies on: the OVER expander overlay, continuous random
walks, a Byzantine agreement substrate for the initialization phase (Phase
King and flooding discovery executed round by round, the scalable agreement
and large-n discovery modelled from their cost formulas), adversary models,
the comparison schemes as placement rules of the one engine, and the
applications sketched in the paper's conclusion (broadcast, sampling,
aggregation, agreement).

Quick start::

    from repro import NowEngine, default_parameters

    params = default_parameters(max_size=4096, tau=0.25)
    engine = NowEngine.bootstrap(params, initial_size=256, seed=7)
    engine.join()                       # a node joins
    engine.leave(engine.random_member())  # a node leaves
    print(engine.worst_cluster_fraction())
    print(engine.check_invariants().summary())

See ``docs/ARCHITECTURE.md`` for the system layering (including the scenario
runner that drives every benchmark and example) and ``PAPER.md`` for the
source paper's abstract.
"""

from .params import ProtocolParameters, default_parameters
from .errors import (
    AgreementError,
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    UnknownClusterError,
    UnknownNodeError,
    WalkError,
)
from .core import (
    ChurnEvent,
    ChurnKind,
    EngineConfig,
    InitializationReport,
    InvariantReport,
    MaintenanceReport,
    NowEngine,
    NowInitializer,
    SystemState,
    check_invariants,
)
from .scenarios import (
    ObservationBus,
    RunResult,
    Scenario,
    SimulationRunner,
    StepRecord,
    named_scenario,
)
from .trace import (
    Checkpoint,
    ReplayEngine,
    checkpoint_from_trace,
    record_scenario,
    replay_trace,
    resume_from_checkpoint,
    state_hash,
    trace_diff,
)
from .walks.sampler import WalkMode

__version__ = "0.1.0"

__all__ = [
    "ProtocolParameters",
    "default_parameters",
    "ReproError",
    "ConfigurationError",
    "ProtocolViolationError",
    "UnknownNodeError",
    "UnknownClusterError",
    "AgreementError",
    "WalkError",
    "ChurnEvent",
    "ChurnKind",
    "EngineConfig",
    "InitializationReport",
    "InvariantReport",
    "MaintenanceReport",
    "NowEngine",
    "NowInitializer",
    "SystemState",
    "check_invariants",
    "ObservationBus",
    "RunResult",
    "Scenario",
    "SimulationRunner",
    "StepRecord",
    "named_scenario",
    "WalkMode",
    "Checkpoint",
    "ReplayEngine",
    "checkpoint_from_trace",
    "record_scenario",
    "replay_trace",
    "resume_from_checkpoint",
    "state_hash",
    "trace_diff",
    "__version__",
]
