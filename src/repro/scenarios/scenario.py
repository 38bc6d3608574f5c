"""Declarative experiment scenarios.

A :class:`Scenario` is a plain-data description of one run — protocol
parameters, placement rule (NOW's or a comparison scheme's), workload
spec, optional adversary spec, step budget and the seed discipline — that
can be built programmatically, loaded from JSON (the CLI's ``run-scenario
--spec``), or picked from the named registry (``run-scenario --name``).

Seed discipline: a scenario's single ``seed`` fans out deterministically —
``seed`` bootstraps the engine, ``seed + 1`` drives the workload,
``seed + 2`` the adversary and ``seed + 3`` the mixing driver — so one
integer reproduces the entire run, and changing it re-randomises every
component coherently.

A scenario *describes* a run: :meth:`Scenario.run` delegates to the driver
seam (:func:`repro.trace.session.open_driver`), the one place that reads
``shards`` to pick the single-engine runner or the shard coordinator, and
:meth:`Scenario.build_runner` is the single-engine builder that seam calls.
"""

from __future__ import annotations

import enum
import inspect
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from ..adversary import (
    AdaptiveCorruptionAdversary,
    AdversaryContext,
    JoinLeaveAttack,
    ObliviousChurnAdversary,
    TargetedDosAdversary,
)
from ..core.engine import EngineConfig, NowEngine
from ..core.placement import check_rule
from ..errors import ConfigurationError
from ..params import default_parameters
from ..workloads.churn import (
    GrowthWorkload,
    OscillatingWorkload,
    ShrinkWorkload,
    UniformChurn,
)
from ..workloads.traces import MixedDriver
from .probes import Probe
from .runner import RunResult, SimulationRunner, StopCondition

WORKLOAD_KINDS = {
    "uniform": UniformChurn,
    "growth": GrowthWorkload,
    "shrink": ShrinkWorkload,
    "oscillating": OscillatingWorkload,
}

ADVERSARY_KINDS = {
    "join_leave": JoinLeaveAttack,
    "targeted_dos": TargetedDosAdversary,
    "oblivious": ObliviousChurnAdversary,
    "adaptive_corruption": AdaptiveCorruptionAdversary,
}


def annotated_field(key: str, hint):
    """The type check of a JSON field ``key`` (a spec's, or a checkpoint's
    engine ``config``), read off its annotation ``hint``: an ``Optional``
    field may be null, a ``float`` takes an int too, a ``Dict`` is an
    object, an enum is held as its value, and a ``bool`` is none of the
    others."""
    from ..trace.log import Field  # local import: repro.trace builds on scenarios

    nullable = get_origin(hint) is Union
    base = get_args(hint)[0] if nullable else hint
    base = get_origin(base) or base
    if isinstance(base, enum.EnumMeta):
        base = type(next(iter(base)).value)
    types = (float, int) if base is float else (base,)
    return Field(key, key, types, nullable=nullable, optional=True)


def _source_spec(role: str, kinds: Dict[str, type], spec: Dict[str, Any], tau: float):
    """``(class, keyword arguments)`` of a ``workload`` or ``adversary`` spec,
    refusing a kind that names no class, or fields that do not fit its
    constructor, with a :class:`ConfigurationError` naming both."""
    spec = dict(spec)
    kind = spec.pop("kind", "uniform" if role == "workload" else None)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(
            f"scenario field '{role}/kind': unknown {role} kind {kind!r}; "
            f"expected one of {sorted(kinds)}"
        )
    if role == "workload":
        spec.setdefault("byzantine_join_fraction", tau)
        if kind == "shrink":
            spec.pop("byzantine_join_fraction")  # shrink only emits leaves
    cls = kinds[kind]
    try:
        inspect.signature(cls).bind(None, **spec)
    except TypeError as error:
        raise ConfigurationError(f"{role} {kind!r}: {error}") from None
    return cls, spec


@dataclass
class Scenario:
    """One declarative experiment: parameters + workload + adversary + budget."""

    name: str = "scenario"
    #: The engine's placement rule (:data:`~repro.core.placement.PLACEMENT_RULES`):
    #: ``now`` or a comparison scheme — the only place a rule is named.
    engine: str = "now"
    max_size: int = 4096
    initial_size: int = 300
    tau: float = 0.15
    k: float = 3.0
    l: float = 2.0
    alpha: float = 0.1
    epsilon: float = 0.05
    seed: int = 1
    steps: int = 200
    workload: Optional[Dict[str, Any]] = field(default_factory=lambda: {"kind": "uniform"})
    adversary: Optional[Dict[str, Any]] = None
    adversary_weight: float = 0.6
    #: Null in a spec reads as ``{}`` (:meth:`from_dict`).
    engine_options: Optional[Dict[str, Any]] = field(default_factory=dict)
    max_idle_streak: Optional[int] = None
    #: Logical shard count: 0 runs the classic single engine; >= 1 runs the
    #: scenario as that many shard engines under ``repro.shard``.  A semantic
    #: field — changing it changes results — unlike the *worker* count, which
    #: is an execution choice (``run-scenario --shards N`` picks workers).
    shards: int = 0
    #: Sharded-execution tuning: ``barrier_interval``, ``rebalance_threshold``,
    #: ``min_shard_size`` (see ``repro.shard.coordinator``).  Semantic too:
    #: the barrier/handoff schedule shapes the run.
    shard_options: Optional[Dict[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def parameters(self):
        """The protocol parameters this scenario runs under."""
        return default_parameters(
            max_size=self.max_size,
            k=self.k,
            l=self.l,
            alpha=self.alpha,
            tau=self.tau,
            epsilon=self.epsilon,
        )

    def build_engine(self) -> NowEngine:
        """Bootstrap the engine under this scenario's placement rule."""
        return NowEngine.bootstrap(
            self.parameters(),
            initial_size=self.initial_size,
            byzantine_fraction=self.tau,
            seed=self.seed,
            config=EngineConfig(**self.engine_options),
            rule=self.engine,
        )

    def build_source(self, driver):
        """Construct the per-step event source (workload, adversary, or a mix).

        ``target_cluster: "first"`` is ``driver``'s lowest cluster name.
        ``None`` when the scenario has neither: a live session's, whose
        events are given to the driver.
        """
        workload = adversary = None
        if self.workload is not None:
            cls, spec = _source_spec("workload", WORKLOAD_KINDS, self.workload, self.tau)
            workload = cls(random.Random(self.seed + 1), **spec)
        if self.adversary is not None:
            cls, spec = _source_spec("adversary", ADVERSARY_KINDS, self.adversary, self.tau)
            if spec.get("target_cluster") == "first":
                context = AdversaryContext(driver.read_model, driver.nodes, driver.params)
                spec["target_cluster"] = context.cluster_ids()[0]
            adversary = cls(random.Random(self.seed + 2), **spec)
        if workload is not None and adversary is not None:
            return MixedDriver(
                [(adversary, self.adversary_weight), (workload, 1.0 - self.adversary_weight)],
                random.Random(self.seed + 3),
            )
        return adversary if adversary is not None else workload

    def build_runner(
        self,
        probes: Sequence[Probe] = (),
        stop_conditions: Sequence[StopCondition] = (),
        engine=None,
    ) -> SimulationRunner:
        """An engine + runner ready to :meth:`SimulationRunner.run` (or, for a
        scenario without a source, to :meth:`~repro.scenarios.runner.WindowDriver.dispatch`)."""
        if self.shards:
            raise ConfigurationError(
                f"scenario {self.name!r} declares shards={self.shards}; open it "
                "with repro.trace.open_driver (or call Scenario.run / "
                "repro.trace.record_scenario) instead of a single-engine runner"
            )
        if engine is None:
            engine = self.build_engine()
        runner = SimulationRunner(
            engine,
            None,
            probes=probes,
            stop_conditions=stop_conditions,
            max_idle_streak=self.max_idle_streak,
            name=self.name,
        )
        runner.take_source(self.build_source(runner))
        return runner

    def run(
        self,
        probes: Sequence[Probe] = (),
        stop_conditions: Sequence[StopCondition] = (),
        steps: Optional[int] = None,
    ) -> RunResult:
        """Build everything and execute the scenario once.

        A scenario with ``shards >= 1`` runs through the sharded coordinator
        (inline, one worker — results are worker-count independent, so this
        is *the* result for any worker count).
        """
        # Local import: repro.trace builds on top of scenarios.
        from ..trace.session import open_driver

        with open_driver(self, probes, stop_conditions) as driver:
            return driver.run(self.steps if steps is None else steps)

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
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Build a scenario from its plain-dict form (unknown keys rejected).

        Each field's type (as annotated, see :func:`annotated_field`), the
        placement rule, the ``engine_options``, the protocol parameters and
        the ``workload`` / ``adversary`` kinds and fields are checked here
        too, so every command that loads a spec (``resume`` included)
        refuses the same bad ones.
        """
        from ..trace.log import field_fault  # local import: repro.trace builds on scenarios

        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown scenario fields: {sorted(unknown)}")
        fields = tuple(annotated_field(key, hint) for key, hint in SPEC_HINTS.items())
        fault = field_fault(data, fields)
        if fault is not None:
            raise ConfigurationError(f"scenario field {fault[0].key!r} {fault[1]}")
        scenario = cls(**data)
        if not 0.0 <= scenario.adversary_weight <= 1.0:
            raise ConfigurationError(
                f"scenario field 'adversary_weight' must lie in [0, 1], "
                f"got {scenario.adversary_weight!r}"
            )
        if scenario.engine_options is None:
            scenario.engine_options = {}
        check_rule(scenario.engine)
        unknown = set(scenario.engine_options) - set(EngineConfig.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown engine_options fields: {sorted(unknown)}")
        EngineConfig(**scenario.engine_options)
        scenario.parameters()
        for role, kinds in (("workload", WORKLOAD_KINDS), ("adversary", ADVERSARY_KINDS)):
            spec = getattr(scenario, role)
            if spec is not None:
                _source_spec(role, kinds, spec, scenario.tau)
        return scenario

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text."""
        return cls.from_dict(json.loads(text))


#: Every spec field's annotation, resolved once, at import: a forked worker
#: process that loads a spec then finds them ready (see :func:`annotated_field`).
SPEC_HINTS = get_type_hints(Scenario)


# ----------------------------------------------------------------------
# Named scenarios (CLI presets)
# ----------------------------------------------------------------------
NAMED_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "uniform-churn": dict(
        name="uniform-churn",
        steps=200,
        workload={"kind": "uniform"},
    ),
    "join-leave-attack": dict(
        name="join-leave-attack",
        tau=0.2,
        initial_size=260,
        steps=250,
        workload={"kind": "uniform"},
        adversary={"kind": "join_leave", "target_cluster": "first"},
        adversary_weight=0.6,
    ),
    "polynomial-growth": dict(
        name="polynomial-growth",
        max_size=16384,
        initial_size=256,
        tau=0.1,
        steps=1200,
        workload={"kind": "growth", "target_size": 900},
        max_idle_streak=3,
    ),
    "oscillating-churn": dict(
        name="oscillating-churn",
        max_size=8192,
        initial_size=400,
        tau=0.1,
        steps=400,
        workload={"kind": "oscillating", "low_size": 300, "high_size": 600},
    ),
    "no-shuffle-attack": dict(
        name="no-shuffle-attack",
        engine="no_shuffle",
        tau=0.2,
        initial_size=260,
        steps=250,
        workload={"kind": "uniform"},
        adversary={"kind": "join_leave", "target_cluster": "first"},
        adversary_weight=0.6,
    ),
}


def named_scenario(name: str, **overrides) -> Scenario:
    """A preset scenario by name, with optional field overrides."""
    if name not in NAMED_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(NAMED_SCENARIOS)}"
        )
    spec = dict(NAMED_SCENARIOS[name])
    spec.update(overrides)
    return Scenario.from_dict(spec)
