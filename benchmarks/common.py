"""Shared helpers for the benchmark/experiment harness.

Every benchmark module reproduces one experiment row (mapped to a figure or
quantitative claim of the paper — see ``docs/ARCHITECTURE.md`` for the
experiment inventory and the system layering).  The helpers here keep the
scenario construction consistent across benchmarks: the same parameter
scaling, the same seeding discipline, and the same plain-text table output.

Engine construction and every churn loop are routed through the
:mod:`repro.scenarios` subsystem (:class:`~repro.scenarios.scenario.Scenario`
builds the engine, :class:`~repro.scenarios.runner.SimulationRunner` owns the
step loop), so the benchmarks exercise exactly the machinery the CLI and the
examples use.

Benchmarks are executed through pytest-benchmark (``pytest benchmarks/
--benchmark-only``); each test wraps its experiment in ``benchmark.pedantic``
with a single round — the interesting output is the experiment table printed
to stdout plus the shape assertions, not a micro-benchmark timing.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional, Sequence

from repro import EngineConfig, Scenario, SimulationRunner, WalkMode, default_parameters
from repro.params import ProtocolParameters
from repro.scenarios.probes import Probe
from repro.scenarios.runner import RunResult, StopCondition


def scaled_parameters(max_size: int, tau: float = 0.15, k: float = 3.0) -> ProtocolParameters:
    """Protocol parameters used across benchmarks, scaled to ``max_size``."""
    return default_parameters(max_size=max_size, k=k, l=2.0, alpha=0.1, tau=tau, epsilon=0.05)


def scenario_for(
    max_size: int,
    initial_size: int,
    tau: float = 0.15,
    k: float = 3.0,
    seed: int = 1,
    engine: str = "now",
    config: Optional[EngineConfig] = None,
    **fields,
) -> Scenario:
    """A benchmark-scaled :class:`Scenario` (the shared construction path)."""
    options = {} if config is None else dataclasses.asdict(config)
    if isinstance(options.get("walk_mode"), WalkMode):
        options["walk_mode"] = options["walk_mode"].value  # keep the spec JSON-able
    return Scenario(
        name=fields.pop("name", "benchmark"),
        engine=engine,
        max_size=max_size,
        initial_size=initial_size,
        tau=tau,
        k=k,
        l=2.0,
        alpha=0.1,
        epsilon=0.05,
        seed=seed,
        engine_options=options,
        **fields,
    )


def bootstrap_engine(
    max_size: int,
    initial_size: int,
    tau: float = 0.15,
    k: float = 3.0,
    seed: int = 1,
    config: Optional[EngineConfig] = None,
    engine: str = "now",
):
    """An engine bootstrapped through the scenario subsystem."""
    return scenario_for(
        max_size, initial_size, tau=tau, k=k, seed=seed, engine=engine, config=config
    ).build_engine()


def run_steps(
    engine,
    source,
    steps: int,
    probes: Sequence[Probe] = (),
    stop_conditions: Sequence[StopCondition] = (),
    max_idle_streak: Optional[int] = None,
    name: str = "benchmark",
) -> RunResult:
    """Drive ``engine`` with ``source`` through the shared simulation runner."""
    runner = SimulationRunner(
        engine,
        source,
        probes=probes,
        stop_conditions=stop_conditions,
        max_idle_streak=max_idle_streak,
        name=name,
    )
    return runner.run(steps)


def initial_size_for(max_size: int, k: float = 3.0, clusters: int = 8) -> int:
    """An initial population giving roughly ``clusters`` clusters at ``max_size`` scaling."""
    params = scaled_parameters(max_size, k=k)
    return max(2 * params.target_cluster_size, clusters * params.target_cluster_size)


def sqrt_scaled_size(max_size: int, factor: float = 4.0, k: float = 3.0) -> int:
    """An initial population of ``factor * sqrt(N)`` nodes (the paper's admissible band).

    The cost sweeps (E2, E3, E5) need the *current* size ``n`` to scale with
    the maximum size ``N`` — as the paper's model allows, ``n`` lives in
    ``[sqrt(N), N]`` — otherwise the walk lengths and cluster counts stay
    constant across the sweep and the measured exponents are meaningless.
    """
    params = scaled_parameters(max_size, k=k)
    return max(3 * params.target_cluster_size, int(factor * max_size ** 0.5))


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def fresh_rng(seed: int) -> random.Random:
    """Seeded RNG helper (keeps benchmark modules free of bare random.Random calls)."""
    return random.Random(seed)
