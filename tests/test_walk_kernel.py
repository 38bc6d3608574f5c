"""Property tests for the batched CSR walk kernel (``repro.walks.kernel``).

Three families of guarantees pin the kernel to the naive walk machinery:

* **Distributional equivalence** (chi-square): batched CTRW endpoints and
  biased-walk cluster picks from :class:`ArrayKernel` are statistically
  indistinguishable from the naive per-hop implementations and from the
  analytic ``|C|/n`` target — on static graphs, after mutations, on both
  the numpy and the pure-python backend, and across the scalar/vector path
  split at ``MIN_VECTOR_BATCH``.

* **Bit-exact checkpointing**: the kernel's private stream and pre-drawn
  buffers survive a JSON round trip; a restored kernel reproduces the
  uninterrupted draw sequence value-for-value and never consumes the
  parent (engine) stream.

* **Resume equals uninterrupted** at the engine level: a run recorded with
  ``engine_options={"walk_kernel": "array"}``, checkpointed and resumed,
  lands on the same state hash as the straight-through run — for both walk
  modes, property-tested over random cut points.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import NowEngine
from repro.errors import ConfigurationError, WalkError
from repro.walks import ArrayKernel, KERNEL_NAMES, resolve_kernel_name
from repro.walks.biased import BiasedClusterWalk
from repro.walks.ctrw import ContinuousRandomWalk
from repro.walks.kernel import MIN_VECTOR_BATCH, _np
from repro.walks.sampler import ClusterSampler, WalkMode

from test_trace_checkpoint import run_split, run_straight, small_scenario
from test_walk_fastpath import (
    apply_operations,
    chi_square_critical,
    chi_square_statistic,
    seeded_overlay,
)

#: Both backends where numpy is installed, the fallback alone otherwise.
BACKENDS = ("numpy", "python") if _np is not None else ("python",)

requires_numpy = pytest.mark.skipif(_np is None, reason="numpy not installed")


def two_sample_statistic(first_counts, second_counts, keys) -> float:
    statistic = 0.0
    for key in keys:
        a, b = first_counts.get(key, 0), second_counts.get(key, 0)
        if a + b:
            statistic += (a - b) ** 2 / (a + b)
    return statistic


# ----------------------------------------------------------------------
# Kernel selection and validation
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_known_names_resolve(self):
        assert KERNEL_NAMES == ("naive", "array")
        for name in KERNEL_NAMES:
            assert resolve_kernel_name(name) == name

    @pytest.mark.parametrize("bogus", ["fast", "", None, 3, "ARRAY"])
    def test_unknown_names_rejected(self, bogus):
        with pytest.raises(ConfigurationError):
            resolve_kernel_name(bogus)

    def test_kernel_name_threads_through_walk_stack(self):
        graph = seeded_overlay()
        rng = random.Random(1)
        assert ContinuousRandomWalk(graph, rng, kernel="array").kernel_name == "array"
        walk = BiasedClusterWalk(graph, rng, segment_duration=4.0, kernel="array")
        assert walk.kernel_name == "array"
        sampler = ClusterSampler(graph, rng, segment_duration=4.0, kernel="array")
        assert sampler.kernel_name == "array"

    def test_walk_constructors_reject_unknown_kernel(self):
        graph = seeded_overlay()
        with pytest.raises(ConfigurationError):
            ContinuousRandomWalk(graph, random.Random(1), kernel="simd")
        with pytest.raises(ConfigurationError):
            ClusterSampler(graph, random.Random(1), segment_duration=4.0, kernel="simd")

    def test_engine_rejects_unknown_kernel_at_bootstrap(self):
        scenario = small_scenario(steps=5, engine_options={"walk_kernel": "simd"})
        with pytest.raises(ConfigurationError):
            scenario.build_engine()

    def test_array_kernel_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            ArrayKernel(seeded_overlay(), random.Random(1), backend="fortran")

    def test_batch_input_validation(self):
        graph = seeded_overlay()
        kernel = ArrayKernel(graph, random.Random(1))
        with pytest.raises(WalkError):
            kernel.run_ctrw_batch([0, 999], duration=1.0)
        with pytest.raises(WalkError):
            kernel.run_ctrw_batch([0], duration=-1.0)
        with pytest.raises(WalkError):
            kernel.run_biased_batch([0], segment_duration=0.0, max_restarts=4)
        with pytest.raises(WalkError):
            kernel.run_biased_batch([0], segment_duration=1.0, max_restarts=0)
        assert kernel.run_ctrw_batch([], duration=1.0) == []


# ----------------------------------------------------------------------
# Distributional pinning (chi-square)
# ----------------------------------------------------------------------
class TestDistributionPinning:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ctrw_batch_matches_naive_endpoints(self, backend):
        """Batched kernel CTRWs and naive run() walks agree on the endpoint law."""
        graph = seeded_overlay(vertices=6, seed=7)
        samples, duration = 4000, 6.0
        naive = ContinuousRandomWalk(graph, random.Random(101))
        naive_counts = {v: 0 for v in graph.vertices()}
        for _ in range(samples):
            naive_counts[naive.run(0, duration).endpoint] += 1
        kernel = ArrayKernel(graph, random.Random(202), backend=backend)
        kernel_counts = {v: 0 for v in graph.vertices()}
        for endpoint, hops, elapsed in kernel.run_ctrw_batch([0] * samples, duration):
            kernel_counts[endpoint] += 1
            assert 0.0 <= elapsed <= duration
            assert hops >= 0
        statistic = two_sample_statistic(naive_counts, kernel_counts, graph.vertices())
        assert statistic < chi_square_critical(len(graph) - 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ctrw_batch_matches_naive_after_mutations(self, backend):
        """The kernel reads the rebuilt CSR after churn, not a stale snapshot."""
        graph = seeded_overlay(vertices=7, seed=11)
        kernel = ArrayKernel(graph, random.Random(31), backend=backend)
        kernel.run_ctrw_batch([0] * 200, 4.0)  # materialise, then churn
        apply_operations(
            graph,
            [("add_vertex", 1, 0), ("add_edge", 7, 0), ("remove_edge", 0, 1), ("set_weight", 2, 5)],
            random.Random(3),
        )
        samples, duration = 4000, 6.0
        naive = ContinuousRandomWalk(graph, random.Random(41))
        naive_counts = {v: 0 for v in graph.vertices()}
        for _ in range(samples):
            naive_counts[naive.run(0, duration).endpoint] += 1
        kernel_counts = {v: 0 for v in graph.vertices()}
        for endpoint, _, _ in kernel.run_ctrw_batch([0] * samples, duration):
            kernel_counts[endpoint] += 1
        statistic = two_sample_statistic(naive_counts, kernel_counts, graph.vertices())
        assert statistic < chi_square_critical(len(graph) - 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_biased_batch_matches_target_distribution(self, backend):
        """Kernel biased walks hit the stationary ``|C|/n`` law on the overlay."""
        graph = seeded_overlay(vertices=6, seed=7)
        kernel = ArrayKernel(graph, random.Random(53), backend=backend)
        samples = 4000
        counts = {v: 0 for v in graph.vertices()}
        for cluster, hops, restarts, tests, truncated in kernel.run_biased_batch(
            [0] * samples, segment_duration=25.0, max_restarts=64
        ):
            counts[cluster] += 1
            assert restarts == tests >= 1
            assert not truncated
        target = graph.target_distribution()
        statistic = chi_square_statistic(
            [counts[v] for v in sorted(counts)],
            [samples * target[v] for v in sorted(counts)],
        )
        assert statistic < chi_square_critical(len(counts) - 1)

    @requires_numpy
    def test_scalar_and_vector_paths_agree(self):
        """Sub-threshold (scalar) and large (vector) batches share one law."""
        graph = seeded_overlay(vertices=6, seed=7)
        duration = 6.0
        small_batch = MIN_VECTOR_BATCH - 1
        scalar = ArrayKernel(graph, random.Random(61), backend="numpy")
        scalar_counts = {v: 0 for v in graph.vertices()}
        drawn = 0
        while drawn < 4000:
            for endpoint, _, _ in scalar.run_ctrw_batch([0] * small_batch, duration):
                scalar_counts[endpoint] += 1
            drawn += small_batch
        vector = ArrayKernel(graph, random.Random(67), backend="numpy")
        vector_counts = {v: 0 for v in graph.vertices()}
        for endpoint, _, _ in vector.run_ctrw_batch([0] * drawn, duration):
            vector_counts[endpoint] += 1
        statistic = two_sample_statistic(scalar_counts, vector_counts, graph.vertices())
        assert statistic < chi_square_critical(len(graph) - 1)

    def test_sampler_batch_matches_target(self):
        """ClusterSampler.sample_many under the array kernel targets ``|C|/n``."""
        graph = seeded_overlay(vertices=6, seed=7)
        sampler = ClusterSampler(
            graph, random.Random(71), segment_duration=25.0, kernel="array"
        )
        samples = 4000
        counts = {v: 0 for v in graph.vertices()}
        for outcome in sampler.sample_many([0] * samples):
            counts[outcome.cluster] += 1
            assert outcome.mode is WalkMode.SIMULATED
        target = graph.target_distribution()
        statistic = chi_square_statistic(
            [counts[v] for v in sorted(counts)],
            [samples * target[v] for v in sorted(counts)],
        )
        assert statistic < chi_square_critical(len(counts) - 1)

    def test_isolated_start_vertex(self):
        graph = seeded_overlay()
        graph.add_vertex(99, weight=1.0)  # no edges
        kernel = ArrayKernel(graph, random.Random(1))
        ((endpoint, hops, elapsed),) = kernel.run_ctrw_batch([99], 5.0)
        assert (endpoint, hops, elapsed) == (99, 0, 0.0)
        ((cluster, hops, restarts, _, _),) = kernel.run_biased_batch(
            [99], segment_duration=5.0, max_restarts=8
        )
        assert cluster == 99 and hops == 0 and restarts >= 1


# ----------------------------------------------------------------------
# Bit-exact kernel checkpointing
# ----------------------------------------------------------------------
class TestKernelCheckpoint:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_is_bit_exact(self, backend):
        """A JSON-round-tripped kernel replays the uninterrupted sequence."""
        graph = seeded_overlay(vertices=6, seed=7)
        kernel = ArrayKernel(graph, random.Random(3), backend=backend)
        kernel.run_ctrw_batch([0, 1, 2] * 20, 4.0)  # consume into the buffers
        snapshot = json.loads(json.dumps(kernel.snapshot_state()))
        resumed = ArrayKernel(graph, random.Random(999), backend=backend)
        resumed.restore_state(snapshot)
        # Mixed batch sizes cross the scalar/vector threshold both ways.
        for starts in ([0] * (MIN_VECTOR_BATCH + 8), [1, 2], [3] * 5):
            assert kernel.run_ctrw_batch(starts, 3.5) == resumed.run_ctrw_batch(starts, 3.5)
            assert kernel.run_biased_batch(starts, 5.0, 16) == resumed.run_biased_batch(
                starts, 5.0, 16
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unused_kernel_round_trips(self, backend):
        """An unseeded kernel snapshots to ``rng: None`` and seeds identically."""
        graph = seeded_overlay()
        kernel = ArrayKernel(graph, random.Random(11), backend=backend)
        snapshot = json.loads(json.dumps(kernel.snapshot_state()))
        assert snapshot["rng"] is None
        resumed = ArrayKernel(graph, random.Random(11), backend=backend)
        resumed.restore_state(snapshot)
        starts = [0] * 40
        assert kernel.run_ctrw_batch(starts, 4.0) == resumed.run_ctrw_batch(starts, 4.0)

    def test_restore_never_consumes_parent_stream(self):
        graph = seeded_overlay()
        parent = random.Random(5)
        kernel = ArrayKernel(graph, parent)
        kernel.run_ctrw_batch([0] * 10, 2.0)  # seeds the private stream
        before = parent.getstate()
        kernel.restore_state(json.loads(json.dumps(kernel.snapshot_state())))
        assert parent.getstate() == before

    def test_backend_mismatch_is_rejected(self):
        graph = seeded_overlay()
        kernel = ArrayKernel(graph, random.Random(1), backend="python")
        snapshot = kernel.snapshot_state()
        snapshot["backend"] = "numpy"
        with pytest.raises(ConfigurationError):
            kernel.restore_state(snapshot)

    def test_sampler_walk_state_round_trips(self):
        """Kernel state survives the sampler-level snapshot used by RandCl."""
        graph = seeded_overlay(vertices=6, seed=7)
        sampler = ClusterSampler(
            graph, random.Random(13), segment_duration=6.0, kernel="array"
        )
        sampler.sample_many([0] * 50)
        state = json.loads(json.dumps(sampler.snapshot_walk_state()))
        assert state["kernel"] is not None
        twin = ClusterSampler(
            graph, random.Random(13), segment_duration=6.0, kernel="array"
        )
        twin.restore_walk_state(state)
        first = [outcome.cluster for outcome in sampler.sample_many([0] * 40)]
        second = [outcome.cluster for outcome in twin.sample_many([0] * 40)]
        assert first == second


# ----------------------------------------------------------------------
# Engine-level resume equals uninterrupted
# ----------------------------------------------------------------------
class TestEngineResume:
    @pytest.mark.parametrize("walk_mode", ["simulated", "oracle"])
    def test_resume_equals_uninterrupted(self, walk_mode, tmp_path):
        fields = dict(
            steps=60, engine_options={"walk_mode": walk_mode, "walk_kernel": "array"}
        )
        straight = run_straight(small_scenario(**fields), 60)
        split = run_split(small_scenario(**fields), 25, 35, tmp_path)
        assert split == straight

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(0, 10_000), cut=st.integers(1, 59))
    def test_property_random_cut(self, seed, cut, tmp_path_factory):
        total = 60
        fields = dict(
            steps=total,
            seed=seed,
            engine_options={"walk_mode": "simulated", "walk_kernel": "array"},
        )
        straight = run_straight(small_scenario(**fields), total)
        tmp_path = tmp_path_factory.mktemp("kernel-resume")
        split = run_split(small_scenario(**fields), cut, total - cut, tmp_path)
        assert split == straight

    def test_config_round_trips_walk_kernel(self):
        scenario = small_scenario(steps=10, engine_options={"walk_kernel": "array"})
        engine = scenario.build_engine()
        assert engine.config.walk_kernel == "array"
        snapshot = json.loads(json.dumps(engine.capture_snapshot()))
        assert snapshot["config"]["walk_kernel"] == "array"
        restored = NowEngine.restore(snapshot)
        assert restored.config.walk_kernel == "array"

    def test_pre_kernel_checkpoints_default_to_naive(self):
        """Checkpoints written before this field existed restore as naive."""
        engine = small_scenario(steps=5).build_engine()
        snapshot = json.loads(json.dumps(engine.capture_snapshot()))
        del snapshot["config"]["walk_kernel"]
        snapshot["randcl"].pop("kernel", None)
        restored = NowEngine.restore(snapshot)
        assert restored.config.walk_kernel == "naive"


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestWalkKernelCli:
    # ``repro.cli`` is imported lazily so a stripped environment where the
    # CLI stack cannot import skips these tests instead of erroring.
    @staticmethod
    def _main(argv):
        cli = pytest.importorskip("repro.cli")
        return cli.main(argv)

    def test_run_scenario_accepts_walk_kernel_flag(self, capsys):
        code = self._main(
            [
                "--seed", "5",
                "run-scenario", "--name", "uniform-churn",
                "--steps", "10", "--walk-kernel", "array",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "scenario 'uniform-churn'" in captured

    def test_walk_kernel_rejected_for_baseline_engines(self, tmp_path, capsys):
        from repro.scenarios import Scenario

        spec = Scenario(
            name="baseline-spec",
            max_size=1024,
            initial_size=90,
            tau=0.1,
            k=2.0,
            seed=4,
            steps=5,
            engine="no_shuffle",
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        code = self._main(["run-scenario", "--spec", str(path), "--walk-kernel", "array"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--walk-kernel" in captured.err

    def test_spec_engine_options_kernel_rejected_for_baseline_engines(self, tmp_path, capsys):
        # The spec-file route must fail as cleanly as the flag route: a
        # one-line exit-2 message, not a TypeError from the baseline's ctor.
        from repro.scenarios import Scenario

        spec = Scenario(
            name="baseline-spec",
            max_size=1024,
            initial_size=90,
            tau=0.1,
            k=2.0,
            seed=4,
            steps=5,
            engine="no_shuffle",
            engine_options={"walk_kernel": "array"},
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        code = self._main(["run-scenario", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "walk_kernel" in captured.err
        assert "no_shuffle" in captured.err

    def test_unknown_kernel_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            self._main(["run-scenario", "--name", "uniform-churn", "--walk-kernel", "simd"])
