"""Property tests for the hop engine (``repro.walks.kernel``).

Five families of guarantees:

* **The one kernel.** ``walk_kernel`` has one value, ``array``.  Any other
  value is refused as an unknown kernel — at spec load, at
  :class:`~repro.core.engine.EngineConfig` and at checkpoint restore — in
  both walk modes.

* **Distributional pinning** (chi-square): biased-walk cluster picks from
  :class:`ArrayKernel` are statistically indistinguishable from the
  exponential-clock reference walk (``reference_walk``) and from the
  analytic ``|C|/n`` target, and so are the per-walk hop and restart
  counts, on each of the two executors (every round forced onto one of
  them).  ``tests/test_walk_law.py`` holds both executors to the walk's
  exact law, also after mutations.

* **One stream layout** (hypothesis): the scalar and the vector executor
  return the same tuples and leave the kernel in the same state, for
  random overlays, batch sizes and restart caps, across buffer refills,
  truncation and a restore.

* **Bit-exact checkpointing**: the kernel's private stream and uniform
  buffer survive a JSON round trip; a restored kernel reproduces the
  uninterrupted draw sequence value-for-value and never consumes the
  parent (engine) stream.

* **Resume equals uninterrupted** at the engine level: a run recorded with
  simulated walks, checkpointed and resumed, lands on the same state hash
  as the straight-through run — for both walk modes, property-tested over
  random cut points — and a checkpoint an earlier kernel wrote resumes onto
  the hash that kernel's straight run printed.
"""

from __future__ import annotations

import collections
import json
import math
import os
import random
import shutil

import numpy as _np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import chi_square_critical
from repro.core.engine import EngineConfig, NowEngine
from repro.core.randcl import RandCl
from repro.errors import ConfigurationError, WalkError
from repro.overlay.graph import OverlayGraph
from repro.scenarios import Scenario
from repro.trace import record_scenario, resume_from_checkpoint
from repro.walks import kernel as kernel_module
from repro.walks.kernel import MIN_VECTOR_BATCH, ArrayKernel
from repro.walks.sampler import ClusterSampler, WalkMode, resolve_kernel_name

from reference_walk import reference_biased_walk
from test_trace_checkpoint import run_split, run_straight, small_scenario
from test_walk_fastpath import chi_square_statistic, seeded_overlay

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: A simulated-walk checkpoint (version 3): ``uniform`` churn at n0 = 80,
#: seed 11, cut at step 42 of 80, where the kernel's uniform buffer tail is
#: non-empty.
SIMULATED_CHECKPOINT = os.path.join(FIXTURES, "checkpoint-simulated-kernel.json")
SIMULATED_CHECKPOINT_HASH = "1a5ff1f627fe6563501aca8c282018c3032c3409617d8263773df4c6dd3830f5"
#: The uninterrupted 80-step run.
SIMULATED_STRAIGHT_HASH = "03efcaeeafdeec88669959b2269e8338b5a4b7c0334c126dd26c1ab2574c5183"

SIMULATED_NAIVE = {"walk_mode": "simulated", "walk_kernel": "naive"}

#: The kernel's two executors.
PATHS = ("scalar", "vector")
#: Walks per batch in :func:`on_path`: cascade-sized batches.
PATH_BATCH = 512


def on_path(path, run, starts, *args):
    """``run(batch, *args)`` over ``starts`` with every round on one executor.

    The starts go in batches of ``PATH_BATCH`` walks, results concatenated.
    """
    saved = kernel_module.MIN_VECTOR_BATCH
    kernel_module.MIN_VECTOR_BATCH = 1 if path == "vector" else math.inf
    try:
        return [
            out
            for i in range(0, len(starts), PATH_BATCH)
            for out in run(starts[i : i + PATH_BATCH], *args)
        ]
    finally:
        kernel_module.MIN_VECTOR_BATCH = saved


def edited_checkpoint(tmp_path, shards: int, edit) -> str:
    """A simulated-walk checkpoint at step 10, ``edit`` applied to each engine snapshot."""
    scenario = small_scenario(steps=20, shards=shards, engine_options={"walk_mode": "simulated"})
    path = str(tmp_path / "run.ckpt.json")
    record_scenario(scenario, steps=10, checkpoint_path=path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    engine = data["engine"]
    for snapshot in [p["engine"] for p in engine["shards"].values()] if shards else [engine]:
        edit(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


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
    def test_known_name_resolves(self):
        assert resolve_kernel_name("array") == "array"

    @pytest.mark.parametrize("bogus", ["fast", "", None, 3, "ARRAY", "naive"])
    def test_unknown_names_rejected(self, bogus):
        with pytest.raises(ConfigurationError, match="unknown walk kernel"):
            resolve_kernel_name(bogus)

    @pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
    def test_engine_config_refuses_unknown_kernels(self, walk_mode):
        with pytest.raises(ConfigurationError, match="naive"):
            EngineConfig(walk_mode=walk_mode, walk_kernel="naive")

    def test_engine_config_takes_spec_options_as_given(self):
        """String walk modes are coerced; the kernel defaults to ``array``."""
        assert EngineConfig(walk_mode="oracle").walk_mode is WalkMode.ORACLE
        assert EngineConfig(walk_mode="simulated").walk_mode is WalkMode.SIMULATED
        assert EngineConfig().walk_kernel == "array"

    @pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
    def test_spec_load_refuses_unknown_kernels(self, walk_mode):
        data = small_scenario(steps=5).to_dict()
        data["engine_options"] = {"walk_mode": walk_mode, "walk_kernel": "naive"}
        with pytest.raises(ConfigurationError, match="naive"):
            Scenario.from_dict(data)

    def test_walk_constructors_reject_unknown_kernel(self):
        state = small_scenario(steps=5).build_engine().state
        for walk_mode in (WalkMode.ORACLE, WalkMode.SIMULATED):
            for bogus in ("simd", "naive"):
                with pytest.raises(ConfigurationError):
                    RandCl(state, walk_mode=walk_mode, walk_kernel=bogus)

    def test_engine_rejects_unknown_kernel_at_bootstrap(self):
        scenario = small_scenario(steps=5, engine_options={"walk_kernel": "simd"})
        with pytest.raises(ConfigurationError):
            scenario.build_engine()

    def test_batch_input_validation(self):
        graph = seeded_overlay()
        kernel = ArrayKernel(graph, random.Random(1))
        with pytest.raises(WalkError):
            kernel.run_biased_batch([0, 999], segment_duration=1.0, max_restarts=4)
        with pytest.raises(WalkError):
            kernel.run_biased_batch([0], segment_duration=-1.0, max_restarts=4)
        with pytest.raises(WalkError):
            kernel.run_biased_batch([0], segment_duration=0.0, max_restarts=4)
        with pytest.raises(WalkError):
            kernel.run_biased_batch([0], segment_duration=1.0, max_restarts=0)
        assert kernel.run_biased_batch([], segment_duration=1.0, max_restarts=4) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_durations_are_refused(self, bad):
        """On both paths: a NaN duration used to pass the sign guard and never
        end a biased segment (``holding >= nan`` is never true), and an
        infinite one hopped forever."""
        kernel = ArrayKernel(seeded_overlay(), random.Random(1))
        for starts in ([0], [0] * MIN_VECTOR_BATCH):
            with pytest.raises(WalkError, match="finite"):
                kernel.run_biased_batch(starts, bad, 4)
        assert kernel.snapshot_state()["rng"] is None  # refused before any draw


# ----------------------------------------------------------------------
# Distributional pinning (chi-square)
# ----------------------------------------------------------------------
class TestDistributionPinning:
    @pytest.mark.parametrize("path", PATHS)
    def test_biased_batch_matches_target_distribution(self, path):
        """Kernel biased walks hit the stationary ``|C|/n`` law on the overlay."""
        graph = seeded_overlay(vertices=6, seed=7)
        kernel = ArrayKernel(graph, random.Random(53))
        samples = 4000
        counts = {v: 0 for v in graph.vertices()}
        for cluster, hops, restarts, tests, truncated in on_path(
            path, kernel.run_biased_batch, [0] * samples, 25.0, 64
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

    @pytest.mark.parametrize("path", PATHS)
    def test_biased_batch_matches_reference_walk(self, path):
        """Kernel biased walks and the reference restart loop pick alike.

        Short segments and a tight restart cap keep the walk far from
        stationary, so the comparison exercises the restart-and-accept loop
        itself (including truncation), not just the shared target law.
        """
        graph = seeded_overlay(vertices=6, seed=7)
        samples, segment, cap = 4000, 0.5, 3
        rng = random.Random(59)
        reference_counts = {v: 0 for v in graph.vertices()}
        reference_truncated = 0
        for _ in range(samples):
            cluster, _, _, truncated = reference_biased_walk(graph, rng, 0, segment, cap)
            reference_counts[cluster] += 1
            reference_truncated += truncated
        kernel = ArrayKernel(graph, random.Random(61))
        kernel_counts = {v: 0 for v in graph.vertices()}
        kernel_truncated = 0
        for cluster, _, restarts, _, truncated in on_path(
            path, kernel.run_biased_batch, [0] * samples, segment, cap
        ):
            kernel_counts[cluster] += 1
            kernel_truncated += truncated
            assert 1 <= restarts <= cap
        statistic = two_sample_statistic(reference_counts, kernel_counts, graph.vertices())
        assert statistic < chi_square_critical(len(graph) - 1)
        statistic = two_sample_statistic(
            {True: reference_truncated, False: samples - reference_truncated},
            {True: kernel_truncated, False: samples - kernel_truncated},
            (True, False),
        )
        assert statistic < chi_square_critical(1)

    def test_sampler_batch_matches_target(self):
        """ClusterSampler.sample_many (one lockstep batch) targets ``|C|/n``."""
        graph = seeded_overlay(vertices=6, seed=7)
        sampler = ClusterSampler(graph, random.Random(71), segment_duration=25.0)
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
        row = graph.csr().row_of(99)  # the kernel walks rows
        ((end, hops, restarts, _, _),) = kernel.run_biased_batch(
            [row], segment_duration=5.0, max_restarts=8
        )
        assert end == row and hops == 0 and restarts >= 1


# ----------------------------------------------------------------------
# One stream layout: the two executors agree (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def small_overlays(draw):
    """A random overlay with at least one isolated and one degree-1 vertex."""
    count = draw(st.integers(2, 10))
    graph = OverlayGraph()
    for vertex in range(count):
        graph.add_vertex(vertex, weight=float(draw(st.integers(1, 8))))
    pairs = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    for first, second in draw(st.lists(pairs, max_size=3 * count)):
        graph.add_edge(first, second)
    graph.add_vertex(count, weight=float(draw(st.integers(1, 8))))  # isolated
    graph.add_vertex(count + 1, weight=float(draw(st.integers(1, 8))))
    graph.add_edge(count + 1, 0)  # degree 1
    return graph


#: One batch: its starts (as vertex indices), segment duration and restart
#: cap.  Up to 700 walks, so that some batches span two ``PATH_BATCH`` chunks.
BATCH = st.tuples(
    st.lists(st.integers(0, 63), min_size=1, max_size=700),
    st.floats(0.05, 30.0),
    st.integers(1, 8),
)


#: Values to consume before the first batch: anywhere in the first block,
#: and often within a few walks of its end.
NEAR_BLOCK_END = st.integers(0, 4095) | st.integers(3968, 4095)


def pooled_bins(first, second, minimum=50):
    """Count dicts of two samples over bins of consecutive values holding at
    least ``minimum`` pooled observations each (the last merged down)."""
    pooled = collections.Counter(first) + collections.Counter(second)
    bin_of, index, held = {}, 0, 0
    for value in sorted(pooled):
        if held >= minimum:
            index, held = index + 1, 0
        bin_of[value], held = index, held + pooled[value]
    if held < minimum:
        bin_of = {value: min(b, max(index - 1, 0)) for value, b in bin_of.items()}
    return tuple(collections.Counter(map(bin_of.get, sample)) for sample in (first, second))


class TestExecutorsAgree:
    """The scalar and the vector executor read one stream layout.

    Twin kernels on one graph and one seed, every round of one on the
    scalar executor and every round of the other on the vector executor,
    must return the same tuples and snapshot to the same state after every
    batch.  A skip of up to one block before the first batch, and durations
    of up to thirty time units, put buffer refills inside rounds; the
    vector twin is also cut and restored from its JSON snapshot between two
    batches.
    """

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=small_overlays(),
        seed=st.integers(0, 2**32),
        skip=NEAR_BLOCK_END,
        batches=st.lists(BATCH, min_size=1, max_size=5),
        cut=st.integers(0, 5),
    )
    def test_executors_return_the_same_walks_and_state(self, graph, seed, skip, batches, cut):
        scalar = ArrayKernel(graph, random.Random(seed))
        vector = ArrayKernel(graph, random.Random(seed))
        for twin in (scalar, vector):
            twin._take(skip)
        vertices = list(graph.vertices())
        for index, (picks, duration, max_restarts) in enumerate(batches):
            if index == cut:
                snapshot = json.loads(json.dumps(vector.snapshot_state()))
                vector = ArrayKernel(graph, random.Random(seed))
                vector.restore_state(snapshot)
            starts = [vertices[pick % len(vertices)] for pick in picks]
            got = on_path("scalar", scalar.run_biased_batch, starts, duration, max_restarts)
            assert got == on_path("vector", vector.run_biased_batch, starts, duration, max_restarts)
            assert scalar.snapshot_state() == vector.snapshot_state()

    def test_refill_inside_a_round_and_truncation_are_reached(self):
        """The regime the property covers: a round whose take runs past the
        end of the buffer, and truncated walks."""
        graph = seeded_overlay(vertices=6, seed=7)
        twins = {path: ArrayKernel(graph, random.Random(4)) for path in PATHS}
        for twin in twins.values():
            twin._take(4090)
        starts = [0, 1, 2, 3] * 40
        got = {
            path: on_path(path, twin.run_biased_batch, starts, 0.3, 2)
            for path, twin in twins.items()
        }
        assert got["scalar"] == got["vector"]
        assert any(truncated for *_, truncated in got["scalar"])
        assert twins["scalar"].snapshot_state() == twins["vector"].snapshot_state()
        assert twins["scalar"]._cursor < 4090  # the buffer was refilled

    def test_the_largest_uniform_names_the_last_code(self):
        """``int(y * m)`` stays below ``m`` for every uniform ``y < 1`` and
        every table width up to the cap, in both executors' arithmetic, so a
        code never reads past its row."""
        top = math.nextafter(1.0, 0.0)
        widths = _np.arange(1, kernel_module.TABLE_CAP + 1)
        assert [int(top * m) for m in widths.tolist()] == (widths - 1).tolist()
        assert ((_np.full(len(widths), top) * widths).astype(_np.int64) == widths - 1).all()

    @pytest.mark.parametrize("path", PATHS)
    def test_hops_and_restarts_match_the_reference_walk(self, path):
        """Two-sample chi-square of per-walk hops and restarts between the
        executor and the exponential-clock reference, on an overlay with an
        isolated vertex whose weights change after the kernel's tables are
        built (weights are read live)."""
        graph = seeded_overlay(vertices=6, seed=7)
        graph.add_vertex(99, weight=2.0)  # isolated
        kernel = ArrayKernel(graph, random.Random(67))
        kernel.run_biased_batch([0] * 50, 1.0, 4)  # builds the tables
        for vertex, weight in ((1, 6.0), (3, 1.0), (99, 4.0)):
            graph.set_weight(vertex, weight)
        starts, segment, cap = [0, 99, 2, 4] * 1000, 1.5, 4
        rng = random.Random(71)
        reference = [reference_biased_walk(graph, rng, start, segment, cap) for start in starts]
        rows = [graph.csr().row_of(start) for start in starts]  # the kernel walks rows
        walked = on_path(path, kernel.run_biased_batch, rows, segment, cap)
        for first, second in (
            ([hops for _, hops, _, _ in reference], [hops for _, hops, *_ in walked]),
            ([restarts for _, _, restarts, _ in reference], [out[2] for out in walked]),
        ):
            counts = pooled_bins(first, second)
            keys = set(counts[0]) | set(counts[1])
            assert len(keys) >= 3
            statistic = two_sample_statistic(*counts, keys)
            assert statistic < chi_square_critical(len(keys) - 1)


# ----------------------------------------------------------------------
# Bit-exact kernel checkpointing
# ----------------------------------------------------------------------
class TestKernelCheckpoint:
    def test_resume_is_bit_exact(self):
        """A JSON-round-tripped kernel replays the uninterrupted sequence."""
        graph = seeded_overlay(vertices=6, seed=7)
        kernel = ArrayKernel(graph, random.Random(3))
        kernel.run_biased_batch([0, 1, 2] * 20, 4.0, 16)  # consume into the buffers
        snapshot = json.loads(json.dumps(kernel.snapshot_state()))
        resumed = ArrayKernel(graph, random.Random(999))
        resumed.restore_state(snapshot)
        # Mixed batch sizes cross the scalar/vector threshold both ways.
        for starts in ([0] * (MIN_VECTOR_BATCH + 8), [1, 2], [3] * 5):
            for segment in (3.5, 5.0):
                assert kernel.run_biased_batch(starts, segment, 16) == resumed.run_biased_batch(
                    starts, segment, 16
                )

    def test_unused_kernel_round_trips(self):
        """An unseeded kernel snapshots to ``rng: None`` and seeds identically."""
        graph = seeded_overlay()
        kernel = ArrayKernel(graph, random.Random(11))
        snapshot = json.loads(json.dumps(kernel.snapshot_state()))
        assert snapshot["rng"] is None
        resumed = ArrayKernel(graph, random.Random(11))
        resumed.restore_state(snapshot)
        starts = [0] * 40
        assert kernel.run_biased_batch(starts, 4.0, 8) == resumed.run_biased_batch(starts, 4.0, 8)

    def test_restore_never_consumes_parent_stream(self):
        graph = seeded_overlay()
        parent = random.Random(5)
        kernel = ArrayKernel(graph, parent)
        kernel.run_biased_batch([0] * 10, 2.0, 4)  # seeds the private stream
        before = parent.getstate()
        kernel.restore_state(json.loads(json.dumps(kernel.snapshot_state())))
        assert parent.getstate() == before

    def test_unknown_backend_snapshot_is_refused_by_name(self):
        """The one backend is ``numpy``; any other backend's snapshots are
        refused by name."""
        kernel = ArrayKernel(seeded_overlay(), random.Random(1))
        assert kernel.backend == "numpy"
        snapshot = kernel.snapshot_state()
        assert snapshot["backend"] == "numpy"
        for backend in ("python", "fortran"):
            snapshot["backend"] = backend
            with pytest.raises(ConfigurationError, match=f"'{backend}'"):
                kernel.restore_state(snapshot)

    def test_sampler_walk_state_round_trips(self):
        """Kernel state survives the sampler-level snapshot used by RandCl."""
        graph = seeded_overlay(vertices=6, seed=7)
        sampler = ClusterSampler(graph, random.Random(13), segment_duration=6.0)
        assert sampler.snapshot_walk_state() is None
        sampler.sample_many([0] * 50)
        state = json.loads(json.dumps(sampler.snapshot_walk_state()))
        assert state["rng"] is not None
        twin = ClusterSampler(graph, random.Random(13), segment_duration=6.0)
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

    def test_checkpoint_resumes_onto_its_straight_hash(self, tmp_path):
        """Buffered values a checkpoint carries are consumed in the straight run's order."""
        data = json.load(open(SIMULATED_CHECKPOINT, "r", encoding="utf-8"))
        assert data["state_hash"] == SIMULATED_CHECKPOINT_HASH
        kernel = data["engine"]["randcl"]["kernel"]
        assert kernel["uniforms"]
        copy = str(tmp_path / "ckpt.json")
        shutil.copy(SIMULATED_CHECKPOINT, copy)
        session = resume_from_checkpoint(copy)
        assert session.result.steps == 38
        assert session.final_state_hash == SIMULATED_STRAIGHT_HASH
        scenario = Scenario.from_dict(data["scenario"])
        assert run_straight(scenario, scenario.steps) == SIMULATED_STRAIGHT_HASH

    def test_config_round_trips_walk_kernel(self):
        scenario = small_scenario(steps=10, engine_options={"walk_kernel": "array"})
        engine = scenario.build_engine()
        assert engine.config.walk_kernel == "array"
        snapshot = json.loads(json.dumps(engine.capture_snapshot()))
        assert snapshot["config"]["walk_kernel"] == "array"
        restored = NowEngine.restore(snapshot)
        assert restored.config.walk_kernel == "array"

    @pytest.mark.parametrize("shards", [0, 2])
    def test_unknown_kernel_checkpoint_refused_at_resume(self, shards, tmp_path):
        """A checkpoint whose engine config names another kernel is refused by name."""

        def name_naive(snapshot):
            snapshot["config"]["walk_kernel"] = "naive"

        path = edited_checkpoint(tmp_path, shards, name_naive)
        with pytest.raises(ConfigurationError, match="naive"):
            resume_from_checkpoint(path, workers=2 if shards else 1)


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

    @pytest.mark.parametrize(
        "shards, workers", [(0, None), (2, 1), (2, 2)], ids=["single", "shards2-w1", "shards2-w2"]
    )
    def test_python_backend_checkpoint_refused_at_resume(self, tmp_path, capsys, shards, workers):
        """Exit 2 naming the backend on every backend and worker count; a
        sharded checkpoint is refused before any worker starts."""

        def name_python(snapshot):
            snapshot["randcl"]["kernel"]["backend"] = "python"

        path = edited_checkpoint(tmp_path, shards, name_python)
        argv = ["resume", "--checkpoint", path] + (["--shards", str(workers)] if workers else [])
        assert self._main(argv) == 2
        err = capsys.readouterr().err
        assert "'python'" in err and "Traceback" not in err

    def test_walk_kernel_flag_is_gone(self):
        with pytest.raises(SystemExit):
            self._main(["run-scenario", "--name", "uniform-churn", "--walk-kernel", "array"])

    def test_unknown_kernel_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            self._main(["run-scenario", "--name", "uniform-churn", "--walk-kernel", "simd"])

    def test_spec_naming_another_kernel_exits_2(self, tmp_path, capsys):
        """Refused at spec load: exit 2 naming the kernel, no output file touched."""
        spec = tmp_path / "scenario.json"
        spec.write_text(small_scenario(steps=5, engine_options=SIMULATED_NAIVE).to_json())
        trace = tmp_path / "run.jsonl"
        code = self._main(["run-scenario", "--spec", str(spec), "--record", str(trace)])
        assert code == 2
        assert "naive" in capsys.readouterr().err
        assert not trace.exists()
