"""T1b — Hop-engine throughput: the biased walk's scalar path vs its vector path.

Every simulated walk is ``randCl``'s biased CTRW, run by one hop engine
(``repro.walks.kernel.ArrayKernel``), which picks one of two hop paths by
batch size alone: batches of at least ``MIN_VECTOR_BATCH`` walks advance in
lockstep over numpy views of the CSR rows (``_biased_vector``), smaller ones
run in one loop per batch, walk after walk, reading the pre-drawn buffers as
one stream of (exponential, uniform) pairs (``_biased_scalar``).  This
benchmark times both paths on the engine's own walks — the bootstrap
overlays of the spine's two shapes (seed 47, N = 4096, tau = 0.15, n0 = 300
and n0 = 1 200: 8 and 33 clusters) with the segment length and restart cap
``randCl`` configures on them — at batch sizes around ``MIN_VECTOR_BATCH``
(exchange rounds batch ~30 walks) and around the 256-512 crossover, and
*appends* the rates to ``BENCH_throughput.json`` — same trajectory file,
same append-only discipline as ``bench_engine_throughput.py``.

Each path is called directly, so either runs at any batch size, which the
crossover measurement needs.

Asserted in-test, on what it measures: both paths walk at every batch size,
and the vector path beats the scalar path on the saturated batch.

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_walk_kernel.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import time

import pytest

from repro.core.randcl import RandCl
from repro.walks.kernel import MIN_VECTOR_BATCH, ArrayKernel

from bench_engine_throughput import RESULT_PATH, save_result
from common import bootstrap_engine, fresh_rng

#: The spine's two overlay shapes: initial sizes at N = 4096, tau = 0.15, seed 47.
OVERLAYS = (300, 1200)
#: Concurrent walks per batch: around ``MIN_VECTOR_BATCH``, around the
#: crossover, and one saturated batch.
BATCHES = (32, 63, 64, 96, 256, 384, 512, 2048)
#: Walks per measurement point, run ``batch`` at a time.
WALKS = 2048


def engine_walk(initial_size: int):
    """``(graph, segment_duration, max_restarts)`` of one bootstrap overlay."""
    state = bootstrap_engine(4096, initial_size, tau=0.15, seed=47).state
    randcl = RandCl(state, rng=fresh_rng(0))
    randcl.select(state.clusters.cluster_ids()[0])  # configures the walk for this overlay
    segment, max_restarts = randcl._walk_params
    return state.overlay.graph, segment, max_restarts


def measure_path(graph, segment: float, max_restarts: int, batch: int, path: str) -> dict:
    """Hops/second of ``WALKS`` biased walks run ``batch`` at a time on one hop path."""
    kernel = ArrayKernel(graph, fresh_rng(11))
    csr = graph.csr()
    max_weight = graph.max_weight()
    rows = [v % len(csr) for v in range(batch)]
    walk = kernel._biased_vector if path == "vector" else kernel._biased_scalar

    def run():
        return walk(rows, segment, max_restarts, csr, max_weight)

    run()  # warm-up: seeds the private stream and fills the buffers
    rounds = max(1, WALKS // batch)
    begin = time.perf_counter()
    results = [run() for _ in range(rounds)]
    elapsed = time.perf_counter() - begin
    hops = sum(out[1] for batch_results in results for out in batch_results)
    return {
        "walks": rounds * batch,
        "hops": hops,
        "elapsed_seconds": elapsed,
        "hops_per_second": hops / elapsed if elapsed > 0 else 0.0,
    }


def measure_overlay(initial_size: int) -> dict:
    graph, segment, max_restarts = engine_walk(initial_size)
    by_batch = []
    for batch in BATCHES:
        scalar = measure_path(graph, segment, max_restarts, batch, "scalar")
        vector = measure_path(graph, segment, max_restarts, batch, "vector")
        by_batch.append(
            {
                "batch": batch,
                "scalar": scalar,
                "vector": vector,
                "vector_over_scalar": vector["hops_per_second"] / scalar["hops_per_second"]
                if scalar["hops_per_second"] > 0
                else 0.0,
            }
        )
    return {
        "initial_size": initial_size,
        "clusters": len(graph),
        "segment_duration": segment,
        "max_restarts": max_restarts,
        "by_batch": by_batch,
        "crossover_batch": next(
            (row["batch"] for row in by_batch if row["vector_over_scalar"] > 1.0), None
        ),
    }


def run_experiment() -> dict:
    overlays = [measure_overlay(initial_size) for initial_size in OVERLAYS]
    # Headline rates: the saturated batch on the larger overlay.
    saturated = overlays[-1]["by_batch"][-1]
    return {
        "benchmark": "walk_kernel",
        "kernel_walks_per_point": WALKS,
        "min_vector_batch": MIN_VECTOR_BATCH,
        "kernel_overlays": overlays,
        "walk": {
            "mode": "kernel-biased-batch",
            "kernel": "array",
            "backend": "numpy",
            "hops": saturated["vector"]["hops"],
            "elapsed_seconds": saturated["vector"]["elapsed_seconds"],
            "hops_per_second": saturated["vector"]["hops_per_second"],
            "kernel_hops_per_second": {
                path: saturated[path]["hops_per_second"] for path in ("scalar", "vector")
            },
            "speedup_vs_scalar": saturated["vector_over_scalar"],
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@pytest.mark.experiment("T1b")
def test_walk_kernel_throughput(benchmark):
    from common import run_once

    result = run_once(benchmark, run_experiment)
    for overlay in result["kernel_overlays"]:
        for row in overlay["by_batch"]:
            print(
                f"T1b n0={overlay['initial_size']} batch={row['batch']}: scalar "
                f"{row['scalar']['hops_per_second'] / 1e6:.2f}M hops/s, vector "
                f"{row['vector']['hops_per_second'] / 1e6:.2f}M hops/s "
                f"({row['vector_over_scalar']:.2f}x)"
            )
        print(
            f"T1b n0={overlay['initial_size']} crossover batch: {overlay['crossover_batch']} "
            f"(MIN_VECTOR_BATCH {MIN_VECTOR_BATCH})"
        )
    save_result(result)

    # Both paths actually walked at every batch size.
    for overlay in result["kernel_overlays"]:
        for row in overlay["by_batch"]:
            assert row["scalar"]["hops"] > 0 and row["vector"]["hops"] > 0
    assert result["walk"]["speedup_vs_scalar"] > 1.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="hop-engine scalar vs vector path benchmark")
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    args = parser.parse_args()
    outcome = run_experiment()
    save_result(outcome, args.out)
    print(json.dumps(outcome, indent=2, sort_keys=True))
