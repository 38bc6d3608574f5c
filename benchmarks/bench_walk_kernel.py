"""T1b — Hop-engine throughput: the scalar path vs the vector path.

Every simulated walk runs on one hop engine (``repro.walks.kernel.
ArrayKernel``), which picks one of two hop paths by batch size alone:
batches of at least ``MIN_VECTOR_BATCH`` walks advance in lockstep over
numpy views of the CSR rows (vector path), smaller ones run in one loop per
batch, walk after walk, over the layout's Python-object rows and a
Python-float copy of the pre-drawn buffers (scalar path, ~1.5-2.4 M hops/s
at every batch size on a 2 vCPU box).  This benchmark measures both paths
at batch sizes that bracket the threshold, on one synthetic overlay, and
*appends* the rates to ``BENCH_throughput.json`` — same trajectory file,
same append-only discipline as ``bench_engine_throughput.py``.

The scalar path is forced the way the kernel tests force it: the same
starts in chunks of ``MIN_VECTOR_BATCH - 1``.  The vector path is run as
one batch through ``ArrayKernel._ctrw_vector``, the only way to reach it
below the threshold, which the crossover measurement needs.

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

from repro.overlay.graph import OverlayGraph
from repro.walks.kernel import MIN_VECTOR_BATCH, ArrayKernel

from bench_engine_throughput import RESULT_PATH, save_result
from common import fresh_rng

#: Overlay size (vertex count) every measurement walks on.
VERTICES = 256
#: Concurrent walks per batch: around ``MIN_VECTOR_BATCH`` (an exchange
#: round batches one walk per member, ~40 on engine-sized overlays) up to
#: the saturated large-round regime.
BATCHES = (16, 32, 63, 64, 96, 128, 4096)
#: Walks per measurement point, run ``batch`` at a time.
WALKS = 4096
#: Continuous duration of each measured walk (~300 hops on this overlay).
DURATION = 50.0


def build_overlay(vertices: int, seed: int = 5, chords: int = 2) -> OverlayGraph:
    """A connected overlay: ring plus ``chords`` random chords per vertex."""
    rng = fresh_rng(seed)
    graph = OverlayGraph()
    for vertex in range(vertices):
        graph.add_vertex(vertex, weight=1.0 + rng.randrange(5))
    for vertex in range(vertices):
        graph.add_edge(vertex, (vertex + 1) % vertices)
        for _ in range(chords):
            graph.add_edge(vertex, rng.randrange(vertices))
    return graph


def measure_path(graph: OverlayGraph, batch: int, path: str) -> dict:
    """Hops/second of ``WALKS`` CTRWs run ``batch`` at a time on one hop path."""
    kernel = ArrayKernel(graph, fresh_rng(11))
    csr = graph.csr()
    starts = [v % len(graph) for v in range(batch)]
    if path == "vector":
        rows = [csr.row_of(start) for start in starts]

        def run():
            return kernel._ctrw_vector(rows, DURATION, csr)

    else:
        size = MIN_VECTOR_BATCH - 1
        chunks = [starts[i : i + size] for i in range(0, batch, size)]

        def run():
            return [out for chunk in chunks for out in kernel.run_ctrw_batch(chunk, DURATION)]

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


def run_experiment() -> dict:
    graph = build_overlay(VERTICES)
    by_batch = []
    for batch in BATCHES:
        scalar = measure_path(graph, batch, "scalar")
        vector = measure_path(graph, batch, "vector")
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
    crossover = next((row["batch"] for row in by_batch if row["vector_over_scalar"] > 1.0), None)

    # Headline rates: the saturated batch.
    saturated = by_batch[-1]
    return {
        "benchmark": "walk_kernel",
        "kernel_vertices": VERTICES,
        "kernel_edges": graph.edge_count(),
        "kernel_duration": DURATION,
        "kernel_walks_per_point": WALKS,
        "min_vector_batch": MIN_VECTOR_BATCH,
        "kernel_by_batch": by_batch,
        "crossover_batch": crossover,
        "walk": {
            "mode": "kernel-ctrw-batch",
            "kernel": "array",
            "backend": ArrayKernel(graph, fresh_rng(0)).backend,
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
    for row in result["kernel_by_batch"]:
        print(
            f"T1b kernel batch={row['batch']}: scalar "
            f"{row['scalar']['hops_per_second'] / 1e6:.2f}M hops/s, vector "
            f"{row['vector']['hops_per_second'] / 1e6:.2f}M hops/s "
            f"({row['vector_over_scalar']:.2f}x)"
        )
    print(f"T1b crossover batch: {result['crossover_batch']} (MIN_VECTOR_BATCH {MIN_VECTOR_BATCH})")
    save_result(result)

    # Both paths actually walked at every batch size.
    for row in result["kernel_by_batch"]:
        assert row["scalar"]["hops"] > 0 and row["vector"]["hops"] > 0
    assert result["walk"]["speedup_vs_scalar"] > 1.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="hop-engine scalar vs vector path benchmark")
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    args = parser.parse_args()
    outcome = run_experiment()
    save_result(outcome, args.out)
    print(json.dumps(outcome, indent=2, sort_keys=True))
