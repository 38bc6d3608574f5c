"""T1b — Hop-engine throughput: the numpy backend vs the pure-python backend.

Every simulated walk runs on one hop engine (``repro.walks.kernel.
ArrayKernel``), which has two backends behind the same code paths: ``numpy``
advances all walks of a batch in lockstep over zero-copy views of the CSR
rows, ``python`` serves every batch through the scalar CSR loop and keeps
numpy optional.  This benchmark measures both on identical synthetic
overlays at several sizes and *appends* the rates to ``BENCH_throughput.json``
— same trajectory file, same append-only discipline as
``bench_engine_throughput.py`` — under ``walk.kernel_hops_per_second``.

Asserted in-test, on what it measures: both backends walk on every overlay
size, and where numpy is installed it is the backend the engine picks and it
beats the python backend on a saturated batch (a relative gate, robust to
runner speed).

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_walk_kernel.py [--batch N]
"""

from __future__ import annotations

import argparse
import json
import time

import pytest

from repro.overlay.graph import OverlayGraph
from repro.walks.kernel import ArrayKernel, _np

from bench_engine_throughput import RESULT_PATH, save_result
from common import fresh_rng

#: Overlay sizes (vertex counts) the backends are compared at.
SIZES = (64, 256, 1024)
#: Concurrent walks per measurement (an exchange round batches one walk per
#: member; 4096 is the saturated large-round regime).
BATCH = 4096
#: Continuous duration of each measured walk (~300 hops on these overlays).
DURATION = 50.0
#: Required in-test speedup of the numpy backend over the python backend on
#: a saturated batch.
REQUIRED_SPEEDUP = 5.0


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


def measure_kernel(graph: OverlayGraph, batch: int, backend=None) -> dict:
    """Hops/second of one ``run_ctrw_batch`` over ``batch`` concurrent walks."""
    kernel = ArrayKernel(graph, fresh_rng(11), backend=backend)
    starts = [v % len(graph) for v in range(batch)]
    kernel.run_ctrw_batch(starts[: min(64, batch)], DURATION / 8)  # warm-up
    begin = time.perf_counter()
    results = kernel.run_ctrw_batch(starts, DURATION)
    elapsed = time.perf_counter() - begin
    hops = sum(result[1] for result in results)
    return {
        "backend": kernel.backend,
        "walks": batch,
        "hops": hops,
        "elapsed_seconds": elapsed,
        "hops_per_second": hops / elapsed if elapsed > 0 else 0.0,
    }


def run_experiment(batch: int = BATCH) -> dict:
    by_size = []
    for size in SIZES:
        graph = build_overlay(size)
        row = {
            "vertices": size,
            "edges": graph.edge_count(),
            "python": measure_kernel(graph, batch, backend="python"),
        }
        if _np is not None:
            row["numpy"] = measure_kernel(graph, batch, backend="numpy")
        by_size.append(row)

    # Headline rates: the largest overlay, saturated batch.
    largest = by_size[-1]
    fast = largest.get("numpy") or largest["python"]
    python_rate = largest["python"]["hops_per_second"]
    return {
        "kernel_sizes": list(SIZES),
        "kernel_batch": batch,
        "kernel_duration": DURATION,
        "kernel_by_size": by_size,
        "walk": {
            "mode": "kernel-ctrw-batch",
            "kernel": "array",
            "backend": fast["backend"],
            "hops": fast["hops"],
            "elapsed_seconds": fast["elapsed_seconds"],
            "hops_per_second": fast["hops_per_second"],
            "kernel_hops_per_second": {
                row_backend: largest[row_backend]["hops_per_second"]
                for row_backend in ("python", "numpy")
                if row_backend in largest
            },
            "speedup_vs_python": fast["hops_per_second"] / python_rate
            if python_rate > 0
            else 0.0,
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@pytest.mark.experiment("T1b")
def test_walk_kernel_throughput(benchmark):
    from common import run_once

    result = run_once(benchmark, run_experiment)
    for row in result["kernel_by_size"]:
        line = f"T1b kernel V={row['vertices']}: python {row['python']['hops_per_second'] / 1e6:.2f}M hops/s"
        if "numpy" in row:
            numpy_rate = row["numpy"]["hops_per_second"]
            line += (
                f", numpy {numpy_rate / 1e6:.2f}M hops/s "
                f"({numpy_rate / row['python']['hops_per_second']:.1f}x)"
            )
        print(line)
    save_result(result)

    # Every backend actually walked on every overlay size.
    for row in result["kernel_by_size"]:
        for backend in ("python", "numpy"):
            if backend in row:
                assert row[backend]["hops"] > 0
    if _np is not None:
        assert result["walk"]["backend"] == "numpy"
        assert ArrayKernel(None, fresh_rng(0)).backend == "numpy"
        assert result["walk"]["speedup_vs_python"] >= REQUIRED_SPEEDUP


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="hop-engine backend throughput benchmark")
    parser.add_argument("--batch", type=int, default=BATCH)
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    args = parser.parse_args()
    outcome = run_experiment(batch=args.batch)
    save_result(outcome, args.out)
    print(json.dumps(outcome, indent=2, sort_keys=True))
