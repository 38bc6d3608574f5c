"""T1b — Hop-engine throughput: the scalar executor vs the vector executor, per round size.

Every simulated walk is ``randCl``'s biased CTRW, run uniformized by one hop
engine (``repro.walks.kernel.ArrayKernel``).  A batch runs in rounds, and
each round reads one stream layout — the tick counts of one ``poisson``
call, then one contiguous take of codes and acceptance uniforms — through
one of two executors: a loop over Python lists (``_scalar``) or numpy
lockstep gathers at the same offsets (``_vector``).  Both return the same
walks and consume the same values, so the round size at which the kernel
switches, ``MIN_VECTOR_BATCH``, is a speed setting only.  This benchmark
sets it: on the bootstrap overlays of three populations (seed 47, N = 4096,
tau = 0.15, n0 = 300, 1 200 and 4 000: 8, 33 and 111 clusters), with the
segment length and restart cap ``randCl`` configures on them, it times one
round of each size in ``BATCHES`` on each executor over the same drawn
layout, and records the smallest round size at which the vector executor
is the faster one (``crossover_batch``).  It *appends* the rates to
``BENCH_throughput.json`` — same trajectory file, same append-only
discipline as ``bench_engine_throughput.py``.

Asserted in-test, on what it measures: both executors return the same
walks on every round, and the vector executor beats the scalar one on the
largest round.

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_walk_kernel.py [--out FILE]
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro.core.randcl import RandCl
from repro.walks.kernel import MIN_VECTOR_BATCH, ArrayKernel

from bench_engine_throughput import RESULT_PATH, save_result
from common import bootstrap_engine, fresh_rng

#: Bootstrap overlays: initial sizes at N = 4096, tau = 0.15, seed 47.
OVERLAYS = (300, 1200, 4000)
#: Walks per round: a join's pass (~30), around the crossover, and
#: cascade-sized passes.
BATCHES = (16, 32, 64, 96, 128, 192, 256, 512, 1024)
#: Walks timed per measurement point, one round of ``batch`` at a time.
WALKS = 4096


def engine_walk(initial_size: int):
    """``(graph, segment_duration, max_restarts)`` of one bootstrap overlay."""
    state = bootstrap_engine(4096, initial_size, tau=0.15, seed=47).state
    randcl = RandCl(state, rng=fresh_rng(0))
    randcl.select(state.clusters.cluster_ids()[0])  # configures the walk for this overlay
    segment, max_restarts = randcl._walk_params
    return state.overlay.graph, segment, max_restarts


def measure_round(graph, segment: float, batch: int) -> dict:
    """Both executors on the same ``batch``-walk round layouts: hops/second each."""
    kernel = ArrayKernel(graph, fresh_rng(11))
    kernel.run_biased_batch([0], segment, 1)  # from row 0; builds the tables
    csr, max_weight = graph.csr(), graph.max_weight()
    tables = csr.walk_tables
    rows = [v % len(csr) for v in range(batch)]
    layouts = []
    for _ in range(max(1, WALKS // batch)):
        counts = kernel._ensure_gen().poisson(tables.lam * segment, batch)
        values = kernel._take(int((counts // tables.k).sum()) + 2 * batch)
        layouts.append((counts, values))
    row = {"batch": batch}
    outcomes = {}
    for name, executor in (("scalar", kernel._scalar), ("vector", kernel._vector)):
        begin = time.perf_counter()
        outcomes[name] = [
            executor(tables, rows, counts, values, csr, max_weight) for counts, values in layouts
        ]
        elapsed = time.perf_counter() - begin
        hops = sum(sum(walked) for _, walked, _ in outcomes[name])
        row[name] = {
            "walks": len(layouts) * batch,
            "hops": hops,
            "elapsed_seconds": elapsed,
            "hops_per_second": hops / elapsed if elapsed > 0 else 0.0,
        }
    row["executors_agree"] = outcomes["scalar"] == outcomes["vector"]
    scalar_rate = row["scalar"]["hops_per_second"]
    vector_rate = row["vector"]["hops_per_second"]
    row["vector_over_scalar"] = vector_rate / scalar_rate if scalar_rate else 0.0
    return row


def measure_overlay(initial_size: int) -> dict:
    graph, segment, max_restarts = engine_walk(initial_size)
    by_batch = [measure_round(graph, segment, batch) for batch in BATCHES]
    tables = graph.csr().walk_tables
    return {
        "initial_size": initial_size,
        "clusters": len(graph),
        "max_degree": tables.lam,
        "ticks_per_lookup": tables.k,
        "segment_duration": segment,
        "max_restarts": max_restarts,
        "by_batch": by_batch,
        "crossover_batch": next(
            (row["batch"] for row in by_batch if row["vector_over_scalar"] > 1.0), None
        ),
    }


def run_experiment() -> dict:
    overlays = [measure_overlay(initial_size) for initial_size in OVERLAYS]
    # Headline rates: the largest round on the largest overlay.
    saturated = overlays[-1]["by_batch"][-1]
    return {
        "benchmark": "walk_kernel",
        "kernel_walks_per_point": WALKS,
        "min_vector_batch": MIN_VECTOR_BATCH,
        "kernel_overlays": overlays,
        "walk": {
            "mode": "kernel-uniformized-round",
            "kernel": "array",
            "backend": "numpy",
            "hops": saturated["vector"]["hops"],
            "elapsed_seconds": saturated["vector"]["elapsed_seconds"],
            "hops_per_second": saturated["vector"]["hops_per_second"],
            "kernel_hops_per_second": {
                name: saturated[name]["hops_per_second"] for name in ("scalar", "vector")
            },
            "speedup_vs_scalar": saturated["vector_over_scalar"],
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def report(result) -> None:
    for overlay in result["kernel_overlays"]:
        for row in overlay["by_batch"]:
            print(
                f"T1b n0={overlay['initial_size']} round={row['batch']}: scalar "
                f"{row['scalar']['hops_per_second'] / 1e6:.2f}M hops/s, vector "
                f"{row['vector']['hops_per_second'] / 1e6:.2f}M hops/s "
                f"({row['vector_over_scalar']:.2f}x)"
            )
        print(
            f"T1b n0={overlay['initial_size']} (V={overlay['clusters']}, max degree "
            f"{overlay['max_degree']}, k={overlay['ticks_per_lookup']}) crossover round: "
            f"{overlay['crossover_batch']} (MIN_VECTOR_BATCH {MIN_VECTOR_BATCH})"
        )


@pytest.mark.experiment("T1b")
def test_walk_kernel_throughput(benchmark):
    from common import run_once

    result = run_once(benchmark, run_experiment)
    report(result)
    save_result(result)

    # Both executors walked, alike, on every round.
    for overlay in result["kernel_overlays"]:
        for row in overlay["by_batch"]:
            assert row["executors_agree"]
            assert row["scalar"]["hops"] > 0 and row["vector"]["hops"] > 0
    assert result["walk"]["speedup_vs_scalar"] > 1.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="hop-engine scalar vs vector executor benchmark")
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    args = parser.parse_args()
    outcome = run_experiment()
    save_result(outcome, args.out)
    report(outcome)
