"""The measurement spine's one command.

    python3 benchmarks/spine/run.py [--workload W] [--seed S] [--seconds T]
                                    [--trace 0|1] [--out FILE]

Runs the named workload (default: all four) against the program's public
entry points, prints every metric by name with its unit, checks the
program's outputs, and exits non-zero on any correctness failure.  With
``--trace 0`` it measures the end-to-end metrics, tracing off; with
``--trace 1`` the per-layer metrics from a traced run; with neither, both.

The last line printed for each (workload, trace) pair is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are exactly
the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) names of
``BENCHMARK.json``; ``--out`` writes the full record, envelope included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch of a run, removed when it ends.  Inside the checkout, not the
#: system temp directory: the benchmark may write nowhere else.
WORK_ROOT = os.path.join(ROOT, ".spine_work")


def load_contract() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def steal_ticks() -> int:
    """Cumulative steal ticks of the machine (``/proc/stat``, 0 when absent)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def envelope(seed: int, seconds: float) -> Dict[str, Any]:
    """What every record carries so that two records can be compared at all."""
    from repro.walks.kernel import ArrayKernel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = "unknown"  # the checkout the driver runs in is not a git repository
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "schema": "spine-1",
        "seed": seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": ArrayKernel(None, random.Random(0)).backend,
        "git_sha": sha,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(workload: str, trace: int, seed: int, seconds: float, env: Dict[str, str]) -> Dict[str, Any]:
    """One (workload, trace mode) run in its own scratch directory."""
    import batch
    import plan
    import serve

    module = batch if workload in plan.BATCH_WORKLOADS else serve
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    stolen = steal_ticks()
    started = time.perf_counter()
    try:
        runner = module.run_traced if trace else module.run_untraced
        result = runner(workload, seed, seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # leave nothing behind, unless another run shares it
        except OSError:
            pass
    result["wall_s"] = time.perf_counter() - started
    result["steal_ticks"] = steal_ticks() - stolen
    if trace:
        result["per_layer"]["spine.steal_ticks"] = float(result["steal_ticks"])
        unknown = set(result["per_layer"]) - set(plan.per_layer_metrics())
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from plan.py: {sorted(unknown)}")
    return result


def contract_line(result: Dict[str, Any], specs: List[Dict[str, str]], key: str) -> str:
    """The result object the contract asks for, metrics in ``specs`` order."""
    values = result[key]
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in specs
    }
    return json.dumps(
        {
            "correct": not result["errors"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def print_report(workload: str, trace: int, result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {workload} ({mode}, {result['wall_s']:.1f} s wall, "
          f"{result['steal_ticks']} steal ticks) ==")
    if trace:
        units = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
        for name, value in result["per_layer"].items():
            if value:
                print(f"  {name:<40} {value:>14.4f} {units.get(name, '')}")
        zeros = sorted(name for name, value in result["per_layer"].items() if not value)
        print(f"  ({len(zeros)} per-layer metrics are 0 on this workload)")
    else:
        units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"]}
        for name, value in result["end_to_end"].items():
            print(f"  {name:<40} {value:>14.4f} {units.get(name, '')}")
        for name, value in result["detail"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                print(f"  . {name:<38} {value:>14.4f}")
        if result["noisy"]:
            print(f"  NOISY: {', '.join(result['noisy'])} (kept, flagged; compare.py reads "
                  "a flagged metric as unresolved)")
    for error in result["errors"]:
        print(f"  FAILED CHECK: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload name (default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length one run is sized for (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics (default: both)")
    parser.add_argument("--out", default=None, help="write the full JSON record here")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: servers are stopped
    # and scratch is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"spine: the program is not here ({SOURCE}/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    import plan

    contract = load_contract()
    seed = plan.DEFAULT_SEED if args.seed is None else args.seed
    seconds = float(contract["run_seconds"]) if args.seconds is None else args.seconds
    workloads = [args.workload] if args.workload else list(plan.WORKLOADS)
    for workload in workloads:
        if workload not in plan.WORKLOADS:
            print(f"spine: unknown workload {workload!r}; expected one of {plan.WORKLOADS}",
                  file=sys.stderr)
            return 2
    modes = [args.trace] if args.trace is not None else [0, 1]

    record: Dict[str, Any] = {"envelope": envelope(seed, seconds), "workloads": {}}
    correct = True
    for workload in workloads:
        for trace in modes:
            result = run_one(workload, trace, seed, seconds, env)
            print_report(workload, trace, result, contract)
            key = "per_layer" if trace else "end_to_end"
            print(contract_line(result, contract[key], key), flush=True)
            correct = correct and not result["errors"]
            record["workloads"].setdefault(workload, {})["traced" if trace else "untraced"] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
