"""Tracing from the outside: timing wrappers around each layer's public calls.

The program has no instrumentation of its own yet (ROADMAP item 2), so the
traced run installs wrappers *from this file* by attribute replacement for
the run's duration.  Two kinds of point:

* a **span point** records ``(name, start, end, parent, op_id)`` — parent is
  the index of the enclosing span, ``op_id`` the churn-event number or the
  request id — kept in memory and dumped once at exit;
* a **counted point** (``counted=True``, the ``†`` rows of the README) is a
  per-swap leaf called hundreds of times per event.  A span around it would
  measure the wrapper, so the traced run only *counts* its calls (keyed by
  the enclosing span) and :func:`probe_leaves` times it by direct calls
  through public constructors on a warmed engine.

A layer's **self time** is its spans' duration minus the part covered by
child spans, minus the probed time of the counted leaves called directly
beneath it; the leaves get ``calls x exclusive time per call``.  Self times
therefore partition every root span.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, Any]


@dataclass(frozen=True)
class Point:
    """One named measurement point and the public callables it wraps."""

    name: str
    #: ``"package.module:Class.method"`` or ``"package.module:function"``
    #: (a function is patched in the namespace of the module that *uses* it).
    targets: Tuple[str, ...]
    counted: bool = False
    #: Request id / step number, from the recorder and the positional arguments.
    op_of: Optional[Callable[["Recorder", tuple], Any]] = None
    #: Same, from the return value (``parse_request`` learns the id last).
    op_of_result: Optional[Callable[[Any], Any]] = None
    #: The wrapped callable is a generator function: drain it inside the span.
    drains: bool = False
    #: Size of the result, accumulated under ``values[name]`` (batch sizes).
    measure: Optional[Callable[[Any], int]] = None


def _frame_id(position: int) -> Callable[["Recorder", tuple], Any]:
    def op_of(_recorder: "Recorder", args: tuple) -> Any:
        frame = args[position] if len(args) > position else None
        return frame.get("id") if isinstance(frame, dict) else None

    return op_of


POINTS: Tuple[Point, ...] = (
    # core ------------------------------------------------------------
    Point(
        "core.apply_event",
        ("repro.core.engine:NowEngine.apply_event",),
        op_of=lambda recorder, _args: recorder.next_step(),
    ),
    Point("core.join_op", ("repro.core.operations:JoinOperation.execute",)),
    Point("core.leave_op", ("repro.core.operations:LeaveOperation.execute",)),
    Point("core.exchange_all", ("repro.core.exchange:ExchangeProtocol.exchange_all",)),
    # Every randCl outcome passes through finalize exactly once, whether it
    # came from select or from a prefetched round; the walk or draw behind it
    # is the walks.sampler span, so this leaf is the charge and the result.
    Point("core.randcl", ("repro.core.randcl:RandCl.finalize",), counted=True),
    Point(
        "core.randnum",
        ("repro.core.randnum:RandNum.pick_member", "repro.core.randnum:RandNum.generate"),
        counted=True,
    ),
    Point("core.swap_members", ("repro.core.cluster:ClusterRegistry.swap_members",), counted=True),
    # network ---------------------------------------------------------
    Point(
        "network.charge",
        (
            "repro.network.metrics:CommunicationMetrics.charge",
            "repro.network.metrics:CommunicationMetrics.charge_messages",
            "repro.network.metrics:CommunicationMetrics.charge_rounds",
        ),
        counted=True,
    ),
    # overlay ---------------------------------------------------------
    Point(
        "overlay.over_update",
        (
            "repro.overlay.over:OverOverlay.add_vertex",
            "repro.overlay.over:OverOverlay.remove_vertex",
            "repro.overlay.over:OverOverlay.update_weight",
        ),
    ),
    Point("overlay.csr_build", ("repro.walks.csr:CSRLayout.build",)),
    Point(
        "overlay.weighted_draw",
        ("repro.overlay.graph:OverlayGraph.sample_weighted_vertex",),
        counted=True,
    ),
    # walks -----------------------------------------------------------
    Point(
        "walks.sampler",
        (
            "repro.walks.sampler:ClusterSampler.sample",
            "repro.walks.sampler:ClusterSampler.sample_many",
        ),
    ),
    Point(
        "walks.kernel",
        (
            "repro.walks.kernel:ArrayKernel.run_ctrw_batch",
            "repro.walks.kernel:ArrayKernel.run_biased_batch",
        ),
    ),
    # scenarios, workloads -------------------------------------------
    Point("scenarios.runner", ("repro.scenarios.runner:SimulationRunner.run",)),
    Point(
        "scenarios.bus",
        (
            "repro.scenarios.bus:ObservationBus.publish",
            "repro.scenarios.bus:ObservationBus.publish_record",
            "repro.scenarios.bus:ObservationBus.flush",
        ),
    ),
    Point("workloads.next_event", ("repro.workloads.churn:UniformChurn.next_event",)),
    # trace -----------------------------------------------------------
    Point(
        "trace.write",
        (
            "repro.trace.log:TraceWriter.write_event",
            "repro.trace.log:TraceWriter.write_record",
        ),
    ),
    Point(
        "trace.index",
        (
            "repro.trace.log:TraceWriter.write_index",
            "repro.trace.log:TraceWriter.write_index_frame",
            # The sharded session hashes before it calls write_index_frame.
            "repro.shard.coordinator:ShardCoordinator.state_hash",
        ),
    ),
    Point(
        "trace.checkpoint",
        (
            "repro.trace.checkpoint:Checkpoint.capture",
            "repro.trace.checkpoint:Checkpoint.save",
        ),
    ),
    Point("trace.decode", ("repro.trace.log:read_trace_frames",)),
    Point("trace.replay", ("repro.trace.replay:ReplayEngine.run",)),
    # shard -----------------------------------------------------------
    Point("shard.route", ("repro.shard.router:EventRouter.route_window",)),
    Point("shard.wire", ("repro.shard.worker:pack_rows",)),
    Point(
        "shard.wire",
        (
            "repro.shard.worker:iter_events",
            "repro.shard.merge:iter_rows",
        ),
        drains=True,
    ),
    Point("shard.dispatch", ("repro.shard.coordinator:ShardCoordinator.serve_dispatch",)),
    Point("shard.collect", ("repro.shard.coordinator:ShardCoordinator.serve_collect",)),
    Point("shard.merge", ("repro.shard.merge:ObservationMerger.merge_window",)),
    Point(
        "shard.read_model",
        (
            "repro.shard.serve:ShardReadModel.sample",
            "repro.shard.serve:ShardReadModel.broadcast",
            "repro.shard.serve:ShardReadModel.ensure",
        ),
    ),
    # service ---------------------------------------------------------
    Point(
        "service.parse",
        ("repro.service.frontend:parse_request",),
        op_of_result=lambda frame: frame.get("id") if isinstance(frame, dict) else None,
    ),
    Point(
        "service.encode",
        ("repro.service.frontend:encode_frame",),
        op_of=_frame_id(0),
    ),
    Point("service.queue", ("repro.service.queue:RequestQueue.offer",)),
    Point("service.queue", ("repro.service.queue:RequestQueue.drain",), measure=len),
    Point(
        "service.execute",
        (
            "repro.service.session:LiveEngineSession.execute",
            "repro.service.sharded:ShardedLiveSession.execute",
        ),
        op_of=_frame_id(1),
    ),
    Point(
        "service.window",
        (
            "repro.service.sharded:ShardedLiveSession.begin_window",
            "repro.service.sharded:ShardedLiveSession.finish_window",
        ),
    ),
    # apps ------------------------------------------------------------
    Point("apps.sample", ("repro.apps.sampling:SamplingService.sample",)),
    Point("apps.broadcast", ("repro.apps.broadcast:ClusteredBroadcast.broadcast",)),
)

#: Point names in table order, each once.
POINT_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(point.name for point in POINTS))
COUNTED_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(point.name for point in POINTS if point.counted)
)

ROOT = "<root>"


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Indices and names of the spans currently open, innermost last.
        self.stack: List[int] = []
        self.names: List[str] = [ROOT]
        #: ``(enclosing span name, counted point name) -> calls``.
        self.counts: Dict[Tuple[str, str], int] = {}
        #: ``point name -> [sum of measured sizes, non-empty results]``.
        self.values: Dict[str, List[int]] = {}
        self.op_id: Any = None
        self.steps = 0
        self._installed: List[Tuple[Any, str, Any]] = []
        #: Targets :meth:`install` could not find in the program.
        self.missing: List[str] = []

    def next_step(self) -> int:
        """The running churn-event number (the batch workloads' op id)."""
        self.steps += 1
        return self.steps

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts clean)."""
        self.spans.clear()
        self.stack.clear()
        del self.names[1:]
        self.counts.clear()
        for totals in self.values.values():
            totals[0] = totals[1] = 0
        self.op_id = None
        self.steps = 0

    # ------------------------------------------------------------------
    # Wrapper construction
    # ------------------------------------------------------------------
    def _span_wrapper(self, point: Point, func: Callable) -> Callable:
        spans, stack, names, perf = self.spans, self.stack, self.names, time.perf_counter
        name, op_of, op_of_result = point.name, point.op_of, point.op_of_result
        drains, measure = point.drains, point.measure
        totals = self.values.setdefault(name, [0, 0]) if measure else None

        def wrapper(*args, **kwargs):
            if op_of is not None:
                self.op_id = op_of(self, args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            names.append(name)
            result = None
            start = perf()
            try:
                result = func(*args, **kwargs)
                if drains:
                    result = iter(list(result))
                return result
            finally:
                end = perf()
                stack.pop()
                names.pop()
                if op_of_result is not None and result is not None:
                    self.op_id = op_of_result(result)
                spans[index] = (name, start, end, parent, self.op_id)
                if totals is not None and result is not None:
                    size = measure(result)
                    totals[0] += size
                    totals[1] += 1 if size else 0

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, point: Point, func: Callable) -> Callable:
        names, counts, name = self.names, self.counts, point.name

        def wrapper(*args, **kwargs):
            key = (names[-1], name)
            counts[key] = counts.get(key, 0) + 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self, points: Sequence[Point] = POINTS) -> None:
        """Replace every target of ``points`` with its wrapper.

        A target the program no longer has is listed in :attr:`missing` and
        skipped: a rename should cost one layer's numbers, not the run.
        """
        for point in points:
            for target in point.targets:
                try:
                    owner, attribute = _resolve(target)
                    original = owner.__dict__[attribute]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                is_classmethod = isinstance(original, classmethod)
                func = original.__func__ if is_classmethod else original
                make = self._count_wrapper if point.counted else self._span_wrapper
                wrapped = make(point, func)
                setattr(owner, attribute, classmethod(wrapped) if is_classmethod else wrapped)
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every replaced attribute."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Dump
    # ------------------------------------------------------------------
    def payload(self, role: str, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """This process's record, JSON-ready (a span still open is ``null``)."""
        return {
            "pid": os.getpid(),
            "role": role,
            "spans": list(self.spans),
            "counts": [[parent, name, calls] for (parent, name), calls in self.counts.items()],
            "values": {name: list(totals) for name, totals in self.values.items()},
            "missing": self.missing,
            "extra": extra or {},
        }

    def dump(self, path: str, role: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the record once, at exit."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(role, extra), handle)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


# ----------------------------------------------------------------------
# Analysis: self times and the per-layer table
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Optional[Sequence]]) -> Dict[str, List[float]]:
    """``name -> [calls, self seconds]`` for one process's span list.

    A span's self time is its duration minus the durations of the spans that
    name it as parent; spans nest properly (one thread, wrappers only), so
    direct children never overlap each other.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0 and spans[span[3]] is not None:
            covered[span[3]] += span[2] - span[1]
    totals: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        entry = totals.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += (span[2] - span[1]) - covered[index]
    return totals


def root_seconds(spans: Sequence[Optional[Sequence]], name: str) -> float:
    """Total duration of the top-level spans called ``name``."""
    return sum(
        span[2] - span[1]
        for span in spans
        if span is not None and span[0] == name and (span[3] < 0 or spans[span[3]] is None)
    )


def layer_table(
    payloads: Sequence[Dict[str, Any]], leaves: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """``name -> {"calls", "self_s"}`` over every process of one traced run.

    Counted leaves receive ``calls x exclusive seconds per call`` and the
    same amount is taken from the span they ran under, so the table still
    sums to the root spans' duration.
    """
    table = {name: {"calls": 0.0, "self_s": 0.0} for name in POINT_NAMES}
    for payload in payloads:
        for name, (calls, seconds) in self_times(payload["spans"]).items():
            table[name]["calls"] += calls
            table[name]["self_s"] += seconds
        for parent, name, calls in payload["counts"]:
            seconds = calls * leaves.get(name, {}).get("exclusive_us", 0.0) / 1e6
            table[name]["calls"] += calls
            table[name]["self_s"] += seconds
            if parent != ROOT:
                table[parent]["self_s"] -= seconds
    for entry in table.values():
        entry["self_s"] = max(0.0, entry["self_s"])
    return table


def point_metrics(
    table: Dict[str, Dict[str, float]], leaves: Dict[str, Dict[str, float]], ops: int
) -> Dict[str, float]:
    """The three metrics every point yields, per operation."""
    metrics: Dict[str, float] = {}
    for name in POINT_NAMES:
        metrics[f"{name}.calls_per_op"] = table[name]["calls"] / ops
        metrics[f"{name}.self_us_per_op"] = table[name]["self_s"] / ops * 1e6
    for name in COUNTED_NAMES:
        metrics[f"{name}.us_per_call"] = leaves[name]["us_per_call"]
    return metrics


# ----------------------------------------------------------------------
# The direct-call probe of the counted leaves
# ----------------------------------------------------------------------
def _leaf_probes(engine) -> Dict[str, Tuple[Callable[[], Any], int]]:
    """``leaf name -> (callable, leaf calls per invocation)`` on ``engine``.

    Everything runs on a private RNG and a scratch ledger, through public
    constructors, so the engine stream and its cost ledgers are untouched;
    the member swap goes there and back, leaving membership as it was.
    """
    from repro.core.randcl import RandCl
    from repro.core.randnum import RandNum
    from repro.network.message import MessageKind
    from repro.network.metrics import CommunicationMetrics
    from repro.walks.sampler import SampleOutcome

    state = engine.state
    rng = random.Random(0x5917E)
    scratch = CommunicationMetrics()
    randnum = RandNum(rng)
    randcl = RandCl(
        state,
        randnum,
        walk_mode=engine.config.walk_mode,
        walk_kernel=engine.config.walk_kernel,
        rng=rng,
    )
    clusters = state.clusters
    first, second = clusters.cluster_ids()[:2]
    members = clusters.get(first).member_list()
    here, there = members[0], clusters.get(second).member_list()[0]
    byzantine = state.nodes.active_byzantine()
    graph = state.overlay.graph
    outcome = SampleOutcome(cluster=second, hops=40, restarts=1, mode=engine.config.walk_mode)

    def swap_there_and_back() -> None:
        clusters.swap_members(first, here, second, there)
        clusters.swap_members(first, there, second, here)

    return {
        "network.charge": (
            lambda: scratch.charge(12, 3, kind=MessageKind.WALK, label="probe"),
            1,
        ),
        "overlay.weighted_draw": (lambda: graph.sample_weighted_vertex(rng), 1),
        "core.swap_members": (swap_there_and_back, 2),
        "core.randnum": (
            lambda: randnum.pick_member(
                members, byzantine, metrics=scratch, label="probe", presorted=True
            ),
            1,
        ),
        "core.randcl": (
            lambda: randcl.finalize(first, outcome, metrics=scratch, label="probe"),
            1,
        ),
    }


def _time_calls(func: Callable[[], Any], budget: float) -> Tuple[int, float]:
    """Call ``func`` in growing chunks for about ``budget`` seconds."""
    perf = time.perf_counter
    calls, elapsed, chunk = 0, 0.0, 16
    while elapsed < budget:
        start = perf()
        for _ in range(chunk):
            func()
        elapsed += perf() - start
        calls += chunk
        chunk = min(chunk * 2, 4096)
    return calls, elapsed


def probe_leaves(engine, budget: float = 0.12) -> Dict[str, Dict[str, float]]:
    """Time each counted leaf by direct calls on the warmed ``engine``.

    Returns ``name -> {"us_per_call", "exclusive_us"}``.  ``us_per_call`` is
    the plain (uninstrumented) cost of one call, nested leaves included; a
    second, instrumented pass counts the other leaves each call nests, and
    ``exclusive_us`` is what remains after those.
    """
    probes = _leaf_probes(engine)
    inclusive: Dict[str, float] = {}
    for name, (func, per_call) in probes.items():
        calls, elapsed = _time_calls(func, budget)
        inclusive[name] = elapsed / (calls * per_call) * 1e6

    nested: Dict[str, Dict[str, float]] = {}
    recorder = Recorder()
    recorder.install()
    try:
        for name, (func, per_call) in probes.items():
            recorder.reset()
            rounds = 64
            for _ in range(rounds):
                func()
            leaf_calls = rounds * per_call
            nested[name] = {
                leaf: calls / leaf_calls
                for (_, leaf), calls in recorder.counts.items()
                if leaf != name
            }
    finally:
        recorder.uninstall()

    exclusive: Dict[str, float] = {}
    for name in sorted(probes, key=lambda leaf: len(nested[leaf])):
        inside = sum(per * exclusive.get(leaf, 0.0) for leaf, per in nested[name].items())
        exclusive[name] = max(0.0, inclusive[name] - inside)
    return {
        name: {"us_per_call": inclusive[name], "exclusive_us": exclusive[name]}
        for name in probes
    }
