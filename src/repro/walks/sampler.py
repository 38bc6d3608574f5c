"""Cluster and node sampling built on the biased CTRW.

``repro.core.randcl`` needs a single entry point that returns a cluster
distributed according to ``|C| / n`` and reports how much walking it took.
:class:`ClusterSampler` provides that entry point with two modes:

* ``WalkMode.SIMULATED`` — actually runs the biased CTRW hop by hop on the
  overlay, through the hop engine :class:`~repro.walks.kernel.ArrayKernel`.
  This is the faithful execution used to validate uniformity (E10) and to
  measure per-hop costs.  The hop engine loads numpy, so this module reaches
  it through :func:`hop_engine` and never imports it at module top.
* ``WalkMode.ORACLE`` — draws the cluster directly from the walk's target
  distribution ``|C| / n`` (one uniform draw over the weights' integer
  units) and reports the *expected* hop/restart counts of
  the simulated walk.  Long churn experiments (hundreds of thousands of
  sampled walks) use this mode; its statistical equivalence to the simulated
  mode is exactly what E10 checks, and the paper's own analysis (Section 4)
  makes the same idealisation after bounding the walk's bias by ``O(n^-c)``.

Both modes report a :class:`SampleOutcome` with identical fields so the cost
accounting in ``repro.core`` is mode-agnostic.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence

from ..errors import ConfigurationError, WalkError
from .interface import WalkableGraph

if TYPE_CHECKING:
    from .kernel import ArrayKernel

Vertex = Hashable


def check_kernel_snapshot(data: dict) -> None:
    """Refuse a kernel snapshot the numpy backend did not write (snapshots name their backend)."""
    backend = data.get("backend")
    if backend != "numpy":
        raise ConfigurationError(f"unknown walk-kernel checkpoint backend {backend!r}")


def resolve_kernel_name(name) -> str:
    """Validate a ``walk_kernel`` option value; the one kernel is ``"array"``."""
    if name != "array":
        raise ConfigurationError(f"unknown walk kernel {name!r}; expected 'array'")
    return name


def hop_engine() -> type:
    """The hop engine class, :class:`~repro.walks.kernel.ArrayKernel`.

    Importing it loads numpy.  A simulated run calls this while its engine
    is built, so the import counts in its set-up; oracle runs never call it.
    """
    from .kernel import ArrayKernel

    return ArrayKernel


class WalkMode(enum.Enum):
    """How ``randCl`` samples are produced (see module docstring)."""

    SIMULATED = "simulated"
    ORACLE = "oracle"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(slots=True)
class SampleOutcome:
    """One sampled cluster plus the walking effort it required."""

    cluster: Vertex
    hops: int
    restarts: int
    mode: WalkMode
    truncated: bool = False


def expected_effort(
    vertex_count: int,
    average_degree: float,
    total_weight: float,
    max_weight: float,
    segment_duration: float,
) -> tuple:
    """Expected ``(hops, restarts)`` of one biased walk, from graph aggregates.

    One CTRW segment makes ``segment_duration * average_degree`` hops in
    expectation; the biased walk restarts a geometric number of times with
    mean ``max_weight / mean_weight`` (the acceptance coin of the largest
    cluster is the certain one).
    """
    if not vertex_count:
        return (0, 1)
    mean_weight = total_weight / vertex_count
    expected_restarts = max(1.0, max_weight / mean_weight) if mean_weight > 0 else 1.0
    expected_hops = segment_duration * average_degree * expected_restarts
    return (max(1, int(round(expected_hops))), max(1, int(round(expected_restarts))))


class ClusterSampler:
    """Samples clusters from the ``|C|/n`` distribution via biased CTRWs."""

    def __init__(
        self,
        graph: WalkableGraph,
        rng: random.Random,
        segment_duration: float,
        mode: WalkMode = WalkMode.SIMULATED,
        max_restarts: int = 64,
    ) -> None:
        self._graph = graph
        self._rng = rng
        self._segment_duration = float(segment_duration)
        self._mode = mode
        self._max_restarts = max_restarts
        # The hop engine of simulated walks, created on first use; it seeds
        # its private stream from ``rng`` lazily, at its first walk.
        self._kernel: Optional[ArrayKernel] = None
        # Expected-effort cache, keyed on the graph's mutation version (when
        # it exposes one) and the segment duration.
        self._effort_key: Optional[tuple] = None
        self._effort: tuple = (1, 1)

    @property
    def mode(self) -> WalkMode:
        """The sampling mode currently in use."""
        return self._mode

    @property
    def graph(self) -> WalkableGraph:
        """The graph this sampler draws from."""
        return self._graph

    def configure(self, segment_duration: float, max_restarts: int) -> None:
        """Update the walk parameters in place (lets callers reuse one sampler)."""
        self._segment_duration = float(segment_duration)
        self._max_restarts = max_restarts

    def sample(self, start: Vertex) -> SampleOutcome:
        """Sample one cluster, starting the walk from ``start``."""
        if self._mode is WalkMode.SIMULATED:
            return self.sample_many([start])[0]
        return self._sample_oracle(start)

    def sample_many(self, starts: Sequence[Vertex]) -> List[SampleOutcome]:
        """Sample one cluster per start vertex (in ``starts`` order).

        In simulated mode the whole batch advances in lockstep through the
        hop engine, which walks the graph's CSR rows: the starts are mapped
        to rows here and the endpoints back.  In oracle mode this is a
        sequential loop of :meth:`sample` draws on the caller's stream.
        """
        if self._mode is not WalkMode.SIMULATED:
            return [self._sample_oracle(start) for start in starts]
        layout = self._graph.csr()
        try:
            rows = [layout.row_of(start) for start in starts]
        except KeyError as error:
            raise WalkError(f"start vertex {error.args[0]!r} is not in the graph") from None
        vertices = layout.vertices
        return [
            SampleOutcome(
                cluster=vertices[row],
                hops=hops,
                restarts=restarts,
                mode=WalkMode.SIMULATED,
                truncated=truncated,
            )
            for row, hops, restarts, _, truncated in self.walk_batch(rows)
        ]

    def walk_batch(self, rows: Sequence[int]) -> List[tuple]:
        """One simulated walk per start row of the graph's CSR layout, as the
        hop engine's ``(row, hops, restarts, acceptance_tests, truncated)``
        tuples."""
        if not rows:
            return []
        return self._ensure_kernel().run_biased_batch(
            rows, self._segment_duration, self._max_restarts
        )

    def _ensure_kernel(self) -> ArrayKernel:
        kernel = self._kernel
        if kernel is None:
            kernel = hop_engine()(self._graph, self._rng)
            self._kernel = kernel
        return kernel

    # ------------------------------------------------------------------
    # Oracle mode
    # ------------------------------------------------------------------
    def population(self) -> tuple:
        """``(layout, population)``: the graph's CSR and its integer weight units.

        Raises :class:`~repro.errors.WalkError` when there is no unit to draw.
        """
        layout = self._graph.csr()
        population = layout.population()
        if not population.total:
            raise WalkError(
                "cannot sample a vertex of an empty graph"
                if not len(layout)
                else "graph has no positive vertex weight"
            )
        return layout, population

    def _sample_oracle(self, start: Vertex) -> SampleOutcome:
        # One draw over the weights' integer units (the clustered population
        # on the overlay): ``randrange(total)``, then a bisect over the
        # cumulative units -- the draw an exchange round makes per member.
        layout, (cum, _, total) = self.population()
        cluster = layout.vertices[bisect_right(cum, self._rng.randrange(total))]
        hops, restarts = self.oracle_effort()
        return SampleOutcome(
            cluster=cluster, hops=hops, restarts=restarts, mode=WalkMode.ORACLE
        )

    def oracle_effort(self) -> tuple:
        """The ``(hops, restarts)`` every oracle draw reports: :func:`expected_effort`
        of this graph, cached against the graph's mutation version (when it
        exposes one) and the segment duration."""
        graph = self._graph
        version = getattr(graph, "version", None)
        key = (version, self._segment_duration)
        if version is not None and key == self._effort_key:
            return self._effort
        # All O(1) on OverlayGraph: aggregates are maintained incrementally.
        effort = expected_effort(
            graph.vertex_count(),
            graph.average_degree(),
            graph.total_weight(),
            graph.max_weight(),
            self._segment_duration,
        )
        if version is not None:
            self._effort_key = key
            self._effort = effort
        return effort

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_walk_state(self) -> Optional[dict]:
        """The hop engine's stream and buffers (``None`` before its first use)."""
        return self._kernel.snapshot_state() if self._kernel is not None else None

    def restore_walk_state(self, data: Optional[dict]) -> None:
        """Restore a snapshot taken by :meth:`snapshot_walk_state`."""
        if data is not None:
            self._ensure_kernel().restore_state(data)
