"""``randCl``: random cluster selection via a biased CTRW on the overlay.

Section 3.1: to select a cluster at random according to the node-uniform
distribution ``(|C| / n)``, NOW performs a biased continuous random walk on
the overlay.  Each hop is decided collaboratively by the current cluster
using ``randNum`` (choose the next neighbouring cluster and decrease the
remaining walk duration), and a node of the next cluster continues the walk
only when it receives an identical message from more than half of the
previous cluster's members.  The expected cost reported by the paper is
``O(log^5 N)`` messages and ``O(log^4 N)`` rounds.

The implementation layers :class:`~repro.walks.sampler.ClusterSampler` (which
produces the endpoint and the hop count, either by actually walking or from
the walk's stationary law — see the design notes in docs/ARCHITECTURE.md on walk modes) with a cost model
derived from the actual cluster population at call time:

* per hop: one ``randNum`` inside the current cluster (``2 m (m-1)``
  messages) plus the cluster-to-cluster hand-off (``m * m'`` messages, the
  full bipartite "identical message from more than half" check), 3 rounds;
* per restart: one extra ``randNum`` for the acceptance coin flip.

Because the hop-by-hop cluster sizes are all ``Theta(log N)`` and the walk
visits ``O(log^3 N)`` clusters, this reproduces the paper's ``O(log^5 N)``
message bound; experiment E3 fits the measured exponent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import WalkError
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..walks.sampler import (
    ClusterSampler,
    SampleOutcome,
    WalkMode,
    hop_engine,
    resolve_kernel_name,
)
from .cluster import ClusterId
from .randnum import RandNum, randnum_cost
from .state import SystemState


@dataclass(slots=True)
class RandClResult:
    """Outcome of one ``randCl`` invocation."""

    cluster_id: ClusterId
    start_cluster: ClusterId
    hops: int
    restarts: int
    messages: int
    rounds: int
    mode: WalkMode
    truncated: bool = False


def segment_duration(parameters, current_size: int, average_degree: float) -> float:
    """Continuous duration of one CTRW segment.

    The paper measures a segment by the number of clusters it visits
    (``O(log^2 n)`` hops); the continuous walk crosses edges at a rate equal
    to the current vertex degree, so the equivalent duration is the hop
    budget divided by the average overlay degree.
    """
    hop_budget = float(parameters.walk_length(current_size))
    return max(2.0, hop_budget / max(1.0, average_degree))


def hop_charges(cluster_count: int, total_nodes: int) -> tuple:
    """``(messages per hop, messages per restart)`` at the mean cluster size.

    Per hop: randNum in the current cluster plus the bipartite hand-off to
    the next one (``m * m'`` messages); per restart: one randNum for the
    acceptance coin flip.
    """
    average_size = total_nodes / cluster_count if cluster_count else 1.0
    randnum_messages, _ = randnum_cost(average_size)
    return (randnum_messages + average_size * average_size, randnum_messages)


def walk_cost(hops: int, restarts: int, charges: tuple) -> tuple:
    """``(messages, rounds)`` of one walk under :func:`hop_charges`.

    A hop takes 3 rounds (randNum's two plus the hand-off), a restart 2.
    """
    per_hop_messages, per_restart_messages = charges
    messages = int(round(hops * per_hop_messages + restarts * per_restart_messages))
    return messages, int(hops * 3 + restarts * 2)


class RandCl:
    """Size-biased random cluster selection over the OVER overlay."""

    def __init__(
        self,
        state: SystemState,
        randnum: Optional[RandNum] = None,
        walk_mode: WalkMode = WalkMode.ORACLE,
        walk_kernel: str = "array",
        rng: Optional[random.Random] = None,
    ) -> None:
        self._state = state
        # The stream the walks consume.  The engine's own selections run on
        # ``state.rng``; a caller outside ``apply_event`` passes a private
        # generator so recorded runs replay bit-identically — the engine
        # stream is part of the state fingerprint and must be consumed only
        # by ``apply_event``.
        self._rng = rng if rng is not None else state.rng
        self._randnum = randnum if randnum is not None else RandNum(self._rng)
        self._walk_mode = walk_mode
        # Validated input only: every simulated walk runs on the one hop engine.
        resolve_kernel_name(walk_kernel)
        if walk_mode is WalkMode.SIMULATED:
            # Load the hop engine (and numpy) while the engine is built, not
            # inside the first event's walk; the kernel object stays lazy.
            hop_engine()
        # One sampler is reused across selections (it owns the hop engine and
        # its private stream); rebuilt only when the overlay graph object
        # changes.
        self._sampler: Optional[ClusterSampler] = None
        # Derived-parameter caches.  Selections (joins, OVER's edge choices)
        # and exchange rounds mostly run while neither the population nor the
        # overlay changes, so the walk parameters and the per-hop cost model
        # are recomputed only when their inputs move.
        self._walk_param_key: Optional[tuple] = None
        self._walk_params: tuple = (0.0, 0)
        self._cost_key: Optional[tuple] = None
        self._cost_model: tuple = (0.0, 0.0)

    @property
    def walk_mode(self) -> WalkMode:
        """Whether walks are simulated hop by hop or sampled from the stationary law."""
        return self._walk_mode

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self,
        start_cluster: ClusterId,
        metrics: Optional[CommunicationMetrics] = None,
        label: str = "randcl",
    ) -> RandClResult:
        """Select a cluster with probability proportional to its size.

        The walk starts at ``start_cluster`` (the cluster initiating the
        selection).  Under oracle walks the endpoint is one draw
        ``randrange(n)`` over the overlay's weight units (the clustered
        population): the draw an exchange round makes for each of its
        members.  The result carries the walk's communication cost, which
        is also charged to ``metrics`` when one is given.
        """
        sampler = self._prepare_sampler(start_cluster)
        outcome = sampler.sample(start_cluster)
        return self.finalize(start_cluster, outcome, metrics=metrics, label=label)

    def oracle_walks(self, start_cluster: ClusterId) -> tuple:
        """An exchange pass's oracle walks: ``(getrandbits, layout, cost)``.

        The pass draws each partner as :meth:`select` draws, one
        ``randrange(n)`` over ``layout``'s weight units per member, with the
        walk stream's ``getrandbits``.  Every oracle walk of a pass has the
        same expected effort, so ``cost`` is ``(messages, rounds, hops)`` of
        one walk.
        """
        sampler = self._prepare_sampler(start_cluster)
        layout, _ = sampler.population()
        hops, restarts = sampler.oracle_effort()
        messages, rounds = walk_cost(hops, restarts, self.cost_model())
        return self._rng.getrandbits, layout, (messages, rounds, hops)

    def pass_walks(self, starts: Sequence[int]) -> tuple:
        """An exchange pass's simulated walks, one per start row: ``(rows, cost)``.

        The pass draws all its walks before its first swap (swaps keep
        cluster sizes, so the overlay is static for the pass), as one batch
        on the hop engine, in the rows of the overlay's CSR layout: ``starts``
        are rows, ``rows`` lists the rows the walks end on, and ``cost`` is
        ``(messages, rounds, hops)`` summed over the walks, each priced by
        :func:`walk_cost`.
        """
        charges = self.cost_model()
        rows, messages, rounds, hops = [], 0, 0, 0
        for row, walk_hops, restarts, _, _ in self._prepare_sampler().walk_batch(starts):
            walk_messages, walk_rounds = walk_cost(walk_hops, restarts, charges)
            rows.append(row)
            messages += walk_messages
            rounds += walk_rounds
            hops += walk_hops
        return rows, (messages, rounds, hops)

    def finalize(
        self,
        start_cluster: ClusterId,
        outcome: SampleOutcome,
        metrics: Optional[CommunicationMetrics] = None,
        label: str = "randcl",
    ) -> RandClResult:
        """Package one walk outcome with its cost, charged to ``metrics`` when given."""
        messages, rounds = walk_cost(outcome.hops, outcome.restarts, self.cost_model())
        if metrics is not None:
            metrics.charge(messages, rounds, kind=MessageKind.WALK, label=label)
        return RandClResult(
            cluster_id=outcome.cluster,
            start_cluster=start_cluster,
            hops=outcome.hops,
            restarts=outcome.restarts,
            messages=messages,
            rounds=rounds,
            mode=outcome.mode,
            truncated=outcome.truncated,
        )

    def _prepare_sampler(self, start_cluster: Optional[ClusterId] = None) -> ClusterSampler:
        """Validate the start vertex, if given, and (re)configure the shared sampler."""
        overlay_graph = self._state.overlay.graph
        if start_cluster is not None and start_cluster not in overlay_graph:
            raise WalkError(f"cluster {start_cluster} is not an overlay vertex")
        # Overlay weights are kept in sync incrementally by the membership
        # listener in SystemState, so no full resynchronisation is needed here.

        current_size = max(2, self._state.network_size)
        param_key = (current_size, overlay_graph.version)
        if param_key != self._walk_param_key:
            parameters = self._state.parameters
            self._walk_params = (
                segment_duration(parameters, current_size, overlay_graph.average_degree()),
                max(4, parameters.walk_repeats(current_size) * 4),
            )
            self._walk_param_key = param_key
        duration, max_restarts = self._walk_params
        sampler = self._sampler
        if sampler is None or sampler.graph is not overlay_graph:
            sampler = ClusterSampler(
                overlay_graph,
                self._rng,
                segment_duration=duration,
                mode=self._walk_mode,
                max_restarts=max_restarts,
            )
            self._sampler = sampler
        else:
            sampler.configure(segment_duration=duration, max_restarts=max_restarts)
        return sampler

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of RNG-derived walk state outside the generator.

        The derived-parameter caches are *not* serialised: they are keyed on
        the overlay version (which the graph snapshot preserves) and rebuild
        to identical values.  What matters is the hop engine's private
        stream and pre-drawn buffers (``None`` until a walk has run).
        """
        sampler = self._sampler
        return {"kernel": sampler.snapshot_walk_state() if sampler is not None else None}

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot_state`."""
        kernel_state = data.get("kernel")
        if kernel_state is None:
            return
        overlay_graph = self._state.overlay.graph
        if self._sampler is None or self._sampler.graph is not overlay_graph:
            self._sampler = ClusterSampler(
                overlay_graph,
                self._rng,
                segment_duration=2.0,  # placeholder; select() reconfigures per call
                mode=self._walk_mode,
                max_restarts=4,
            )
        self._sampler.restore_walk_state(kernel_state)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def cost_model(self) -> tuple:
        """:func:`hop_charges` at the current population, cached on its inputs."""
        cluster_count = len(self._state.clusters)
        total_nodes = self._state.clusters.total_nodes()
        cost_key = (cluster_count, total_nodes)
        if cost_key != self._cost_key:
            self._cost_model = hop_charges(cluster_count, total_nodes)
            self._cost_key = cost_key
        return self._cost_model
