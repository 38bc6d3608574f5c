"""NOW's initialization phase (Section 3.2, Figure 1).

The protocol starts while the network is still "small" (``n_t0`` between
``sqrt(N)`` and ``N``) and proceeds in two sub-phases:

1. **Network discovery** — every honest node learns the identifiers of all
   nodes.  The paper's algorithm terminates within the diameter of the graph
   restricted to edges adjacent to at least one honest node, with
   communication cost ``O(n * e)``.  We run it as an actual flooding
   broadcast on the knowledge graph (``discovery_mode="message"``); for large
   populations, where simulating ``n * e`` individual messages is pointless,
   the measured cost is charged from the graph's size instead
   (``discovery_mode="model"``), which preserves the ``O(N^{3/2} log N)``
   overall figure of Figure 1 (see design note 2 in docs/ARCHITECTURE.md).
2. **Clusterization** — a Byzantine agreement (King et al. [19], modelled by
   :class:`~repro.agreement.scalable.ScalableAgreementModel`, or the executed
   Phase-King for small Byzantine fractions) elects a representative cluster,
   which orders the nodes at random, cuts the ordering into clusters of size
   ``k log N``, draws the Erdős–Rényi overlay with
   ``p = log^(1+alpha) N / sqrt N``, and tells every node its cluster and
   neighbourhood.

The result is a fully populated :class:`~repro.core.state.SystemState` (and
an :class:`InitializationReport` with the measured costs) on which the
maintenance phase operates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..agreement.committee import CommitteeElection
from ..agreement.interface import AgreementProtocol
from ..agreement.broadcast import flood_broadcast
from ..agreement.scalable import ScalableAgreementModel
from ..errors import ConfigurationError
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..network.node import NodeId, NodeRole
from ..network.topology import KnowledgeGraph
from ..params import ProtocolParameters
from ..rng import derive_rng
from .state import NodeRegistry, SystemState


@dataclass
class InitializationReport:
    """Measured outcome of the initialization phase."""

    initial_size: int
    byzantine_count: int
    cluster_count: int
    committee: List[NodeId] = field(default_factory=list)
    committee_honest_fraction: float = 0.0
    discovery_messages: int = 0
    discovery_rounds: int = 0
    agreement_messages: int = 0
    agreement_rounds: int = 0
    clusterization_messages: int = 0
    clusterization_rounds: int = 0
    discovery_mode: str = "message"

    @property
    def total_messages(self) -> int:
        """Total initialization communication cost."""
        return (
            self.discovery_messages + self.agreement_messages + self.clusterization_messages
        )

    @property
    def total_rounds(self) -> int:
        """Total initialization round count."""
        return self.discovery_rounds + self.agreement_rounds + self.clusterization_rounds


class NowInitializer:
    """Builds the initial clustered system state."""

    def __init__(
        self,
        parameters: ProtocolParameters,
        rng: random.Random,
        agreement: Optional[AgreementProtocol] = None,
        discovery_mode: str = "model",
        message_discovery_limit: int = 350,
    ) -> None:
        if discovery_mode not in ("message", "model", "auto"):
            raise ConfigurationError("discovery_mode must be 'message', 'model' or 'auto'")
        self._parameters = parameters
        self._rng = rng
        self._agreement = (
            agreement
            if agreement is not None
            else ScalableAgreementModel(derive_rng(rng, "agreement"))
        )
        self._discovery_mode = discovery_mode
        self._message_discovery_limit = message_discovery_limit

    # ------------------------------------------------------------------
    # Population helpers
    # ------------------------------------------------------------------
    def create_population(
        self, initial_size: int, byzantine_fraction: Optional[float] = None
    ) -> NodeRegistry:
        """Register ``initial_size`` nodes, a ``byzantine_fraction`` of them corrupted.

        The adversary corrupts its nodes at the very beginning (static
        adversary); which identities it picks is irrelevant to the later
        random partition, so they are chosen uniformly here.
        """
        fraction = byzantine_fraction if byzantine_fraction is not None else self._parameters.tau
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError("byzantine fraction must lie in [0, 1)")
        registry = NodeRegistry()
        byzantine_count = int(round(fraction * initial_size))
        corrupted = set(self._rng.sample(range(initial_size), byzantine_count))
        for index in range(initial_size):
            role = NodeRole.BYZANTINE if index in corrupted else NodeRole.HONEST
            registry.register(role=role)
        return registry

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def build(
        self,
        registry: Optional[NodeRegistry] = None,
        initial_size: Optional[int] = None,
        byzantine_fraction: Optional[float] = None,
    ) -> Tuple[SystemState, InitializationReport]:
        """Run discovery + clusterization and return the initial system state."""
        if registry is None:
            if initial_size is None:
                initial_size = self._parameters.lower_size_bound
            registry = self.create_population(initial_size, byzantine_fraction)
        node_ids = registry.active_nodes()
        if len(node_ids) < 2 * self._parameters.target_cluster_size:
            raise ConfigurationError(
                "initial population is too small to form at least two clusters "
                f"(need >= {2 * self._parameters.target_cluster_size} nodes, "
                f"got {len(node_ids)})"
            )
        byzantine = registry.active_byzantine()

        state = SystemState(parameters=self._parameters, rng=self._rng, nodes=registry)
        init_metrics = state.metrics.scope("initialization")

        # ------------------------------------------------------------------
        # Phase 1: network discovery.
        # ------------------------------------------------------------------
        knowledge = self._build_bootstrap_graph(node_ids, byzantine)
        discovery_messages, discovery_rounds, mode_used = self._run_discovery(
            knowledge, registry, node_ids, init_metrics
        )

        # ------------------------------------------------------------------
        # Phase 2: representative cluster election + clusterization.
        # ------------------------------------------------------------------
        election = CommitteeElection(self._agreement, derive_rng(self._rng, "election"))
        committee_size = CommitteeElection.recommended_committee_size(
            len(node_ids), self._parameters.k, self._parameters.log_base_value
        )
        result = election.elect(node_ids, byzantine, committee_size)
        init_metrics.charge_messages(
            result.outcome.messages, kind=MessageKind.AGREEMENT, label="clusterization"
        )
        init_metrics.charge_rounds(result.outcome.rounds, label="clusterization")

        clusters = self._partition_nodes(state, result.ordering)
        clusterization_messages, clusterization_rounds = self._build_overlay_and_notify(
            state, clusters, init_metrics
        )

        report = InitializationReport(
            initial_size=len(node_ids),
            byzantine_count=len(byzantine),
            cluster_count=len(state.clusters),
            committee=result.committee,
            committee_honest_fraction=result.honest_fraction,
            discovery_messages=discovery_messages,
            discovery_rounds=discovery_rounds,
            agreement_messages=result.outcome.messages,
            agreement_rounds=result.outcome.rounds,
            clusterization_messages=clusterization_messages,
            clusterization_rounds=clusterization_rounds,
            discovery_mode=mode_used,
        )
        return state, report

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _build_bootstrap_graph(
        self, node_ids: Sequence[NodeId], byzantine: Set[NodeId]
    ) -> KnowledgeGraph:
        """Random sparse bootstrap graph satisfying the paper's initial assumptions.

        Honest nodes form a connected component and every Byzantine node is
        adjacent to at least one honest node.
        """
        knowledge = KnowledgeGraph()
        honest = [node_id for node_id in node_ids if node_id not in byzantine]
        corrupt = [node_id for node_id in node_ids if node_id in byzantine]
        for node_id in node_ids:
            knowledge.add_node(node_id)
        # Connect the honest nodes with a random cycle plus chords (connected, low degree).
        if honest:
            ring = list(honest)
            self._rng.shuffle(ring)
            for index, node_id in enumerate(ring):
                knowledge.connect(node_id, ring[(index + 1) % len(ring)])
            extra_edges = max(1, len(ring) // 2)
            for _ in range(extra_edges):
                first, second = self._rng.sample(ring, 2) if len(ring) >= 2 else (ring[0], ring[0])
                knowledge.connect(first, second)
        # Every Byzantine node is adjacent to at least one honest node.
        for node_id in corrupt:
            if honest:
                knowledge.connect(node_id, self._rng.choice(honest))

        return knowledge

    def _run_discovery(
        self,
        knowledge: KnowledgeGraph,
        registry: NodeRegistry,
        node_ids: Sequence[NodeId],
        metrics: CommunicationMetrics,
    ) -> Tuple[int, int, str]:
        """Run (or model) the flooding discovery; returns (messages, rounds, mode)."""
        mode = self._discovery_mode
        if mode == "auto":
            mode = "message" if len(node_ids) <= self._message_discovery_limit else "model"
        if mode == "message":
            descriptors = {node_id: registry.get(node_id) for node_id in node_ids}
            initial = {node_id: {node_id} for node_id in node_ids}
            _, ledger = flood_broadcast(knowledge, descriptors, initial)
            metrics.merge(ledger)
            return ledger.messages, ledger.rounds, "message"
        # Cost model: the paper's O(n * e) messages over the honest-adjacent diameter rounds.
        n = len(node_ids)
        e = knowledge.edge_count()
        messages = n * e
        honest = set(registry.active_nodes()) - registry.active_byzantine()
        rounds = max(1, knowledge.honest_adjacent_diameter(honest)) if n <= 600 else max(
            1, int(round(2 * max(1.0, self._parameters.log_n)))
        )
        metrics.charge_messages(messages, kind=MessageKind.DISCOVERY, label="discovery")
        metrics.charge_rounds(rounds, label="discovery")
        return messages, rounds, "model"

    # ------------------------------------------------------------------
    # Clusterization
    # ------------------------------------------------------------------
    def _partition_nodes(self, state: SystemState, ordering: Sequence[NodeId]) -> List[int]:
        """Cut the agreed random ordering into clusters of ``k log N`` nodes."""
        target = self._parameters.target_cluster_size
        cluster_count = max(1, len(ordering) // target)
        chunks: List[List[NodeId]] = [[] for _ in range(cluster_count)]
        for index, node_id in enumerate(ordering):
            chunks[index % cluster_count].append(node_id)
        cluster_ids: List[int] = []
        for chunk in chunks:
            cluster = state.clusters.create_cluster(chunk, created_at=state.time_step)
            cluster_ids.append(cluster.cluster_id)
        return cluster_ids

    def _build_overlay_and_notify(
        self, state: SystemState, cluster_ids: Sequence[int], metrics: CommunicationMetrics
    ) -> Tuple[int, int]:
        """Draw the initial overlay and charge the representative cluster's notifications."""
        weights = [float(len(state.clusters.get(cluster_id))) for cluster_id in cluster_ids]
        change = state.overlay.bootstrap(cluster_ids, weights)

        # The representative cluster informs every node of its cluster, the
        # cluster's membership and the adjacent clusters' membership: one
        # message per (node, learned identifier) pair, aggregated per node.
        committee_size = CommitteeElection.recommended_committee_size(
            state.network_size, self._parameters.k, self._parameters.log_base_value
        )
        notification_messages = committee_size * state.network_size
        edge_messages = 0
        for first, second in state.overlay.graph.edges():
            edge_messages += len(state.clusters.get(first)) * len(state.clusters.get(second))
        total_messages = notification_messages + edge_messages
        rounds = 2
        metrics.charge_messages(total_messages, kind=MessageKind.MEMBERSHIP, label="clusterization")
        metrics.charge_rounds(rounds, label="clusterization")
        return total_messages, rounds
