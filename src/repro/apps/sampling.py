"""Uniform node sampling with ``polylog(n)`` messages per sample.

The conclusion claims a sampling algorithm built on NOW costs ``polylog(n)``
messages per sample.  The construction is direct: ``randCl`` picks a cluster
with probability proportional to its size (a biased CTRW over the overlay,
``O(log^5 N)`` messages), then ``randNum`` inside that cluster picks one of
its members uniformly (``O(log^2 N)`` messages).  The two-stage composition
is exactly the uniform distribution over nodes.

The report records the ground-truth role of the sampled node so experiments
can check both uniformity (against the active-node set) and the fraction of
Byzantine samples (which should concentrate around ``tau``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.engine import NowEngine
from ..core.randcl import RandCl
from ..core.randnum import RandNum
from ..network.metrics import CommunicationMetrics
from ..network.node import NodeId


@dataclass
class SampleReport:
    """One uniform node sample and its cost."""

    node_id: NodeId
    cluster_id: int
    is_byzantine: bool
    messages: int
    rounds: int
    walk_hops: int


class SamplingService:
    """Uniform sampling of nodes through the clustering."""

    def __init__(
        self,
        engine: NowEngine,
        metrics: Optional[CommunicationMetrics] = None,
    ) -> None:
        self._engine = engine
        self._metrics = (
            metrics if metrics is not None else engine.metrics.scope("app-sampling")
        )
        # Every draw (walk, member pick, origin pick) consumes the engine
        # stream, like the protocol's own selections.
        self._randnum = RandNum(engine.state.rng)
        self._randcl = RandCl(engine.state, self._randnum, walk_mode=engine.config.walk_mode)

    def sample(self, origin_cluster: Optional[int] = None) -> SampleReport:
        """Draw one (approximately) uniform node and report the cost."""
        state = self._engine.state
        if origin_cluster is None:
            origin_cluster = self._engine.random_cluster()
        walk = self._randcl.select(origin_cluster, metrics=self._metrics, label="sampling")
        cluster = state.clusters.get(walk.cluster_id)
        pick = self._randnum.pick_member(
            cluster.members,
            byzantine_members=state.nodes.active_byzantine(),
            metrics=self._metrics,
            label="sampling",
        )
        node_id = pick.value
        return SampleReport(
            node_id=node_id,
            cluster_id=walk.cluster_id,
            is_byzantine=state.nodes.is_byzantine(node_id),
            messages=walk.messages + pick.messages,
            rounds=walk.rounds + pick.rounds,
            walk_hops=walk.hops,
        )

    def sample_many(self, count: int) -> List[SampleReport]:
        """Draw ``count`` independent samples."""
        return [self.sample() for _ in range(count)]

    # ------------------------------------------------------------------
    # Statistics helpers used by tests and experiments
    # ------------------------------------------------------------------
    @staticmethod
    def empirical_node_distribution(samples: List[SampleReport]) -> Dict[NodeId, float]:
        """Empirical distribution of the sampled node identifiers."""
        if not samples:
            return {}
        counts = Counter(report.node_id for report in samples)
        total = len(samples)
        return {node_id: count / total for node_id, count in counts.items()}

    @staticmethod
    def byzantine_sample_fraction(samples: List[SampleReport]) -> float:
        """Fraction of samples that landed on adversary-controlled nodes."""
        if not samples:
            return 0.0
        return sum(1 for report in samples if report.is_byzantine) / len(samples)

    @staticmethod
    def average_cost(samples: List[SampleReport]) -> float:
        """Mean number of messages per sample."""
        if not samples:
            return 0.0
        return sum(report.messages for report in samples) / len(samples)
