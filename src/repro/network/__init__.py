"""Network model: node identities, the knowledge graph and cost ledgers.

* :mod:`repro.network.node` — node identities, roles and liveness states,
* :mod:`repro.network.message` — message kinds for cost accounting,
* :mod:`repro.network.topology` — the knowledge graph (who knows whom),
* :mod:`repro.network.metrics` — message/round accounting.

The two protocols executed message by message — Phase King
(:mod:`repro.agreement.phase_king`) and flooding discovery
(:mod:`repro.agreement.broadcast`) — are plain synchronous round loops that
count their own sends and rounds.  Everything else (the NOW
maintenance phase at cluster granularity, the scalable agreement model,
large-n discovery) charges its traffic to the same ledgers from cost
formulas.
"""

from .message import MessageKind
from .metrics import CommunicationMetrics, MetricsRegistry
from .node import NodeId, NodeRole, NodeState
from .topology import KnowledgeGraph

__all__ = [
    "MessageKind",
    "CommunicationMetrics",
    "MetricsRegistry",
    "NodeId",
    "NodeRole",
    "NodeState",
    "KnowledgeGraph",
]
