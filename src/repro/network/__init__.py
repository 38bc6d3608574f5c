"""Synchronous round-based network simulation substrate.

This package provides the message-level machinery the paper's model assumes:

* :mod:`repro.network.node` — node identities and process behaviours,
* :mod:`repro.network.message` — typed messages exchanged over private channels,
* :mod:`repro.network.channels` — reliable private point-to-point channels,
* :mod:`repro.network.topology` — the knowledge graph (who knows whom),
* :mod:`repro.network.metrics` — message/round accounting,
* :mod:`repro.network.simulator` — the synchronous round scheduler.

The NOW maintenance phase runs at cluster granularity (see
``repro.core``), but the agreement substrate, the initialization phase and
the application-level protocols execute on this simulator message by
message.
"""

from .message import Message, MessageKind
from .metrics import CommunicationMetrics, MetricsRegistry
from .node import NodeId, NodeProcess, NodeRole, NodeState
from .channels import ChannelSet
from .topology import KnowledgeGraph
from .simulator import RoundSimulator

__all__ = [
    "Message",
    "MessageKind",
    "CommunicationMetrics",
    "MetricsRegistry",
    "NodeId",
    "NodeProcess",
    "NodeRole",
    "NodeState",
    "ChannelSet",
    "KnowledgeGraph",
    "RoundSimulator",
]
