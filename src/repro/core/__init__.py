"""NOW (Neighbors On Watch): the paper's primary contribution.

NOW maintains, under polynomially varying network size and a static Byzantine
adversary controlling up to a ``1/3 - eps`` fraction of the nodes:

* a partition of the nodes into clusters of size ``Theta(log N)``, each
  containing more than two thirds of honest nodes with high probability, and
* an expander overlay over those clusters (delegated to OVER,
  :mod:`repro.overlay`), which supplies the random walks used to shuffle
  nodes between clusters.

Public entry points:

* :class:`repro.core.engine.NowEngine` — the maintained system: feed it join
  and leave events, query cluster composition, corruption fractions,
  communication metrics and invariants.
* :class:`repro.core.initialization.NowInitializer` — builds an initial
  engine from a node population (discovery + clusterization, Section 3.2).
* The primitives (``randNum``, ``randCl``, ``exchange``) and maintenance
  operations (Join/Leave/Split/Merge) are exposed individually for tests
  and ablations; :mod:`repro.core.placement` holds the placement rules the
  engine selects (NOW's and the three comparison schemes').
"""

from .cluster import Cluster, ClusterRegistry
from .events import ChurnEvent, ChurnKind
from .state import CorruptionTracker, NodeRegistry, SystemState
from .randnum import RandNum, RandNumResult
from .randcl import RandCl, RandClResult
from .exchange import ExchangeProtocol, ExchangeReport
from .operations import (
    JoinOperation,
    LeaveOperation,
    MergeOperation,
    OperationReport,
    SplitOperation,
)
from .engine import EngineConfig, MaintenanceReport, NowEngine
from .initialization import InitializationReport, NowInitializer
from .invariants import InvariantReport, check_invariants
from .intercluster import ClusterMessageRule, InterClusterChannel

__all__ = [
    "Cluster",
    "ClusterRegistry",
    "ChurnEvent",
    "ChurnKind",
    "CorruptionTracker",
    "NodeRegistry",
    "SystemState",
    "RandNum",
    "RandNumResult",
    "RandCl",
    "RandClResult",
    "ExchangeProtocol",
    "ExchangeReport",
    "JoinOperation",
    "LeaveOperation",
    "SplitOperation",
    "MergeOperation",
    "OperationReport",
    "NowEngine",
    "EngineConfig",
    "MaintenanceReport",
    "NowInitializer",
    "InitializationReport",
    "InvariantReport",
    "check_invariants",
    "ClusterMessageRule",
    "InterClusterChannel",
]
