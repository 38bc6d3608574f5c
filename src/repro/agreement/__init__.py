"""Byzantine agreement substrate used by NOW's initialization phase.

After the discovery algorithm has given every honest node the identifiers of
all nodes, the paper runs an off-the-shelf Byzantine agreement protocol
(it cites King et al. [19], complexity ``O~(n sqrt n)``, tolerating a static
adversary below ``1/3 - eps``) to elect a *representative cluster* which then
partitions the network.  This package provides:

* :mod:`repro.agreement.interface`   — the protocol-agnostic agreement API,
* :mod:`repro.agreement.broadcast`   — flooding discovery over the knowledge
  graph, executed round by round with every message counted,
* :mod:`repro.agreement.phase_king`  — Phase-King consensus, executed round by
  round with every message counted (synchronous, tolerates ``f < n/4``),
* :mod:`repro.agreement.scalable`    — a calibrated model of the scalable
  agreement of [19] (tolerates ``f < n/3``), used when the Byzantine fraction
  exceeds Phase-King's threshold; see the design notes in docs/ARCHITECTURE.md for the substitution,
* :mod:`repro.agreement.committee`   — representative-cluster election built
  on either protocol.

Phase King and the flood are the only executed protocols in the library;
each is a plain loop over dicts, not a process/channel framework.
"""

from .interface import AgreementOutcome, AgreementProtocol
from .broadcast import flood_broadcast
from .phase_king import PhaseKingConsensus
from .scalable import ScalableAgreementModel
from .committee import CommitteeElection, CommitteeResult

__all__ = [
    "AgreementOutcome",
    "AgreementProtocol",
    "flood_broadcast",
    "PhaseKingConsensus",
    "ScalableAgreementModel",
    "CommitteeElection",
    "CommitteeResult",
]
