"""Protocol-agnostic agreement interface.

Every agreement implementation (the executed Phase-King and the calibrated
scalable-agreement model) exposes the same ``decide`` entry point: given the
per-node input values and the set of Byzantine nodes, return an
:class:`AgreementOutcome` describing the decided value, whether agreement and
validity hold among honest nodes, and the communication cost incurred.  The
initialization phase and the unclustered baseline program against this
interface so the underlying protocol can be swapped.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Set

from ..network.node import NodeId


@dataclass
class AgreementOutcome:
    """Result of one agreement instance.

    Attributes
    ----------
    decisions:
        Decided value per honest node (Byzantine nodes have no meaningful
        decision and are omitted).
    decided_value:
        The common value when agreement holds, else ``None``.
    agreement:
        ``True`` when every honest node decided the same value.
    validity:
        ``True`` when the decided value was the input of some honest node
        (the standard validity condition for multivalued agreement).
    messages:
        Total messages exchanged by the protocol instance.
    rounds:
        Total communication rounds used.
    """

    decisions: Dict[NodeId, Any] = field(default_factory=dict)
    decided_value: Optional[Any] = None
    agreement: bool = False
    validity: bool = False
    messages: int = 0
    rounds: int = 0

    @property
    def succeeded(self) -> bool:
        """Agreement and validity both hold."""
        return self.agreement and self.validity


class AgreementProtocol(abc.ABC):
    """Common interface of every agreement implementation."""

    @abc.abstractmethod
    def decide(
        self,
        inputs: Mapping[NodeId, Any],
        byzantine: Set[NodeId],
    ) -> AgreementOutcome:
        """Run one agreement instance.

        ``inputs`` maps every participating node (honest and Byzantine) to its
        proposed value; ``byzantine`` identifies the adversary-controlled
        subset.  Implementations must return the honest nodes' decisions and
        the incurred communication cost.
        """

    @abc.abstractmethod
    def tolerated_fraction(self) -> float:
        """The largest Byzantine fraction for which the protocol's guarantees hold."""

    def supports(self, participant_count: int, byzantine_count: int) -> bool:
        """Whether the protocol's resilience covers the given corruption level."""
        if participant_count <= 0:
            return False
        return byzantine_count / participant_count < self.tolerated_fraction()


def check_agreement(decisions: Mapping[NodeId, Any]) -> bool:
    """Whether all decisions in the mapping are equal (vacuously true if empty)."""
    values = list(decisions.values())
    if not values:
        return True
    first = values[0]
    return all(value == first for value in values[1:])


def check_validity(
    decisions: Mapping[NodeId, Any], honest_inputs: Mapping[NodeId, Any]
) -> bool:
    """Whether the (common) decision equals some honest node's input."""
    if not decisions:
        return True
    values = set()
    for value in decisions.values():
        values.add(value)
    honest_values = set(honest_inputs.values())
    return all(value in honest_values for value in values)
