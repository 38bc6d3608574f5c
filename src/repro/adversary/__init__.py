"""Adversary models.

The paper's adversary is *static* and *Byzantine*: before the protocol starts
it corrupts a fraction ``tau <= 1/3 - eps`` of the nodes, it has full
knowledge of the network at all times (it knows every node's cluster), and it
drives churn — join–leave attacks with its own nodes, or forcing honest nodes
out (e.g. through DoS).  It cannot corrupt additional nodes later (it may
corrupt joining nodes at the moment they join), cannot forge identities and
cannot tamper with channels.

:mod:`repro.adversary.base` is the interface (an event source reading its
driver's full view of the system, on either driver);
:mod:`repro.adversary.strategies` holds the join–leave attack, the targeted
departure (DoS) attack, oblivious churn by corrupted nodes, and an
adaptive-corruption adversary the protocol is *not* designed to resist.
"""

from .base import Adversary, AdversaryContext
from .strategies import (
    AdaptiveCorruptionAdversary,
    JoinLeaveAttack,
    ObliviousChurnAdversary,
    TargetedDosAdversary,
)

__all__ = [
    "Adversary",
    "AdversaryContext",
    "JoinLeaveAttack",
    "TargetedDosAdversary",
    "ObliviousChurnAdversary",
    "AdaptiveCorruptionAdversary",
]
