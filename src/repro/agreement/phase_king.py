"""Phase-King Byzantine consensus, executed message by message.

Phase King (Berman, Garay, Perry) is a classic synchronous consensus protocol
with ``f + 1`` phases of two rounds each and ``O(f * n^2)`` messages of
constant size.  Its guarantees hold when ``n > 4f`` (Byzantine fraction below
one quarter); above that, and up to the paper's ``1/3 - eps``, the
initialization phase falls back to the calibrated model of King et al. [19]
in :mod:`repro.agreement.scalable` (see the design notes in docs/ARCHITECTURE.md).

The protocol, per phase ``k`` with designated king ``king_k``:

* **Round 1** — every node sends its current value to every node; each node
  computes the majority value among the values it received (its own included)
  and that value's multiplicity.
* **Round 2** — the king sends its majority value to every node.  Every node
  keeps its own majority value if its multiplicity exceeded ``n/2 + f``;
  otherwise it adopts the king's value.

After ``f + 1`` phases at least one phase had an honest king, after which all
honest nodes hold the same value and the decision rule never changes it.

Byzantine behaviour is supplied as a *strategy* callable so attack
experiments can plug in equivocation or silence; the default strategy
equivocates, the classical worst case for majority-based protocols.  The
participants form a clique, so the protocol is a plain loop over them: every
value a node sends is delivered to its receiver's inbox for the next round
and counted, so the counts reported in the outcome are measured, not
estimated.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..network.node import NodeId
from .interface import (
    AgreementOutcome,
    AgreementProtocol,
    check_agreement,
    check_validity,
)

# A Byzantine strategy maps (byzantine_id, receiver_id, phase, round_index) to
# the value to send, or None to stay silent for that receiver.
ByzantineStrategy = Callable[[NodeId, NodeId, int, int], Optional[Any]]


def equivocating_strategy(rng: random.Random) -> ByzantineStrategy:
    """Classic equivocation: different binary values to different receivers, some silence."""

    def strategy(sender: NodeId, receiver: NodeId, phase: int, round_index: int) -> Optional[Any]:
        if rng.random() < 0.1:
            return None
        return (receiver + phase) % 2

    return strategy


def silent_strategy() -> ByzantineStrategy:
    """Byzantine nodes that never send anything (crash-like behaviour)."""

    def strategy(sender: NodeId, receiver: NodeId, phase: int, round_index: int) -> Optional[Any]:
        return None

    return strategy


class PhaseKingConsensus(AgreementProtocol):
    """Runs Phase King among a given participant set, counting every message."""

    def __init__(
        self,
        rng: random.Random,
        byzantine_strategy: Optional[ByzantineStrategy] = None,
    ) -> None:
        self._rng = rng
        self._byzantine_strategy = (
            byzantine_strategy if byzantine_strategy is not None else equivocating_strategy(rng)
        )

    def tolerated_fraction(self) -> float:
        """Phase King requires ``n > 4f``."""
        return 0.25

    def decide(
        self,
        inputs: Mapping[NodeId, Any],
        byzantine: Set[NodeId],
    ) -> AgreementOutcome:
        participants = sorted(inputs)
        if not participants:
            return AgreementOutcome(agreement=True, validity=True)
        fault_bound = len(byzantine)
        threshold = len(participants) / 2.0 + fault_bound
        honest = [node_id for node_id in participants if node_id not in byzantine]
        value = {node_id: inputs[node_id] for node_id in participants}
        majority: Dict[NodeId, Tuple[Any, int]] = {}
        messages = rounds = 0

        for phase in range(1, fault_bound + 2):
            king = participants[(phase - 1) % len(participants)]
            # Round 1: all-to-all value exchange.  An inbox keeps sender
            # order, which decides ties in the majority tally below.
            rounds += 1
            inbox: Dict[NodeId, List[Any]] = {node_id: [] for node_id in participants}
            for sender in participants:
                for receiver, sent in self._sends(
                    sender, participants, byzantine, phase, 1, value[sender]
                ):
                    inbox[receiver].append(sent)
                    messages += 1
            for node_id in honest:
                tally = Counter(inbox[node_id] + [value[node_id]])
                majority[node_id] = tally.most_common(1)[0]

            # Round 2: the king broadcasts its majority value.
            rounds += 1
            king_payload = majority[king][0] if king in majority else None
            if king_payload is None:
                king_payload = value[king]
            king_value: Dict[NodeId, Any] = {}
            for receiver, sent in self._sends(
                king, participants, byzantine, phase, 2, king_payload
            ):
                king_value[receiver] = sent
                messages += 1

            # Keep a strong own majority, else follow the king if it spoke.
            for node_id in honest:
                majority_value, count = majority[node_id]
                heard = king_value.get(node_id)
                if count <= threshold and heard is not None:
                    value[node_id] = heard
                elif majority_value is not None:
                    value[node_id] = majority_value

        decisions = {node_id: value[node_id] for node_id in honest}
        honest_inputs = {
            node_id: proposed for node_id, proposed in inputs.items() if node_id not in byzantine
        }
        agreement = check_agreement(decisions)
        validity = check_validity(decisions, honest_inputs)
        decided_value = next(iter(decisions.values()), None) if agreement else None
        return AgreementOutcome(
            decisions=decisions,
            decided_value=decided_value,
            agreement=agreement,
            validity=validity,
            messages=messages,
            rounds=rounds,
        )

    def _sends(
        self,
        sender: NodeId,
        participants: Sequence[NodeId],
        byzantine: Set[NodeId],
        phase: int,
        round_index: int,
        honest_value: Any,
    ) -> Iterator[Tuple[NodeId, Any]]:
        """Yield ``(receiver, value)`` for every message ``sender`` sends this round.

        An honest sender sends ``honest_value`` to every other participant; a
        Byzantine one sends whatever the strategy returns, skipping receivers
        it stays silent towards.
        """
        for receiver in participants:
            if receiver == sender:
                continue
            if sender in byzantine:
                sent = self._byzantine_strategy(sender, receiver, phase, round_index)
                if sent is None:
                    continue
            else:
                sent = honest_value
            yield receiver, sent
