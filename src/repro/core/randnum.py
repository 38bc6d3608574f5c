"""``randNum``: distributed random number generation inside a cluster.

The paper assumes a protocol letting the nodes of a cluster agree on an
integer chosen uniformly at random from ``(0, r)``, secure as long as fewer
than two thirds of the cluster's members are Byzantine (details in the long
version).  The standard construction in this model is a commit–reveal sum:
every member commits to a private contribution, reveals it, and the output is
the sum of the revealed contributions modulo ``r`` — an adversary below the
security threshold can neither predict nor bias the result because at least
one honest contribution is uniform and independent of its own.

The implementation performs that computation at cluster granularity and
charges the measured message pattern: two all-to-all rounds among the
members, i.e. ``2 * m * (m - 1)`` messages and 2 communication rounds for a
cluster of ``m`` members (``O(log^2 N)`` messages, matching Section 3.1's
accounting of "a random integer ... generated at a cost of O(log^2 N)").

When the Byzantine members reach the two-thirds security threshold the
adversary controls the output; an ``adversary_override`` hook lets attack
experiments model exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from ..errors import ProtocolViolationError
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..network.node import NodeId

# Hook signature: (members, upper_bound) -> chosen value, used only when the
# adversary controls at least two thirds of the cluster.
AdversaryOverride = Callable[[Sequence[NodeId], int], int]

RANDNUM_SECURITY_THRESHOLD = 2.0 / 3.0


@dataclass(slots=True)
class RandNumResult:
    """Outcome of one ``randNum`` invocation."""

    value: int
    upper_bound: int
    participants: int
    messages: int
    rounds: int
    adversary_controlled: bool = False


def randnum_cost(participants) -> tuple:
    """``(messages, rounds)`` of one randNum among ``participants`` members.

    Commit round + reveal round, each member sending to every other member.
    """
    return 2 * participants * max(0, participants - 1), 2


class RandNum:
    """Commit–reveal random number generation for a cluster."""

    def __init__(
        self,
        rng: random.Random,
        adversary_override: Optional[AdversaryOverride] = None,
    ) -> None:
        self._rng = rng
        self._adversary_override = adversary_override

    def generate(
        self,
        members: Iterable[NodeId],
        upper_bound: int,
        byzantine_members: Iterable[NodeId],
        metrics: Optional[CommunicationMetrics] = None,
        label: str = "randnum",
    ) -> RandNumResult:
        """Agree on a uniform integer in ``[0, upper_bound)`` among ``members``.

        ``byzantine_members`` is the (ground-truth) adversary-controlled
        subset; it determines whether the security threshold is crossed but is
        never used to bias the honest output.
        """
        return self._generate_sorted(
            sorted(set(members)), upper_bound, byzantine_members, metrics, label
        )

    def _generate_sorted(
        self,
        member_list: Sequence[NodeId],
        upper_bound: int,
        byzantine_members: Iterable[NodeId],
        metrics: Optional[CommunicationMetrics],
        label: str,
    ) -> RandNumResult:
        """The commit–reveal computation on an already deduplicated, sorted list."""
        if not member_list:
            raise ProtocolViolationError("randNum requires at least one participant")
        if upper_bound < 1:
            raise ProtocolViolationError("randNum upper bound must be at least 1")
        if not isinstance(byzantine_members, (set, frozenset)):
            byzantine_members = set(byzantine_members)
        byzantine_fraction = len(byzantine_members.intersection(member_list)) / len(member_list)

        message_count, round_count = randnum_cost(len(member_list))
        if metrics is not None:
            metrics.charge(message_count, round_count, kind=MessageKind.RANDNUM, label=label)

        adversary_controlled = byzantine_fraction >= RANDNUM_SECURITY_THRESHOLD
        value = self._value(member_list, upper_bound, adversary_controlled)
        return RandNumResult(
            value=value,
            upper_bound=upper_bound,
            participants=len(member_list),
            messages=message_count,
            rounds=round_count,
            adversary_controlled=adversary_controlled,
        )

    def pick_member(
        self,
        members: Iterable[NodeId],
        byzantine_members: Iterable[NodeId],
        metrics: Optional[CommunicationMetrics] = None,
        label: str = "randnum",
        presorted: bool = False,
    ) -> RandNumResult:
        """Use ``randNum`` to select one member uniformly at random.

        Returns a :class:`RandNumResult` whose ``value`` is the *node id* of
        the selected member (this is how ``exchange`` picks the replacement
        node inside the receiving cluster).  Callers holding an already
        deduplicated, sorted member list (e.g. ``Cluster.member_list``) pass
        ``presorted=True`` to skip the defensive re-sort.
        """
        if presorted:
            member_list = members if isinstance(members, list) else list(members)
        else:
            member_list = sorted(set(members))
        if not member_list:
            raise ProtocolViolationError("cannot pick a member of an empty cluster")
        result = self._generate_sorted(
            member_list,
            upper_bound=len(member_list),
            byzantine_members=byzantine_members,
            metrics=metrics,
            label=label,
        )
        # Reuse the result object: value becomes the chosen *node id* while
        # every cost field already matches.
        result.value = member_list[result.value]
        return result

    def choose(
        self, member_list: Sequence[NodeId], is_byzantine: Callable[[NodeId], bool]
    ) -> NodeId:
        """The member :meth:`pick_member` would pick from ``member_list``, alone.

        No cost and no result object (an exchange pass books its picks'
        cost once).  The Byzantine share is counted by ``is_byzantine`` at
        the pick, and the override gets its own copy of the list, never a
        live one.
        """
        members = list(member_list)
        controlled = sum(map(is_byzantine, members)) / len(members) >= RANDNUM_SECURITY_THRESHOLD
        return members[self._value(members, len(members), controlled)]

    def pass_picks(self, is_byzantine: Callable[[NodeId], bool]) -> tuple:
        """``(getrandbits, choose)`` for one exchange pass's picks, one of them ``None``.

        Without an ``adversary_override`` a pick among ``m`` slots is
        ``randrange(m)``, which CPython draws as ``getrandbits(m.bit_length())``
        redrawn until below ``m``; the pass makes that draw inline with the
        stream's ``getrandbits`` (under oracle walks the partner draw names
        the slot, and no pick is drawn).  With one, ``choose(slots)`` is
        :meth:`choose` on the partner's slots at pick time.
        """
        if self._adversary_override is None:
            return self._rng.getrandbits, None
        return None, partial(self.choose, is_byzantine=is_byzantine)

    def _value(self, member_list: Sequence[NodeId], upper_bound: int, controlled: bool) -> int:
        """The agreed value: the override's if the adversary controls the cluster, else uniform."""
        if controlled and self._adversary_override is not None:
            return int(self._adversary_override(member_list, upper_bound)) % upper_bound
        # Sum of contributions modulo the bound; at least one honest
        # contribution is uniform, so the sum is uniform.
        return self._rng.randrange(upper_bound)
