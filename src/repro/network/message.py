"""Message kinds for communication-cost accounting.

The paper's model assumes messages of identical size, so communication cost
is proportional to the number of messages.  We therefore only track message
*counts*, broken down by kind; no message object is ever built.
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    """Coarse classification of protocol messages.

    The classification is used by the metrics registry to break communication
    cost down by purpose, mirroring the cost decomposition the paper gives for
    its primitives (random-walk traffic, random-number generation, membership
    updates, agreement traffic, application payloads).
    """

    CONTROL = "control"
    WALK = "walk"
    RANDNUM = "randnum"
    MEMBERSHIP = "membership"
    AGREEMENT = "agreement"
    DISCOVERY = "discovery"
    APPLICATION = "application"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
