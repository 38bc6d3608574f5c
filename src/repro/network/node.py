"""Node identities, roles and liveness states.

A *node* in the paper is a process with a unique, unforgeable identifier.
Nodes are either honest or controlled by the (static) Byzantine adversary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

NodeId = int


class NodeRole(enum.Enum):
    """Whether a node is honest or Byzantine (adversary-controlled)."""

    HONEST = "honest"
    BYZANTINE = "byzantine"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class NodeState(enum.Enum):
    """Liveness state of a node in the dynamic network."""

    ACTIVE = "active"
    LEFT = "left"
    CRASHED = "crashed"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class NodeDescriptor:
    """Static description of a node: its identity, role and liveness state."""

    node_id: NodeId
    role: NodeRole = NodeRole.HONEST
    state: NodeState = NodeState.ACTIVE
    joined_at: int = 0
    left_at: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    #: Set per descriptor by :meth:`attach_lifecycle_listener`.
    _lifecycle_listener = None

    def __setattr__(self, name: str, value: Any) -> None:
        # Role and liveness changes feed the registry's incremental counters.
        # A plain attribute write (``descriptor.role = ...``) must reach the
        # listener too, so the hook lives here rather than in setter methods.
        # Every other write (all of ``__init__``'s) is a plain one.
        listener = self._lifecycle_listener
        if listener is None or name not in ("role", "state"):
            object.__setattr__(self, name, value)
            return
        old = getattr(self, name)
        object.__setattr__(self, name, value)
        if old is not value:
            listener(self, name, old, value)

    def attach_lifecycle_listener(self, listener) -> None:
        """Register ``listener(descriptor, field, old, new)`` for role/state changes."""
        object.__setattr__(self, "_lifecycle_listener", listener)

    @property
    def is_honest(self) -> bool:
        """``True`` when the node is not controlled by the adversary."""
        return self.role is NodeRole.HONEST

    @property
    def is_byzantine(self) -> bool:
        """``True`` when the adversary controls the node."""
        return self.role is NodeRole.BYZANTINE

    @property
    def is_active(self) -> bool:
        """``True`` while the node is part of the network."""
        return self.state is NodeState.ACTIVE

    def mark_left(self, time_step: int) -> None:
        """Record that the node left (voluntarily or forced) at ``time_step``."""
        self.state = NodeState.LEFT
        self.left_at = time_step

    def mark_crashed(self, time_step: int) -> None:
        """Record that the node crashed at ``time_step``."""
        self.state = NodeState.CRASHED
        self.left_at = time_step

