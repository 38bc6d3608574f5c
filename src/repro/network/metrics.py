"""Communication-cost accounting.

The paper's complexity claims are stated in two measures:

* **communication cost** — the number of (identical-size) messages exchanged,
* **round complexity** — the number of successive communication rounds.

:class:`CommunicationMetrics` is a small ledger of both, broken down by
message kind and by operation label.  Every primitive in the library charges
its traffic to such a ledger, whether the traffic is actually simulated
message by message (agreement, initialization) or metered from the cluster
sizes involved (maintenance operations).  Benchmarks read these ledgers to
produce the measured-cost tables of the benchmarks (docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from .message import MessageKind


@dataclass
class CommunicationMetrics:
    """Ledger of messages and rounds charged to a single scope."""

    messages: int = 0
    rounds: int = 0
    by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_label: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    rounds_by_label: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def charge_messages(
        self,
        count: int,
        kind: MessageKind = MessageKind.CONTROL,
        label: str = "",
    ) -> None:
        """Add ``count`` messages of the given kind under ``label``."""
        if count < 0:
            raise ValueError("message count must be non-negative")
        self.messages += count
        self.by_kind[kind.value] += count
        if label:
            self.by_label[label] += count

    def charge_rounds(self, count: int, label: str = "") -> None:
        """Add ``count`` communication rounds under ``label``."""
        if count < 0:
            raise ValueError("round count must be non-negative")
        self.rounds += count
        if label:
            self.rounds_by_label[label] += count

    def charge(
        self,
        messages: int,
        rounds: int,
        kind: MessageKind = MessageKind.CONTROL,
        label: str = "",
    ) -> None:
        """Charge messages and rounds in one call.

        Equivalent to ``charge_messages`` followed by ``charge_rounds``, for
        a cost that has both: a primitive given a ledger, or an exchange
        round booking the summed cost of its walks, its picks or its
        neighbour notification.
        """
        if messages < 0:
            raise ValueError("message count must be non-negative")
        if rounds < 0:
            raise ValueError("round count must be non-negative")
        self.messages += messages
        self.by_kind[kind.value] += messages
        self.rounds += rounds
        if label:
            self.by_label[label] += messages
            self.rounds_by_label[label] += rounds

    def merge(self, other: "CommunicationMetrics") -> None:
        """Fold the counts of ``other`` into this ledger."""
        self.messages += other.messages
        self.rounds += other.rounds
        for key, value in other.by_kind.items():
            self.by_kind[key] += value
        for key, value in other.by_label.items():
            self.by_label[key] += value
        for key, value in other.rounds_by_label.items():
            self.rounds_by_label[key] += value

    def snapshot(self) -> Dict[str, object]:
        """Return a plain-dict copy suitable for reporting/serialisation."""
        return {
            "messages": self.messages,
            "rounds": self.rounds,
            "by_kind": dict(self.by_kind),
            "by_label": dict(self.by_label),
            "rounds_by_label": dict(self.rounds_by_label),
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.messages = 0
        self.rounds = 0
        self.by_kind.clear()
        self.by_label.clear()
        self.rounds_by_label.clear()

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "CommunicationMetrics":
        """Rebuild a ledger from :meth:`snapshot` output (checkpoint restore)."""
        metrics = cls(messages=int(data["messages"]), rounds=int(data["rounds"]))
        metrics.by_kind.update(data.get("by_kind", {}))
        metrics.by_label.update(data.get("by_label", {}))
        metrics.rounds_by_label.update(data.get("rounds_by_label", {}))
        return metrics


class MetricsRegistry:
    """A named collection of :class:`CommunicationMetrics` scopes.

    The NOW engine keeps one scope per maintenance operation type
    (``join``, ``leave``, ``split``, ``merge``) plus per-primitive scopes
    (``randcl``, ``randnum``, ``exchange``), which is exactly the breakdown
    needed to reproduce Figure 2 and the §3.1 cost statements.
    """

    def __init__(self) -> None:
        self._scopes: Dict[str, CommunicationMetrics] = {}

    def scope(self, name: str) -> CommunicationMetrics:
        """Return (creating if needed) the ledger for ``name``."""
        if name not in self._scopes:
            self._scopes[name] = CommunicationMetrics()
        return self._scopes[name]

    def names(self) -> Iterable[str]:
        """Iterate over the names of the existing scopes."""
        return tuple(self._scopes.keys())

    def total(self) -> CommunicationMetrics:
        """Return a new ledger aggregating every scope."""
        combined = CommunicationMetrics()
        for metrics in self._scopes.values():
            combined.merge(metrics)
        return combined

    def snapshot(self) -> Mapping[str, Dict[str, object]]:
        """Plain-dict snapshot of every scope keyed by name."""
        return {name: metrics.snapshot() for name, metrics in self._scopes.items()}

    def reset(self, name: Optional[str] = None) -> None:
        """Reset one scope (or all scopes when ``name`` is ``None``)."""
        if name is None:
            for metrics in self._scopes.values():
                metrics.reset()
        elif name in self._scopes:
            self._scopes[name].reset()

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Dict[str, object]]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (checkpoint restore)."""
        registry = cls()
        for name, scope_data in data.items():
            registry._scopes[name] = CommunicationMetrics.from_snapshot(scope_data)
        return registry
