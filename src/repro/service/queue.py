"""The bounded request queue between the socket layer and the engine.

The engine is single-threaded by construction (determinism demands one
serialised event stream), so every connection funnels into one queue that
the engine pump drains in batches.  The queue is **bounded with fast-fail
admission**: when it is full, :meth:`RequestQueue.offer` returns ``False``
immediately and the caller answers ``overloaded`` — the client learns about
the overload at enqueue time, within one round trip, instead of discovering
it as an unbounded latency tail while the server buffers itself to death.
Rejecting at admission keeps the worst-case queueing delay at
``maxsize / service_rate`` by design.

A plain bounded deque, single-consumer by contract: the front-end's loop
offers what it reads and drains a batch whenever the queue is not empty, so
nothing ever waits on it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List

from ..errors import ConfigurationError
from .protocol import DEFAULT_MAX_QUEUE


class RequestQueue:
    """Bounded single-consumer FIFO with fast-fail admission.

    ``offer`` never blocks and never grows the queue past ``maxsize``;
    ``drain`` hands the consumer up to ``limit`` items at once, oldest
    first — reads and writes alike, in arrival order (the session decides
    how a batch runs).
    """

    def __init__(self, maxsize: int = DEFAULT_MAX_QUEUE) -> None:
        if maxsize < 1:
            raise ConfigurationError("request queue bound must be >= 1")
        self.maxsize = maxsize
        self.accepted = 0
        self.rejected = 0
        self._items: deque = deque()
        self._closed = False

    def offer(self, item: Any) -> bool:
        """Admit one item; ``False`` (immediately) when full or closed."""
        if self._closed or len(self._items) >= self.maxsize:
            self.rejected += 1
            return False
        self._items.append(item)
        self.accepted += 1
        return True

    def drain(self, limit: int) -> List[Any]:
        """Remove and return up to ``limit`` items (oldest first)."""
        items = self._items
        return [items.popleft() for _ in range(min(limit, len(items)))]

    def close(self) -> None:
        """Stop admitting; what is queued can still be drained."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called (offers are rejected)."""
        return self._closed

    def __len__(self) -> int:
        return len(self._items)
