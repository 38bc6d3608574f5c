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

Not an :class:`asyncio.Queue`: that class blocks producers when full (the
opposite of fast-fail) and wakes one consumer per item (the pump wants
batches).  This is a plain deque plus one wakeup event, single-consumer by
contract.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, List

from ..errors import ConfigurationError
from .protocol import DEFAULT_MAX_QUEUE


class RequestQueue:
    """Bounded single-consumer FIFO with fast-fail admission.

    ``offer`` never blocks and never grows the queue past ``maxsize``;
    ``drain`` hands the consumer up to ``limit`` items at once, oldest
    first — reads and writes alike, in arrival order (the session decides
    how a batch runs); ``wait`` parks the consumer until items arrive or the
    queue is closed.
    """

    def __init__(self, maxsize: int = DEFAULT_MAX_QUEUE) -> None:
        if maxsize < 1:
            raise ConfigurationError("request queue bound must be >= 1")
        self.maxsize = maxsize
        self.accepted = 0
        self.rejected = 0
        self._items: deque = deque()
        self._wakeup = asyncio.Event()
        self._closed = False

    def offer(self, item: Any) -> bool:
        """Admit one item; ``False`` (immediately) when full or closed."""
        if self._closed or len(self._items) >= self.maxsize:
            self.rejected += 1
            return False
        self._items.append(item)
        self.accepted += 1
        self._wakeup.set()
        return True

    def drain(self, limit: int) -> List[Any]:
        """Remove and return up to ``limit`` items (oldest first)."""
        items = self._items
        batch = [items.popleft() for _ in range(min(limit, len(items)))]
        if not items and not self._closed:
            self._wakeup.clear()
        return batch

    async def wait(self) -> None:
        """Park until at least one item is queued or the queue is closed."""
        await self._wakeup.wait()

    def close(self) -> None:
        """Stop admitting; wakes the consumer so it can finish draining."""
        self._closed = True
        self._wakeup.set()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called (offers are rejected)."""
        return self._closed

    def __len__(self) -> int:
        return len(self._items)
