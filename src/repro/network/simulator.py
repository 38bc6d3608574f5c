"""Synchronous round scheduler.

The paper assumes a synchronous network: computation proceeds in rounds, a
message sent in round ``r`` is delivered at the beginning of round ``r + 1``,
and a *time step* (one join or leave plus the induced maintenance) spans a
polylogarithmic number of rounds.  :class:`RoundSimulator` drives a set of
:class:`~repro.network.node.NodeProcess` instances under this discipline and
accounts every message and round on a :class:`CommunicationMetrics` ledger.

The simulator is used directly by the agreement substrate
(:mod:`repro.agreement`), the initialization phase and the message-level
application protocols; the NOW maintenance engine
(:mod:`repro.core.engine`) operates at cluster granularity and charges costs
to the same kind of ledger.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..errors import SimulationError
from .channels import ChannelSet
from .message import Message
from .metrics import CommunicationMetrics
from .node import NodeId, NodeProcess
from .topology import KnowledgeGraph


class RoundSimulator:
    """Runs node processes in synchronized rounds over private channels."""

    def __init__(
        self,
        knowledge: Optional[KnowledgeGraph] = None,
        metrics: Optional[CommunicationMetrics] = None,
        enforce_knowledge: bool = True,
    ) -> None:
        self.knowledge = knowledge if knowledge is not None else KnowledgeGraph()
        self.metrics = metrics if metrics is not None else CommunicationMetrics()
        self.channels = ChannelSet(
            self.knowledge, metrics=self.metrics, enforce_knowledge=enforce_knowledge
        )
        self._processes: Dict[NodeId, NodeProcess] = {}
        self._round = 0
        self._started = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_process(self, process: NodeProcess) -> None:
        """Register ``process``; its node is added to the knowledge graph."""
        node_id = process.node_id
        if node_id in self._processes:
            raise SimulationError(f"a process for node {node_id} is already registered")
        self._processes[node_id] = process
        self.knowledge.add_node(node_id)

    def remove_process(self, node_id: NodeId) -> None:
        """Unregister the process of ``node_id`` and drop its queued messages."""
        self._processes.pop(node_id, None)
        self.channels.drop_node(node_id)

    def processes(self) -> Iterable[NodeProcess]:
        """Iterate over every registered process."""
        return tuple(self._processes.values())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        """Number of completed rounds."""
        return self._round

    def start(self) -> None:
        """Invoke every process's ``on_start`` hook and queue its initial messages."""
        if self._started:
            return
        self._started = True
        for process in self._processes.values():
            for message in process.on_start():
                self.channels.send(message, round_number=self._round)
            for message in process.drain_outbox():
                self.channels.send(message, round_number=self._round)

    def run_round(self) -> None:
        """Execute one synchronous round: deliver, run hooks, queue replies."""
        if not self._started:
            self.start()
        self.channels.advance_round()
        self._round += 1
        self.metrics.charge_rounds(1)
        outgoing: List[Message] = []
        for process in list(self._processes.values()):
            if process.halted:
                # Halted processes still consume their inbox so buffers do not grow.
                self.channels.deliver(process.node_id)
                continue
            outgoing.extend(process.on_round(self._round))
            for message in self.channels.deliver(process.node_id):
                outgoing.extend(process.on_message(message, self._round))
            outgoing.extend(process.drain_outbox())
        for message in outgoing:
            self.channels.send(message, round_number=self._round)

    def run(
        self,
        max_rounds: int,
        stop_when: Optional[Callable[["RoundSimulator"], bool]] = None,
    ) -> int:
        """Run up to ``max_rounds`` rounds, optionally stopping early.

        ``stop_when`` is evaluated after each round; the simulation stops as
        soon as it returns ``True``.  Returns the number of rounds executed by
        this call.
        """
        if max_rounds < 0:
            raise SimulationError("max_rounds must be non-negative")
        executed = 0
        for _ in range(max_rounds):
            self.run_round()
            executed += 1
            if stop_when is not None and stop_when(self):
                break
        return executed

    def run_until_quiescent(self, max_rounds: int = 10_000) -> int:
        """Run until no messages remain in flight or ``max_rounds`` is reached."""
        executed = 0
        for _ in range(max_rounds):
            if self.channels.pending_count() == 0 and self.channels.in_flight_count() == 0:
                break
            self.run_round()
            executed += 1
        return executed

    def all_halted(self) -> bool:
        """Whether every registered process has halted."""
        return all(process.halted for process in self._processes.values())
