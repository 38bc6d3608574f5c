"""Shared drivers for the live-service suites (contract + sharded-only)."""

from __future__ import annotations

import json
import select
import socket
import time

from repro.service import LiveEngineSession, ProtocolError, encode_frame, live_scenario

#: Small enough to run fast, large enough to respect the per-shard slice
#: floor (two target clusters per shard at max_size=256).
SIZES = dict(initial_size=200, max_size=256)

#: The backends every contract case runs on: ``(logical shards, workers)``.
#: ``shards=W`` is ``serve --shards W`` — four logical shards on W workers.
BACKENDS = {"single": (0, 1), "shards=1": (4, 1), "shards=2": (4, 2)}


def cadence_marks(boundaries, every):
    """The recorder's cadence law, as event counts (batch and live suites).

    A mark (index frame, checkpoint) sits at the first window boundary at or
    after every ``every`` events since the last mark; ``boundaries`` are the
    cumulative event counts at which windows end.
    """
    marks, last = [], 0
    for boundary in boundaries:
        if boundary - last >= every:
            marks.append(boundary)
            last = boundary
    return marks


def make_session(backend: str = "shards=1", seed: int = 9, **overrides) -> LiveEngineSession:
    shards, workers = BACKENDS[backend]
    params = dict(SIZES)
    params.update(overrides)
    return LiveEngineSession(
        live_scenario(seed=seed, shards=shards, **params), workers=workers
    )


def frames_from_ops(ops):
    frames = []
    for index, op in enumerate(ops):
        if op == "byzantine-join":
            frames.append({"op": "join", "id": index, "role": "byzantine"})
        else:
            frames.append({"op": op, "id": index})
    return frames


def pump(session: LiveEngineSession, frames, chunk: int = 8):
    """Serve a request stream as pump batches of ``chunk`` requests.

    Each batch goes through :meth:`LiveEngineSession.serve`, the schedule
    the frontend pump runs.  Returns per-frame outcomes in stream order
    (result dicts, or the ``ProtocolError`` for rejected requests).
    """
    outcomes = [None] * len(frames)
    for base in range(0, len(frames), chunk):

        def answer(index, outcome, base=base):
            outcomes[base + index] = outcome

        session.serve(frames[base : base + chunk], answer)
    return outcomes


def normalise(outcome):
    """One comparable value per outcome (errors compare by code+message).

    Status responses name the worker count and the recording path — the two
    fields that *should* differ across deployments of the same logical run —
    so those are dropped before comparison.
    """
    if isinstance(outcome, ProtocolError):
        return ("error", outcome.code, outcome.message)
    if isinstance(outcome, dict):
        return {k: v for k, v in outcome.items() if k not in ("workers", "recording")}
    return outcome


class LoopClient:
    """A blocking TCP client of a :class:`ServiceFrontend` whose loop the
    calling thread steps with ``run_once`` while it waits for answers."""

    def __init__(self, frontend, sock=None):
        self.frontend = frontend
        self.sock = sock or socket.create_connection(("127.0.0.1", frontend.port), timeout=10)
        self.buffer = b""

    def send(self, *frames):
        self.sock.sendall(b"".join(map(encode_frame, frames)))

    def answers(self, count, timeout=10.0):
        """The next ``count`` answer frames, stepping the loop until they arrive."""
        deadline = time.monotonic() + timeout
        while self.buffer.count(b"\n") < count:
            assert time.monotonic() < deadline, "no answer in time"
            self.frontend.run_once(0.01)
            if select.select([self.sock], [], [], 0)[0]:
                data = self.sock.recv(1 << 16)
                assert data, "server closed the connection"
                self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n", count)
        return [json.loads(line) for line in lines]

    def rpc(self, frame):
        """Send one request frame and return its one answer."""
        self.send(frame)
        return self.answers(1)[0]

    def close(self):
        self.sock.close()
