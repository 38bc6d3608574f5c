"""Each process loads only the native stacks its work uses.

Only the modules that compute with arrays load numpy.  The hop engine
(``repro.walks.kernel``), the exact walk law (``repro.walks.law``), the
expansion checks and the complexity fits import numpy; nothing else does,
and no package ``__init__`` imports them.  So an oracle run, its trace stack
and a serve session start without numpy, while a simulated run loads it
while its engine is built.

No process loads asyncio or, through it, ssl: ``serve`` runs on a
``selectors`` loop.  SHA-256 is the interpreter's built-in one
(:func:`repro.rng.sha256`), so no run loads OpenSSL's ``_hashlib``; and
only a sweep that opens a process pool loads ``concurrent.futures``.

pytest itself loads numpy and asyncio, so each case runs in a fresh
interpreter.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap


def run_fresh(script: str, cwd) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_oracle_runs_traces_and_serve_never_import_numpy(tmp_path):
    run_fresh(
        """
        import sys
        import repro, repro.cli, repro.service, repro.shard.coordinator
        from repro import Scenario
        from repro.service import LiveEngineSession, live_scenario
        from repro.trace import (
            checkpoint_from_trace, record_scenario, replay_trace, resume_from_checkpoint,
        )

        scenario = Scenario(initial_size=200, max_size=1024, steps=40, seed=3)
        runner = scenario.build_runner()
        assert runner.run(20).events == 20
        session = record_scenario(
            scenario, trace_path="t.bin", trace_format="binary", index_every=8,
            checkpoint_path="c.json", checkpoint_every=16,
        )
        assert replay_trace("t.bin").ok
        checkpoint_from_trace("t.bin", 24, "mid.json")
        resumed = resume_from_checkpoint("mid.json")
        assert resumed.final_state_hash == session.final_state_hash
        assert resumed.engine.check_invariants(check_honest_majority=False).holds

        live = LiveEngineSession(live_scenario(initial_size=200, max_size=1024))
        live.start()
        live.serve([{"op": "join", "id": 0}, {"op": "leave", "id": 1}], lambda *_: None)
        for op in ("sample", "broadcast", "status", "ping"):
            live.execute({"op": op, "id": 2})
        live.close()
        assert "numpy" not in sys.modules, "numpy loaded"
        """,
        tmp_path,
    )


def test_a_simulated_engine_imports_numpy_while_it_is_built(tmp_path):
    """No import time moves into the first event of a simulated run."""
    run_fresh(
        """
        import sys
        from repro import Scenario

        scenario = Scenario(
            initial_size=200, max_size=1024, engine_options={"walk_mode": "simulated"}
        )
        engine = scenario.build_engine()
        assert "numpy" in sys.modules, "numpy not loaded by the engine build"
        assert engine.capture_snapshot()["randcl"]["kernel"] is None
        """,
        tmp_path,
    )


#: Native and stdlib stacks a process that does not serve must not load.
SERVICE_STACK = ("_hashlib", "_ssl", "asyncio", "concurrent.futures")


def test_batch_commands_load_no_service_stack_and_no_openssl(tmp_path):
    run_fresh(
        f"""
        import sys
        import repro.cli
        from repro import Scenario
        from repro.trace import (
            checkpoint_from_trace, record_scenario, replay_trace, resume_from_checkpoint,
        )

        scenario = Scenario(initial_size=200, max_size=1024, steps=40, seed=3)
        session = record_scenario(
            scenario, trace_path="t.jsonl", index_every=8,
            checkpoint_path="c.json", checkpoint_every=16,
        )
        assert replay_trace("t.jsonl").ok
        checkpoint_from_trace("t.jsonl", 24, "mid.json")
        assert resume_from_checkpoint("mid.json").final_state_hash == session.final_state_hash
        loaded = [name for name in {SERVICE_STACK!r} if name in sys.modules]
        assert not loaded, loaded
        """,
        tmp_path,
    )


def test_a_serving_process_never_loads_asyncio_or_ssl(tmp_path):
    """``serve`` answers requests on both backends, in this process, and
    afterwards neither asyncio nor ssl is loaded."""
    run_fresh(
        """
        import socket, sys, threading
        from repro.cli import main
        from repro.service import encode_frame
        from repro.service.frontend import ServiceFrontend

        ops = ["join", "sample", "leave", "broadcast", "status", "ping", "shutdown"]
        frames = [{"op": op, "id": index} for index, op in enumerate(ops)]
        answers, clients = [], []

        def client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(b"".join(map(encode_frame, frames)))
                sock.shutdown(socket.SHUT_WR)
                answers.append(sock.makefile("rb").read().splitlines())

        start = ServiceFrontend.start

        def start_then_connect(self):
            start(self)
            clients.append(threading.Thread(target=client, args=(self.port,)))
            clients[-1].start()

        ServiceFrontend.start = start_then_connect
        for shards in ("0", "2"):
            assert main(["serve", "--port", "0", "--shards", shards, "--initial-size", "400"]) == 0
            clients[-1].join()
            assert len(answers[-1]) == len(frames), answers
        loaded = [name for name in ("asyncio", "_ssl") if name in sys.modules]
        assert not loaded, loaded
        """,
        tmp_path,
    )


def test_the_builtin_sha256_matches_hashlib():
    from repro.rng import sha256

    for data in (b"", b"abc", bytes(range(256)) * 4096):
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        assert sha256(data).digest() == hashlib.sha256(data).digest()
