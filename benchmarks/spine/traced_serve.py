"""``repro serve`` with the spine's timing wrappers installed.

``python traced_serve.py SPANS_DIR <repro.cli arguments...>`` installs the
wrappers of ``spans.py``, then hands the remaining arguments to
``repro.cli.main`` — the same entry point ``python -m repro.cli`` uses — and
dumps this process's spans to ``SPANS_DIR/server.json`` when it returns.

Shard workers are forked from this process, so they inherit the wrappers;
each one drops what it inherited, records its own spans, and dumps them to
``SPANS_DIR/worker-<pid>.json`` when its command loop ends (a forked worker
leaves through ``os._exit``, so nothing later would run).
"""

from __future__ import annotations

import os
import sys

from spans import Recorder


def main(argv) -> int:
    spans_dir, cli_args = argv[0], argv[1:]
    import repro.cli
    import repro.shard.coordinator as coordinator_module
    import repro.shard.worker as worker_module

    recorder = Recorder()
    recorder.install()
    extra = {}

    worker_main = worker_module.worker_main

    def traced_worker_main(*args, **kwargs):
        recorder.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            recorder.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.json"), "worker")

    worker_module.worker_main = traced_worker_main

    close = coordinator_module.ShardCoordinator.close

    def traced_close(self):
        # The coordinator's public phase timers and counters, read once at
        # the end of its life.
        extra["phase_times"] = dict(self.phase_times)
        extra["handoffs_sent"] = self.handoffs_sent
        extra["total_events"] = self.total_events
        return close(self)

    coordinator_module.ShardCoordinator.close = traced_close

    try:
        return repro.cli.main(cli_args)
    finally:
        recorder.dump(os.path.join(spans_dir, "server.json"), "server", extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
