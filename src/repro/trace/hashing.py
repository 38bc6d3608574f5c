"""Canonical state fingerprints and hashes.

Replay verification and resume-equals-uninterrupted checks both reduce to
one question: *are two engine states identical?*  Comparing Python object
graphs is fragile (listener wiring, caches and history are incidental), so
the trace subsystem compares **fingerprints**: a canonical, JSON-ready view
of exactly the state that determines future behaviour —

* the time step and the partition (every cluster's member slots, in slot
  order: random picks index into it),
* the ground-truth roles (which nodes the adversary controls),
* the liveness arrays in their exact order (they are RNG-visible: a uniform
  draw indexes into them),
* the overlay graph (vertices, weights, edges, version counter),
* the engine RNG stream (digested, not inlined — it is 625 words long).

:func:`state_hash` is the SHA-256 of the canonical JSON encoding of that
fingerprint.  The hash is what trace index frames record and what
``replay`` asserts against.

Equal hashes do **not** yet mean identical behaviour: the engine config,
the protocol parameters and the walk kernel's stream are outside the
fingerprint, so a restore that misreads one of them passes the hash check.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..rng import sha256


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``data``."""
    return sha256(canonical_json(data).encode("utf-8")).hexdigest()


def rng_digest(rng) -> str:
    """Digest of a generator's full Mersenne Twister state."""
    return sha256(repr(rng.getstate()).encode("utf-8")).hexdigest()


def state_fingerprint(engine) -> Dict[str, Any]:
    """Canonical view of everything that determines an engine's future.

    Works for any engine whose ``state`` is a
    :class:`~repro.core.state.SystemState` (every placement rule alike).
    O(n) — intended for periodic index frames and checkpoint boundaries,
    not for per-event use.
    """
    state = engine.state
    clusters = state.clusters
    nodes = state.nodes
    cluster_orders = clusters.sampling_orders()
    node_orders = nodes.sampling_orders()
    return {
        "time_step": state.time_step,
        "network_size": state.network_size,
        "clusters": [
            [cluster_id, clusters.get(cluster_id).members]
            for cluster_id in clusters.cluster_ids()
        ],
        "cluster_order": cluster_orders["ids"],
        "next_cluster_id": cluster_orders["next_id"],
        "byzantine": sorted(nodes.active_byzantine()),
        "active_order": node_orders["active"],
        "honest_order": node_orders["honest"],
        "next_node_id": node_orders["next_id"],
        "overlay": state.overlay.graph.snapshot_state(),
        "rng": rng_digest(state.rng),
    }


def state_hash(engine) -> str:
    """SHA-256 hex digest of :func:`state_fingerprint`.

    Equal hashes mean the same partition, roles, overlay, engine RNG
    position and RNG-visible internal orderings — not the same config,
    parameters or walk-kernel stream (see the module docstring).
    """
    return digest(state_fingerprint(engine))
