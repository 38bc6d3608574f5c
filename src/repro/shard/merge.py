"""Merge layer: composite step records and the composite state hash.

Per-shard engines observe only their slice, so two recombination jobs live
here:

* :class:`ObservationMerger` folds the per-shard observation rows of one
  barrier window back into the global event order and rebuilds classic
  :class:`~repro.scenarios.bus.StepRecord` tuples with *composite*
  observables — the network size stamped by the router at route time, the
  cluster count as the sum of running per-shard counts, and the worst
  corruption fraction as the running per-shard maximum.  "Running" means the
  per-shard values advance record by record as that shard's rows are folded
  in, so a composite record reflects every shard's state as of the global
  event order, not just the window boundary.
* :func:`composite_state_hash` folds the per-shard engine hashes and the
  router fingerprint into the one digest a sharded trace and checkpoint
  carry.  The router fingerprint is part of the hash because ownership and
  the directory's sampling-array orders shape all future behaviour exactly
  like engine state does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set

from ..scenarios.bus import StepRecord
from ..trace.hashing import digest
from .messages import JOIN, RoutedEvent, RowBatch, cluster_name, iter_rows

_KIND_NAMES = {JOIN: "join"}


def composite_state_hash(
    shard_hashes: Sequence[str], router_fingerprint: Dict[str, Any]
) -> str:
    """One digest over the per-shard engine hashes + the router fingerprint."""
    return digest({"shards": list(shard_hashes), "router": router_fingerprint})


class ObservationMerger:
    """Rebuilds the global observation stream from per-shard window outputs."""

    def __init__(self, initial_summaries: Sequence[Dict[str, Any]]) -> None:
        self._clusters: List[int] = [s["clusters"] for s in initial_summaries]
        self._worst: List[float] = [s["worst"] for s in initial_summaries]
        self._compromised: List[Set[int]] = [
            set(s["compromised"]) for s in initial_summaries
        ]
        self.events_merged = 0

    # ------------------------------------------------------------------
    # Composite observables
    # ------------------------------------------------------------------
    @property
    def cluster_count(self) -> int:
        """Composite cluster count at the current merge point."""
        return sum(self._clusters)

    @property
    def worst_fraction(self) -> float:
        """Composite worst per-cluster corruption at the current merge point."""
        return max(self._worst) if self._worst else 0.0

    def compromised(self) -> List[int]:
        """Compromised clusters by composite name (:func:`~repro.shard.messages.
        cluster_name`), ascending."""
        shards = len(self._compromised)
        return sorted(
            cluster_name(shard, cid, shards)
            for shard, cids in enumerate(self._compromised)
            for cid in cids
        )

    # ------------------------------------------------------------------
    # Window merging
    # ------------------------------------------------------------------
    def merge_window(
        self,
        routed: Sequence[RoutedEvent],
        rows_by_shard: Dict[int, RowBatch],
    ) -> List[StepRecord]:
        """Fold one window's per-shard rows back into global event order.

        ``routed`` is the window's events in the order the router produced
        them (the global order); each shard's rows come back in its local
        application order, which is a subsequence of the global order — so a
        k-way merge over one decoding cursor per shard re-interleaves them
        exactly.  Rows arrive as packed wire buffers
        (:data:`~repro.shard.messages.ROW_RECORD`);
        :func:`~repro.shard.messages.iter_rows` decodes them lazily, so this
        loop is the only place packed observations are materialised.
        """
        cursors = {
            shard: iter_rows(payload) for shard, payload in rows_by_shard.items()
        }
        records: List[StepRecord] = []
        for event in routed:
            row = next(cursors[event.shard])
            (
                step,
                kind,
                role,
                node_id,
                assigned,
                clusters,
                worst,
                operation,
                messages,
                rounds,
                walk_hops,
            ) = row
            if step != event.step:  # pragma: no cover - protocol invariant
                raise AssertionError(
                    f"shard {event.shard} returned row for step {step}, "
                    f"expected {event.step}"
                )
            self._clusters[event.shard] = clusters
            self._worst[event.shard] = worst
            self.events_merged += 1
            records.append(
                StepRecord(
                    step_index=step,
                    time_step=self.events_merged,
                    kind=_KIND_NAMES.get(kind, "leave"),
                    role=role,
                    node_id=node_id,
                    contact_cluster=event.contact,
                    assigned_node=assigned,
                    network_size=event.size_after,
                    cluster_count=self.cluster_count,
                    worst_fraction=self.worst_fraction,
                    operation=operation,
                    messages=messages,
                    rounds=rounds,
                    walk_hops=walk_hops,
                )
            )
        return records

    # ------------------------------------------------------------------
    # Barrier updates
    # ------------------------------------------------------------------
    def update_summaries(self, summaries: Dict[int, Dict[str, Any]]) -> None:
        """Re-anchor per-shard running state from authoritative summaries.

        Called after handoffs: the emigration/immigration joins and leaves
        are protocol-internal (they produce no step records) but they do
        change per-shard cluster structure.
        """
        for shard, summary in summaries.items():
            self._clusters[shard] = summary["clusters"]
            self._worst[shard] = summary["worst"]
            self._compromised[shard] = set(summary["compromised"])

    # ------------------------------------------------------------------
    # Checkpoint serialisation
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-ready merge state (part of the sharded checkpoint)."""
        return {
            "clusters": list(self._clusters),
            "worst": list(self._worst),
            "compromised": [sorted(cids) for cids in self._compromised],
            "events_merged": self.events_merged,
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "ObservationMerger":
        """Rebuild a merger from :meth:`snapshot_state` output.

        Any other key an older snapshot carries is ignored, so older
        checkpoints still resume.
        """
        merger = cls(
            [
                {"clusters": clusters, "worst": worst, "compromised": compromised}
                for clusters, worst, compromised in zip(
                    data["clusters"], data["worst"], data["compromised"]
                )
            ]
        )
        merger.events_merged = int(data["events_merged"])
        return merger
