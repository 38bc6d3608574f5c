"""Wire-level records and packed codecs of the shard protocol.

Everything that crosses a shard boundary is an explicit, picklable message —
never shared memory — so a sharded run is replayable and auditable at the
protocol level (the same design point as the related work's stabilizing
message-passing protocols: correctness must not depend on delivery sharing
state with the sender).

Three record kinds cross the coordinator/worker boundary:

* **routed event batches** — one window's events for one shard, shipped as a
  single struct-packed ``bytes`` blob (packed by
  :meth:`~repro.shard.router.EventRouter.route_window`, format
  :data:`EVENT_RECORD`) instead of a list of per-event tuples.  Packing one
  blob per shard per window keeps the pickle cost of a dispatch O(bytes)
  instead of O(events × tuple overhead) — the same trick as the binary
  trace codec's event blocks (``trace/codec.py``);
* **observation row buffers** — the per-event rows a worker returns, packed
  as ``(op_names, bytes)`` (:func:`pack_rows`, format :data:`ROW_RECORD`)
  with operation names indexed through a per-batch string table.  The rows
  are decoded only at the merge boundary (:func:`iter_rows` inside
  :meth:`~repro.shard.merge.ObservationMerger.merge_window`), never on the
  worker's hot path;
* **barrier moves** — at most one per barrier, planned by the coordinator
  as ``(src, dst, directory.emigrants(src, count))``: the donor receives the
  gids (``emigrate_ids``), the recipient the ``(gid, role)`` pairs
  (``immigrate``), both in that one list's order.  The order is a pure
  function of the directory, so it needs no sequence numbers: each worker
  pipe is FIFO and one move per barrier leaves nothing to reorder.

There is one wire form: a value outside its packed field's range (a global
id or step of ``2**32`` or more, a 257th operation name in a batch) raises
:class:`WireRangeError` naming the field instead of switching format.

Worker commands stay ``(method, args)`` pairs executed by the worker loop
(:func:`repro.shard.worker.worker_main`), with ``(ok, payload)`` replies.

Packed event record (struct format ``<IBIBBi``, 15 bytes)::

    field      type  meaning
    ---------  ----  ------------------------------------------------
    step       u32   coordinator step index of the event
    kind       u8    churn kind (index into the module kind table)
    gid        u32   global node id
    role       u8    node role (index into the NodeRole enum order)
    anonymous  u8    1 when the join names no node (its record's n is null)
    contact    i32   the join's contact cluster's local id (-1 encodes null)

Packed observation row (struct format ``<IBBiIIdBIIQ``, 43 bytes)::

    field     type  meaning
    --------  ----  ------------------------------------------------
    step      u32   coordinator step index (merge-order check)
    kind      u8    churn kind code
    role      u8    node role code
    node      i32   input event node id (-1 encodes null: anonymous join)
    assigned  u32   global id the event acted on
    clusters  u32   shard cluster count after the event
    worst     f64   shard worst corruption fraction (bit-exact)
    op        u8    operation name (index into the batch's op table)
    messages  u32   operation message cost
    rounds    u32   operation round cost
    hops      u64   operation walk hops

Both enum tables are fixed module-level orders (kind: join, leave; role: the
``NodeRole`` declaration order) shared by coordinator and workers of one
process tree — unlike the on-disk trace codec there is no cross-version
reader, so the tables need not travel with each batch.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..network.node import NodeRole

#: Wire codes for routed event kinds (kept one byte; batches are hot).
JOIN = "j"
LEAVE = "l"

#: Seed offset of shard engine ``s``: ``scenario.seed + SHARD_SEED_OFFSET + s``.
#: Far above the scenario's own fan-out (``seed + 1 .. seed + 3`` drive the
#: workload, adversary and mixer) so the streams never collide.
SHARD_SEED_OFFSET = 1000

#: One routed event on the wire, and its field names in packing order.
EVENT_RECORD = struct.Struct("<IBIBBi")
EVENT_FIELDS = ("step", "kind", "gid", "role", "anonymous", "contact")
#: One observation row on the wire (see the module docstring field table).
ROW_RECORD = struct.Struct("<IBBiIIdBIIQ")
ROW_FIELDS = (
    "step", "kind", "role", "node", "assigned", "clusters", "worst", "op",
    "messages", "rounds", "hops",
)

KINDS: List[str] = [JOIN, LEAVE]
KIND_CODES = {value: index for index, value in enumerate(KINDS)}
ROLES: List[str] = [role.value for role in NodeRole]
ROLE_CODES = {value: index for index, value in enumerate(ROLES)}

#: What ``iter_events`` yields: step, kind, gid, role, anonymous, contact.
WireEvent = Tuple[int, str, int, str, bool, Optional[int]]
#: The 11-field observation row shape shared by worker, wire and merger.
WireRow = Tuple[int, str, str, Any, int, int, float, Any, int, int, int]

#: Packed payload types: an event blob; ``(op_names, row blob)``.
EventBatch = bytes
RowBatch = Tuple[List[Any], bytes]


def cluster_name(shard: int, local: int, shards: int) -> int:
    """Cluster ``local`` of shard ``shard`` by its composite name, ``local *
    shards + shard`` (the local id on the single engine, ``shards`` 0): it
    fits a trace's i32 ``c``, and :func:`cluster_address` inverts it."""
    return local * shards + shard if shards else local


def cluster_address(name: int, shards: int) -> Tuple[int, int]:
    """``(shard, local id)`` of the cluster called ``name``."""
    local, shard = divmod(name, shards or 1)
    return shard, local


class WireRangeError(ValueError):
    """A value does not fit its packed wire field (the message names it)."""


def range_error(record: struct.Struct, fields: Sequence[str], values: Sequence[Any]) -> WireRangeError:
    """The error for one record ``record.pack`` refused: which field, what value."""
    for field, code, value in zip(fields, record.format[1:], values):
        try:
            struct.pack("<" + code, value)
        except struct.error:
            return WireRangeError(
                f"shard wire field {field!r} cannot hold {value!r} (packed as {code!r})"
            )
    return WireRangeError(f"shard wire record {tuple(values)!r} does not pack")


class RoutedEvent(NamedTuple):
    """One event after routing: the owning shard plus the wire fields.

    ``size_after`` is the composite network size immediately after the event
    (the directory updates synchronously at route time); the merge layer
    stamps it onto the composite step record, so record sizes are exact even
    though shards apply their batches concurrently — and ``contact``, a
    join's contact cluster by its composite name (:func:`cluster_name`).
    ``anonymous`` is True for a join whose event named no node: only its
    record's ``n`` is null, whether or not the identity is brand new.
    """

    shard: int
    step: int
    kind: str
    node_id: int
    role: str
    anonymous: bool
    size_after: int
    contact: Optional[int] = None


# ----------------------------------------------------------------------
# Packed event batches (coordinator -> worker)
# ----------------------------------------------------------------------
def iter_events(payload: EventBatch) -> Iterator[WireEvent]:
    """Yield wire-event tuples from a packed blob."""
    kinds = KINDS
    roles = ROLES
    for step, kind, gid, role, anonymous, contact in EVENT_RECORD.iter_unpack(payload):
        yield (step, kinds[kind], gid, roles[role], bool(anonymous), None if contact < 0 else contact)


# ----------------------------------------------------------------------
# Packed observation rows (worker -> coordinator)
# ----------------------------------------------------------------------
def pack_rows(rows: Sequence[WireRow]) -> RowBatch:
    """Pack observation rows into ``(op_names, blob)``.

    Operation names are strings (occasionally ``None``); each batch carries
    its own first-appearance-ordered table and rows index into it with one
    byte.  A value outside its field's range — a node id too large for
    ``i32``, a 257th distinct operation name — raises :class:`WireRangeError`.
    """
    ops: List[Any] = []
    op_codes: dict = {}
    parts: List[bytes] = []
    pack = ROW_RECORD.pack
    kind_codes = KIND_CODES
    role_codes = ROLE_CODES
    for step, kind, role, node, assigned, clusters, worst, op, messages, rounds, hops in rows:
        code = op_codes.get(op)
        if code is None:  # table codes are ints, so None always means new
            op_codes[op] = code = len(ops)
            ops.append(op)
        values = (
            step,
            kind_codes.get(kind, kind),
            role_codes.get(role, role),
            -1 if node is None else node,
            assigned,
            clusters,
            worst,
            code,
            messages,
            rounds,
            hops,
        )
        try:
            parts.append(pack(*values))
        except struct.error:
            raise range_error(ROW_RECORD, ROW_FIELDS, values) from None
    return (ops, b"".join(parts))


def iter_rows(payload: RowBatch) -> Iterator[WireRow]:
    """Yield observation rows from a packed ``(op_names, blob)`` buffer."""
    op_names, blob = payload
    kinds = KINDS
    roles = ROLES
    for step, kind, role, node, assigned, clusters, worst, op, messages, rounds, hops in ROW_RECORD.iter_unpack(blob):
        yield (
            step,
            kinds[kind],
            roles[role],
            None if node < 0 else node,
            assigned,
            clusters,
            worst,
            op_names[op],
            messages,
            rounds,
            hops,
        )
