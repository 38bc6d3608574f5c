"""The packed shard wire protocol (``repro.shard.messages``) and batched router.

Two property families pin the PR 8 hot path to its oracles:

* **codec round trips** — ``pack_events``/``iter_events`` and
  ``pack_rows``/``iter_rows`` must be identities on every representable
  batch, and a value that escapes a packed field's range must raise a
  ``WireRangeError`` naming the field (there is one wire form, no silent
  switch to another);
* **batched routing** — ``EventRouter.route_window`` must route arbitrary
  churn streams exactly like a per-event serial loop over the directory's
  ``place_join`` / ``remove_leave`` (built here, as the oracle): same
  ``RoutedEvent`` sequence, same directory fingerprint, same idle/step
  accounting, and wire buffers that decode to the events they carry.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ChurnEvent, ChurnKind
from repro.network.node import NodeRole
from repro.scenarios.runner import EventPull
from repro.shard import ShardDirectory
from repro.shard.messages import (
    EVENT_FIELDS,
    EVENT_RECORD,
    JOIN,
    KIND_CODES,
    LEAVE,
    ROLE_CODES,
    ROW_RECORD,
    RoutedEvent,
    WireRangeError,
    iter_events,
    iter_rows,
    pack_rows,
    range_error,
)
from repro.shard.router import EventRouter

ROLES = [role.value for role in NodeRole]


def pack_events(rows):
    """Pack wire-event tuples into one blob, the codec oracle of ``iter_events``.

    The router packs inline in ``route_window``; this row-at-a-time form
    raises :class:`WireRangeError` naming the field a row cannot fit.
    """
    parts = []
    for step, kind, gid, role, fresh, contact in rows:
        # An unknown kind/role stays itself, so the refusal can name it.
        values = (
            step,
            KIND_CODES.get(kind, kind),
            gid,
            ROLE_CODES.get(role, role),
            bool(fresh),
            -1 if contact is None else contact,
        )
        try:
            parts.append(EVENT_RECORD.pack(*values))
        except struct.error:
            raise range_error(EVENT_RECORD, EVENT_FIELDS, values) from None
    return b"".join(parts)


# ----------------------------------------------------------------------
# Event-batch codec
# ----------------------------------------------------------------------
wire_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),  # step
        st.sampled_from([JOIN, LEAVE]),
        st.integers(min_value=0, max_value=2**32 - 1),  # gid
        st.sampled_from(ROLES),
        st.booleans(),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),  # contact
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(rows=wire_events)
def test_event_batch_round_trip(rows):
    payload = pack_events(rows)
    assert isinstance(payload, bytes)
    assert len(payload) == len(rows) * EVENT_RECORD.size
    assert list(iter_events(payload)) == rows


@pytest.mark.parametrize(
    "row, field",
    [
        ((1, JOIN, 2**32, "honest", True, None), "gid"),  # overflows u32
        ((2**32, LEAVE, 5, "honest", False, None), "step"),
        ((1, "x", 5, "honest", False, None), "kind"),
        ((1, JOIN, 5, "observer", False, None), "role"),
        ((1, JOIN, 5, "honest", True, 2**31), "contact"),  # overflows i32
    ],
)
def test_event_batch_out_of_range_raises_naming_the_field(row, field):
    with pytest.raises(WireRangeError, match=f"field '{field}'"):
        pack_events([(1, JOIN, 1, "honest", True, None), row])


# ----------------------------------------------------------------------
# Observation-row codec
# ----------------------------------------------------------------------
wire_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),  # step
        st.sampled_from([JOIN, LEAVE]),
        st.sampled_from(ROLES),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
        st.integers(min_value=0, max_value=2**32 - 1),  # assigned
        st.integers(min_value=0, max_value=2**32 - 1),  # clusters
        st.floats(allow_nan=False, allow_infinity=False),  # worst (bit-exact f64)
        st.sampled_from(["join", "leave", "merge_split", None]),
        st.integers(min_value=0, max_value=2**32 - 1),  # messages
        st.integers(min_value=0, max_value=2**32 - 1),  # rounds
        st.integers(min_value=0, max_value=2**64 - 1),  # hops
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(rows=wire_rows)
def test_row_batch_round_trip(rows):
    payload = pack_rows(rows)
    assert isinstance(payload, tuple)
    ops, blob = payload
    assert len(blob) == len(rows) * ROW_RECORD.size
    assert list(iter_rows(payload)) == rows


@pytest.mark.parametrize(
    "row, field",
    [
        # gid overflows u32
        ((1, JOIN, "honest", None, 2**32, 3, 0.1, "join", 1, 1, 1), "assigned"),
        # node id overflows i32
        ((1, LEAVE, "honest", 2**31, 5, 3, 0.1, "leave", 1, 1, 1), "node"),
        # hops overflows u64
        ((1, JOIN, "honest", None, 5, 3, 0.1, "join", 1, 1, 2**64), "hops"),
        # unknown role
        ((1, JOIN, "observer", None, 5, 3, 0.1, "join", 1, 1, 1), "role"),
    ],
)
def test_row_batch_out_of_range_raises_naming_the_field(row, field):
    with pytest.raises(WireRangeError, match=f"field '{field}'"):
        pack_rows([row])


def test_row_batch_op_table_overflow_raises():
    rows = [
        (i, JOIN, "honest", None, i, 1, 0.0, f"op{i}", 0, 0, 0) for i in range(300)
    ]
    # 300 distinct op names exceed the one-byte table; 256 still fit.
    with pytest.raises(WireRangeError, match="field 'op'"):
        pack_rows(rows)
    assert list(iter_rows(pack_rows(rows[:256]))) == rows[:256]


# ----------------------------------------------------------------------
# route_window == per-event route
# ----------------------------------------------------------------------
def _build_directory(sizes, roles):
    directory = ShardDirectory(len(sizes))
    gid = 0
    for shard, size in enumerate(sizes):
        for _ in range(size):
            directory.register_initial(shard, gid, roles[gid])
            gid += 1
    return directory


def _script(rng, initial):
    """A valid churn stream over a model population of ``initial`` nodes."""
    active = set(range(initial))
    departed = set()
    next_id = initial
    script = []
    for _ in range(rng.randint(0, 120)):
        role = rng.choice([NodeRole.HONEST, NodeRole.BYZANTINE])
        draw = rng.random()
        if draw < 0.15:
            script.append(None)  # idle step
        elif draw < 0.45:
            script.append(ChurnEvent.join(role=role))
            active.add(next_id)
            next_id += 1
        elif draw < 0.60 and departed:
            gid = rng.choice(sorted(departed))
            departed.discard(gid)
            active.add(gid)
            script.append(ChurnEvent.join(role=role, node_id=gid))
        elif active:
            gid = rng.choice(sorted(active))
            active.discard(gid)
            departed.add(gid)
            script.append(ChurnEvent.leave(gid))
        else:
            script.append(None)
    return script


def _next_event_from(script):
    events = iter(script)

    def next_event():
        try:
            return next(events)
        except StopIteration:
            return None

    return next_event


def _route_one(directory, event, step):
    """One event through the directory's placement rules: the serial oracle."""
    if event.kind is ChurnKind.JOIN:
        shard, node_id, role, fresh = directory.place_join(event.node_id, event.role, step)
        kind = JOIN
    else:
        shard = directory.remove_leave(event.node_id, step)
        node_id, role, fresh, kind = event.node_id, event.role, False, LEAVE
    return RoutedEvent(shard, step, kind, node_id, role.value, fresh, directory.active_count())


def _serial_windows(script, directory, limit, max_idle_streak):
    """Replicates the pre-pipelining coordinator loop, one event at a time."""
    next_event = _next_event_from(script)
    events_routed = 0
    total = len(script)
    executed = 0
    idle_streak = 0
    windows = []
    while executed < total:
        routed_window = []
        idle_reason = None
        while len(routed_window) < limit and executed < total:
            executed += 1
            event = next_event()
            if event is None:
                idle_streak += 1
                if max_idle_streak is not None and idle_streak >= max_idle_streak:
                    idle_reason = "source idle"
                    break
                continue
            idle_streak = 0
            events_routed += 1
            routed_window.append(_route_one(directory, event, executed))
        windows.append((routed_window, idle_reason))
        if idle_reason is not None:
            break
    return windows, events_routed


def _wire(routed):
    return (routed.step, routed.kind, routed.node_id, routed.role, routed.fresh, routed.contact)


def _batched_windows(script, directory, limit, max_idle_streak):
    router = EventRouter(directory)
    pull = EventPull(_next_event_from(script), len(script), max_idle_streak=max_idle_streak)
    windows = []
    while not pull.done:
        window = router.route_window(pull, limit)
        windows.append((window.routed, "source idle" if pull.source_idle else None))
        # The packed buffers must decode to exactly the events they carry.
        for shard, payload in window.batches.items():
            assert list(iter_events(payload)) == [
                _wire(routed) for routed in window.routed if routed.shard == shard
            ]
    return windows, sum(len(routed) for routed, _ in windows)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.sampled_from([1, 2, 4]),
    limit=st.sampled_from([1, 5, 16, 64]),
    max_idle_streak=st.sampled_from([None, 2, 5]),
)
def test_route_window_equals_per_event_route(seed, shards, limit, max_idle_streak):
    rng = random.Random(seed)
    sizes = [rng.randint(3, 10) for _ in range(shards)]
    roles = [
        NodeRole.BYZANTINE if rng.random() < 0.2 else NodeRole.HONEST
        for _ in range(sum(sizes))
    ]
    script = _script(rng, sum(sizes))

    serial_dir = _build_directory(sizes, roles)
    batched_dir = _build_directory(sizes, roles)
    serial = _serial_windows(script, serial_dir, limit, max_idle_streak)
    batched = _batched_windows(script, batched_dir, limit, max_idle_streak)

    assert batched == serial
    assert batched_dir.fingerprint() == serial_dir.fingerprint()
    # The incremental member sets stay the exact inverse of the owner map.
    for shard in range(shards):
        assert batched_dir.members[shard] == {
            gid for gid, owner in batched_dir.owner.items() if owner == shard
        }


def test_route_window_out_of_range_gid_raises():
    # A gid beyond u32 is refused by name, not shipped in another format.
    directory = ShardDirectory(2)
    directory.register_initial(0, 0, NodeRole.HONEST)
    directory.register_initial(1, 2**33, NodeRole.HONEST)
    router = EventRouter(directory)
    script = [ChurnEvent.leave(0), ChurnEvent.leave(2**33)]
    with pytest.raises(WireRangeError, match="field 'gid' cannot hold 8589934592"):
        router.route_window(EventPull.given(script, 1), limit=8)
