"""The exchange round of trace v4, member by member, kept as a reference.

``ExchangeProtocol.exchange_all`` runs the rounds of a sequence of clusters
as one pass over tables it keeps for the whole pass.  This module states one
cluster's round plainly, member by member, from §3.1 and the v4 member
order (a pass is these rounds, one after the other):

* the clustered population is the concatenation of the clusters' slot lists
  in CSR row order (the overlay's sorted vertex order), rebuilt for every
  member;
* under oracle walks a member's partner and the member the partner gives up
  are one draw, ``population[rng.randrange(n)]``; under simulated walks the
  partner is where the member's walk ended, and it gives up slot
  ``rng.randrange(size)``: a pass draws one walk per member of each of its
  clusters, in order, as one batch before its first swap
  (:func:`reference_pass`);
* with randNum's ``adversary_override`` installed, the partner gives up the
  member the override names on a copy of its slots when at least two thirds
  of them are Byzantine, and slot ``rng.randrange(size)`` otherwise;
* a member whose partner is its own cluster stays;
* every swap goes through ``ClusterRegistry.swap_members``;
* each walk is priced at its hops and restarts (an oracle walk at the
  simulated walk's expected effort), each pick as one randNum among the
  partner's members, and the notification as the direct bipartite sum
  ``|C| * |C'|`` over live neighbours.

Written for clarity, not speed.  ``tests/test_exchange_reference.py`` drives
it and the engine's round on twin engines and requires the same slots, node
index, reports, ledgers and RNG state.
"""

from __future__ import annotations

from repro.core.exchange import ExchangeReport
from repro.core.randcl import hop_charges, segment_duration, walk_cost
from repro.network.message import MessageKind
from repro.walks.sampler import WalkMode, expected_effort

RANDNUM_SECURITY_THRESHOLD = 2.0 / 3.0


def direct_notification_cost(state, cluster_ids):
    """``(messages, rounds)``: every member of each updated cluster to every
    member of every live overlay neighbour, all in one round."""
    graph = state.overlay.graph
    clusters = state.clusters
    messages = 0
    for cluster_id in cluster_ids:
        if cluster_id not in graph or cluster_id not in clusters:
            continue
        size = len(clusters.get(cluster_id))
        for neighbour_id in graph.neighbours(cluster_id):
            if neighbour_id in clusters:
                messages += size * len(clusters.get(neighbour_id))
    return messages, 1 if messages else 0


def population(state):
    """``[(cluster_id, node), ...]``: every cluster's slots, clusters in CSR row order."""
    clusters = state.clusters
    return [
        (cluster_id, node)
        for cluster_id in state.overlay.graph.vertices()
        for node in clusters.get(cluster_id).members
    ]


def oracle_walk(state):
    """``(hops, restarts)`` every oracle walk reports: the simulated walk's expected effort."""
    graph = state.overlay.graph
    size = max(2, state.network_size)
    duration = segment_duration(state.parameters, size, graph.average_degree())
    return expected_effort(
        graph.vertex_count(),
        graph.average_degree(),
        graph.total_weight(),
        graph.max_weight(),
        duration,
    )


def reference_pick(rng, override, slots, byzantine):
    """``(node, adversary_controlled)`` of one randNum pick among a copy of ``slots``."""
    members = list(slots)
    size = len(members)
    controlled = len(byzantine.intersection(members)) / size >= RANDNUM_SECURITY_THRESHOLD
    if controlled and override is not None:
        index = int(override(members, size)) % size
    else:
        index = rng.randrange(size)
    return members[index], controlled


def pass_walks(state, randcl, cluster_ids):
    """An iterator over a pass's simulated walks: one per member of each cluster, in order."""
    clusters = state.clusters
    starts = [cid for cid in cluster_ids for _ in clusters.get(cid).members]
    # The batch RandCl.pass_walks draws, in cluster ids rather than rows.
    return iter(randcl._prepare_sampler().sample_many(starts))


def reference_pass(state, randcl, rng, cluster_ids, ledger, override=None):
    """A pass: its walks drawn up front, then each cluster's exchange in turn.

    Returns one :func:`reference_exchange_all` result per cluster.
    """
    walks = None
    if randcl.walk_mode is WalkMode.SIMULATED:
        walks = pass_walks(state, randcl, cluster_ids)
    return [
        reference_exchange_all(state, randcl, rng, cid, ledger, override=override, walks=walks)
        for cid in cluster_ids
    ]


def reference_exchange_all(
    state, randcl, rng, cluster_id, ledger, override=None, label="exchange", walks=None
):
    """One full-cluster exchange, member by member.

    ``randcl`` supplies the simulated walks, ``rng`` is the engine stream
    (oracle draws and picks) and ``override`` the randNum adversary hook (or
    ``None``).  Simulated walks come from ``walks``, the pass's iterator
    (:func:`pass_walks`); without one, the exchange is a pass of its own.
    Returns the report, the applied ``(node, partner_id, replacement)``
    swaps and the ``adversary_controlled`` flag of every pick.
    """
    clusters = state.clusters
    cluster = clusters.get(cluster_id)
    byzantine = state.nodes.active_byzantine()
    charges = hop_charges(len(clusters), state.network_size)
    size = len(cluster.members)
    simulated = randcl.walk_mode is WalkMode.SIMULATED
    if simulated and walks is None:
        walks = pass_walks(state, randcl, [cluster_id])

    walk_messages = walk_rounds = walk_hops = pick_messages = pick_rounds = 0
    swaps, controlled_flags = [], []
    for slot in range(size):
        node = cluster.members[slot]
        if simulated:
            walk = next(walks)
            partner_id, hops, restarts = walk.cluster, walk.hops, walk.restarts
        else:
            everyone = population(state)
            partner_id, replacement = everyone[rng.randrange(len(everyone))]
            hops, restarts = oracle_walk(state)
        messages, rounds = walk_cost(hops, restarts, charges)
        walk_messages += messages
        walk_rounds += rounds
        walk_hops += hops
        if partner_id == cluster_id:
            continue
        partner = clusters.get(partner_id)
        if not partner.members:
            continue
        if override is not None:
            replacement, controlled = reference_pick(rng, override, partner.members, byzantine)
            controlled_flags.append(controlled)
        elif simulated:
            replacement = partner.members[rng.randrange(len(partner.members))]
        partner_size = len(partner.members)
        pick_messages += 2 * partner_size * (partner_size - 1)
        pick_rounds += 2
        clusters.swap_members(cluster_id, node, partner_id, replacement)
        swaps.append((node, partner_id, replacement))

    cluster.exchanges_performed += 1
    cluster.last_full_exchange = state.time_step
    if size:
        ledger.charge(walk_messages, walk_rounds, kind=MessageKind.WALK, label=label)
    if swaps:
        ledger.charge(pick_messages, pick_rounds, kind=MessageKind.RANDNUM, label=label)
    partners = sorted({partner_id for _, partner_id, _ in swaps})
    notify_messages, notify_rounds = direct_notification_cost(state, [cluster_id, *partners])
    if notify_messages:
        ledger.charge(notify_messages, notify_rounds, kind=MessageKind.MEMBERSHIP, label=label)
    report = ExchangeReport(
        cluster_ids=[cluster_id],
        swap_count=len(swaps),
        partner_clusters=set(partners),
        messages=walk_messages + pick_messages + notify_messages,
        rounds=walk_rounds + pick_rounds + notify_rounds,
        walk_hops=walk_hops,
    )
    return report, swaps, controlled_flags
