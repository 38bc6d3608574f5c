"""The exchange round as it ran member by member, kept as a reference.

``ExchangeProtocol.exchange_all`` resolves everything a round cannot change
once per round (partner views, the walk cost model, the oracle draw
function) and hands its swaps to the registry as one batch.  This module
keeps the round it replaced, which resolved all of that per member:

* one ``randCl`` per member — an oracle walk is a full
  :meth:`~repro.core.randcl.RandCl.select` (the sampler re-resolved, one
  ``sample_weighted_vertex`` draw), a simulated one comes from the round's
  lockstep batch, exactly as before;
* one ``randNum`` pick per swap, on a fresh copy of the partner's sorted
  members, with the Byzantine share taken by intersecting the active
  Byzantine set with that list;
* one ``ClusterRegistry.swap_members`` per swap, one listener event each;
* the neighbour notification as the direct bipartite sum
  ``|C| * |C'|`` over live neighbours.

Written for clarity, not speed.  ``tests/test_exchange_reference.py`` drives
it and the engine's round on twin engines and requires the same swaps,
reports, ledgers and RNG state.
"""

from __future__ import annotations

from repro.core.exchange import ExchangeReport
from repro.network.message import MessageKind
from repro.walks.sampler import WalkMode

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


def reference_pick(rng, override, member_list, byzantine):
    """``(node, messages, rounds, adversary_controlled)`` of one randNum pick."""
    size = len(member_list)
    controlled = len(byzantine.intersection(member_list)) / size >= RANDNUM_SECURITY_THRESHOLD
    if controlled and override is not None:
        index = int(override(member_list, size)) % size
    else:
        index = rng.randrange(size)
    return member_list[index], 2 * size * (size - 1), 2, controlled


def reference_exchange_all(state, randcl, rng, cluster_id, ledger, override=None, label="exchange"):
    """One full-cluster exchange, member by member.

    ``randcl`` supplies the walks, ``rng`` is the randNum stream and
    ``override`` the randNum adversary hook (or ``None``).  Returns the
    report and the ``adversary_controlled`` flag of every pick.
    """
    report = ExchangeReport(cluster_id=cluster_id)
    clusters = state.clusters
    cluster = clusters.get(cluster_id)
    byzantine = state.nodes.active_byzantine()
    original_members = cluster.member_list()
    if randcl.walk_mode is WalkMode.SIMULATED:
        batch = randcl.walks(cluster_id, len(original_members))

        def walk():
            return randcl.finalize(cluster_id, next(batch))

    else:

        def walk():
            return randcl.select(cluster_id)

    walk_messages = walk_rounds = pick_messages = pick_rounds = 0
    walked = picked = 0
    controlled_flags = []
    for node_id in original_members:
        if node_id not in cluster.members:
            continue
        result = walk()
        walked += 1
        walk_messages += result.messages
        walk_rounds += result.rounds
        report.walk_hops += result.hops
        partner_id = result.cluster_id
        if partner_id == cluster_id:
            continue
        partner = clusters.get(partner_id)
        if not partner.members:
            continue
        replacement, messages, rounds, controlled = reference_pick(
            rng, override, partner.member_list(), byzantine
        )
        picked += 1
        pick_messages += messages
        pick_rounds += rounds
        controlled_flags.append(controlled)
        clusters.swap_members(cluster_id, node_id, partner_id, replacement)
        report.swaps.append((node_id, partner_id, replacement))
        report.partner_clusters.add(partner_id)

    cluster.exchanges_performed += 1
    cluster.last_full_exchange = state.time_step
    if walked:
        ledger.charge(walk_messages, walk_rounds, kind=MessageKind.WALK, label=label)
    if picked:
        ledger.charge(pick_messages, pick_rounds, kind=MessageKind.RANDNUM, label=label)
    notify_messages, notify_rounds = direct_notification_cost(
        state, [cluster_id, *sorted(report.partner_clusters)]
    )
    if notify_messages:
        ledger.charge(notify_messages, notify_rounds, kind=MessageKind.MEMBERSHIP, label=label)
    report.messages = walk_messages + pick_messages + notify_messages
    report.rounds = walk_rounds + pick_rounds + notify_rounds
    return report, controlled_flags
