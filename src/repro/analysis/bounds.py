"""Probability bounds behind the paper's lemmas.

These are the closed forms the experiments compare their measurements to:

* **Lemma 1** (cluster after a full exchange): the number of Byzantine nodes
  among ``m`` freshly exchanged members is stochastically dominated by
  ``Binomial(m, tau)``, so
  ``P[fraction > tau (1 + eps)] <= exp(-eps^2 tau m / 3)`` (multiplicative
  Chernoff).
* **Lemmas 2–3** (between exchanges): the corruption fraction is dominated by
  a ``+-1/m`` martingale, and Azuma–Hoeffding bounds the probability that it
  climbs by ``eps * tau`` within ``T`` exchanged nodes.
* **Theorem 3** follows by union bound over clusters and time steps; the
  helper :func:`recommended_k` inverts the bound to suggest a cluster-size
  parameter ``k`` for a wanted failure probability — which is also the honest
  answer to "why do small simulated clusters occasionally exceed one third":
  the theorem's constant ``k`` is genuinely large.
"""

from __future__ import annotations

import math


def chernoff_cluster_tail(cluster_size: int, tau: float, epsilon: float) -> float:
    """Upper bound on ``P[Byzantine fraction > tau (1 + epsilon)]`` after a full exchange.

    Multiplicative Chernoff bound for ``Binomial(cluster_size, tau)``:
    ``exp(-epsilon^2 * tau * cluster_size / 3)`` (valid for ``0 < epsilon <= 1``).
    """
    if cluster_size <= 0:
        return 1.0
    if tau <= 0.0:
        return 0.0
    epsilon = max(1e-12, min(1.0, epsilon))
    return math.exp(-(epsilon ** 2) * tau * cluster_size / 3.0)


def exact_binomial_tail(cluster_size: int, tau: float, threshold_fraction: float) -> float:
    """Exact ``P[Binomial(cluster_size, tau) >= threshold_fraction * cluster_size]``.

    Used by tests and experiments when the Chernoff bound is too loose to be
    informative at simulation scales.
    """
    if cluster_size <= 0:
        return 1.0
    threshold = math.ceil(threshold_fraction * cluster_size)
    probability = 0.0
    for count in range(threshold, cluster_size + 1):
        probability += (
            math.comb(cluster_size, count)
            * (tau ** count)
            * ((1.0 - tau) ** (cluster_size - count))
        )
    return min(1.0, probability)


def azuma_exceedance_bound(
    cluster_size: int, epsilon: float, tau: float, exchanges: int
) -> float:
    """Azuma–Hoeffding bound from Lemma 2.

    Probability that, starting from a fraction at most ``tau (1 + eps/2)``,
    the corruption fraction exceeds ``tau (1 + eps)`` within ``exchanges``
    single-node exchanges: the martingale moves by at most ``1/cluster_size``
    per exchange, so the drift needed is ``eps * tau / 2`` and

        P <= exp( - (eps * tau / 2)^2 / (2 * exchanges / cluster_size^2) ).
    """
    if cluster_size <= 0 or exchanges <= 0:
        return 1.0
    gap = epsilon * tau / 2.0
    variance_budget = exchanges * (1.0 / cluster_size) ** 2
    if variance_budget <= 0:
        return 0.0
    return math.exp(-(gap ** 2) / (2.0 * variance_budget))


def expected_fraction_after_exchange(tau: float) -> float:
    """Expected Byzantine fraction of a cluster right after a full exchange.

    Each replacement member is (up to the walk's ``O(n^-c)`` bias) a uniform
    sample of the network, hence Byzantine with probability ``tau``.
    """
    return tau


def recommended_k(
    max_size: int,
    tau: float,
    epsilon: float,
    failure_probability: float = 1e-3,
    time_steps: int = 10_000,
    log_base_value: float = 2.0,
) -> float:
    """Smallest ``k`` making the union-bounded failure probability acceptable.

    Inverts the Chernoff bound of Lemma 1: the per-exchange failure
    probability must be at most ``failure_probability / (time_steps * #C)``,
    with ``#C <= max_size / (k log N)`` clusters; solving
    ``exp(-eps^2 tau k log N / 3) <= budget`` for ``k`` gives the value
    returned (clamped to at least 1).
    """
    if max_size < 2:
        return 1.0
    log_n = math.log(max_size, log_base_value)
    cluster_budget = max(1.0, max_size / max(1.0, log_n))
    per_event_budget = failure_probability / max(1.0, time_steps * cluster_budget)
    epsilon = max(1e-9, min(1.0, epsilon))
    tau = max(1e-9, tau)
    needed_exponent = -math.log(per_event_budget)
    k = 3.0 * needed_exponent / (epsilon ** 2 * tau * log_n)
    return max(1.0, k)
