"""E10 — CTRW uniformity and Lemma 1: the sampling assumption behind the analysis.

Paper claims (Sections 3.1 and 4): the biased CTRW selects a cluster with
probability ``|C| / n`` (equivalently, nodes uniformly), and the analysis may
treat the walk's output as perfectly distributed because the residual bias
after the chosen mixing time is ``O(n^-c)``.  Lemma 1 then states that a
cluster that has exchanged all its nodes holds at most a ``tau (1 + eps)``
fraction of Byzantine nodes whp.

What we run:

1. **Walk uniformity** — on a live overlay, compute the biased CTRW's exact
   endpoint law (``repro.walks.law``) at the length ``randCl`` configures and
   report its total-variation distance to the target ``|C|/n`` from every
   start (max and mean).  Sampled walks cannot see a bias that small, so
   they are tested for what they can show: the *simulated* walks' endpoints
   fit the exact law's row and the oracle sampler's fit ``|C|/n``
   (one-sample chi-square, p = 0.001).  This is also the experiment
   justifying the oracle walk mode used by the long-churn benchmarks
   (docs/ARCHITECTURE.md design notes).
2. **Lemma 1** — repeatedly force a full exchange of one cluster and compare
   the post-exchange Byzantine fraction distribution against the binomial
   model ``Bin(|C|, tau)`` (mean and exceedance rate of ``tau (1 + eps)``
   versus the Chernoff/exact tails).
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentTable, chernoff_cluster_tail
from repro.analysis.bounds import exact_binomial_tail
from repro.analysis.statistics import chi_square_critical
from repro.core.exchange import ExchangeProtocol
from repro.core.randcl import RandCl
from repro.walks.law import biased_law, total_variation
from repro.walks.sampler import WalkMode

from common import bootstrap_engine, run_once

MAX_SIZE = 2048
INITIAL = 220
TAU = 0.15
WALK_SAMPLES = 1200
EXCHANGE_TRIALS = 120
EPSILON = 0.5
#: Bound on the exact law's max TV to ``|C|/n``.  Exact, so set just above
#: what seed 1001's overlay gives at the default walk length (8.0e-6).
TV_BOUND = 1e-5


def chi_square(counts, law_row) -> float:
    """One-sample chi-square of endpoint ``counts`` (a row-indexed list) against ``law_row``."""
    expected = sum(counts) * law_row
    return float(sum((count - e) ** 2 / e for count, e in zip(counts, expected) if e > 0))


def run_walk_uniformity(seed: int):
    engine = bootstrap_engine(MAX_SIZE, INITIAL, tau=TAU, seed=seed)
    state = engine.state
    randcl_simulated = RandCl(state, walk_mode=WalkMode.SIMULATED)
    randcl_oracle = RandCl(state, walk_mode=WalkMode.ORACLE)
    csr = state.overlay.graph.csr()
    start = state.clusters.cluster_ids()[0]

    simulated_counts = [0] * len(csr)
    oracle_counts = [0] * len(csr)
    hops_total = 0
    for _ in range(WALK_SAMPLES):
        sim = randcl_simulated.select(start)
        ora = randcl_oracle.select(start)
        simulated_counts[csr.row_of(sim.cluster_id)] += 1
        oracle_counts[csr.row_of(ora.cluster_id)] += 1
        hops_total += sim.hops
    segment, max_restarts = randcl_simulated._walk_params
    law = biased_law(csr, segment, max_restarts)
    weights = csr.numpy_views()["weights"]
    target = weights / weights.sum()
    tv = total_variation(law, target)
    return {
        "segment_duration": segment,
        "max_restarts": max_restarts,
        "tv_max": float(tv.max()),
        "tv_mean": float(tv.mean()),
        "chi2_simulated_vs_law": chi_square(simulated_counts, law[csr.row_of(start)]),
        "chi2_oracle_vs_target": chi_square(oracle_counts, target),
        "chi2_critical": chi_square_critical(len(csr) - 1),
        "mean_hops": hops_total / WALK_SAMPLES,
        "cluster_count": engine.cluster_count,
    }


def run_lemma1(seed: int):
    engine = bootstrap_engine(MAX_SIZE, INITIAL, tau=TAU, seed=seed)
    state = engine.state
    randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
    exchange = ExchangeProtocol(state, randcl)
    target = state.clusters.cluster_ids()[0]
    cluster_size = len(state.clusters.get(target))

    fractions = []
    exceedances = 0
    threshold = TAU * (1.0 + EPSILON)
    for _ in range(EXCHANGE_TRIALS):
        exchange.exchange_all([target])
        fraction = state.cluster_byzantine_fraction(target)
        fractions.append(fraction)
        if fraction > threshold:
            exceedances += 1
    return {
        "cluster_size": cluster_size,
        "mean_fraction": sum(fractions) / len(fractions),
        "max_fraction": max(fractions),
        "exceedance_rate": exceedances / EXCHANGE_TRIALS,
        "chernoff_bound": chernoff_cluster_tail(cluster_size, TAU, EPSILON),
        "exact_tail": exact_binomial_tail(cluster_size, TAU, threshold),
    }


def run_experiment():
    return {"walks": run_walk_uniformity(seed=1001), "lemma1": run_lemma1(seed=1002)}


@pytest.mark.experiment("E10")
def test_ctrw_uniformity_and_lemma1(benchmark):
    result = run_once(benchmark, run_experiment)
    walks = result["walks"]
    lemma = result["lemma1"]

    walk_table = ExperimentTable(
        title=(
            f"E10a biased CTRW uniformity ({walks['cluster_count']} clusters, segment "
            f"{walks['segment_duration']:.3g}, {walks['max_restarts']} restarts; "
            f"{WALK_SAMPLES} sampled walks)"
        ),
        headers=[
            "max TV(exact law, |C|/n)",
            "mean TV(exact law, |C|/n)",
            "chi2 simulated vs exact row",
            "chi2 oracle vs |C|/n",
            "chi2 critical (p=0.001)",
            "mean hops per walk",
        ],
    )
    walk_table.add_row(
        walks["tv_max"],
        walks["tv_mean"],
        walks["chi2_simulated_vs_law"],
        walks["chi2_oracle_vs_target"],
        walks["chi2_critical"],
        walks["mean_hops"],
    )
    walk_table.add_note(
        "Paper (Section 4): the walk's endpoint distribution may be treated as the exact "
        "|C|/n distribution. The TV columns are computed from the overlay (max and mean over "
        "start clusters), not sampled; the sampled walks only have to fit their exact laws."
    )
    walk_table.print()

    lemma_table = ExperimentTable(
        title=f"E10b Lemma 1 - cluster corruption right after a full exchange (tau={TAU})",
        headers=[
            "cluster size",
            "mean fraction",
            "max fraction",
            f"P[fraction > tau(1+{EPSILON})] measured",
            "exact binomial tail",
            "Chernoff bound",
        ],
    )
    lemma_table.add_row(
        lemma["cluster_size"],
        lemma["mean_fraction"],
        lemma["max_fraction"],
        lemma["exceedance_rate"],
        lemma["exact_tail"],
        lemma["chernoff_bound"],
    )
    lemma_table.add_note(
        "Lemma 1: P[fraction > tau(1+eps)] <= exp(-eps^2 tau |C| / 3) after a full "
        "exchange; the measured exceedance rate must sit at or below the exact binomial "
        "tail (up to Monte-Carlo noise), which itself sits below the Chernoff bound."
    )
    lemma_table.print()

    assert walks["tv_max"] < TV_BOUND
    assert walks["chi2_simulated_vs_law"] < walks["chi2_critical"]
    assert walks["chi2_oracle_vs_target"] < walks["chi2_critical"]
    assert walks["mean_hops"] > 1.0

    assert lemma["mean_fraction"] == pytest.approx(TAU, abs=0.06)
    measurement_noise = 3.0 * (lemma["exact_tail"] / EXCHANGE_TRIALS) ** 0.5 + 0.03
    assert lemma["exceedance_rate"] <= lemma["exact_tail"] + measurement_noise
    assert lemma["exact_tail"] <= lemma["chernoff_bound"] + 1e-9
