"""Analysis utilities: theory predictions, complexity fitting, statistics, reporting.

The benchmarks compare measured quantities against what the paper's lemmas
predict; this package holds the machinery for both sides of that comparison:

* :mod:`repro.analysis.bounds`     — Chernoff / Azuma–Hoeffding predictions
  behind Lemmas 1–3 and Theorem 3 (cluster corruption tail probabilities,
  recommended ``k`` for a wanted failure probability),
* :mod:`repro.analysis.complexity` — log–log regression helpers that decide
  whether a measured cost curve grows polylogarithmically or polynomially and
  estimate the exponent,
* :mod:`repro.analysis.statistics` — summaries of corruption trajectories
  (time above a threshold, exceedance counts, quantiles),
* :mod:`repro.analysis.reporting`  — plain-text experiment tables for
  the benchmark output (experiment inventory in docs/ARCHITECTURE.md).

``complexity`` computes with numpy, so this package does not import it:
import its fits from :mod:`repro.analysis.complexity`.
"""

from .bounds import (
    azuma_exceedance_bound,
    chernoff_cluster_tail,
    expected_fraction_after_exchange,
    recommended_k,
)
from .statistics import (
    MeanConfidence,
    QuantileSketch,
    RunningSummary,
    TrajectorySummary,
    mean_confidence,
    summarize_fractions,
    summarize_values,
)
from .reporting import format_table, ExperimentTable

__all__ = [
    "chernoff_cluster_tail",
    "azuma_exceedance_bound",
    "expected_fraction_after_exchange",
    "recommended_k",
    "MeanConfidence",
    "QuantileSketch",
    "RunningSummary",
    "mean_confidence",
    "TrajectorySummary",
    "summarize_fractions",
    "summarize_values",
    "format_table",
    "ExperimentTable",
]
