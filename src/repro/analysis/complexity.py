"""Complexity fitting: is a measured cost curve polylogarithmic or polynomial?

The paper's headline complexity claims are asymptotic ("each operation has a
``polylog(N)`` complexity", "randCl costs ``O(log^5 N)``", "the initialization
costs ``O(N^{3/2} log N)``").  To compare a set of measured ``(size, cost)``
points against such claims we fit two simple models by least squares on
log-transformed data:

* power law          ``cost ~ a * size^b``            (fit ``log cost`` vs ``log size``),
* polylogarithmic    ``cost ~ a * (log size)^b``      (fit ``log cost`` vs ``log log size``),

and report the exponents and goodness of fit.  A cost that is genuinely
polylog shows a small power-law exponent that *decreases* as the size range
grows, and a stable polylog exponent; the experiment tables report both so
the reader can judge the shape the way the paper states it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """Result of a least-squares fit of ``cost = a * x^b`` on transformed data."""

    exponent: float
    prefactor: float
    r_squared: float
    model: str

    def predict(self, value: float) -> float:
        """Predicted cost at ``value`` (in the model's own x variable)."""
        return self.prefactor * (value ** self.exponent)


def _fit_loglog(xs: np.ndarray, ys: np.ndarray, model: str) -> FitResult:
    log_x = np.log(xs)
    log_y = np.log(ys)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predictions = slope * log_x + intercept
    residual = float(np.sum((log_y - predictions) ** 2))
    total = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return FitResult(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=float(r_squared),
        model=model,
    )


def _validate(sizes: Sequence[float], costs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    if len(sizes) != len(costs):
        raise ValueError("sizes and costs must have the same length")
    if len(sizes) < 2:
        raise ValueError("need at least two points to fit an exponent")
    xs = np.asarray(sizes, dtype=float)
    ys = np.asarray(costs, dtype=float)
    if np.any(xs <= 1.0) or np.any(ys <= 0.0):
        raise ValueError("sizes must exceed 1 and costs must be positive")
    return xs, ys


def fit_power_law(sizes: Sequence[float], costs: Sequence[float]) -> FitResult:
    """Fit ``cost ~ a * size^b`` and return the exponent ``b``."""
    xs, ys = _validate(sizes, costs)
    return _fit_loglog(xs, ys, model="power")


def fit_polylog(sizes: Sequence[float], costs: Sequence[float]) -> FitResult:
    """Fit ``cost ~ a * (log2 size)^b`` and return the exponent ``b``."""
    xs, ys = _validate(sizes, costs)
    logs = np.log2(xs)
    if np.any(logs <= 1.0):
        logs = np.maximum(logs, 1.0 + 1e-9)
    return _fit_loglog(logs, ys, model="polylog")


def is_consistent_with_polylog(
    sizes: Sequence[float],
    costs: Sequence[float],
    max_power_exponent: float = 0.85,
) -> bool:
    """Heuristic verdict: does the curve look polylog rather than polynomial?

    A genuinely polylogarithmic cost, measured over a finite size range,
    yields a small apparent power-law exponent; a linear-or-worse cost yields
    an exponent close to or above 1.  ``max_power_exponent`` is the decision
    threshold (default 0.85, comfortably separating ``log^c`` growth from
    linear growth over the ranges the benchmarks sweep).
    """
    return fit_power_law(sizes, costs).exponent <= max_power_exponent
