"""The spine's estimators: how raw timings become reported numbers.

Noise on a small shared box is bursty and mostly one-sided — a neighbour only
ever makes a stretch slower — so no timed metric is one long average of
whatever happened:

* a batch event's cost is the **minimum over same-seed passes** (in
  ``batch.py``: the passes apply identical events);
* a latency percentile is the value of the **quietest window** — the least
  of the per-window percentiles — when every window holds enough samples
  for that percentile, else the percentile of the pooled samples (the
  sample count is always reported next to it);
* a service's capacity is the mean rate of its **three quietest bursts**,
  the bursts being equal work (in ``serve.py``);
* the **spread** of a set of values is the interquartile range over the
  median, the same statistic the acceptance rule applies across runs;
* a quiet-end estimate stands on its best repeats, so what vouches for it
  is the **repeat gap**: how far the last repeat it rests on is from the
  best one.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linear between order statistics.

    The benchmark's own arithmetic, not ``repro.analysis.statistics.quantile``:
    a change to the program must not be able to move how it is measured.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def windowed_percentile(windows: Sequence[Sequence[float]], q: float) -> float:
    """Least of the per-window ``q``-quantiles, pooled when a window is thin.

    A window is thin when it cannot place ten samples beyond the quantile
    (1000 samples for p99, 40 for p75, 20 for the median); empty windows are
    ignored.
    """
    filled = [window for window in windows if window]
    if not filled:
        raise ValueError("no samples in any window")
    needed = 10.0 / (1.0 - q)
    if min(len(window) for window in filled) >= needed:
        return min(percentile(window, q) for window in filled)
    pooled: List[float] = [value for window in filled for value in window]
    return percentile(pooled, q)


def repeat_gap(values: Sequence[float], best=min, count: int = 2) -> float:
    """Distance of the ``count``-th best of ``values`` from the best, over
    the best (``best`` is ``min`` for times, ``max`` for rates; 0 when there
    are fewer than ``count`` values)."""
    ordered = sorted(values, reverse=best is max)
    if len(ordered) < count or not ordered[0]:
        return 0.0
    return abs(ordered[count - 1] - ordered[0]) / ordered[0]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
