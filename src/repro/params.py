"""Protocol parameters for NOW and OVER.

The paper states its guarantees in terms of a handful of constants:

* ``N``       — the maximum size of the system (the name-space size).  The
  current size ``n`` is allowed to vary polynomially, i.e. within
  ``[sqrt(N), N]`` (more generally ``[N**(1/y), N**z]``).
* ``k``       — the cluster-size security parameter; clusters have target
  size ``k * log(N)``.  The larger ``k``, the smaller the probability that
  the adversary ever controls a third of one cluster.
* ``l``       — split/merge threshold constant, ``l > sqrt(2)``.  A cluster
  splits when it exceeds ``l * k * log(N)`` members and merges when it drops
  below ``k * log(N) / l``.
* ``alpha``   — overlay degree exponent: OVER keeps the degree of every
  cluster below ``c * log^(1+alpha)(N)`` and the isoperimetric constant above
  ``log^(1+alpha)(N) / 2``.
* ``tau``     — the fraction of nodes controlled by the Byzantine adversary,
  with ``tau <= 1/3 - eps`` for a constant ``eps > 0``.

:class:`ProtocolParameters` bundles these together with the derived
quantities used throughout the implementation (cluster size targets, overlay
edge probability, walk lengths) and validates their mutual consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigurationError


def log_base(value: float, base: float = 2.0) -> float:
    """Logarithm of ``value`` in the given base, guarded against log(0)."""
    if value <= 1.0:
        return 1.0
    return math.log(value, base)


@dataclass(frozen=True)
class ProtocolParameters:
    """Immutable bundle of the NOW/OVER protocol constants.

    Parameters
    ----------
    max_size:
        ``N``, the maximum network size.  The current size must stay within
        ``[min_size, max_size]``.
    k:
        Cluster-size security parameter; target cluster size is
        ``k * log(N)`` nodes.
    l:
        Split/merge threshold constant.  Must exceed ``sqrt(2)`` so that a
        freshly split cluster does not immediately trigger a merge.
    alpha:
        Overlay degree exponent; OVER targets degree ``O(log^(1+alpha) N)``.
    tau:
        Fraction of nodes controlled by the adversary.
    epsilon:
        Slack constant; the guarantees require ``tau <= 1/3 - epsilon``.
    log_base_value:
        Base of the logarithms used for every ``log(N)`` expression
        (the paper leaves the base unspecified; base 2 is the default).
    degree_constant:
        The constant ``c`` in the maximum-degree bound ``c log^(1+alpha) N``.
    walk_length_constant:
        Constant factor for the CTRW length (walks of
        ``walk_length_constant * log^2 n`` hops).
    walk_repeats_constant:
        Constant factor for the number of CTRW restarts
        (``walk_repeats_constant * log n`` walks).
    min_size:
        Lower bound on the admissible current size; defaults to
        ``sqrt(max_size)`` when ``None``.
    """

    max_size: int
    k: float = 2.0
    l: float = 2.0
    alpha: float = 0.1
    tau: float = 0.25
    epsilon: float = 0.05
    log_base_value: float = 2.0
    degree_constant: float = 3.0
    walk_length_constant: float = 1.0
    walk_repeats_constant: float = 1.0
    min_size: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        # Every field is a number (``min_size`` may be None).  A NaN compares
        # false against every bound below, and an infinity passes most of
        # them, so finiteness is checked first.
        for item in fields(self):
            value = getattr(self, item.name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{item.name} must be finite (got {value!r})")
        if self.max_size < 4:
            raise ConfigurationError("max_size (N) must be at least 4")
        if self.k <= 0:
            raise ConfigurationError("cluster security parameter k must be positive")
        if self.l <= math.sqrt(2):
            raise ConfigurationError("split/merge constant l must exceed sqrt(2)")
        if self.alpha < 0:
            raise ConfigurationError("alpha must be non-negative")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigurationError("tau must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.tau > (1.0 / 3.0) - self.epsilon + 1e-12:
            raise ConfigurationError(
                f"the guarantees require tau <= 1/3 - epsilon "
                f"(got tau={self.tau}, epsilon={self.epsilon})"
            )
        if self.log_base_value <= 1.0:
            raise ConfigurationError("log base must exceed 1")
        for name in ("degree_constant", "walk_length_constant", "walk_repeats_constant"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive (got {value!r})")
        if self.min_size is not None and self.min_size < 1:
            raise ConfigurationError("min_size must be positive")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def log_n(self) -> float:
        """``log(N)`` in the configured base."""
        return log_base(self.max_size, self.log_base_value)

    @property
    def target_cluster_size(self) -> int:
        """Target cluster size ``k * log(N)`` (at least 3 nodes)."""
        return max(3, int(round(self.k * self.log_n)))

    @property
    def split_threshold(self) -> int:
        """A cluster larger than this triggers a split (``l * k * log N``)."""
        return max(self.target_cluster_size + 1, int(math.ceil(self.l * self.k * self.log_n)))

    @property
    def merge_threshold(self) -> int:
        """A cluster smaller than this triggers a merge (``k * log N / l``)."""
        return max(2, int(math.floor(self.k * self.log_n / self.l)))

    @property
    def overlay_degree_target(self) -> int:
        """Target overlay degree ``log^(1+alpha) N`` (at least 2)."""
        return max(2, int(round(self.log_n ** (1.0 + self.alpha))))

    @property
    def overlay_degree_cap(self) -> int:
        """Maximum tolerated overlay degree ``c * log^(1+alpha) N``."""
        return max(3, int(round(self.degree_constant * self.log_n ** (1.0 + self.alpha))))

    @property
    def overlay_edge_probability(self) -> float:
        """Erdős–Rényi edge probability ``log^(1+alpha) N / sqrt(N)`` capped at 1."""
        prob = self.log_n ** (1.0 + self.alpha) / math.sqrt(self.max_size)
        return min(1.0, prob)

    @property
    def lower_size_bound(self) -> int:
        """Smallest admissible current network size (``sqrt(N)`` by default)."""
        if self.min_size is not None:
            return self.min_size
        return max(4, int(math.floor(math.sqrt(self.max_size))))

    @property
    def byzantine_alarm_fraction(self) -> float:
        """Fraction at which a cluster is considered compromised (one third)."""
        return 1.0 / 3.0

    @property
    def expected_divergence_bound(self) -> float:
        """Lemma 2's transient upper bound ``tau * (1 + epsilon)`` on cluster corruption."""
        return self.tau * (1.0 + self.epsilon)

    def walk_length(self, current_size: int) -> int:
        """Length (in overlay hops) of a single CTRW for a system of ``current_size`` nodes."""
        log_cur = log_base(max(2, current_size), self.log_base_value)
        return max(2, int(round(self.walk_length_constant * log_cur * log_cur)))

    def walk_repeats(self, current_size: int) -> int:
        """Number of CTRW restarts performed by a biased walk."""
        log_cur = log_base(max(2, current_size), self.log_base_value)
        return max(1, int(round(self.walk_repeats_constant * log_cur)))

    def initial_cluster_count(self, initial_size: int) -> int:
        """Number of clusters created at initialization for ``initial_size`` nodes."""
        return max(1, initial_size // self.target_cluster_size)

    def with_updates(self, **changes) -> "ProtocolParameters":
        """Return a copy of the parameters with the given fields replaced."""
        return replace(self, **changes)


def default_parameters(max_size: int = 1024, **overrides) -> ProtocolParameters:
    """Convenience constructor with sensible defaults for simulations.

    ``max_size`` is the only mandatory choice; every other field can be
    overridden by keyword.
    """
    return ProtocolParameters(max_size=max_size, **overrides)
