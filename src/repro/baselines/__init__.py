"""The unclustered baseline NOW's application costs are compared against.

The conclusion compares application-level costs against the unclustered
(single committee / naive flooding) approach:
:class:`SingleClusterBaseline` supplies those ``O(n^2)`` message costs (E8).
The clustering schemes NOW is compared against (no shuffling, the cuckoo
rule, a static cluster count) are placement rules of the one engine, not
engines of their own: see :mod:`repro.core.placement`.
"""

from .single_cluster import SingleClusterBaseline

__all__ = ["SingleClusterBaseline"]
