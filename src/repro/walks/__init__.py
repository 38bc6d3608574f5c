"""Random walks on the cluster overlay.

The paper's key sampling primitive, ``randCl``, is a *biased continuous
random walk* (CTRW) on the OVER overlay: the walk visits clusters, each hop
decided collaboratively by the current cluster via ``randNum``, and it is
biased so that the endpoint cluster ``C`` is selected with probability
``|C| / n`` — i.e. sampling a cluster this way is equivalent to sampling a
*node* uniformly at random and returning its cluster.

This package provides:

* :mod:`repro.walks.interface`  — the minimal graph interface walks need,
* :mod:`repro.walks.csr`        — the flat CSR snapshot the hop engine indexes,
* :mod:`repro.walks.kernel`     — the hop engine: plain and biased CTRWs in
  batches (scalar or vector path by batch size),
* :mod:`repro.walks.mixing`     — mixing-time and total-variation estimation,
* :mod:`repro.walks.sampler`    — the cluster sampler ``randCl`` draws from,
  walking through the hop engine or, in "oracle" mode for long simulations,
  drawing from the walk's stationary law.
"""

from .interface import WalkableGraph, MappingGraph
from .csr import CSRLayout
from .kernel import ArrayKernel, resolve_kernel_name
from .mixing import total_variation_distance, empirical_distribution, estimate_mixing_time
from .sampler import ClusterSampler, SampleOutcome, WalkMode

__all__ = [
    "WalkableGraph",
    "MappingGraph",
    "CSRLayout",
    "ArrayKernel",
    "resolve_kernel_name",
    "total_variation_distance",
    "empirical_distribution",
    "estimate_mixing_time",
    "ClusterSampler",
    "SampleOutcome",
    "WalkMode",
]
