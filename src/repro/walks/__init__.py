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
* :mod:`repro.walks.kernel`     — the hop engine: the biased CTRW,
  uniformized, in batches (scalar or vector executor by round size),
* :mod:`repro.walks.law`        — that walk's exact endpoint law, and its
  total-variation distance to ``|C| / n``,
* :mod:`repro.walks.sampler`    — the cluster sampler ``randCl`` draws from,
  walking through the hop engine or, in "oracle" mode for long simulations,
  drawing from the walk's stationary law.

``kernel`` and ``law`` compute with numpy, so this package does not
import them: an oracle run never loads numpy.  Import them by module path.
"""

from .interface import WalkableGraph, MappingGraph
from .csr import CSRLayout
from .sampler import ClusterSampler, SampleOutcome, WalkMode, resolve_kernel_name

__all__ = [
    "WalkableGraph",
    "MappingGraph",
    "CSRLayout",
    "resolve_kernel_name",
    "ClusterSampler",
    "SampleOutcome",
    "WalkMode",
]
