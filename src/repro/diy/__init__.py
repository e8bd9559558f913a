"""DIY-like block-parallel decomposition substrate.

LowFive depends on the DIY block-parallel model "to perform efficient
data redistribution" (paper Fig. 2). The parts it actually uses are
implemented here:

- :class:`~repro.diy.bounds.Bounds` -- integer bounding boxes,
- :class:`~repro.diy.decomposer.RegularDecomposer` -- the *common
  decomposition*: factor ``n`` processes into ``d`` near-equal factors
  and cut the domain into an ``n1 x ... x nd`` grid of blocks
  (paper Sec. III-B, Fig. 4), with block ``gid`` owned by rank ``gid``.
"""

from repro.diy.bounds import Bounds
from repro.diy.decomposer import RegularDecomposer, balanced_factors

__all__ = [
    "Bounds",
    "RegularDecomposer",
    "balanced_factors",
]
