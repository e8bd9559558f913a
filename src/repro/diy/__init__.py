"""DIY-like block-parallel decomposition substrate.

LowFive depends on the DIY block-parallel model "to perform efficient
data redistribution" (paper Fig. 2). The parts it actually uses are
implemented here:

- :class:`~repro.diy.bounds.Bounds` -- integer bounding boxes whose
  ``min``/``max`` are tuples of Python ints,
- :func:`~repro.diy.decomposer.even_offsets` -- the one even-split
  rule: ``total`` into ``parts`` runs, the first ``total % parts`` one
  longer, as Python-int offsets,
- :class:`~repro.diy.decomposer.RegularDecomposer` -- the *common
  decomposition*: factor ``n`` processes into ``d`` near-equal factors
  and cut the domain into an ``n1 x ... x nd`` grid of blocks
  (paper Sec. III-B, Fig. 4), with block ``gid`` owned by rank ``gid``
  and each axis split by ``even_offsets`` (public as ``offsets``).
  Its ``blocks_intersecting`` is closed form (per axis, two bisections
  of the int slot offsets; the gids are the row-major product of those
  slot ranges) and returns gids ascending, the order of ``all_bounds()``.
  Callers rely on that order: the query sends its ``intersects`` RPCs in
  it.
"""

from repro.diy.bounds import Bounds
from repro.diy.decomposer import (
    RegularDecomposer,
    balanced_factors,
    even_offsets,
)

__all__ = [
    "Bounds",
    "RegularDecomposer",
    "balanced_factors",
    "even_offsets",
]
