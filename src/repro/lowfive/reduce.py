"""Wire-side data reduction applied at serve time.

Catalyst-ADIOS2 style: instead of shipping full-fidelity data, the
serving side reduces each reply before it hits the wire. Two stages,
both driven by the single ``CostConfig.reduction_level`` knob:

1. *Strided subsampling* -- the requested overlap is thinned to every
   ``STRIDE_BASE ** level``-th point per dimension (separable
   selections) or every stride-th point in row-major order (point
   selections). The consumer receives exact values for the sampled
   points; unsampled points keep the dataset's fill value.
2. *Simulated compression* -- the (already smaller) reply payload's
   wire bytes are multiplied by ``WIRE_RATIO ** level`` and the
   server is charged ``COST_PER_BYTE`` CPU seconds per input byte.
   Values are untouched; only the modelled wire cost shrinks.

Level 0 is a strict pass-through: the helpers below are not consulted
and the serve path is byte-identical to the pre-reduction code.
"""

from __future__ import annotations

import math

from repro.h5.selection import IndexSetSelection, PointSelection, Selection
from repro.lowfive.config import CostConfig

#: Per-level subsampling stride base (stride = base ** level).
STRIDE_BASE = 2
#: Per-level multiplier on reply payload wire bytes, modelling the
#: compressor's output size.
WIRE_RATIO = 0.6
#: CPU seconds per *input* byte charged to the server for running the
#: compression stage (reduction is not free).
COST_PER_BYTE = 2.0e-10


def reduction_stride(costs: CostConfig) -> int:
    """Per-dimension subsampling stride at the configured level."""
    if costs.reduction_level <= 0:
        return 1
    return STRIDE_BASE ** costs.reduction_level


def reduced_nbytes(raw_nbytes: int, costs: CostConfig) -> int:
    """Wire bytes for a reply whose serialized size is ``raw_nbytes``."""
    if raw_nbytes <= 0:
        return raw_nbytes
    ratio = WIRE_RATIO ** costs.reduction_level
    return max(1, int(math.ceil(raw_nbytes * ratio)))


def subsample(sel: Selection, stride: int) -> Selection:
    """Thin ``sel`` to a deterministic subset of its points.

    Separable selections keep every ``stride``-th index per dimension
    (anchored at the selection's own first index, so the same region
    always samples the same points regardless of which piece serves
    it); point selections keep every ``stride``-th coordinate in
    row-major order. A non-empty selection always retains at least one
    point, so replies never degenerate to nothing.
    """
    if stride <= 1 or sel.npoints == 0:
        return sel
    if sel.is_separable:
        return IndexSetSelection(
            sel.shape, [a[::stride] for a in sel.axes()]
        ).simplify()
    return PointSelection(sel.shape, sel.coords()[::stride])
