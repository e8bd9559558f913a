"""Wire-side data reduction applied at serve time.

Catalyst-ADIOS2 style: instead of shipping full-fidelity data, the
serving side reduces each reply before it hits the wire. Two stages,
both driven by the single ``CostConfig.reduction_level`` knob:

1. *Strided subsampling* -- the requested overlap is thinned to every
   ``reduce_stride_base ** level``-th point per dimension (separable
   selections) or every stride-th point in row-major order (point
   selections). The consumer receives exact values for the sampled
   points; unsampled points keep the dataset's fill value.
2. *Simulated compression* -- the (already smaller) reply payload's
   wire bytes are multiplied by ``reduce_wire_ratio ** level`` and the
   server is charged ``reduce_cost_per_byte`` CPU seconds per input
   byte. Values are untouched; only the modelled wire cost shrinks.

Level 0 is a strict pass-through: the helpers below are not consulted
and the serve path is byte-identical to the pre-reduction code.
"""

from __future__ import annotations

import math

from repro.h5.selection import IndexSetSelection, PointSelection, Selection
from repro.lowfive.config import CostConfig


def reduction_stride(costs: CostConfig) -> int:
    """Per-dimension subsampling stride at the configured level."""
    if costs.reduction_level <= 0:
        return 1
    return costs.reduce_stride_base ** costs.reduction_level


def wire_ratio(costs: CostConfig) -> float:
    """Multiplier on reply payload wire bytes at the configured level."""
    if costs.reduction_level <= 0:
        return 1.0
    return costs.reduce_wire_ratio ** costs.reduction_level


def reduced_nbytes(raw_nbytes: int, costs: CostConfig) -> int:
    """Wire bytes for a reply whose serialized size is ``raw_nbytes``."""
    if raw_nbytes <= 0:
        return raw_nbytes
    return max(1, int(math.ceil(raw_nbytes * wire_ratio(costs))))


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
