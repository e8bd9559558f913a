"""Regular decomposition: the paper's *common decomposition*.

Given a d-dimensional domain and ``n`` blocks, factor ``n`` into ``d``
near-equal factors ``n1, ..., nd`` and cut the domain into an
``n1 x ... x nd`` grid (paper Sec. III-B). Block ``i`` (row-major grid
id) is owned by producer process ``i``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.diy.bounds import Bounds


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def balanced_factors(n: int, ndim: int) -> tuple[int, ...]:
    """Factor ``n`` into ``ndim`` factors as close to each other as
    possible (largest prime factors assigned to the currently smallest
    slot, DIY-style)."""
    if n < 1 or ndim < 1:
        raise ValueError("n and ndim must be >= 1")
    factors = [1] * ndim
    for p in sorted(_prime_factors(n), reverse=True):
        factors[factors.index(min(factors))] *= p
    return tuple(sorted(factors, reverse=True))


class RegularDecomposer:
    """Cut ``shape`` into a regular grid of ``nblocks`` blocks.

    Per dimension, extents divide as evenly as possible: with extent
    ``L`` over ``k`` slots, the first ``L % k`` slots get ``L//k + 1``
    points. Block ids are row-major over the grid of slots. Every
    offset, coordinate and gid is a Python int.

    Both the producer and the consumer construct this object
    independently from ``(shape, nblocks)`` and agree on it without
    communication -- that implicit agreement is what makes the paper's
    index-serve-query protocol work.
    """

    def __init__(self, shape, nblocks: int):
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"degenerate domain shape {self.shape}")
        self.nblocks = int(nblocks)
        if self.nblocks < 1:
            raise ValueError("nblocks must be >= 1")
        self.grid = balanced_factors(self.nblocks, len(self.shape))
        # Don't cut a dimension finer than its extent when avoidable:
        # clamp factors to extents and fold the excess into other dims.
        self.grid = self._clamp_grid(self.grid, self.shape)
        # Per-dim slot boundaries (k+1 offsets per dim).
        self._offsets = []
        for extent, k in zip(self.shape, self.grid):
            base, rem = divmod(extent, k)
            self._offsets.append(tuple(accumulate(
                [base + 1] * rem + [base] * (k - rem), initial=0)))

    @staticmethod
    def _clamp_grid(grid, shape) -> tuple[int, ...]:
        return tuple(min(g, s) for g, s in zip(grid, shape))

    @property
    def ngrid_blocks(self) -> int:
        """Number of grid cells (= min(nblocks, prod(clamped grid)))."""
        return math.prod(self.grid)

    # -- gid <-> grid coords -------------------------------------------------

    def gid_to_coords(self, gid: int) -> tuple[int, ...]:
        """Grid coordinates of block ``gid``."""
        if not 0 <= gid < self.ngrid_blocks:
            raise IndexError(f"gid {gid} out of range")
        gid = int(gid)
        coords = []
        for k in reversed(self.grid):
            gid, c = divmod(gid, k)
            coords.append(c)
        return tuple(reversed(coords))

    # -- geometry ----------------------------------------------------------------

    def block_bounds(self, gid: int) -> Bounds:
        """The box ``[min, max)`` of block ``gid``."""
        coords = self.gid_to_coords(gid)
        return Bounds([offs[c] for offs, c in zip(self._offsets, coords)],
                      [offs[c + 1] for offs, c in zip(self._offsets, coords)])

    def point_gids(self, coords) -> np.ndarray:
        """gid of the block containing each row of an (n, d) coordinate
        array."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != len(self.shape):
            raise ValueError(f"coords must be (n, {len(self.shape)})")
        slot = np.empty_like(coords)
        for d in range(len(self.shape)):
            c = coords[:, d]
            if c.size and (c.min() < 0 or c.max() >= self.shape[d]):
                raise IndexError(f"coordinates outside dim {d}")
            slot[:, d] = np.searchsorted(
                self._offsets[d], c, side="right"
            ) - 1
        if coords.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return np.ravel_multi_index(tuple(slot.T), self.grid)

    def blocks_intersecting(self, bounds: Bounds) -> list[int]:
        """gids of all blocks overlapping ``bounds``, ascending.

        Closed form: per axis, the slots the box spans are one index
        range (two bisections of the offsets, after clipping the box to
        the domain); the gids are their row-major product, so the order
        is that of :meth:`all_bounds`.
        """
        if bounds.ndim != len(self.shape):
            raise ValueError("bounds dimensionality mismatch")
        gids = [0]
        for offs, k, lo, hi in zip(self._offsets, self.grid,
                                   bounds.min, bounds.max):
            lo = max(lo, 0)
            hi = min(hi, offs[-1])
            if lo >= hi:
                return []
            slots = range(bisect_right(offs, lo) - 1,
                          bisect_right(offs, hi - 1))
            gids = [g * k + c for g in gids for c in slots]
        return gids

    def all_bounds(self) -> list[Bounds]:
        """Bounds of every block, ordered by gid."""
        return [self.block_bounds(g) for g in range(self.ngrid_blocks)]

    def __repr__(self):
        return (
            f"RegularDecomposer(shape={self.shape}, nblocks={self.nblocks}, "
            f"grid={self.grid})"
        )
