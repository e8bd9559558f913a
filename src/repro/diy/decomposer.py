"""Regular decomposition: the paper's *common decomposition*.

Given a d-dimensional domain and ``n`` blocks, factor ``n`` into ``d``
near-equal factors ``n1, ..., nd`` and cut the domain into an
``n1 x ... x nd`` grid (paper Sec. III-B). Block ``i`` (row-major grid
id) is owned by producer process ``i``.
"""

from __future__ import annotations

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
        i = int(np.argmin(factors))
        factors[i] *= p
    return tuple(sorted(factors, reverse=True))


class RegularDecomposer:
    """Cut ``shape`` into a regular grid of ``nblocks`` blocks.

    Per dimension, extents divide as evenly as possible: with extent
    ``L`` over ``k`` slots, the first ``L % k`` slots get ``L//k + 1``
    points. Block ids are row-major over the grid of slots.

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
            sizes = np.full(k, base, dtype=np.int64)
            sizes[:rem] += 1
            self._offsets.append(
                np.concatenate([[0], np.cumsum(sizes)])
            )

    @staticmethod
    def _clamp_grid(grid, shape) -> tuple[int, ...]:
        grid = list(grid)
        for d, (g, s) in enumerate(zip(grid, shape)):
            if g > s:
                grid[d] = s
        return tuple(grid)

    @property
    def ngrid_blocks(self) -> int:
        """Number of grid cells (= min(nblocks, prod(clamped grid)))."""
        return int(np.prod(self.grid))

    # -- gid <-> grid coords -------------------------------------------------

    def gid_to_coords(self, gid: int) -> tuple[int, ...]:
        """Grid coordinates of block ``gid``."""
        if not 0 <= gid < self.ngrid_blocks:
            raise IndexError(f"gid {gid} out of range")
        return tuple(
            int(c) for c in np.unravel_index(gid, self.grid)
        )

    def coords_to_gid(self, coords) -> int:
        """Row-major gid of grid ``coords``."""
        return int(np.ravel_multi_index(tuple(coords), self.grid))

    # -- geometry ----------------------------------------------------------------

    def block_bounds(self, gid: int) -> Bounds:
        """The box ``[min, max)`` of block ``gid``."""
        coords = self.gid_to_coords(gid)
        mins = [int(self._offsets[d][c]) for d, c in enumerate(coords)]
        maxs = [int(self._offsets[d][c + 1]) for d, c in enumerate(coords)]
        return Bounds(mins, maxs)

    def point_gid(self, pt) -> int:
        """gid of the block containing point ``pt``."""
        coords = []
        for d, x in enumerate(pt):
            offs = self._offsets[d]
            if not 0 <= x < offs[-1]:
                raise IndexError(f"point coordinate {x} outside dim {d}")
            coords.append(int(np.searchsorted(offs, x, side="right")) - 1)
        return self.coords_to_gid(coords)

    def point_gids(self, coords) -> np.ndarray:
        """Vectorized :meth:`point_gid` for an (n, d) coordinate array."""
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
        """gids of all blocks overlapping ``bounds`` (vectorized per dim)."""
        if bounds.ndim != len(self.shape):
            raise ValueError("bounds dimensionality mismatch")
        if bounds.empty:
            return []
        ranges = []
        for d in range(len(self.shape)):
            offs = self._offsets[d]
            lo = int(np.clip(bounds.min[d], 0, self.shape[d] - 1))
            hi = int(np.clip(bounds.max[d] - 1, 0, self.shape[d] - 1))
            first = int(np.searchsorted(offs, lo, side="right")) - 1
            last = int(np.searchsorted(offs, hi, side="right")) - 1
            ranges.append(np.arange(first, last + 1))
        grids = np.meshgrid(*ranges, indexing="ij")
        return np.ravel_multi_index(
            tuple(g.ravel() for g in grids), self.grid
        ).tolist()

    def all_bounds(self) -> list[Bounds]:
        """Bounds of every block, ordered by gid."""
        return [self.block_bounds(g) for g in range(self.ngrid_blocks)]

    def __repr__(self):
        return (
            f"RegularDecomposer(shape={self.shape}, nblocks={self.nblocks}, "
            f"grid={self.grid})"
        )
