"""Grid and particle workload generators with position-encoded values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.h5 as h5
from repro.diy import RegularDecomposer
from repro.h5.selection import HyperslabSelection, Selection

#: Grid scalars: 64-bit unsigned integers (8 bytes each; paper Sec. IV-B).
GRID_DTYPE = h5.UINT64
#: Particles: 3-d vectors of 32-bit floats (12 bytes each).
PARTICLE_DTYPE = h5.FLOAT32

#: float32 has a 24-bit significand; particle ids wrap at this modulus so
#: the encoded position is exactly representable.
_PARTICLE_MOD = 1 << 23


def grid_shape_for(points_per_proc: int, nprod: int) -> tuple[int, int, int]:
    """A 3-d grid with ~``points_per_proc`` points per producer.

    Producers decompose the grid along the first axis (row slabs, as in
    paper Fig. 3's producer side), so the shape is
    ``(nprod * nx, ny, nz)`` with ``nx*ny*nz ~= points_per_proc`` chosen
    near-cubic.
    """
    side = max(1, round(points_per_proc ** (1.0 / 3.0)))
    nx = side
    ny = side
    nz = max(1, points_per_proc // (nx * ny))
    return (nprod * nx, ny, nz)


def producer_grid_selection(shape, rank: int, nprod: int) -> Selection:
    """Row-slab written by producer ``rank`` (first-axis decomposition)."""
    nx_total = shape[0]
    base, rem = divmod(nx_total, nprod)
    start = rank * base + min(rank, rem)
    count = base + (1 if rank < rem else 0)
    starts = (start,) + (0,) * (len(shape) - 1)
    counts = (count,) + tuple(shape[1:])
    return HyperslabSelection(shape, starts, counts)


def consumer_grid_selection(shape, rank: int, ncons: int) -> Selection:
    """Block read by consumer ``rank``: a *different* decomposition (the
    regular block grid), exercising genuine n-to-m redistribution."""
    dec = RegularDecomposer(shape, ncons)
    if rank >= dec.ngrid_blocks:
        from repro.h5.selection import NoneSelection

        return NoneSelection(tuple(shape))
    return dec.block_bounds(rank).to_selection(shape)


def producer_particle_selection(n_total: int, rank: int, nprod: int) -> Selection:
    """Contiguous particle range written by producer ``rank``."""
    base, rem = divmod(n_total, nprod)
    start = rank * base + min(rank, rem)
    count = base + (1 if rank < rem else 0)
    return HyperslabSelection((n_total, 3), (start, 0), (count, 3))


def consumer_particle_selection(n_total: int, rank: int, ncons: int) -> Selection:
    """Contiguous particle range read by consumer ``rank``."""
    return producer_particle_selection(n_total, rank, ncons)


def grid_values(selection: Selection, shape) -> np.ndarray:
    """Values for ``selection``: each point's global row-major index.

    A separable selection's indices are an outer sum over its axes, taken
    in the value dtype itself; any other goes through
    :meth:`~repro.h5.selection.Selection.linear_indices`.
    """
    if tuple(shape) != selection.shape:
        raise ValueError(f"selection extent {selection.shape} != {shape}")
    dtype = GRID_DTYPE.np
    if not selection.is_separable:
        return selection.linear_indices().astype(dtype)
    flat = np.zeros((), dtype=dtype)
    for idx, extent in zip(selection.per_dim_indices(), shape):
        flat = np.add.outer(flat * dtype.type(extent), idx.astype(dtype))
    return flat.reshape(-1)


def validate_grid(selection: Selection, shape, values: np.ndarray) -> bool:
    """Check that redistributed grid values encode their position."""
    expected = grid_values(selection, shape)
    return np.array_equal(np.asarray(values).reshape(-1), expected)


def particle_values(selection: Selection) -> np.ndarray:
    """Values for a particle-range selection over the (N, 3) dataset.

    Particle ``i`` is the vector ``(e, e+1/4, e+1/2)`` with
    ``e = i mod 2**23`` (exactly representable in float32).
    """
    particle, comp = np.divmod(selection.linear_indices(),
                                selection.shape[1])
    ids = (particle % _PARTICLE_MOD).astype(np.float32)
    return (ids + comp.astype(np.float32) * 0.25).astype(PARTICLE_DTYPE.np)


def validate_particles(selection: Selection, values: np.ndarray) -> bool:
    """Check that redistributed particle values encode their position."""
    expected = particle_values(selection)
    return np.array_equal(np.asarray(values).reshape(-1), expected)


@dataclass(frozen=True)
class SyntheticWorkload:
    """The paper's weak-scaling workload (Table I).

    Per producer process: ``grid_points_per_proc`` grid scalars (8 B
    each) and ``particles_per_proc`` particles (12 B each) -- 19 MiB at
    the paper's 1e6/1e6. Three quarters of the job's processes produce,
    one quarter consumes.

    ``scale`` shrinks the per-process element counts for executed runs
    while :meth:`virtual_bytes` still reports the full-size volume for
    cost accounting and table generation.
    """

    grid_points_per_proc: int = 10**6
    particles_per_proc: int = 10**6

    def grid_shape(self, nprod: int) -> tuple[int, int, int]:
        """Global 3-d grid shape for ``nprod`` producers."""
        return grid_shape_for(self.grid_points_per_proc, nprod)

    def total_particles(self, nprod: int) -> int:
        """Global particle count for ``nprod`` producers."""
        return self.particles_per_proc * nprod

    def total_grid_points(self, nprod: int) -> int:
        """Global grid points for ``nprod`` producers."""
        s = self.grid_shape(nprod)
        return int(np.prod(s))

    def total_bytes(self, nprod: int) -> int:
        """Global data volume (grid + particles), in bytes."""
        return (self.total_grid_points(nprod) * GRID_DTYPE.itemsize
                + self.total_particles(nprod) * 3 * PARTICLE_DTYPE.itemsize)

    @staticmethod
    def split_procs(total: int) -> tuple[int, int]:
        """Paper Table I: 3/4 of processes produce, 1/4 consume."""
        ncons = max(1, total // 4)
        nprod = total - ncons
        return nprod, ncons
