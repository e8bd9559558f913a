"""Synthetic-workload generator tests (paper Sec. IV-B semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.synth import (
    GRID_DTYPE,
    PARTICLE_DTYPE,
    SyntheticWorkload,
    consumer_grid_selection,
    consumer_particle_selection,
    grid_shape_for,
    grid_values,
    particle_values,
    producer_grid_selection,
    producer_particle_selection,
    validate_grid,
    validate_particles,
)


class TestShapes:
    def test_grid_shape_scales_with_producers(self):
        s3 = grid_shape_for(10**6, 3)
        s6 = grid_shape_for(10**6, 6)
        assert s6[0] == 2 * s3[0]
        assert s3[1:] == s6[1:]

    def test_grid_shape_near_requested_volume(self):
        for n in (10**4, 10**5, 10**6):
            shape = grid_shape_for(n, 4)
            per_proc = np.prod(shape) / 4
            assert 0.5 * n <= per_proc <= 1.5 * n

    def test_dtypes(self):
        assert GRID_DTYPE.itemsize == 8
        assert PARTICLE_DTYPE.itemsize == 4


class TestPartitioning:
    def test_producer_slabs_tile_grid(self):
        shape = (13, 4, 4)
        cover = np.zeros(shape, dtype=int)
        for r in range(5):
            sel = producer_grid_selection(shape, r, 5)
            sel.scatter(np.ones(sel.npoints), cover)
        assert (cover == 1).all()

    def test_consumer_blocks_tile_grid(self):
        shape = (12, 6, 3)
        cover = np.zeros(shape, dtype=int)
        for r in range(4):
            sel = consumer_grid_selection(shape, r, 4)
            if sel.npoints:
                sel.scatter(np.ones(sel.npoints), cover)
        assert (cover == 1).all()

    def test_particle_ranges_tile(self):
        total = 103
        seen = np.zeros(total, dtype=int)
        for r in range(7):
            sel = producer_particle_selection(total, r, 7)
            rows = np.unique(sel.coords()[:, 0])
            seen[rows] += 1
        assert (seen == 1).all()

    def test_producer_consumer_decompositions_differ(self):
        """The benchmark must exercise real n-to-m redistribution."""
        shape = (12, 8, 4)
        p = producer_grid_selection(shape, 0, 6)
        c = consumer_grid_selection(shape, 0, 4)
        assert not p.same_elements(c)


class TestEncoding:
    def test_grid_values_encode_position(self):
        shape = (4, 5)
        sel = producer_grid_selection(shape, 1, 2)
        vals = grid_values(sel, shape)
        coords = sel.coords()
        expected = coords[:, 0] * 5 + coords[:, 1]
        assert vals.dtype == np.uint64
        np.testing.assert_array_equal(vals, expected.astype(np.uint64))

    def test_validate_grid_detects_corruption(self):
        shape = (4, 4)
        sel = producer_grid_selection(shape, 0, 2)
        vals = grid_values(sel, shape)
        assert validate_grid(sel, shape, vals)
        bad = vals.copy()
        bad[0] += 1
        assert not validate_grid(sel, shape, bad)

    def test_particle_values_float32_exact(self):
        sel = producer_particle_selection(50, 1, 3)
        vals = particle_values(sel)
        assert vals.dtype == np.float32
        assert validate_particles(sel, vals)

    def test_validate_particles_detects_swap(self):
        sel = producer_particle_selection(30, 0, 1)
        vals = particle_values(sel).copy()
        vals[0], vals[1] = vals[1], vals[0]
        assert not validate_particles(sel, vals)

    def test_empty_selection_values(self):
        from repro.h5.selection import NoneSelection

        assert grid_values(NoneSelection((3, 3)), (3, 3)).size == 0
        assert particle_values(NoneSelection((9, 3))).size == 0


class TestWorkloadAccounting:
    def test_split_procs_three_to_one(self):
        wl = SyntheticWorkload()
        assert wl.split_procs(4) == (3, 1)
        assert wl.split_procs(16) == (12, 4)
        assert wl.split_procs(16384) == (12288, 4096)

    def test_total_bytes_paper_table1(self):
        wl = SyntheticWorkload()
        # 1024 procs -> 768 producers -> 14.34 GiB in the paper.
        gib = wl.total_bytes(768) / 2**30
        assert abs(gib - 14.34) / 14.34 < 0.02

    def test_bytes_formula(self):
        wl = SyntheticWorkload(grid_points_per_proc=1000,
                               particles_per_proc=500)
        nprod = 2
        expected = (wl.total_grid_points(nprod) * 8
                    + wl.total_particles(nprod) * 12)
        assert wl.total_bytes(nprod) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(2, 30))
def test_prop_grid_redistribution_identity(nprod, ncons, rows):
    """Writing producer slabs then reading consumer blocks through a
    dense mirror reproduces the encoded positions exactly."""
    shape = (rows, 5, 3)
    mirror = np.zeros(shape, dtype=np.uint64)
    for r in range(nprod):
        sel = producer_grid_selection(shape, r, nprod)
        sel.scatter(grid_values(sel, shape), mirror)
    for r in range(ncons):
        sel = consumer_grid_selection(shape, r, ncons)
        if sel.npoints:
            assert validate_grid(sel, shape, sel.extract(mirror))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 200))
def test_prop_particle_redistribution_identity(nprod, ncons, total):
    mirror = np.zeros((total, 3), dtype=np.float32)
    for r in range(nprod):
        sel = producer_particle_selection(total, r, nprod)
        if sel.npoints:
            sel.scatter(particle_values(sel), mirror)
    for r in range(ncons):
        sel = consumer_particle_selection(total, r, ncons)
        if sel.npoints:
            assert validate_particles(sel, sel.extract(mirror))


def _general_grid(sel):
    """Grid values through the general path: row-major linear indices."""
    return sel.linear_indices().astype(GRID_DTYPE.np)


@st.composite
def _selections(draw, shape):
    """A hyperslab (box, strided or blocked), an index set or a point
    list over ``shape``."""
    from repro.h5.selection import (HyperslabSelection, IndexSetSelection,
                                    PointSelection)

    kind = draw(st.sampled_from(["box", "strided", "indexset", "points"]))
    if kind == "indexset":
        return IndexSetSelection(shape, [
            draw(st.lists(st.integers(0, n - 1), min_size=1,
                          max_size=min(n, 10)))
            for n in shape])
    if kind == "points":
        return PointSelection(shape, draw(st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in shape)),
            min_size=1, max_size=20)))
    start, count, stride, block = [], [], [], []
    for n in shape:
        s = draw(st.integers(0, n - 1))
        step = draw(st.integers(1, 3)) if kind == "strided" else 1
        b = draw(st.integers(1, min(step, n - s)))
        start.append(s)
        count.append(draw(st.integers(1, (n - s - b) // step + 1)))
        stride.append(step)
        block.append(b)
    return HyperslabSelection(shape, start, count, stride, block)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prop_closed_form_grid_values_match_general_path(data):
    """The per-axis closed form gives the general path's bytes on every
    selection kind."""
    shape = tuple(data.draw(st.lists(st.integers(1, 7), min_size=1,
                                     max_size=3)))
    sel = data.draw(_selections(shape))
    got = grid_values(sel, shape)
    want = _general_grid(sel)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
