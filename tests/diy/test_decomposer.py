"""Regular decomposer (common decomposition) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.diy import Bounds, RegularDecomposer, balanced_factors


class TestBalancedFactors:
    def test_exact_squares(self):
        assert balanced_factors(4, 2) == (2, 2)
        assert balanced_factors(64, 3) == (4, 4, 4)

    def test_uneven(self):
        assert sorted(balanced_factors(6, 2)) == [2, 3]
        assert sorted(balanced_factors(12, 2)) == [3, 4]
        assert sorted(balanced_factors(12, 3)) == [2, 2, 3]

    def test_one_dim(self):
        assert balanced_factors(7, 1) == (7,)

    def test_prime_counts(self):
        assert sorted(balanced_factors(13, 2)) == [1, 13]

    def test_identity(self):
        assert balanced_factors(1, 3) == (1, 1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_factors(0, 2)
        with pytest.raises(ValueError):
            balanced_factors(4, 0)

    @given(st.integers(1, 4096), st.integers(1, 4))
    def test_prop_product_is_n(self, n, d):
        f = balanced_factors(n, d)
        assert len(f) == d
        assert int(np.prod(f)) == n

    @given(st.integers(1, 4096), st.integers(1, 4))
    def test_prop_balance(self, n, d):
        """No better-balanced factorization exists at this granularity:
        max/min ratio bounded by the largest prime factor involved."""
        f = balanced_factors(n, d)
        assert max(f) <= n
        assert min(f) >= 1


class TestRegularDecomposer:
    def test_partition_covers_domain_exactly(self):
        dec = RegularDecomposer((10, 10), 6)
        cover = np.zeros((10, 10), dtype=int)
        for gid in range(dec.ngrid_blocks):
            b = dec.block_bounds(gid)
            cover[b.min[0]:b.max[0], b.min[1]:b.max[1]] += 1
        assert (cover == 1).all()

    def test_six_blocks_on_2d(self):
        dec = RegularDecomposer((12, 12), 6)
        assert sorted(dec.grid) == [2, 3]
        assert dec.ngrid_blocks == 6

    def test_1d_particles_domain(self):
        dec = RegularDecomposer((1000,), 3)
        assert dec.grid == (3,)
        sizes = [dec.block_bounds(g).size for g in range(3)]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) <= 1

    def test_gid_coords_roundtrip(self):
        dec = RegularDecomposer((8, 8, 8), 8)
        for gid in range(dec.ngrid_blocks):
            coords = dec.gid_to_coords(gid)
            assert np.ravel_multi_index(coords, dec.grid) == gid
        with pytest.raises(IndexError):
            dec.gid_to_coords(dec.ngrid_blocks)

    def test_blocks_intersecting_interior_box(self):
        dec = RegularDecomposer((12, 12), 4)  # 2x2 grid of 6x6 blocks
        gids = dec.blocks_intersecting(Bounds([5, 5], [7, 7]))
        assert sorted(gids) == [0, 1, 2, 3]
        gids = dec.blocks_intersecting(Bounds([0, 0], [6, 6]))
        assert gids == [0]

    def test_blocks_intersecting_clips_to_domain(self):
        dec = RegularDecomposer((12,), 3)
        gids = dec.blocks_intersecting(Bounds([8], [100]))
        assert gids == [2]

    def test_blocks_intersecting_empty(self):
        dec = RegularDecomposer((12,), 3)
        assert dec.blocks_intersecting(Bounds([4], [4])) == []

    def test_grid_clamped_to_extent(self):
        dec = RegularDecomposer((4,), 6)
        assert dec.grid == (4,)
        assert dec.ngrid_blocks == 4

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            RegularDecomposer((0, 4), 2)
        with pytest.raises(ValueError):
            RegularDecomposer((4,), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64),
           st.lists(st.integers(2, 20), min_size=1, max_size=3))
    def test_prop_blocks_partition(self, n, shape):
        dec = RegularDecomposer(tuple(shape), n)
        total = sum(dec.block_bounds(g).size for g in range(dec.ngrid_blocks))
        assert total == int(np.prod(shape))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_prop_intersecting_blocks_complete(self, data):
        shape = tuple(data.draw(
            st.lists(st.integers(2, 16), min_size=1, max_size=2)))
        n = data.draw(st.integers(1, 16))
        dec = RegularDecomposer(shape, n)
        lo = [data.draw(st.integers(0, s - 1)) for s in shape]
        hi = [data.draw(st.integers(l + 1, s)) for l, s in zip(lo, shape)]
        q = Bounds(lo, hi)
        got = set(dec.blocks_intersecting(q))
        want = {g for g in range(dec.ngrid_blocks)
                if dec.block_bounds(g).intersects(q)}
        assert got == want
