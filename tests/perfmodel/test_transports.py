"""Analytic performance-model tests.

Two kinds of checks: (1) the *shapes* the paper reports must hold at the
paper's scales; (2) executed simmpi runs and the analytic model must
agree at overlapping (small) scales.
"""

import numpy as np
import pytest

from repro.perfmodel import (
    CORI_HASWELL,
    THETA_KNL,
    bredala_times,
    dataspaces_time,
    lowfive_file_time,
    lowfive_memory_time,
    pure_hdf5_time,
    pure_mpi_time,
)
from repro.perfmodel.nyx_reeber import DNF_SECONDS, nyx_reeber_times, table2_rows
from repro.perfmodel.transports import grid_geometry, list_geometry
from repro.synth import SyntheticWorkload

WL = SyntheticWorkload()
SCALES = [4, 16, 64, 256, 1024, 4096, 16384]


def split(P):
    return WL.split_procs(P)


class TestGeometry:
    def test_grid_geometry_conservation(self):
        shape = WL.grid_shape(48)
        gg = grid_geometry(shape, 48, 16)
        # Every cell is read exactly once and served exactly once.
        assert gg.cons_cells.sum() == int(np.prod(shape))
        assert gg.prod_cells.sum() == int(np.prod(shape))
        assert (gg.cons_owners >= 1).all()
        assert (gg.cons_common >= 1).all()

    def test_list_geometry_conservation(self):
        lg = list_geometry(10**6, 12, 4)
        assert lg.cons_items.sum() == 10**6
        assert lg.prod_items.sum() == 10**6
        assert (lg.cons_owners >= 1).all()

    def test_owners_bounded_by_producers(self):
        gg = grid_geometry(WL.grid_shape(6), 6, 4)
        assert (gg.cons_owners <= 6).all()


class TestFig5Shapes:
    """File mode is orders of magnitude slower; memory mode rises slowly."""

    def test_file_much_slower_than_memory(self):
        for P in (64, 256, 1024):
            nprod, ncons = split(P)
            t_file = lowfive_file_time(nprod, ncons, WL)
            t_mem = lowfive_memory_time(nprod, ncons, WL)
            assert t_file > 3 * t_mem
        nprod, ncons = split(1024)
        assert lowfive_file_time(nprod, ncons, WL) > \
            30 * lowfive_memory_time(nprod, ncons, WL)

    def test_memory_mode_rises_slowly(self):
        times = [lowfive_memory_time(*split(P), WL) for P in SCALES]
        assert all(b > a for a, b in zip(times, times[1:]))  # monotone
        assert times[-1] < 4 * times[0]  # but only a few x over 4096x procs

    def test_memory_mode_seconds_scale(self):
        # Paper: ~3s at 16K procs / 223 GiB on Theta.
        t = lowfive_memory_time(*split(16384), WL)
        assert 1.0 < t < 10.0


class TestFig6Shapes:
    """LowFive file-mode overhead vs pure HDF5 shrinks at scale."""

    def test_overhead_bounded(self):
        for P in (4, 16, 64, 256, 1024):
            nprod, ncons = split(P)
            ratio = lowfive_file_time(nprod, ncons, WL) / \
                pure_hdf5_time(nprod, ncons, WL)
            assert 1.0 < ratio < 2.5

    def test_overhead_converges(self):
        r64 = lowfive_file_time(*split(64), WL) / pure_hdf5_time(*split(64), WL)
        r1k = lowfive_file_time(*split(1024), WL) / \
            pure_hdf5_time(*split(1024), WL)
        assert r1k < r64


class TestFig7Shapes:
    """LowFive beats hand-written MPI at small scale, loses slightly at 16K."""

    def test_lowfive_faster_small_scale(self):
        for P in (4, 16, 64):
            nprod, ncons = split(P)
            lf = lowfive_memory_time(nprod, ncons, WL)
            mpi = pure_mpi_time(nprod, ncons, WL)
            assert lf < mpi
        # 10-40% band at the smallest scale.
        lf4, mpi4 = lowfive_memory_time(*split(4), WL), pure_mpi_time(*split(4), WL)
        assert 1.10 < mpi4 / lf4 < 1.45

    def test_lowfive_slightly_slower_at_16k(self):
        lf = lowfive_memory_time(*split(16384), WL)
        mpi = pure_mpi_time(*split(16384), WL)
        assert 1.0 < lf / mpi < 1.25


class TestFig8Shapes:
    """DataSpaces is consistently faster; ~0.5s gap at 4K on Haswell."""

    def test_dataspaces_consistently_faster(self):
        for P in (4, 16, 64, 256, 1024, 4096):
            nprod, ncons = split(P)
            lf = lowfive_memory_time(nprod, ncons, WL, CORI_HASWELL)
            ds = dataspaces_time(nprod, ncons, WL, CORI_HASWELL)
            assert ds < lf

    def test_gap_at_4k_about_half_second(self):
        nprod, ncons = split(4096)
        gap = lowfive_memory_time(nprod, ncons, WL, CORI_HASWELL) - \
            dataspaces_time(nprod, ncons, WL, CORI_HASWELL)
        assert 0.3 < gap < 0.8

    def test_curves_roughly_parallel(self):
        r = [
            lowfive_memory_time(*split(P), WL, CORI_HASWELL)
            / dataspaces_time(*split(P), WL, CORI_HASWELL)
            for P in (16, 256, 4096)
        ]
        assert max(r) / min(r) < 1.5

    def test_haswell_faster_than_knl(self):
        for P in (16, 1024):
            nprod, ncons = split(P)
            assert lowfive_memory_time(nprod, ncons, WL, CORI_HASWELL) < \
                lowfive_memory_time(nprod, ncons, WL, THETA_KNL)


class TestFig9Shapes:
    """Bredala: particles fine, grid (bbox policy) blows up at scale."""

    def test_lowfive_much_faster_overall(self):
        for P in (1024, 4096):
            nprod, ncons = split(P)
            br = bredala_times(nprod, ncons, WL)
            lf = lowfive_memory_time(nprod, ncons, WL)
            assert br["total"] > 5 * lf

    def test_grid_dominates_blowup(self):
        nprod, ncons = split(4096)
        br = bredala_times(nprod, ncons, WL)
        assert br["grid"] > 20 * br["particles"]

    def test_particles_scale_reasonably(self):
        p4 = bredala_times(*split(4), WL)["particles"]
        p4k = bredala_times(*split(4096), WL)["particles"]
        assert p4k < 5 * p4

    def test_grid_blowup_factor(self):
        g4 = bredala_times(*split(4), WL)["grid"]
        g4k = bredala_times(*split(4096), WL)["grid"]
        assert g4k / g4 > 20  # paper: ~2s -> ~200s


class TestFig11Shapes:
    """10x data on Haswell: LowFive ~= MPI, ~20-60% slower than DS."""

    WL10 = SyntheticWorkload(grid_points_per_proc=10**7,
                             particles_per_proc=10**7)

    def test_lowfive_matches_mpi(self):
        for P in (4, 256, 4096):
            nprod, ncons = self.WL10.split_procs(P)
            lf = lowfive_memory_time(nprod, ncons, self.WL10, CORI_HASWELL)
            mpi = pure_mpi_time(nprod, ncons, self.WL10, CORI_HASWELL)
            assert 0.85 < lf / mpi < 1.15

    def test_dataspaces_still_ahead_but_close(self):
        nprod, ncons = self.WL10.split_procs(4096)
        lf = lowfive_memory_time(nprod, ncons, self.WL10, CORI_HASWELL)
        ds = dataspaces_time(nprod, ncons, self.WL10, CORI_HASWELL)
        assert 1.1 < lf / ds < 2.0

    def test_trends_stable_at_10x(self):
        """The point of the experiment: same winners as the small runs."""
        nprod, ncons = self.WL10.split_procs(1024)
        ds = dataspaces_time(nprod, ncons, self.WL10, CORI_HASWELL)
        lf = lowfive_memory_time(nprod, ncons, self.WL10, CORI_HASWELL)
        mpi = pure_mpi_time(nprod, ncons, self.WL10, CORI_HASWELL)
        assert ds < lf and abs(lf - mpi) / mpi < 0.2


class TestTable2Shapes:
    def test_hdf5_dnf_at_2048(self):
        rows = {r["grid"]: r for r in table2_rows()}
        assert rows[2048]["hdf5_write"] is None
        assert rows[1024]["hdf5_write"] is not None

    def test_lowfive_write_stays_flat(self):
        rows = {r["grid"]: r for r in table2_rows()}
        assert rows[2048]["lowfive_write"] < 4 * rows[256]["lowfive_write"]

    def test_speedup_grows_with_grid(self):
        rows = table2_rows(grid_sizes=(256, 512, 1024))
        sp = [r["speedup_vs_hdf5"] for r in rows]
        assert sp[0] < sp[1] < sp[2]
        assert sp[2] > 100  # paper: 320x at 1024^3

    def test_plotfiles_beat_hdf5_but_lose_to_lowfive(self):
        for r in table2_rows(grid_sizes=(512, 1024)):
            assert r["plotfile_write"] < r["hdf5_write"]
            assert r["plotfile_write"] > r["lowfive_write"]
        r2048 = nyx_reeber_times(2048)
        assert r2048["speedup_vs_plotfiles"] > 10  # paper: 20x

    def test_hdf5_read_much_cheaper_than_write(self):
        for r in table2_rows(grid_sizes=(512, 1024)):
            assert r["hdf5_read"] < 0.1 * r["hdf5_write"]


class TestExecutedVsModel:
    """The analytic model must agree with executed simmpi runs."""

    @pytest.mark.parametrize("nprod,ncons", [
        (3, 1), (6, 2), (12, 4), (48, 16), (96, 32)])
    def test_lowfive_memory_agreement(self, nprod, ncons):
        from tests.lowfive.test_dist_vol import run_producer_consumer

        wl = SyntheticWorkload(grid_points_per_proc=8000,
                               particles_per_proc=8000)
        res = run_producer_consumer(
            nprod, ncons, grid_shape=wl.grid_shape(nprod),
            n_particles=wl.total_particles(nprod),
        )
        model = lowfive_memory_time(nprod, ncons, wl)
        assert model == pytest.approx(res.vtime, rel=0.01)

    @pytest.mark.parametrize("nprod,ncons", [
        (3, 1), (6, 2), (12, 4), (48, 16), (96, 32), (192, 64)])
    def test_lowfive_file_agreement(self, nprod, ncons):
        """File mode, up to P=256: executable in seconds since readers
        fetch only the pieces they touch."""
        from repro.bench import run_lowfive_file

        wl = SyntheticWorkload(grid_points_per_proc=8000,
                               particles_per_proc=8000)
        res = run_lowfive_file(nprod, ncons, wl)
        assert res.validated
        model = lowfive_file_time(nprod, ncons, wl)
        assert model == pytest.approx(res.vtime, rel=0.01)

    @pytest.mark.parametrize("nprod,ncons", [(3, 1), (6, 4)])
    def test_pure_mpi_agreement(self, nprod, ncons):
        from repro.baselines import pure_mpi_consumer, pure_mpi_producer
        from repro.synth import (
            consumer_grid_selection,
            consumer_particle_selection,
            grid_values,
            particle_values,
            producer_grid_selection,
            producer_particle_selection,
        )
        from repro.workflow import Workflow

        wl = SyntheticWorkload(grid_points_per_proc=8000,
                               particles_per_proc=8000)
        shape = wl.grid_shape(nprod)
        npart = wl.total_particles(nprod)

        def producer(ctx):
            inter = ctx.intercomm("consumer")
            gsel = producer_grid_selection(shape, ctx.rank, ctx.size)
            pure_mpi_producer(inter, gsel, grid_values(gsel, shape), [
                consumer_grid_selection(shape, r, ncons)
                for r in range(ncons)
            ], tag=901, epoch_start=True)
            psel = producer_particle_selection(npart, ctx.rank, ctx.size)
            pure_mpi_producer(inter, psel, particle_values(psel), [
                consumer_particle_selection(npart, r, ncons)
                for r in range(ncons)
            ], tag=902, epoch_start=False)

        def consumer(ctx):
            inter = ctx.intercomm("producer")
            gsel = consumer_grid_selection(shape, ctx.rank, ctx.size)
            pure_mpi_consumer(inter, gsel, np.uint64, tag=901,
                               epoch_end=False)
            psel = consumer_particle_selection(npart, ctx.rank, ctx.size)
            pure_mpi_consumer(inter, psel, np.float32, tag=902,
                               epoch_end=True)

        wf = Workflow()
        wf.add_task("producer", nprod, producer)
        wf.add_task("consumer", ncons, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run()
        model = pure_mpi_time(nprod, ncons, wl)
        assert model == pytest.approx(res.vtime, rel=0.02)

    @pytest.mark.parametrize("nprod,ncons", [(3, 1), (6, 2)])
    def test_dataspaces_agreement(self, nprod, ncons):
        from repro.bench import run_dataspaces

        wl = SyntheticWorkload(grid_points_per_proc=8000,
                               particles_per_proc=8000)
        res = run_dataspaces(nprod, ncons, wl, nservers=2)
        model = dataspaces_time(nprod, ncons, wl, THETA_KNL, nservers=2)
        assert model == pytest.approx(res.vtime, rel=0.5)

    @pytest.mark.parametrize("nprod,ncons", [(3, 1), (6, 2)])
    def test_bredala_agreement(self, nprod, ncons):
        from repro.bench import run_bredala

        wl = SyntheticWorkload(grid_points_per_proc=8000,
                               particles_per_proc=8000)
        res = run_bredala(nprod, ncons, wl)
        model = bredala_times(nprod, ncons, wl, THETA_KNL)["total"]
        assert model == pytest.approx(res.vtime, rel=0.5)
