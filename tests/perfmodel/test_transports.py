"""Analytic performance-model tests: the redistribution geometry, and
agreement of executed simmpi runs with the model at small scales. The
shapes the paper reports at its scales are checked in
``tests/bench/test_figures.py``.
"""

import numpy as np
import pytest

from repro.perfmodel import (
    THETA_KNL,
    bredala_times,
    dataspaces_time,
    lowfive_file_time,
    lowfive_memory_time,
    pure_mpi_time,
)
from repro.perfmodel.transports import grid_geometry, list_geometry
from repro.synth import SyntheticWorkload

WL = SyntheticWorkload()


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
