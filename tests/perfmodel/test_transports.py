"""Analytic performance-model tests: the redistribution geometry, and
agreement of executed simmpi runs with the model at small scales. The
shapes the paper reports at its scales are checked in
``tests/bench/test_figures.py``.

The closed-form geometry is checked against a per-block reference
(:func:`ref_grid_geometry`, :func:`ref_list_geometry`): one iteration
per consumer block or range, the producers it overlaps found by
bisection and charged as one slice.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.figures import EXEC_WL, EXECUTED_SCALES
from repro.diy import Bounds, RegularDecomposer, even_offsets
from repro.perfmodel import (
    THETA_KNL,
    bredala_times,
    dataspaces_time,
    lowfive_file_time,
    lowfive_memory_time,
    pure_mpi_time,
)
from repro.perfmodel.transports import grid_geometry, list_geometry
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    producer_grid_selection,
)

WL = SyntheticWorkload()

FIELDS = ("cons_cells", "cons_owners", "cons_common", "prod_cells",
          "prod_reqs")


def ref_grid_geometry(shape, nprod, ncons):
    """Row-slab producers -> block consumers, one block at a time."""
    offs = np.asarray(even_offsets(shape[0], nprod), dtype=np.int64)
    cdec = RegularDecomposer(shape, ncons)
    common = RegularDecomposer(shape, nprod)
    out = {f: np.zeros(nprod if f.startswith("prod") else ncons,
                       dtype=np.int64) for f in FIELDS}
    for c in range(cdec.ngrid_blocks):
        b = cdec.block_bounds(c)
        x0, x1 = b.min[0], b.max[0]
        first = int(np.searchsorted(offs, x0, side="right")) - 1
        last = int(np.searchsorted(offs, x1 - 1, side="right")) - 1
        rows = (np.minimum(x1, offs[first + 1:last + 2])
                - np.maximum(x0, offs[first:last + 1]))
        out["cons_cells"][c] = b.size
        out["cons_owners"][c] = last - first + 1
        out["cons_common"][c] = len(common.blocks_intersecting(b))
        out["prod_cells"][first:last + 1] += rows * (b.size // (x1 - x0))
        out["prod_reqs"][first:last + 1] += 1
    return out


def ref_list_geometry(n_total, nprod, ncons):
    """Contiguous producers -> contiguous consumers, one range at a
    time; empty consumer ranges read nothing."""
    offs = np.asarray(even_offsets(n_total, nprod), dtype=np.int64)
    cons = even_offsets(n_total, ncons)
    out = {f: np.zeros(nprod if f.startswith("prod") else ncons,
                       dtype=np.int64) for f in FIELDS}
    out["cons_cells"][:] = np.diff(cons)
    for c, (lo, hi) in enumerate(zip(cons, cons[1:])):
        if hi <= lo:
            continue
        first = int(np.searchsorted(offs, lo, side="right")) - 1
        last = int(np.searchsorted(offs, hi - 1, side="right")) - 1
        out["cons_owners"][c] = out["cons_common"][c] = last - first + 1
        out["prod_cells"][first:last + 1] += (
            np.minimum(hi, offs[first + 1:last + 2])
            - np.maximum(lo, offs[first:last + 1]))
        out["prod_reqs"][first:last + 1] += 1
    return out


def assert_same(geom, ref):
    for f in FIELDS:
        got = getattr(geom, f)
        assert got.dtype == ref[f].dtype == np.int64, f
        assert np.array_equal(got, ref[f]), f


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
        assert lg.cons_cells.sum() == 10**6
        assert lg.prod_cells.sum() == 10**6
        assert (lg.cons_owners >= 1).all()

    def test_owners_bounded_by_producers(self):
        gg = grid_geometry(WL.grid_shape(6), 6, 4)
        assert (gg.cons_owners <= 6).all()

    @settings(max_examples=300, deadline=None)
    @given(shape=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           nprod=st.integers(1, 48), ncons=st.integers(1, 64))
    def test_prop_grid_geometry_matches_reference(self, shape, nprod,
                                                  ncons):
        """Small extents clamp the consumer grid (ngrid_blocks < ncons)
        and leave producers with empty slabs."""
        shape = tuple(shape)
        assert_same(grid_geometry(shape, nprod, ncons),
                    ref_grid_geometry(shape, nprod, ncons))

    @settings(max_examples=300, deadline=None)
    @given(n_total=st.integers(0, 200), nprod=st.integers(1, 48),
           ncons=st.integers(1, 64))
    def test_prop_list_geometry_matches_reference(self, n_total, nprod,
                                                  ncons):
        """Includes lists with more parts than elements."""
        assert_same(list_geometry(n_total, nprod, ncons),
                    ref_list_geometry(n_total, nprod, ncons))

    @pytest.mark.parametrize("P", [64, 1024, 16384])
    @pytest.mark.parametrize("share", [(3, 1), (1, 1), (1, 3)],
                             ids=["3to1", "1to1", "1to3"])
    def test_paper_workload_matches_reference(self, P, share):
        nprod = P * share[0] // sum(share)
        ncons = P - nprod
        shape = WL.grid_shape(nprod)
        npart = WL.total_particles(nprod)
        assert_same(grid_geometry(shape, nprod, ncons),
                    ref_grid_geometry(shape, nprod, ncons))
        assert_same(list_geometry(npart, nprod, ncons),
                    ref_list_geometry(npart, nprod, ncons))

    @pytest.mark.parametrize("P", EXECUTED_SCALES)
    def test_grid_geometry_is_the_executed_query(self, P):
        """At every executed point of the paper table, each consumer's
        block asks the common-decomposition blocks the executed query
        asks, and is served by the producer slabs it overlaps."""
        nprod, ncons = EXEC_WL.split_procs(P)
        shape = EXEC_WL.grid_shape(nprod)
        gg = grid_geometry(shape, nprod, ncons)
        common = RegularDecomposer(shape, nprod)
        slabs = [Bounds.from_selection(producer_grid_selection(
            shape, p, nprod)) for p in range(nprod)]
        for c in range(ncons):
            block = Bounds.from_selection(
                consumer_grid_selection(shape, c, ncons))
            assert gg.cons_common[c] == len(
                common.blocks_intersecting(block))
            assert gg.cons_owners[c] == sum(
                s.intersects(block) for s in slabs)


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
