"""DistMetadataVOL end-to-end tests: index-serve-query over task graphs.

These exercise the paper's headline features: in situ transport with
unchanged user I/O code, n-to-m redistribution with producer/consumer
decomposition mismatch, fan-in/fan-out, and file mode.
"""

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.pfs import PFSStore
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    consumer_particle_selection,
    grid_values,
    particle_values,
    producer_grid_selection,
    producer_particle_selection,
    validate_grid,
    validate_particles,
)
from repro.workflow import Workflow


def make_dist_vol(ctx, role_links, store=None, mode="memory"):
    """One DistMetadataVOL per task, shared by its ranks.

    ``role_links``: list of (pattern, peer task name, role).
    """
    def factory():
        vol = DistMetadataVOL(
            comm=ctx.comm, under=NativeVOL(store or PFSStore())
        )
        for pattern, peer, role in role_links:
            if mode in ("memory", "both"):
                vol.set_memory(pattern)
            if mode in ("file", "both"):
                vol.set_passthru(pattern)
            if role == "producer":
                vol.serve_on_close(pattern, ctx.intercomm(peer))
            else:
                vol.set_consumer(pattern, ctx.intercomm(peer))
        return vol

    return ctx.singleton("vol", factory)


def run_producer_consumer(nprod, ncons, *, grid_shape=(12, 8, 4),
                          n_particles=200, mode="memory", store=None,
                          timeout=60.0):
    """The paper's synthetic benchmark at test scale, with validation."""
    results = {}

    def producer(ctx):
        vol = make_dist_vol(ctx, [("out.h5", "consumer", "producer")],
                            store=store, mode=mode)
        f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
        g1 = f.create_group("group1")
        grid = g1.create_dataset("grid", shape=grid_shape, dtype=h5.UINT64)
        sel = producer_grid_selection(grid_shape, ctx.rank, ctx.size)
        grid.write(grid_values(sel, grid_shape), file_select=sel)
        g2 = f.create_group("group2")
        parts = g2.create_dataset("particles", shape=(n_particles, 3),
                                  dtype=h5.FLOAT32)
        psel = producer_particle_selection(n_particles, ctx.rank, ctx.size)
        parts.write(particle_values(psel), file_select=psel)
        f.attrs["step"] = 1
        f.close()
        return "produced"

    def consumer(ctx):
        vol = make_dist_vol(ctx, [("out.h5", "producer", "consumer")],
                            store=store, mode=mode)
        f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
        grid = f["group1/grid"]
        assert grid.shape == tuple(grid_shape)
        assert grid.dtype == h5.UINT64
        sel = consumer_grid_selection(grid_shape, ctx.rank, ctx.size)
        gv = grid.read(sel, reshape=False)
        ok_grid = validate_grid(sel, grid_shape, gv)
        parts = f["group2/particles"]
        psel = consumer_particle_selection(n_particles, ctx.rank, ctx.size)
        pv = parts.read(psel, reshape=False)
        ok_parts = validate_particles(psel, pv)
        step = f.attrs["step"]
        f.close()
        return (ok_grid, ok_parts, step)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    res = wf.run(timeout=timeout)
    results["res"] = res
    for ok_grid, ok_parts, step in res.returns["consumer"]:
        assert ok_grid, "grid redistribution corrupted data"
        assert ok_parts, "particle redistribution corrupted data"
        assert step == 1
    return res


class TestMemoryMode:
    def test_3_to_1(self):
        run_producer_consumer(3, 1)

    def test_6_to_4_mismatched_decompositions(self):
        # Paper Fig. 3: 6 producers (row slabs) to 4 consumers (blocks).
        run_producer_consumer(6, 4)

    def test_2_to_5_more_consumers_than_producers(self):
        run_producer_consumer(2, 5)

    def test_1_to_1(self):
        run_producer_consumer(1, 1)

    def test_1_to_3(self):
        run_producer_consumer(1, 3)

    def test_5_to_2_odd_counts(self):
        run_producer_consumer(5, 2, grid_shape=(10, 7, 3), n_particles=101)

    def test_no_storage_traffic_in_memory_mode(self):
        store = PFSStore()
        run_producer_consumer(3, 1, store=store)
        assert store.listdir() == []


class TestPerDatasetTransport:
    """Paper Sec. I: a consumer that reads one dataset of a file makes
    LowFive move that dataset only -- "only the required dataset would
    need to be sent"; the others are never sent, nor written."""

    WL = SyntheticWorkload(grid_points_per_proc=512, particles_per_proc=2048)
    NPROD, NCONS = 3, 2

    def _run(self, read, store):
        """Producers write the grid and the particles; consumers read
        and validate the datasets named in ``read``."""
        shape = self.WL.grid_shape(self.NPROD)
        npart = self.WL.total_particles(self.NPROD)

        def producer(ctx):
            vol = make_dist_vol(ctx, [("out.h5", "consumer", "producer")],
                                store=store)
            f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
            grid = f.create_dataset("group1/grid", shape=shape,
                                    dtype=h5.UINT64)
            sel = producer_grid_selection(shape, ctx.rank, ctx.size)
            grid.write(grid_values(sel, shape), file_select=sel)
            parts = f.create_dataset("group2/particles", shape=(npart, 3),
                                     dtype=h5.FLOAT32)
            psel = producer_particle_selection(npart, ctx.rank, ctx.size)
            parts.write(particle_values(psel), file_select=psel)
            f.close()

        def consumer(ctx):
            vol = make_dist_vol(ctx, [("out.h5", "producer", "consumer")],
                                store=store)
            f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
            ok = True
            if "grid" in read:
                sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
                ok &= validate_grid(sel, shape, f["group1/grid"].read(
                    sel, reshape=False))
            if "particles" in read:
                psel = consumer_particle_selection(npart, ctx.rank,
                                                   ctx.size)
                ok &= validate_particles(psel, f["group2/particles"].read(
                    psel, reshape=False))
            f.close()
            return ok

        wf = Workflow()
        wf.add_task("producer", self.NPROD, producer)
        wf.add_task("consumer", self.NCONS, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run()
        assert all(res.returns["consumer"])
        return res.bytes_sent

    def test_one_dataset_moves_only_its_bytes(self):
        grid_b = self.WL.total_grid_points(self.NPROD) * 8
        part_b = self.WL.total_particles(self.NPROD) * 12
        none, grid, parts, both = (
            self._run(read, PFSStore())
            for read in ((), ("grid",), ("particles",),
                         ("grid", "particles")))
        # A read dataset's bytes cross the wire; the unread one's do
        # not (they would take a read past the sum of both).
        assert grid_b <= grid - none < grid_b + part_b
        assert part_b <= parts - none < part_b + grid_b
        assert both - grid >= part_b and both - parts >= grid_b

    def test_unread_dataset_never_hits_storage(self):
        store = PFSStore()
        self._run(("grid",), store)
        assert store.listdir() == []


class TestFileMode:
    def test_file_mode_transports_via_storage(self):
        store = PFSStore()
        res = run_producer_consumer(3, 1, mode="file", store=store,
                                    timeout=120.0)
        assert "out.h5" in store.listdir()
        # File mode pays Lustre costs: clearly slower than memory mode
        # even at this tiny test size (the orders-of-magnitude gap at
        # the paper's data sizes is asserted in tests/perfmodel).
        res_mem = run_producer_consumer(3, 1, mode="memory")
        assert res.vtime > 4 * res_mem.vtime

    def test_both_mode_keeps_memory_and_file(self):
        store = PFSStore()
        run_producer_consumer(2, 2, mode="both", store=store)
        assert "out.h5" in store.listdir()


class TestFanInFanOut:
    def test_fan_out_one_producer_two_consumers(self):
        grid_shape = (8, 6)

        def producer(ctx):
            vol = ctx.singleton("vol", lambda: self._vol(ctx, [
                ("out.h5", "c1", "producer"), ("out.h5", "c2", "producer"),
            ]))
            f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
            d = f.create_dataset("grid", shape=grid_shape, dtype=h5.UINT64)
            sel = producer_grid_selection(grid_shape, ctx.rank, ctx.size)
            d.write(grid_values(sel, grid_shape), file_select=sel)
            f.close()

        def consumer(ctx):
            peer = "producer"
            vol = ctx.singleton("vol", lambda: self._vol(ctx, [
                ("out.h5", peer, "consumer"),
            ]))
            f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
            sel = consumer_grid_selection(grid_shape, ctx.rank, ctx.size)
            vals = f["grid"].read(sel, reshape=False)
            f.close()
            return validate_grid(sel, grid_shape, vals)

        wf = Workflow()
        wf.add_task("producer", 2, producer)
        wf.add_task("c1", 1, consumer)
        wf.add_task("c2", 2, consumer)
        wf.add_link("producer", "c1")
        wf.add_link("producer", "c2")
        res = wf.run()
        assert all(res.returns["c1"]) and all(res.returns["c2"])

    def test_fan_in_two_producers_one_consumer(self):
        """Two producer tasks write different files; one consumer reads
        both (fan-in in the task graph)."""
        shape = (6, 4)

        def make_producer(fname):
            def producer(ctx):
                vol = ctx.singleton("vol", lambda: self._vol(ctx, [
                    (fname, "consumer", "producer"),
                ]))
                f = h5.File(fname, "w", comm=ctx.comm, vol=vol)
                d = f.create_dataset("d", shape=shape, dtype=h5.UINT64)
                sel = producer_grid_selection(shape, ctx.rank, ctx.size)
                d.write(grid_values(sel, shape), file_select=sel)
                f.close()
            return producer

        def consumer(ctx):
            vol = ctx.singleton("vol", lambda: self._vol(ctx, [
                ("a.h5", "pa", "consumer"), ("b.h5", "pb", "consumer"),
            ]))
            oks = []
            for fname in ("a.h5", "b.h5"):
                f = h5.File(fname, "r", comm=ctx.comm, vol=vol)
                sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
                vals = f["d"].read(sel, reshape=False)
                oks.append(validate_grid(sel, shape, vals))
                f.close()
            return all(oks)

        wf = Workflow()
        wf.add_task("pa", 2, make_producer("a.h5"))
        wf.add_task("pb", 3, make_producer("b.h5"))
        wf.add_task("consumer", 2, consumer)
        wf.add_link("pa", "consumer")
        wf.add_link("pb", "consumer")
        res = wf.run()
        assert all(res.returns["consumer"])

    @staticmethod
    def _vol(ctx, role_links):
        vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
        for pattern, peer, role in role_links:
            vol.set_memory(pattern)
            if role == "producer":
                vol.serve_on_close(pattern, ctx.intercomm(peer))
            else:
                vol.set_consumer(pattern, ctx.intercomm(peer))
        return vol


class TestMultiTimestep:
    def test_two_sequential_files(self):
        """step1.h5 then step2.h5 through the same VOLs (two epochs)."""
        shape = (6, 6)

        def producer(ctx):
            vol = ctx.singleton("vol", lambda: TestFanInFanOut._vol(ctx, [
                ("step*.h5", "consumer", "producer"),
            ]))
            for step in (1, 2):
                fname = f"step{step}.h5"
                f = h5.File(fname, "w", comm=ctx.comm, vol=vol)
                d = f.create_dataset("d", shape=shape, dtype=h5.UINT64)
                sel = producer_grid_selection(shape, ctx.rank, ctx.size)
                d.write(grid_values(sel, shape) + step, file_select=sel)
                f.close()

        def consumer(ctx):
            vol = ctx.singleton("vol", lambda: TestFanInFanOut._vol(ctx, [
                ("step*.h5", "producer", "consumer"),
            ]))
            oks = []
            for step in (1, 2):
                f = h5.File(f"step{step}.h5", "r", comm=ctx.comm, vol=vol)
                sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
                vals = np.asarray(f["d"].read(sel, reshape=False))
                oks.append(
                    np.array_equal(vals, grid_values(sel, shape) + step)
                )
                f.close()
            return all(oks)

        wf = Workflow()
        wf.add_task("producer", 2, producer)
        wf.add_task("consumer", 2, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run()
        assert all(res.returns["consumer"])


class TestSelectionsBeyondBoxes:
    def test_strided_consumer_read(self):
        """Full HDF5 dataspace generality: consumer reads a strided
        hyperslab crossing producer boundaries."""
        shape = (8, 8)

        def producer(ctx):
            vol = ctx.singleton("vol", lambda: TestFanInFanOut._vol(ctx, [
                ("o.h5", "consumer", "producer"),
            ]))
            f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
            d = f.create_dataset("d", shape=shape, dtype=h5.UINT64)
            sel = producer_grid_selection(shape, ctx.rank, ctx.size)
            d.write(grid_values(sel, shape), file_select=sel)
            f.close()

        def consumer(ctx):
            vol = ctx.singleton("vol", lambda: TestFanInFanOut._vol(ctx, [
                ("o.h5", "producer", "consumer"),
            ]))
            f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
            sel = h5.HyperslabSelection(shape, (0, ctx.rank), (4, 4),
                                        stride=(2, 2))
            vals = f["d"].read(sel, reshape=False)
            f.close()
            return validate_grid(sel, shape, vals)

        wf = Workflow()
        wf.add_task("producer", 4, producer)
        wf.add_task("consumer", 2, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run()
        assert all(res.returns["consumer"])

    def test_point_selection_read(self):
        shape = (10,)

        def producer(ctx):
            vol = ctx.singleton("vol", lambda: TestFanInFanOut._vol(ctx, [
                ("o.h5", "consumer", "producer"),
            ]))
            f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
            d = f.create_dataset("d", shape=shape, dtype=h5.UINT64)
            sel = producer_grid_selection(shape, ctx.rank, ctx.size)
            d.write(grid_values(sel, shape), file_select=sel)
            f.close()

        def consumer(ctx):
            vol = ctx.singleton("vol", lambda: TestFanInFanOut._vol(ctx, [
                ("o.h5", "producer", "consumer"),
            ]))
            f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
            sel = h5.PointSelection(shape, [(9,), (0,), (5,)])
            vals = np.asarray(f["d"].read(sel, reshape=False))
            f.close()
            return np.array_equal(vals, [9, 0, 5])

        wf = Workflow()
        wf.add_task("producer", 2, producer)
        wf.add_task("consumer", 1, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run()
        assert all(res.returns["consumer"])
