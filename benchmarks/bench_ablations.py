"""Ablation benchmarks for LowFive's design choices.

Not figures from the paper, but measurements of the design decisions its
text argues for:

- **zero-copy vs deep copy** (Sec. I / Sec. IV-C): shallow references
  avoid the write-side copy; the Nyx repack forces deep copies.
- **contiguous serialization vs point-at-a-time** (Sec. IV-B(c)): the
  stated reason LowFive beats hand-written MPI at small scale.
- **producer push vs index-serve-query** (Sec. V-C future work,
  implemented as an extension): trading protocol round trips for
  proactive data movement when the consumer's decomposition is implied.
- **common-decomposition fan-out** (Sec. III-B): how many producers a
  consumer must contact as the producer:consumer shape changes.
"""

import numpy as np

import repro.h5 as h5
from repro.bench import format_table, write_result
from repro.bench.figures import EXEC_WL
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL, StagedMetadataVOL, staging_main
from repro.perfmodel import THETA_KNL
from repro.perfmodel.transports import grid_geometry
from repro.pfs import PFSStore
from repro.simmpi import run_world
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow


def _pipeline(nprod, ncons, wl, zero_copy=False, push=False):
    shape = wl.grid_shape(nprod)

    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm,
                                  under=NativeVOL(PFSStore()))
            vol.set_memory("o.h5")
            if zero_copy:
                vol.set_zero_copy("o.h5")
            if push:
                vol.enable_push("o.h5")
            if role == "producer":
                vol.serve_on_close("o.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("o.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("d", shape=shape, dtype=h5.UINT64)
        sel = producer_grid_selection(shape, ctx.rank, ctx.size)
        # With zero-copy the buffer must outlive the close; keep a ref.
        buf = grid_values(sel, shape)
        d.write(buf, file_select=sel)
        f.close()
        return buf is not None

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
        sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        vals = f["d"].read(sel, reshape=False)
        f.close()
        return validate_grid(sel, shape, vals)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    res = wf.run(model=THETA_KNL.net)
    assert all(res.returns["consumer"])
    return res.vtime


def test_ablation_zero_copy():
    """Zero-copy removes the producer-side deep copy."""
    t_deep = _pipeline(6, 2, EXEC_WL, zero_copy=False)
    t_shallow = _pipeline(6, 2, EXEC_WL, zero_copy=True)
    assert t_shallow < t_deep
    write_result("ablation_zero_copy.txt", format_table(
        ["ownership", "completion (s)"],
        [["deep copy", t_deep], ["zero-copy (shallow)", t_shallow],
         ["saving", t_deep - t_shallow]],
        title="Ablation: per-dataset ownership (6 producers -> 2 "
              "consumers, executed)",
    ))


def test_ablation_push_vs_query():
    """Producer push removes the consumer's query round trips."""
    t_query = _pipeline(6, 2, EXEC_WL, push=False)
    t_push = _pipeline(6, 2, EXEC_WL, push=True)
    assert t_push < t_query
    write_result("ablation_push_vs_query.txt", format_table(
        ["protocol", "completion (s)"],
        [["index-serve-query (paper)", t_query],
         ["producer push (extension)", t_push],
         ["saving", t_query - t_push]],
        title="Ablation: redistribution protocol (6 producers -> 2 "
              "consumers, executed)",
    ))


def test_ablation_serialization_cost():
    """Contiguous bulk serialization vs point-at-a-time (the Fig. 7
    mechanism), isolated via the cost model."""
    wl = SyntheticWorkload()
    net = THETA_KNL.net
    n = wl.grid_points_per_proc + 3 * wl.particles_per_proc
    bytes_ = wl.grid_points_per_proc * 8 + wl.particles_per_proc * 12
    t_contig = net.memcpy_time(bytes_)
    t_points = net.pack_elements_time(n)
    assert t_points > 5 * t_contig
    write_result("ablation_serialization.txt", format_table(
        ["serialization", "seconds per producer (1e6+1e6 elements)"],
        [["contiguous regions (LowFive)", t_contig],
         ["point at a time (hand-written MPI)", t_points],
         ["ratio", t_points / t_contig]],
        title="Ablation: serialization strategy (cost model, Theta KNL)",
    ))


def test_ablation_direct_vs_staged():
    """Direct messaging vs in-transit staging under a late consumer --
    the decoupling trade-off of the paper's Sec. II-B, made concrete
    with LowFive's own staged mode."""
    shape = EXEC_WL.grid_shape(4)
    delay = 1.0

    def run(staged):
        # Direct: producers serve consumers. Staged: both sides talk to
        # two staging ranks, and each side finalizes staging at the end.
        def vol(ctx, role):
            def mk():
                cls = StagedMetadataVOL if staged else DistMetadataVOL
                v = cls(comm=ctx.comm, under=NativeVOL(PFSStore()))
                v.set_memory("o.h5")
                if staged:
                    attach = ("stage_on_close" if role == "producer"
                              else "set_staged_consumer")
                    peer = "staging"
                else:
                    attach = ("serve_on_close" if role == "producer"
                              else "set_consumer")
                    peer = "consumer" if role == "producer" else "producer"
                getattr(v, attach)("o.h5", ctx.intercomm(peer))
                return v

            return ctx.singleton("vol", mk)

        def finalize(ctx):
            if staged:
                StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))

        def producer(ctx):
            f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol(ctx, "producer"))
            d = f.create_dataset("d", shape=shape, dtype="u8")
            sel = producer_grid_selection(shape, ctx.rank, ctx.size)
            d.write(grid_values(sel, shape), file_select=sel)
            f.close()
            t = ctx.comm.vtime
            finalize(ctx)
            return t

        def consumer(ctx):
            v = vol(ctx, "consumer")
            ctx.comm.compute(delay)
            f = h5.File("o.h5", "r", comm=ctx.comm, vol=v)
            sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
            vals = f["d"].read(sel, reshape=False)
            f.close()
            finalize(ctx)
            return np.array_equal(vals, grid_values(sel, shape))

        wf = Workflow()
        wf.add_task("producer", 4, producer)
        wf.add_task("consumer", 2, consumer)
        if staged:
            wf.add_task("staging", 2, lambda ctx: staging_main(
                [ctx.intercomm("producer"), ctx.intercomm("consumer")]))
            wf.add_link("producer", "staging")
            wf.add_link("consumer", "staging")
        else:
            wf.add_link("producer", "consumer")
        res = wf.run(timeout=120.0)
        assert all(res.returns["consumer"])
        return max(res.returns["producer"]), res.vtime

    t_prod_staged, t_staged = run(staged=True)
    t_prod_direct, t_direct = run(staged=False)
    # The staging property: producers decouple from the slow consumer.
    assert t_prod_staged < delay / 2
    assert t_prod_direct > delay
    write_result("ablation_direct_vs_staged.txt", format_table(
        ["mode", "producer done (s)", "workflow done (s)",
         "extra ranks"],
        [["direct (index-serve-query)", t_prod_direct, t_direct, 0],
         ["in-transit (staged)", t_prod_staged, t_staged, 2]],
        title="Ablation: direct messaging vs in-transit staging with a "
              f"{delay:.0f}s-late consumer (4 producers, 2 consumers, "
              "executed)",
    ))


def test_ablation_chunked_layout():
    """Chunked vs contiguous file layout under a strided parallel write
    (the situation chunking exists for on Lustre)."""

    def write_time(chunks):
        vol = NativeVOL()

        def main(comm):
            f = h5.File("c.h5", "w", comm=comm, vol=vol)
            d = f.create_dataset("d", shape=(64, 64), dtype="f8",
                                 chunks=chunks)
            t0 = comm.vtime
            # Each rank writes an aligned 16-row slab.
            d.write(np.zeros(16 * 64),
                    file_select=h5.hyperslab((16 * comm.rank, 0), (16, 64)))
            dt = comm.vtime - t0
            f.close()
            return dt

        return run_world(4, main).returns[0]

    t_contig = write_time(None)
    t_aligned = write_time((16, 64))   # chunk == each rank's slab
    t_fine = write_time((2, 2))        # 512 chunks per slab
    assert t_fine > t_aligned          # metadata per chunk costs
    rows = [
        ["contiguous", t_contig],
        ["chunked, write-aligned (16x64)", t_aligned],
        ["chunked, fine (2x2)", t_fine],
    ]
    write_result("ablation_chunked_layout.txt", format_table(
        ["layout", "write time (s)"], rows,
        title="Ablation: storage layout under aligned parallel slab "
              "writes (4 ranks, executed)",
    ))


def test_ablation_memory_footprint():
    """Per-producer memory copies of each transport configuration --
    the paper's 'up to three copies' discussion made quantitative."""
    from repro.perfmodel.memory import footprint_table, lowfive_footprint

    wl = SyntheticWorkload()
    bytes_pp = wl.grid_points_per_proc * 8 + wl.particles_per_proc * 12
    rows = [
        [name, fp.copies, round(fp.bytes / 2**20, 1), str(fp)]
        for name, fp in footprint_table(bytes_pp)
    ]
    # Paper Sec. IV-C: the Nyx configuration peaks at three copies.
    nyx = lowfive_footprint(bytes_pp, repack=True)
    assert nyx.copies == 3.0
    write_result("ablation_memory_footprint.txt", format_table(
        ["configuration", "copies", "MiB/producer", "breakdown"],
        rows,
        title="Ablation: producer-side memory footprint "
              "(1e6+1e6 elements per producer, ~19 MiB native)",
    ))


def test_ablation_common_decomposition_fanout():
    """How many producers each consumer contacts, as shapes vary --
    the quantity LowFive's common decomposition keeps small."""
    wl = SyntheticWorkload()
    rows = []
    frac = []
    for total in (16, 64, 256, 1024):
        nprod, ncons = wl.split_procs(total)
        gg = grid_geometry(wl.grid_shape(nprod), nprod, ncons)
        rows.append([
            total, nprod, ncons,
            float(gg.cons_owners.mean()),
            int(gg.cons_owners.max()),
            float(gg.cons_common.mean()),
        ])
        frac.append(gg.cons_owners.max() / nprod)
    # Locality: the fraction of producers a consumer contacts shrinks
    # as the job grows (never all-to-all).
    assert all(b <= a for a, b in zip(frac, frac[1:]))
    assert frac[-1] < 0.2
    write_result("ablation_fanout.txt", format_table(
        ["total procs", "producers", "consumers", "mean owners/consumer",
         "max owners/consumer", "mean common blocks queried"],
        rows,
        title="Ablation: redistribution fan-out under the common "
              "decomposition (grid dataset)",
    ))
