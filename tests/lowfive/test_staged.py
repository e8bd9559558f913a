"""In-transit (staged) LowFive mode tests.

Correctness of the staged redistribution, and the decoupling property
the paper attributes to staging: the producer finishes without waiting
for a slow consumer.
"""

import numpy as np

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.lowfive.rpc import TAG_CTRL
from repro.lowfive.vol_staged import StagedMetadataVOL, staging_main
from repro.pfs import PFSStore
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow

SHAPE = (12, 8)


def build(nprod, ncons, nstage, consumer_delay=0.0, files=("o.h5",),
          shape=SHAPE):
    """Producer -> staging -> consumer workflow; returns the result."""
    def make_vol(ctx, role):
        def factory():
            vol = StagedMetadataVOL(comm=ctx.comm,
                                    under=NativeVOL(PFSStore()))
            vol.set_memory("*.h5")
            if role == "producer":
                vol.stage_on_close("*.h5", ctx.intercomm("staging"))
            else:
                vol.set_staged_consumer("*.h5", ctx.intercomm("staging"))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer")
        inter = ctx.intercomm("staging")
        for i, fname in enumerate(files):
            f = h5.File(fname, "w", comm=ctx.comm, vol=vol)
            d = f.create_dataset("d", shape=shape, dtype=h5.UINT64)
            sel = producer_grid_selection(shape, ctx.rank, ctx.size)
            d.write(grid_values(sel, shape) + i, file_select=sel)
            f.close()  # returns immediately: staged, not served
        t_done = ctx.comm.vtime
        StagedMetadataVOL.finalize_staging(inter)
        return t_done

    def consumer(ctx):
        vol = make_vol(ctx, "consumer")
        inter = ctx.intercomm("staging")
        if consumer_delay:
            ctx.comm.compute(consumer_delay)
        oks = []
        for i, fname in enumerate(files):
            f = h5.File(fname, "r", comm=ctx.comm, vol=vol)
            sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
            vals = np.asarray(f["d"].read(sel, reshape=False))
            oks.append(np.array_equal(vals, grid_values(sel, shape) + i))
            f.close()
        StagedMetadataVOL.finalize_staging(inter)
        return all(oks)

    def staging(ctx):
        return staging_main(
            [ctx.intercomm("producer"), ctx.intercomm("consumer")]
        )

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_task("staging", nstage, staging)
    wf.add_link("producer", "staging")
    wf.add_link("consumer", "staging")
    return wf.run(timeout=90.0)


class TestCorrectness:
    def test_3_to_2_via_1_stager(self):
        res = build(3, 2, 1)
        assert all(res.returns["consumer"])

    def test_4_to_2_via_2_stagers(self):
        res = build(4, 2, 2)
        assert all(res.returns["consumer"])

    def test_uneven_6_to_1_via_3(self):
        res = build(6, 1, 3)
        assert all(res.returns["consumer"])

    def test_multiple_files(self):
        res = build(2, 2, 2, files=("a.h5", "b.h5", "c.h5"))
        assert all(res.returns["consumer"])

    def test_staging_ranks_hold_pieces(self):
        res = build(3, 1, 2)
        held = res.returns["staging"]
        assert all(isinstance(h, dict) and "o.h5" in h for h in held)
        assert sum(h["o.h5"] for h in held) >= 3  # every producer staged


#: 1 MiB of uint64 per producer, so every ``__staged__`` marker (68 B)
#: overtakes the data bundle its own rank sent just before it.
BIG_SHAPE = (96, 64, 64)


def marker_and_bundle_arrivals(res):
    """Per producer world rank: (marker arrival, bundle arrival)."""
    posts = res.obs.causal.messages()
    out = {}
    for src in sorted({p.src for p in posts
                       if p.tag == StagedMetadataVOL.TAG_STAGE}):
        bundle = max((p for p in posts if p.src == src
                      and p.tag == StagedMetadataVOL.TAG_STAGE),
                     key=lambda p: p.nbytes)
        marker = min((p for p in posts
                      if p.src == src and p.tag == TAG_CTRL),
                     key=lambda p: p.t_post)
        assert bundle.nbytes >= 1 << 20 and marker.t_post >= bundle.t_post
        out[src] = (marker.t_arrival, bundle.t_arrival)
    return out


class TestVisibility:
    """A file is visible on a stager only once, for every producer,
    the data bundle has been applied *and* the marker has arrived."""

    def test_marker_overtaking_its_bundle_never_exposes_fill_values(self):
        # With visibility keyed on the markers alone, a consumer read
        # arriving between marker and bundle is answered from a
        # half-filled tree.
        runs = [build(3, 2, 1, shape=BIG_SHAPE) for _ in range(3)]
        arrivals = marker_and_bundle_arrivals(runs[0])
        assert len(arrivals) == 3
        assert all(t_marker < t_bundle
                   for t_marker, t_bundle in arrivals.values())
        assert all(all(r.returns["consumer"]) for r in runs)
        assert len({(r.vtime, r.messages, r.bytes_sent)
                    for r in runs}) == 1


class TestDecoupling:
    def test_producer_unblocked_by_late_consumer(self):
        """The in-transit property: a slow consumer does not hold the
        producer hostage (unlike direct mode's serve-until-done)."""
        delay = 2.0
        staged = build(3, 1, 1, consumer_delay=delay)
        t_prod = max(staged.returns["producer"])
        assert t_prod < delay / 2  # producer done long before consumer

        # Direct mode under the same delay: the producer's close cannot
        # return before the delayed consumer arrives and finishes.
        def make_vol(ctx, role):
            def factory():
                vol = DistMetadataVOL(comm=ctx.comm,
                                      under=NativeVOL(PFSStore()))
                vol.set_memory("o.h5")
                if role == "producer":
                    vol.serve_on_close("o.h5", ctx.intercomm("consumer"))
                else:
                    vol.set_consumer("o.h5", ctx.intercomm("producer"))
                return vol

            return ctx.singleton("vol", factory)

        def producer(ctx):
            vol = make_vol(ctx, "producer")
            f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
            d = f.create_dataset("d", shape=SHAPE, dtype=h5.UINT64)
            sel = producer_grid_selection(SHAPE, ctx.rank, ctx.size)
            d.write(grid_values(sel, SHAPE), file_select=sel)
            f.close()
            return ctx.comm.vtime

        def consumer(ctx):
            vol = make_vol(ctx, "consumer")
            ctx.comm.compute(delay)
            f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
            sel = consumer_grid_selection(SHAPE, ctx.rank, ctx.size)
            vals = f["d"].read(sel, reshape=False)
            f.close()
            return validate_grid(sel, SHAPE, vals)

        wf = Workflow()
        wf.add_task("producer", 3, producer)
        wf.add_task("consumer", 1, consumer)
        wf.add_link("producer", "consumer")
        direct = wf.run(timeout=90.0)
        assert all(direct.returns["consumer"])
        t_direct_prod = max(direct.returns["producer"])
        # Direct producer is coupled to the consumer's schedule.
        assert t_direct_prod > delay
        assert t_prod < t_direct_prod
