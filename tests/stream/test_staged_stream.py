"""Epoch retention through the staged (in-transit) transport.

Streaming epochs can also flow through staging ranks: the producer
stages each epoch file and moves on; consumers read from the stagers
and release epochs with cumulative ``__release__`` high-water marks.
These tests pin the staging-side retention policy -- released epochs
are dropped from the stagers (bounded live window), unreleased ones
are retained for the lifetime of the staging task.
"""

import sys

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive.rpc import RPCClient
from repro.lowfive.vol_staged import StagedMetadataVOL, staging_main
from repro.pfs import PFSStore
from repro.stream import epoch_fname, stream_pattern
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
)
from repro.workflow import Workflow

SHAPE = (12, 8)


@pytest.fixture(autouse=True)
def aggressive_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


def epoch_grid(sel, epoch):
    return grid_values(sel, SHAPE) + np.uint64(1000 * epoch)


def build_staged_stream(nprod, ncons, nstage, nsteps, *,
                        release_upto=None):
    """Producer stages ``nsteps`` epoch files; consumers release them.

    ``release_upto`` caps the cumulative high-water mark the consumers
    send (None releases everything). Returns the workflow result; the
    staging task returns its retained-file dict.
    """
    pattern = stream_pattern("sim")

    def make_vol(ctx, role):
        def factory():
            vol = StagedMetadataVOL(comm=ctx.comm,
                                    under=NativeVOL(PFSStore()))
            vol.set_memory(pattern)
            if role == "producer":
                vol.stage_on_close(pattern, ctx.intercomm("staging"))
            else:
                vol.set_staged_consumer(pattern,
                                        ctx.intercomm("staging"))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer")
        for e in range(nsteps):
            f = h5.File(epoch_fname("sim", e), "w", comm=ctx.comm,
                        vol=vol)
            d = f.create_dataset("grid", shape=SHAPE, dtype=h5.UINT64)
            sel = producer_grid_selection(SHAPE, ctx.rank, ctx.size)
            d.write(epoch_grid(sel, e), file_select=sel)
            f.close()  # staged: returns without serving
        StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "consumer")
        inter = ctx.intercomm("staging")
        world = ctx.comm.world_rank(ctx.rank)
        oks = []
        for e in range(nsteps):
            f = h5.File(epoch_fname("sim", e), "r", comm=ctx.comm,
                        vol=vol)
            sel = consumer_grid_selection(SHAPE, ctx.rank, ctx.size)
            vals = np.asarray(f["grid"].read(sel, reshape=False))
            oks.append(np.array_equal(vals, epoch_grid(sel, e)))
            f.close()
            if release_upto is None or e <= release_upto:
                RPCClient(inter).notify_all("__release__", "sim", e,
                                            world)
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
    return wf.run(timeout=120.0)


class TestStagedRetention:
    def test_released_epochs_dropped_from_stagers(self):
        res = build_staged_stream(1, 1, 1, 4)
        assert all(res.returns["consumer"])
        # Every epoch released -> none retained by the staging rank.
        for held in res.returns["staging"]:
            assert not any(f.startswith("sim@") for f in held)
        drops = res.obs.spans.instants("stream", "stream.drop",
                                       stream="sim")
        assert sorted(i.labels["epoch"] for i in drops) == list(range(4))

    def test_unreleased_tail_is_retained(self):
        res = build_staged_stream(1, 1, 1, 4, release_upto=2)
        assert all(res.returns["consumer"])
        held = res.returns["staging"][0]
        assert epoch_fname("sim", 3) in held
        assert not any(epoch_fname("sim", e) in held for e in range(3))
        drops = res.obs.spans.instants("stream", "stream.drop",
                                       stream="sim")
        assert sorted(i.labels["epoch"] for i in drops) == [0, 1, 2]

    def test_n_to_m_quorum_release(self):
        # A drop needs the release quorum: every consumer rank, across
        # both stagers, must pass the high-water mark.
        res = build_staged_stream(2, 2, 2, 3)
        assert all(res.returns["consumer"])
        for held in res.returns["staging"]:
            assert not any(f.startswith("sim@") for f in held)
        drops = res.obs.spans.instants("stream", "stream.drop",
                                       stream="sim")
        # Each staging rank drops its copy of every epoch.
        assert sorted(i.labels["epoch"] for i in drops) == sorted(
            list(range(3)) * 2)
