"""Protocol bug: a retained stream epoch nobody releases.

The consumer retains the last epoch to "keep it for later" and then
leaves the stream without ever releasing it. The run completes, but
the producer keeps the epoch in its live window forever, which the
``epoch-leak`` check reports.
"""

import numpy as np

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.pfs import PFSStore
from repro.workflow import Workflow

SHAPE = (8, 4)


def make_vol(ctx):
    return ctx.singleton("vol", lambda: DistMetadataVOL(
        comm=ctx.comm, under=NativeVOL(PFSStore())))


def producer(ctx):
    vol = make_vol(ctx)
    with ctx.stream_producer("consumer", "sim", vol) as prod:
        for step in range(2):
            with prod.epoch() as f:
                d = f.create_dataset("g", shape=SHAPE, dtype=h5.UINT64)
                d.write(np.full(SHAPE, step, dtype=np.uint64).ravel())
    return True


def consumer(ctx):
    vol = make_vol(ctx)
    with ctx.stream_consumer("producer", "sim", vol) as cons:
        while True:
            ep = cons.next_epoch()
            if ep is None:
                break
            with ep:
                ep.file["g"].read()
                if ep.id == 1:
                    ep.retain()  # kept live, never released
    return True


def build_workflow():
    wf = Workflow()
    wf.add_task("producer", nprocs=1, main=producer)
    wf.add_task("consumer", nprocs=1, main=consumer)
    wf.add_link("producer", "consumer")
    return wf
