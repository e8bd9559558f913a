#!/usr/bin/env python
"""Quickstart: couple a producer and a consumer in situ with LowFive.

Two "executables" (tasks) run on a simulated MPI machine. The producer
writes an HDF5-style file; the consumer reads it. Neither task's I/O
code knows about LowFive -- swapping the VOL connector switches the
transport from physical files to in situ MPI messaging, which is the
paper's headline usability claim.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.pfs import PFSStore
from repro.workflow import Workflow

GRID = (16, 16)  # global dataset shape


def producer(ctx):
    """Simulation task: 4 ranks, each writes 4 rows of the grid."""
    def make_vol():
        vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
        vol.set_memory("output.h5")                       # keep in memory
        vol.serve_on_close("output.h5", ctx.intercomm("analysis"))
        return vol

    vol = ctx.singleton("vol", make_vol)

    # Ordinary h5 API calls from here on -- nothing LowFive-specific.
    f = h5.File("output.h5", "w", comm=ctx.comm, vol=vol)
    dset = f.create_dataset("fields/temperature", shape=GRID,
                            dtype=h5.FLOAT64)
    rows = GRID[0] // ctx.size
    start = ctx.rank * rows
    local = 100.0 * ctx.rank + np.arange(rows * GRID[1]).reshape(rows, GRID[1])
    dset.write(local, file_select=h5.hyperslab((start, 0), (rows, GRID[1])))
    f.attrs["time_step"] = 42
    f.close()  # <- triggers index + serve to the consumer
    print(f"[producer {ctx.rank}] wrote rows {start}..{start + rows}")


def analysis(ctx):
    """Analysis task: 2 ranks, each reads a column block (different
    decomposition than the producer wrote -- LowFive redistributes)."""
    def make_vol():
        vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
        vol.set_memory("output.h5")
        vol.set_consumer("output.h5", ctx.intercomm("simulation"))
        return vol

    vol = ctx.singleton("vol", make_vol)

    f = h5.File("output.h5", "r", comm=ctx.comm, vol=vol)
    dset = f["fields/temperature"]
    cols = GRID[1] // ctx.size
    c0 = ctx.rank * cols
    block = dset.read(h5.hyperslab((0, c0), (GRID[0], cols)))
    mean = float(np.mean(block))
    step = f.attrs["time_step"]
    f.close()
    print(f"[analysis {ctx.rank}] columns {c0}..{c0 + cols}: "
          f"mean={mean:.2f} (step {step})")
    return mean


def build_workflow():
    """The quickstart workflow graph (used by ``main`` and by
    ``python -m repro.tools run --example examples/quickstart.py``)."""
    wf = Workflow()
    wf.add_task("simulation", nprocs=4, main=producer)
    wf.add_task("analysis", nprocs=2, main=analysis)
    wf.add_link("simulation", "analysis")
    return wf


def main():
    result = build_workflow().run()

    means = result.returns["analysis"]
    print(f"\ncompleted in {result.vtime * 1e3:.2f} simulated ms, "
          f"{result.messages} messages, {result.bytes_sent} bytes")
    print(f"analysis means: {[round(m, 2) for m in means]}")
    assert all(m > 0 for m in means)


if __name__ == "__main__":
    main()
