"""DataSpaces-like staging baseline tests."""

import numpy as np
import pytest

from repro.baselines import DataSpaces, dataspaces_server_main
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow


def run_dataspaces(nprod, ncons, nservers, shape, versions=(0,)):
    ds = DataSpaces(nservers)

    def producer(ctx):
        inter = ctx.intercomm("server")
        for v in versions:
            sel = producer_grid_selection(shape, ctx.rank, ctx.size)
            ds.put_local(inter, ctx.comm, "grid", v, sel,
                         grid_values(sel, shape) + v)
        ctx.comm.barrier()
        ds.finalize(inter, ctx.comm)

    def consumer(ctx):
        inter = ctx.intercomm("server")
        oks = []
        for v in versions:
            sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
            vals = ds.get(inter, ctx.comm, "grid", v, sel, np.uint64)
            expected = grid_values(sel, shape) + v
            oks.append(np.array_equal(np.asarray(vals).reshape(-1), expected))
        ctx.comm.barrier()
        ds.finalize(inter, ctx.comm)
        return all(oks)

    def server(ctx):
        inters = [ctx.intercomm("producer"), ctx.intercomm("consumer")]
        dataspaces_server_main(ds, inters)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_task("server", nservers, server)
    wf.add_link("producer", "server")
    wf.add_link("consumer", "server")
    return wf.run()


def test_3_to_1_single_server():
    res = run_dataspaces(3, 1, 1, (9, 6))
    assert all(res.returns["consumer"])


def test_6_to_4_two_servers():
    res = run_dataspaces(6, 4, 2, (12, 8))
    assert all(res.returns["consumer"])


def test_sharded_dht_many_servers():
    res = run_dataspaces(4, 2, 4, (16, 8))
    assert all(res.returns["consumer"])


def test_multiple_versions():
    res = run_dataspaces(2, 2, 1, (8, 8), versions=(0, 1, 2))
    assert all(res.returns["consumer"])


def test_get_blocks_until_coverage():
    """A consumer that gets before producers put must still see full
    data (the server defers until the region is covered)."""
    ds = DataSpaces(1)
    shape = (8, 4)

    def producer(ctx):
        inter = ctx.intercomm("server")
        ctx.comm.compute(0.5)  # simulate being late
        sel = producer_grid_selection(shape, ctx.rank, ctx.size)
        ds.put_local(inter, ctx.comm, "g", 0, sel, grid_values(sel, shape))
        ds.finalize(inter, ctx.comm)

    def consumer(ctx):
        inter = ctx.intercomm("server")
        sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        vals = ds.get(inter, ctx.comm, "g", 0, sel, np.uint64)
        ds.finalize(inter, ctx.comm)
        return validate_grid(sel, shape, vals)

    def server(ctx):
        dataspaces_server_main(
            ds, [ctx.intercomm("producer"), ctx.intercomm("consumer")]
        )

    wf = Workflow()
    wf.add_task("producer", 2, producer)
    wf.add_task("consumer", 1, consumer)
    wf.add_task("server", 1, server)
    wf.add_link("producer", "server")
    wf.add_link("consumer", "server")
    res = wf.run()
    assert all(res.returns["consumer"])
    # The consumer's completion time includes waiting for the late puts.
    assert res.vtime >= 0.5


def test_requires_at_least_one_server():
    with pytest.raises(ValueError):
        DataSpaces(0)


def test_executed_virtual_pin():
    """The executed 3 -> 1 point over two servers, exactly: a
    calibration change to any ``DSCosts`` term (``per_get`` included,
    which no paper exhibit can see) moves it."""
    from repro.bench import run_dataspaces as run_point
    from repro.synth import SyntheticWorkload

    res = run_point(3, 1, SyntheticWorkload(8000, 8000), nservers=2)
    assert res.validated
    assert (res.vtime, res.messages, res.bytes_sent) == (
        0.3147874288500832, 24, 5474)
