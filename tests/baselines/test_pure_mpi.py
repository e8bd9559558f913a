"""Hand-written pure-MPI redistribution baseline tests."""

import numpy as np

from repro.baselines import pure_mpi_consumer, pure_mpi_producer
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow


def run_pure_mpi(nprod, ncons, shape):
    def producer(ctx):
        inter = ctx.intercomm("consumer")
        sel = producer_grid_selection(shape, ctx.rank, ctx.size)
        data = grid_values(sel, shape)
        cons_sels = [
            consumer_grid_selection(shape, r, ncons) for r in range(ncons)
        ]
        return pure_mpi_producer(inter, sel, data, cons_sels)

    def consumer(ctx):
        inter = ctx.intercomm("producer")
        sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        vals = pure_mpi_consumer(inter, sel, np.uint64)
        return validate_grid(sel, shape, vals)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf.run()


def test_3_to_1():
    res = run_pure_mpi(3, 1, (9, 6))
    assert all(res.returns["consumer"])
    assert res.returns["producer"] == [1, 1, 1]


def test_6_to_4():
    res = run_pure_mpi(6, 4, (12, 8))
    assert all(res.returns["consumer"])


def test_2_to_5():
    res = run_pure_mpi(2, 5, (10, 10))
    assert all(res.returns["consumer"])


def test_2_to_5_with_empty_consumers():
    """Three rows over five consumers leave the last two with empty
    selections; they must still drain one message per producer."""
    res = run_pure_mpi(2, 5, (3, 4))
    assert all(res.returns["consumer"])
    assert res.returns["producer"] == [5, 5]


def test_3d_grid():
    res = run_pure_mpi(4, 2, (8, 4, 4))
    assert all(res.returns["consumer"])


def test_per_point_serialization_charged():
    """The hand-written code pays per-element pack costs; with a high
    per-element cost its time dwarfs the wire time."""
    from repro.simmpi import NetworkModel

    shape = (64, 64)

    def producer(ctx):
        inter = ctx.intercomm("consumer")
        sel = producer_grid_selection(shape, ctx.rank, ctx.size)
        pure_mpi_producer(inter, sel, grid_values(sel, shape),
                          [consumer_grid_selection(shape, 0, 1)])

    def consumer(ctx):
        inter = ctx.intercomm("producer")
        sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        pure_mpi_consumer(inter, sel, np.uint64)

    def run(per_element):
        wf = Workflow()
        wf.add_task("producer", 2, producer)
        wf.add_task("consumer", 1, consumer)
        wf.add_link("producer", "consumer")
        return wf.run(model=NetworkModel(per_element_pack=per_element)).vtime

    assert run(1e-5) > run(1e-9) + 0.01  # 4096 points * 1e-5 = 0.04s+
