"""Bredala-like container/redistribution tests (paper Figs. 9-10)."""

import numpy as np
import pytest

from repro.baselines import (
    Container,
    Field,
    REDIST_BBOX,
    REDIST_CONTIGUOUS,
    redistribute_consumer,
    redistribute_producer,
)
from repro.baselines.bredala import BredalaCosts
from repro.diy import RegularDecomposer
from repro.workflow import Workflow


def test_field_validation():
    with pytest.raises(ValueError):
        Field("x", "banana", np.float32)
    with pytest.raises(ValueError):
        Field("x", REDIST_BBOX, np.float32)  # no domain


def test_container_rejects_duplicates():
    c = Container()
    c.append(Field("a", REDIST_CONTIGUOUS, np.float32, global_count=4))
    with pytest.raises(ValueError):
        c.append(Field("a", REDIST_CONTIGUOUS, np.float32, global_count=4))
    assert len(c) == 1


def run_bredala(nprod, ncons, n_particles=60, domain=(12, 8)):
    """Both policies in one epoch: particles contiguous, grid bbox."""
    def producer(ctx):
        inter = ctx.intercomm("consumer")
        # Particles: contiguous list, values encode global index.
        base, rem = divmod(n_particles, ctx.size)
        start = ctx.rank * base + min(ctx.rank, rem)
        count = base + (1 if ctx.rank < rem else 0)
        pvals = np.arange(start, start + count, dtype=np.float32)
        pvals = np.stack([pvals, pvals + 0.25, pvals + 0.5], axis=1)
        # Grid: row-slab of the domain with bbox policy.
        rows = domain[0]
        gbase, grem = divmod(rows, ctx.size)
        gstart = ctx.rank * gbase + min(ctx.rank, grem)
        gcount = gbase + (1 if ctx.rank < grem else 0)
        xs, ys = np.meshgrid(
            np.arange(gstart, gstart + gcount), np.arange(domain[1]),
            indexing="ij",
        )
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        gvals = np.ravel_multi_index(tuple(coords.T), domain).astype(np.uint64)

        c = Container()
        c.append(Field("particles", REDIST_CONTIGUOUS, np.float32,
                       item_shape=(3,), data=pvals,
                       global_count=n_particles))
        c.append(Field("grid", REDIST_BBOX, np.uint64, data=gvals,
                       coords=coords, domain=domain))
        redistribute_producer(inter, ctx.comm, c)

    def consumer(ctx):
        inter = ctx.intercomm("producer")
        c = Container()
        c.append(Field("particles", REDIST_CONTIGUOUS, np.float32,
                       item_shape=(3,), global_count=n_particles))
        c.append(Field("grid", REDIST_BBOX, np.uint64, domain=domain))
        out = redistribute_consumer(inter, ctx.comm, c)

        start, parts = out["particles"]
        ids = np.arange(start, start + len(parts), dtype=np.float32)
        ok_parts = (
            np.array_equal(parts[:, 0], ids)
            and np.array_equal(parts[:, 1], ids + 0.25)
            and np.array_equal(parts[:, 2], ids + 0.5)
        )

        blk, grid = out["grid"]
        if grid.size:
            xs, ys = np.meshgrid(
                np.arange(blk.min[0], blk.max[0]),
                np.arange(blk.min[1], blk.max[1]),
                indexing="ij",
            )
            expected = np.ravel_multi_index(
                (xs.ravel(), ys.ravel()), domain
            ).astype(np.uint64).reshape(grid.shape)
            ok_grid = np.array_equal(grid, expected)
        else:
            ok_grid = True
        return ok_parts and ok_grid

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf.run()


def test_3_to_1():
    res = run_bredala(3, 1)
    assert all(res.returns["consumer"])


def test_6_to_4():
    res = run_bredala(6, 4)
    assert all(res.returns["consumer"])


def test_2_to_3_uneven():
    res = run_bredala(2, 3, n_particles=31, domain=(9, 5))
    assert all(res.returns["consumer"])


def test_bbox_policy_pays_pair_index_cost():
    """The quadratic index term dominates as task sizes grow (the
    mechanism behind Fig. 9's Bredala blow-up)."""
    costs = BredalaCosts()
    small = costs.per_pair_index * 3 * 1
    big = costs.per_pair_index * 3072 * 1024
    assert big / small > 1e5


def test_point_gids_vectorized_matches_scalar():
    dec = RegularDecomposer((12, 8), 6)
    pts = np.array([[0, 0], [11, 7], [5, 3], [6, 4]])
    got = dec.point_gids(pts)
    want = [next(g for g in range(dec.ngrid_blocks)
                 if dec.block_bounds(g).contains_point(p)) for p in pts]
    assert list(got) == want
    with pytest.raises(IndexError):
        dec.point_gids(np.array([[12, 0]]))
    with pytest.raises(ValueError):
        dec.point_gids(np.array([[1, 2, 3]]))
