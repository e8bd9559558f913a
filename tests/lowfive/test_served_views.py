"""LowFive serves its own copy by reference.

A piece whose buffer LowFive owns (the deep copy made at write, or a
bundle a stager adopted) is served as read-only views of that buffer:
the producer's bundles and replies, and the stager's replies, hold no
second host copy of a payload byte. The reader's scatter into its
output is the one copy on the way to the reader, so a read result
shares memory with no piece. A user-owned (zero-copy) piece is still
copied at serve time, since the user may change it while a reply
waits in a mailbox. Host copies only: virtual time charges the same
``values.nbytes`` either way.
"""

import numpy as np
import pytest

import repro.h5 as h5
from repro.diy import RegularDecomposer
from repro.h5 import format as h5format
from repro.h5.dataspace import Dataspace
from repro.h5.objects import OWN_DEEP, OWN_SHALLOW, DatasetNode, FileNode
from repro.h5.selection import HyperslabSelection
from repro.h5.native import NativeVOL
from repro.lowfive.config import CostConfig
from repro.lowfive.vol_dist import _read_reply, apply_bundle, split_bundles
from repro.lowfive.vol_staged import StagedMetadataVOL, staging_main
from repro.pfs import PFSStore
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
)
from repro.workflow import Workflow

SHAPE = (12, 10)
NBLOCKS = 4


class _Comm:
    """The serving rank as ``_read_reply`` sees it without reduction:
    its one charge, the serialization copy, recorded."""

    def __init__(self):
        self.memcpy = 0

    def charge_memcpy(self, nbytes):
        self.memcpy += nbytes


def producer_tree(ownership=OWN_DEEP):
    """One rank's file: a box and a strided slab of one 2-d dataset."""
    root = FileNode("f.h5")
    node = root.add_child(DatasetNode("d", h5.INT64, Dataspace(SHAPE)))
    box = HyperslabSelection(SHAPE, (1, 1), (9, 6))
    slab = HyperslabSelection(SHAPE, (0, 7), (6, 1), (2, 3), (1, 3))
    bufs = [np.arange(box.npoints, dtype=np.int64) + 100,
            np.arange(slab.npoints, dtype=np.int64) + 500]
    for sel, buf in zip((box, slab), bufs):
        node.write(sel, buf, ownership)
    return root, bufs


def staged_trees(root):
    """One stager tree per block, built from ``root``'s bundles."""
    bundles, _ = split_bundles(root, NBLOCKS)
    trees = []
    for bundle in bundles:
        tree = h5format.decode_file(h5format.encode_skeleton(root), "f.h5")
        apply_bundle(tree, bundle)
        trees.append(tree)
    return bundles, trees


def pieces(root):
    return [p.data for n in root.walk() if isinstance(n, DatasetNode)
            for p in n.pieces]


def shares_any(arr, bufs):
    return any(np.shares_memory(arr, b) for b in bufs)


def query(gid):
    """A read of block ``gid``, the part one stager holds."""
    return RegularDecomposer(SHAPE, NBLOCKS).block_bounds(gid).to_selection(
        SHAPE)


def test_bundle_values_are_views_of_the_producer_piece():
    root, _ = producer_tree()
    bundles, nbytes = split_bundles(root, NBLOCKS)
    held = pieces(root)
    served = [v for b in bundles for _, _, v in b]
    assert served and all(shares_any(v, held) for v in served)
    # Some overlap is strided in the piece's grid: a view, not a copy.
    assert any(not v.flags.c_contiguous for v in served)
    assert sum(nbytes) == sum(p.nbytes for p in held)


def test_stager_serves_views_of_adopted_pieces():
    root, _ = producer_tree()
    _, trees = staged_trees(root)
    held = pieces(root)
    for gid, tree in enumerate(trees):
        comm = _Comm()
        reply = _read_reply(comm, CostConfig(), tree.lookup("d"), query(gid))
        assert reply and all(shares_any(v, held) for _, v in reply)
        assert comm.memcpy == sum(v.nbytes for _, v in reply)


def test_read_result_shares_no_piece():
    root, _ = producer_tree()
    _, trees = staged_trees(root)
    held = pieces(root) + [b for t in trees for b in pieces(t)]
    for gid, tree in enumerate(trees):
        sel = query(gid)
        got = tree.lookup("d").read(sel)
        assert not shares_any(got, held)
        np.testing.assert_array_equal(got, root.lookup("d").read(sel))


def test_served_arrays_are_read_only():
    root, _ = producer_tree()
    bundles, trees = staged_trees(root)
    reply = _read_reply(_Comm(), CostConfig(), trees[0].lookup("d"),
                        query(0))
    for values in [v for b in bundles for _, _, v in b] + [
            v for _, v in reply]:
        with pytest.raises(ValueError):
            values[...] = 0


def test_user_owned_pieces_are_copied_at_serve_time():
    root, bufs = producer_tree(OWN_SHALLOW)
    bundles, _ = split_bundles(root, NBLOCKS)
    served = [v for b in bundles for _, _, v in b]
    served += [v for _, v in _read_reply(_Comm(), CostConfig(),
                                         root.lookup("d"), query(1))]
    assert served and not any(shares_any(v, bufs) for v in served)


def test_adopted_tree_encodes_like_copies():
    root, _ = producer_tree()
    bundles, trees = staged_trees(root)
    for bundle, adopted in zip(bundles, trees):
        copied = h5format.decode_file(h5format.encode_skeleton(root),
                                      "f.h5")
        for path, overlap, values in bundle:
            copied.lookup(path).write(overlap, np.array(values), OWN_DEEP)
        for p in pieces(adopted):
            assert p.ndim == 1 and p.flags.c_contiguous
        assert h5format.encode_file(adopted) == h5format.encode_file(copied)


def test_staged_reads_share_no_producer_piece():
    """End to end, 3 producers -> 2 stagers -> 2 consumers: every
    consumer's read result is its own memory."""
    held = []

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
        f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("d", shape=SHAPE, dtype=h5.UINT64)
        sel = producer_grid_selection(SHAPE, ctx.rank, ctx.size)
        d.write(grid_values(sel, SHAPE), file_select=sel)
        held.extend(pieces(vol.get_tree(ctx.comm, "o.h5")))
        f.close()
        StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))

    def consumer(ctx):
        vol = make_vol(ctx, "consumer")
        f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
        sel = consumer_grid_selection(SHAPE, ctx.rank, ctx.size)
        got = f["d"].read(sel, reshape=False)
        f.close()
        StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))
        return got, np.array_equal(got, grid_values(sel, SHAPE))

    def staging(ctx):
        return staging_main(
            [ctx.intercomm("producer"), ctx.intercomm("consumer")])

    wf = Workflow()
    wf.add_task("producer", 3, producer)
    wf.add_task("consumer", 2, consumer)
    wf.add_task("staging", 2, staging)
    wf.add_link("producer", "staging")
    wf.add_link("consumer", "staging")
    res = wf.run(timeout=60.0)
    assert len(held) == 3
    for got, ok in res.returns["consumer"]:
        assert ok and not shares_any(got, held)
