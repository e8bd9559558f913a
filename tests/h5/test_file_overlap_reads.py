"""File mode reads exactly the overlap.

The readers of a native file in one task fetch the header and the
metadata once, then, per piece each overlaps, the bytes of that overlap
and nothing else. The first test checks this in the benchmark's geometry
(writers own row slabs of a 3-d grid and particle ranges, readers read
blocks that cut across them) at a small size; the others check that a
file read, a view of the stored image or a gathered read, returns what
the in-memory tree returns, for every kind of selection on either side.
"""

import numpy as np
import pytest

import repro.h5 as h5
from repro.bench.drivers import lowfive_workflow
from repro.h5 import format as h5format
from repro.h5.dataspace import Dataspace
from repro.h5.native import NativeVOL
from repro.h5.objects import DatasetNode, FileNode
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    IndexSetSelection,
    PointSelection,
)
from repro.perfmodel.transports import THETA_KNL
from repro.pfs import PFSStore
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    consumer_particle_selection,
)


def _header_and_metadata(store, name) -> int:
    handle = store.open(name)
    _, _, _, meta_len = h5format.HEADER.unpack(
        handle.pread(0, h5format.HEADER.size))
    return h5format.HEADER.size + meta_len


@pytest.mark.parametrize("nprod, ncons", [(12, 4), (8, 8)])
def test_file_mode_reads_exactly_the_overlap(nprod, ncons):
    wl = SyntheticWorkload(500, 500)
    store = PFSStore()
    res = lowfive_workflow(nprod, ncons, wl, THETA_KNL, "file",
                           store).run(model=THETA_KNL.net, timeout=120.0)
    assert all(res.returns["consumer"])  # every value checked

    shape, npart = wl.grid_shape(nprod), wl.total_particles(nprod)
    payload = sum(
        consumer_grid_selection(shape, r, ncons).npoints * 8
        + consumer_particle_selection(npart, r, ncons).npoints * 4
        for r in range(ncons))
    # The grid blocks cut across the writers' row slabs.
    assert all(consumer_grid_selection(shape, r, ncons).count[1:]
               != shape[1:] for r in range(ncons))
    read = store.bytes_read
    overhead = _header_and_metadata(store, "out.h5")
    assert read == payload + overhead  # the consumer task decodes once
    assert store.bytes_written == store.size("out.h5")


def _tree():
    """One (12, 10) dataset written as a row slab, a strided slab, an
    index set and a point list, overlapping; the last write wins."""
    root = FileNode("f")
    d = root.add_child(DatasetNode("d", h5.FLOAT64, Dataspace((12, 10))))
    rng = np.random.default_rng(7)
    sels = [
        HyperslabSelection((12, 10), (0, 0), (6, 10)),
        HyperslabSelection((12, 10), (3, 1), (4, 3), (2, 3), (1, 2)),
        IndexSetSelection((12, 10), [[5, 7, 8, 11], range(2, 9)]),
        PointSelection((12, 10), rng.permutation(
            np.argwhere(np.ones((12, 10))))[:40]),
    ]
    for sel in sels:
        d.write(sel, rng.random(sel.npoints))
    return root


READS = {
    "all": AllSelection((12, 10)),
    "box": HyperslabSelection((12, 10), (2, 3), (7, 5)),
    "strided": HyperslabSelection((12, 10), (1, 0), (5, 3), (2, 3), (1, 2)),
    "index set": IndexSetSelection((12, 10), [[0, 4, 9, 10], [1, 2, 6]]),
    "points": PointSelection((12, 10), [[11, 9], [0, 0], [6, 3], [6, 3],
                                        [3, 4], [9, 9]]),
}


@pytest.mark.parametrize("kind", sorted(READS))
def test_gathered_reads_equal_in_memory_reads(kind):
    root = _tree()
    store = PFSStore()
    store.create("f", image=h5format.encode_file(root))
    d_file = h5format.decode_file(store.open("f"), "f").lookup("d")
    d_image = h5format.decode_file(h5format.encode_file(root)).lookup("d")
    d_mem = root.lookup("d")
    sel = READS[kind]

    store.bytes_read = 0
    got = d_file.read(sel)
    np.testing.assert_array_equal(got, d_mem.read(sel))
    np.testing.assert_array_equal(d_image.read(sel), d_mem.read(sel))
    overlap_bytes = sum(p.selection.intersect(sel).npoints * 8
                        for p in d_mem.pieces)
    assert store.bytes_read == overlap_bytes
    # Nothing was fetched whole or kept on the decoded tree.
    assert all(not isinstance(p._data, np.ndarray) for p in d_file.pieces)


def _written_through_native(root):
    """The store and VOL of a file holding ``root``'s dataset ``d``,
    written piece by piece through the native VOL."""
    store = PFSStore()
    vol = NativeVOL(store)
    with h5.File("f", "w", vol=vol) as f:
        d = f.create_dataset("d", shape=(12, 10), dtype=h5.FLOAT64)
        for piece in root.lookup("d").pieces:
            d.write(piece.data, file_select=piece.selection)
    return store, vol


@pytest.mark.parametrize("kind", sorted(READS))
def test_native_reads_through_views_equal_in_memory_reads(kind):
    root = _tree()
    d_mem = root.lookup("d")
    sel = READS[kind]
    store, vol = _written_through_native(root)
    with h5.File("f", "r", vol=vol) as f:
        np.testing.assert_array_equal(
            f["d"].read(file_select=sel, reshape=False), d_mem.read(sel))

    handle = store.open("f")
    whole = handle.view(0, handle.size, lambda w: w)
    d_file = h5format.decode_file(handle, "f").lookup("d")
    for p_file, p_mem in zip(d_file.pieces, d_mem.pieces):
        overlap = p_mem.selection.intersect(sel)
        if overlap.npoints == 0:
            continue
        store.bytes_read = 0
        got, want = p_file.values(overlap), p_mem.values(overlap)
        np.testing.assert_array_equal(got.reshape(-1), want.reshape(-1))
        assert store.bytes_read == got.nbytes == want.nbytes
        assert not got.flags.writeable
        # A view of the stored file exactly where the piece in memory
        # gives a view of its array: every box overlap, strided or not.
        assert np.shares_memory(got, whole) \
            == np.shares_memory(want, p_mem.data)


def test_write_read_write_on_one_open_file():
    """A read of a file being written views its image only while the
    read runs, so the next write can still grow the image."""
    vol = NativeVOL(PFSStore())
    want = np.arange(32.0).reshape(8, 4)
    with h5.File("w.h5", "w", vol=vol) as f:
        d = f.create_dataset("d", shape=(8, 4), dtype=h5.FLOAT64)
        d.write(want[:4], file_select=h5.hyperslab((0, 0), (4, 4)))
        part = d.read(file_select=h5.hyperslab((1, 1), (2, 2)))
        d.write(want[4:], file_select=h5.hyperslab((4, 0), (4, 4)))
        np.testing.assert_array_equal(d.read(), want)
    np.testing.assert_array_equal(part, want[1:3, 1:3])
    with h5.File("w.h5", "r", vol=vol) as f:
        np.testing.assert_array_equal(f["d"].read(), want)


def test_native_file_decodes_to_the_tree_encode_file_writes():
    """The native VOL lays the data section out in write order, and
    :func:`h5format.encode_file` in tree order; the metadata places each
    piece, so both decode to the same tree."""
    store = PFSStore()
    ref = FileNode("n.h5")
    b_ref = ref.add_child(DatasetNode("b", h5.INT32, Dataspace((4, 3))))
    a_ref = ref.add_child(DatasetNode("a", h5.FLOAT64, Dataspace((6,))))
    ref.create_attribute("step", h5.INT64, Dataspace(())).write(3)
    writes = [("b", HyperslabSelection((4, 3), (2, 0), (2, 3)), np.arange(6)),
              ("a", HyperslabSelection((6,), (0,), (6,)), np.arange(6.0)),
              ("b", HyperslabSelection((4, 3), (0, 0), (3, 3)), np.arange(9)),
              ("a", PointSelection((6,), [[4], [1]]), np.array([-1.0, -2.0]))]
    with h5.File("n.h5", "w", vol=NativeVOL(store)) as f:
        f.create_dataset("b", shape=(4, 3), dtype=h5.INT32)
        f.create_dataset("a", shape=(6,), dtype=h5.FLOAT64)
        f.attrs["step"] = 3
        for name, sel, vals in writes:
            f[name].write(vals, file_select=sel)
            (a_ref if name == "a" else b_ref).write(sel, vals)
    handle = store.open("n.h5")
    stored = handle.pread(0, handle.size)
    assert stored != h5format.encode_file(ref)  # b's data come first
    decoded = h5format.decode_file(handle, "n.h5")
    assert h5format.encode_file(decoded) == h5format.encode_file(ref)


def test_native_append_keeps_pieces_it_gathered_from():
    store = PFSStore()
    vol = NativeVOL(store)
    with h5.File("a.h5", "w", vol=vol) as f:
        f.create_dataset("d", data=np.arange(40.0).reshape(8, 5))
    with h5.File("a.h5", "a", vol=vol) as f:
        part = f["d"].read(h5.hyperslab((2, 1), (3, 2)))
        f.create_dataset("e", data=[1])
    np.testing.assert_array_equal(
        part, np.arange(40.0).reshape(8, 5)[2:5, 1:3])
    with h5.File("a.h5", "r", vol=vol) as f:
        np.testing.assert_array_equal(f["d"].read(),
                                      np.arange(40.0).reshape(8, 5))
