"""Binary file format roundtrip tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.h5 as h5
from repro.h5 import format as h5format
from repro.h5.dataspace import Dataspace
from repro.h5.errors import H5Error
from repro.h5.objects import DataPiece, DatasetNode, FileNode, GroupNode
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    IndexSetSelection,
    NoneSelection,
    PointSelection,
)
from repro.pfs import PFSStore
from repro.pfs.store import gather, window


def roundtrip(root):
    return h5format.decode_file(h5format.encode_file(root), root.name)


def test_empty_file():
    root = FileNode("empty.h5")
    out = roundtrip(root)
    assert out.name == "empty.h5"
    assert out.children == {}


def test_header_validation():
    with pytest.raises(H5Error):
        h5format.decode_file(b"short")
    blob = bytearray(h5format.encode_file(FileNode("x")))
    blob[0:4] = b"XXXX"
    with pytest.raises(H5Error):
        h5format.decode_file(bytes(blob))


def test_version_check():
    blob = bytearray(h5format.encode_file(FileNode("x")))
    blob[8:12] = (99).to_bytes(4, "little")
    with pytest.raises(H5Error):
        h5format.decode_file(bytes(blob))


def test_groups_and_nesting():
    root = FileNode("f")
    a = root.add_child(GroupNode("a"))
    a.add_child(GroupNode("inner"))
    root.add_child(GroupNode("b"))
    out = roundtrip(root)
    assert sorted(out.children) == ["a", "b"]
    assert out.lookup("a/inner").path == "/a/inner"


def test_dataset_pieces_and_data():
    root = FileNode("f")
    g = root.add_child(GroupNode("g"))
    d = g.add_child(DatasetNode("grid", h5.UINT64, Dataspace((4, 4))))
    d.write(HyperslabSelection((4, 4), (0, 0), (2, 4)), np.arange(8))
    d.write(HyperslabSelection((4, 4), (2, 0), (2, 4)), np.arange(8) + 8)
    out = roundtrip(root)
    dd = out.lookup("g/grid")
    assert dd.dtype == h5.UINT64
    assert dd.space.shape == (4, 4)
    assert len(dd.pieces) == 2
    np.testing.assert_array_equal(
        dd.read(AllSelection((4, 4))), np.arange(16)
    )


def test_fill_value_preserved():
    root = FileNode("f")
    d = root.add_child(
        DatasetNode("d", h5.INT32, Dataspace((3,)), fill_value=-5)
    )
    out = roundtrip(root)
    dd = out.lookup("d")
    np.testing.assert_array_equal(dd.read(AllSelection((3,))), [-5] * 3)


def test_compound_dataset_roundtrip():
    ptype = h5.Datatype([("x", "f4"), ("y", "f4"), ("z", "f4")])
    root = FileNode("f")
    d = root.add_child(DatasetNode("particles", ptype, Dataspace((5,))))
    vals = np.zeros(5, dtype=ptype.np)
    vals["x"] = np.arange(5)
    d.write(AllSelection((5,)), vals)
    out = roundtrip(root)
    got = out.lookup("particles").read(AllSelection((5,)))
    np.testing.assert_array_equal(got["x"], np.arange(5, dtype="f4"))


def test_attributes_roundtrip():
    root = FileNode("f")
    a = root.create_attribute("time", h5.FLOAT64, Dataspace(()))
    a.write(1.5)
    g = root.add_child(GroupNode("g"))
    b = g.create_attribute("origin", h5.INT32, Dataspace((2,)))
    b.write([3, 4])
    unwritten = root.create_attribute("later", h5.INT8, Dataspace(()))
    out = roundtrip(root)
    assert float(out.get_attribute("time").read()) == 1.5
    np.testing.assert_array_equal(
        out.lookup("g").get_attribute("origin").read(), [3, 4]
    )
    assert out.get_attribute("later").value is None


SELS = [
    AllSelection((4, 6)),
    NoneSelection((4, 6)),
    HyperslabSelection((4, 6), (1, 2), (2, 2)),
    HyperslabSelection((4, 6), (0, 0), (2, 2), stride=(2, 3), block=(1, 2)),
    IndexSetSelection((4, 6), [[0, 2], [1, 3, 5]]),
    PointSelection((4, 6), [(3, 5), (0, 0)]),
]


@pytest.mark.parametrize("sel", SELS, ids=lambda s: type(s).__name__)
def test_selection_codec_roundtrip(sel):
    w = h5format.Writer()
    h5format.encode_selection(w, sel)
    out = h5format.decode_selection(h5format.Reader(w.getvalue()))
    assert out.shape == sel.shape
    assert out.same_elements(sel)
    if isinstance(sel, PointSelection):  # order must survive
        np.testing.assert_array_equal(out.coords(), sel.coords())


def test_writer_reader_primitives():
    w = h5format.Writer()
    w.u8(7)
    w.u32(70000)
    w.u64(2**40)
    w.i64(-12)
    w.text("héllo")
    w.blob(b"raw")
    r = h5format.Reader(w.getvalue())
    assert r.u8() == 7
    assert r.u32() == 70000
    assert r.u64() == 2**40
    assert r.i64() == -12
    assert r.text() == "héllo"
    assert r.blob() == b"raw"


def test_reader_truncation_raises():
    r = h5format.Reader(b"\x01")
    with pytest.raises(H5Error):
        r.u64()


def _one_dataset_image(n=100):
    root = FileNode("f")
    d = root.add_child(DatasetNode("d", h5.UINT64, Dataspace((n,))))
    d.write(AllSelection((n,)), np.arange(n))
    return h5format.encode_file(root)


def _cut_data_section(blob, nbytes):
    """``blob`` with the last ``nbytes`` of its data section removed and
    the header pointing at the (intact) metadata block again."""
    magic, version, meta_off, meta_len = h5format.HEADER.unpack_from(blob)
    header = h5format.HEADER.pack(magic, version, meta_off - nbytes, meta_len)
    return header + blob[h5format.HEADER.size:meta_off - nbytes] \
        + blob[meta_off:]


def _stored(blob):
    store = PFSStore()
    store.create("f").pwrite(0, blob)
    return store.open("f")


@pytest.mark.parametrize("cut", [13, 16])
def test_piece_outside_data_section_is_typed_failure(cut):
    # 13 B leaves a ragged tail, 16 B exactly two elements fewer: both
    # are refused at open, from an image and from a store handle alike.
    blob = _cut_data_section(_one_dataset_image(), cut)
    with pytest.raises(H5Error, match="corrupt file"):
        h5format.decode_file(blob)
    with pytest.raises(H5Error, match="corrupt file"):
        h5format.decode_file(_stored(blob))


def test_piece_length_must_match_selection():
    root = FileNode("f")
    d = root.add_child(DatasetNode("d", h5.UINT64, Dataspace((100,))))
    d.pieces.append(DataPiece(AllSelection((100,)),
                              np.arange(98, dtype=np.uint64)))
    with pytest.raises(H5Error, match="corrupt file"):
        h5format.decode_file(h5format.encode_file(root))


def _swap_blob(image, old, new):
    """``image`` with the length-prefixed metadata blob ``old`` replaced
    by ``new`` and the header's metadata length adjusted."""
    w_old, w_new = h5format.Writer(), h5format.Writer()
    w_old.blob(old)
    w_new.blob(new)
    old, new = b"".join(w_old.chunks), b"".join(w_new.chunks)
    assert image.count(old) == 1
    magic, version, meta_off, meta_len = h5format.HEADER.unpack_from(image)
    header = h5format.HEADER.pack(magic, version, meta_off,
                                  meta_len + len(new) - len(old))
    return header + image[h5format.HEADER.size:].replace(old, new)


@pytest.mark.parametrize("old, new", [
    (b"((4,), (4,))", b"((4,), (4,)("),    # dataspace: SyntaxError
    (b"((4,), (4,))", b"((4,), 'x4')"),    # dataspace: TypeError
    (b"'<u8'", b"'<q8'"),                  # datatype: TypeError
])
def test_corrupt_metadata_blob_is_typed_failure(old, new):
    blob = _swap_blob(_one_dataset_image(4), old, new)
    with pytest.raises(H5Error, match="corrupt file"):
        h5format.decode_file(blob)


def test_truncated_metadata_through_store_handle():
    blob = _one_dataset_image()
    with pytest.raises(H5Error, match="truncated metadata"):
        h5format.decode_file(_stored(blob[:-5]))
    with pytest.raises(H5Error, match="too small"):
        h5format.decode_file(_stored(blob[:10]))


def test_short_read_at_fetch_is_typed_failure():
    class Handle:  # a file that loses its tail after it was opened
        def __init__(self, blob):
            self.blob = blob

        def pread(self, offset, length):
            return self.blob[offset:offset + length]

        def view(self, offset, length, take):
            return take(window(self.blob, offset, length))

        def gather(self, offsets, length):
            return gather(self.blob, offsets, length)

    handle = Handle(_one_dataset_image())
    d = h5format.decode_file(handle).lookup("d")
    handle.blob = handle.blob[:h5format.HEADER.size + 40]
    with pytest.raises(H5Error, match="truncated file"):
        d.read(AllSelection((100,)))  # a box: the view path
    with pytest.raises(H5Error, match="truncated file"):
        d.read(PointSelection((100,), [[3], [90]]))  # the gathered path
    with pytest.raises(H5Error, match="truncated file"):
        d.pieces[0].data  # the whole-piece fetch of re-encoding


def test_decoded_image_values_are_views_of_the_blob():
    blob = _one_dataset_image()
    piece = h5format.decode_file(blob).lookup("d").pieces[0]
    assert not piece.data.flags.writeable
    assert np.shares_memory(piece.data, np.frombuffer(blob, dtype=np.uint8))
    np.testing.assert_array_equal(piece.data, np.arange(100))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2**32), min_size=0, max_size=64))
def test_prop_dataset_values_roundtrip(values):
    root = FileNode("f")
    n = max(1, len(values))
    d = root.add_child(DatasetNode("d", h5.UINT64, Dataspace((n,))))
    if values:
        d.write(AllSelection((n,)), np.array(values, dtype=np.uint64))
    out = roundtrip(root).lookup("d")
    if values:
        np.testing.assert_array_equal(
            out.read(AllSelection((n,))), np.array(values, dtype=np.uint64)
        )


def _clone_skeleton(root):
    """Reference for :func:`h5format.encode_skeleton`: deep-copy every
    group, dataset and attribute into a fresh tree without pieces or
    chunk layout, then encode that tree."""
    copy = FileNode(root.name)

    def clone(src, dst_parent):
        for name in sorted(src.children):
            child = src.children[name]
            if isinstance(child, DatasetNode):
                node = DatasetNode(name, child.dtype, child.space,
                                   fill_value=child.fill_value)
                dst_parent.add_child(node)
            else:
                node = dst_parent.add_child(GroupNode(name))
                clone(child, node)
            for aname, attr in child.attributes.items():
                a = node.create_attribute(aname, attr.dtype, attr.space)
                if attr.value is not None:
                    a.write(attr.value)

    for aname, attr in root.attributes.items():
        a = copy.create_attribute(aname, attr.dtype, attr.space)
        if attr.value is not None:
            a.write(attr.value)
    clone(root, copy)
    return h5format.encode_file(copy)


_DTYPES = (h5.INT32, h5.UINT64, h5.FLOAT64, h5.UINT8)


def _draw_attrs(data, node):
    for k in range(data.draw(st.integers(0, 2))):
        dtype = data.draw(st.sampled_from(_DTYPES))
        shape = data.draw(st.sampled_from([(), (2,), (2, 3)]))
        a = node.create_attribute(f"a{k}", dtype, Dataspace(shape))
        if data.draw(st.booleans()):
            a.write(np.arange(int(np.prod(shape))).reshape(shape) + k)


def _draw_dataset(data, name):
    dtype = data.draw(st.sampled_from(_DTYPES))
    shape = data.draw(st.sampled_from([(4,), (4, 6), (3, 2, 2)]))
    fill = data.draw(st.sampled_from([None, 0, 7]))
    chunks = data.draw(st.sampled_from(
        [None, tuple(max(1, s // 2) for s in shape)]))
    d = DatasetNode(name, dtype, Dataspace(shape), fill_value=fill,
                    chunks=chunks)
    for _ in range(data.draw(st.integers(0, 2))):
        lo = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        cnt = tuple(data.draw(st.integers(1, s - o))
                    for s, o in zip(shape, lo))
        sel = HyperslabSelection(shape, lo, cnt)
        d.write(sel, np.arange(sel.npoints))
    return d


def _draw_group(data, group, depth):
    _draw_attrs(data, group)
    for k in range(data.draw(st.integers(0, 3))):
        if depth < 2 and data.draw(st.booleans()):
            _draw_group(data, group.add_child(GroupNode(f"g{k}")),
                        depth + 1)
        else:
            d = group.add_child(_draw_dataset(data, f"d{k}"))
            _draw_attrs(data, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prop_skeleton_matches_clone_reference(data):
    """The served skeleton is byte-identical to encoding a pieceless,
    chunkless clone, over random nested trees with attributes, fill
    values, chunked datasets and written pieces."""
    root = FileNode("f.h5")
    _draw_group(data, root, 0)
    blob = h5format.encode_skeleton(root)
    assert blob == _clone_skeleton(root)
    out = h5format.decode_file(blob, "f.h5")
    assert all(not n.pieces and n.chunks is None for n in out.walk()
               if isinstance(n, DatasetNode))
