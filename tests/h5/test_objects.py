"""Metadata-hierarchy (tree) tests."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.h5 as h5
from repro.h5.dataspace import Dataspace
from repro.h5.errors import ExistsError, NotFoundError, SelectionError
from repro.h5.objects import (
    DatasetNode,
    FileNode,
    GroupNode,
    OWN_DEEP,
    OWN_SHALLOW,
    split_path,
)
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    PointSelection,
    _SeparableSelection,
)


def make_tree():
    """The paper's Fig. 1 example: one file, two groups, two datasets."""
    f = FileNode("step1.h5")
    g1 = f.add_child(GroupNode("group1"))
    g2 = f.add_child(GroupNode("group2"))
    grid = g1.add_child(
        DatasetNode("grid", h5.UINT64, Dataspace((4, 4, 4)))
    )
    particles = g2.add_child(
        DatasetNode("particles", h5.FLOAT32, Dataspace((100, 3)))
    )
    return f, g1, g2, grid, particles


def test_split_path():
    assert split_path("/a/b/c") == ["a", "b", "c"]
    assert split_path("a//b/") == ["a", "b"]
    assert split_path("/") == []


def test_paths():
    f, g1, g2, grid, particles = make_tree()
    assert f.path == "/"
    assert g1.path == "/group1"
    assert grid.path == "/group1/grid"
    assert particles.path == "/group2/particles"
    assert grid.file_node is f


def test_lookup_absolute_and_relative():
    f, g1, g2, grid, particles = make_tree()
    assert f.lookup("group1/grid") is grid
    assert g1.lookup("grid") is grid
    assert g1.lookup("/group2/particles") is particles
    with pytest.raises(NotFoundError):
        f.lookup("group1/nope")
    with pytest.raises(NotFoundError):
        f.lookup("group1/grid/below")  # dataset is not a group


def test_exists():
    f, g1, *_ = make_tree()
    assert f.exists("group1/grid")
    assert not f.exists("group3")


def test_duplicate_link_rejected():
    f, g1, *_ = make_tree()
    with pytest.raises(ExistsError):
        f.add_child(GroupNode("group1"))


def test_walk_depth_first_sorted():
    f, *_ = make_tree()
    names = [n.path for n in f.walk()]
    assert names == [
        "/group1", "/group1/grid", "/group2", "/group2/particles"
    ]


class TestDatasetPieces:
    def test_write_read_full(self):
        d = DatasetNode("d", h5.UINT32, Dataspace((4, 4)))
        d.write(AllSelection((4, 4)), np.arange(16))
        out = d.read(AllSelection((4, 4)))
        np.testing.assert_array_equal(out, np.arange(16))

    def test_multi_piece_assembly(self):
        d = DatasetNode("d", h5.INT64, Dataspace((4, 6)))
        top = HyperslabSelection((4, 6), (0, 0), (2, 6))
        bot = HyperslabSelection((4, 6), (2, 0), (2, 6))
        d.write(top, np.full(12, 1))
        d.write(bot, np.full(12, 2))
        out = d.read(AllSelection((4, 6))).reshape(4, 6)
        assert (out[:2] == 1).all() and (out[2:] == 2).all()

    def test_partial_read_across_pieces(self):
        d = DatasetNode("d", h5.INT64, Dataspace((4, 4)))
        d.write(HyperslabSelection((4, 4), (0, 0), (4, 2)),
                np.arange(8))          # left half
        d.write(HyperslabSelection((4, 4), (0, 2), (4, 2)),
                np.arange(8) + 100)    # right half
        mid = HyperslabSelection((4, 4), (1, 1), (2, 2))
        out = d.read(mid).reshape(2, 2)
        # col 1 from left piece, col 2 from right piece
        np.testing.assert_array_equal(out, [[3, 102], [5, 104]])

    def test_unwritten_elements_get_fill(self):
        d = DatasetNode("d", h5.INT32, Dataspace((4,)), fill_value=-1)
        d.write(PointSelection((4,), [1]), [7])
        np.testing.assert_array_equal(
            d.read(AllSelection((4,))), [-1, 7, -1, -1]
        )

    def test_default_fill_zero(self):
        d = DatasetNode("d", h5.INT32, Dataspace((3,)))
        np.testing.assert_array_equal(d.read(AllSelection((3,))), [0, 0, 0])

    def test_later_pieces_overwrite(self):
        d = DatasetNode("d", h5.INT32, Dataspace((3,)))
        d.write(AllSelection((3,)), [1, 1, 1])
        d.write(PointSelection((3,), [1]), [9])
        np.testing.assert_array_equal(d.read(AllSelection((3,))), [1, 9, 1])

    def test_deep_copy_isolates_user_buffer(self):
        d = DatasetNode("d", h5.INT64, Dataspace((3,)))
        buf = np.array([1, 2, 3])
        d.write(AllSelection((3,)), buf, ownership=OWN_DEEP)
        buf[:] = 0
        np.testing.assert_array_equal(d.read(AllSelection((3,))), [1, 2, 3])

    #: Inputs a deep write must copy: contiguous, strided N-d (its
    #: flattening already copies) and type-converting (its conversion
    #: already copies).
    DEEP_INPUTS = {
        "contiguous": lambda n: np.arange(n, dtype=np.int64),
        "strided": lambda n: np.arange(2 * n, dtype=np.int64).reshape(
            -1, 8)[:, :4],
        "converted": lambda n: np.arange(n, dtype=np.int32),
    }

    @pytest.mark.parametrize("kind", sorted(DEEP_INPUTS))
    def test_deep_write_never_aliases_input(self, kind):
        buf = self.DEEP_INPUTS[kind](48)
        want = buf.reshape(-1).astype(np.int64)
        d = DatasetNode("d", h5.INT64, Dataspace((48,)))
        piece = d.write(AllSelection((48,)), buf, ownership=OWN_DEEP)
        assert not np.may_share_memory(piece.data, buf)
        buf[...] = -1
        np.testing.assert_array_equal(piece.data, want)
        np.testing.assert_array_equal(d.read(AllSelection((48,))), want)

    @pytest.mark.parametrize("kind", sorted(DEEP_INPUTS))
    def test_deep_write_copies_once(self, kind):
        n = 1 << 17
        buf = self.DEEP_INPUTS[kind](n)
        d = DatasetNode("d", h5.INT64, Dataspace((n,)))
        tracemalloc.start()
        try:
            d.write(AllSelection((n,)), buf, ownership=OWN_DEEP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One private array of the payload, not a second copy of it.
        assert peak < 1.5 * n * 8

    def test_shallow_reference_sees_user_buffer(self):
        d = DatasetNode("d", h5.INT64, Dataspace((3,)))
        buf = np.array([1, 2, 3])
        d.write(AllSelection((3,)), buf, ownership=OWN_SHALLOW)
        buf[:] = 7
        np.testing.assert_array_equal(d.read(AllSelection((3,))), [7, 7, 7])

    def test_bad_ownership(self):
        d = DatasetNode("d", h5.INT64, Dataspace((3,)))
        with pytest.raises(ValueError):
            d.write(AllSelection((3,)), [1, 2, 3], ownership="borrowed")

    def test_size_mismatch(self):
        d = DatasetNode("d", h5.INT64, Dataspace((3,)))
        with pytest.raises(SelectionError):
            d.write(AllSelection((3,)), [1, 2])

    def test_extent_mismatch(self):
        d = DatasetNode("d", h5.INT64, Dataspace((3,)))
        with pytest.raises(SelectionError):
            d.write(AllSelection((4,)), [1, 2, 3, 4])
        with pytest.raises(SelectionError):
            d.read(AllSelection((4,)))

    def test_strided_piece_read(self):
        d = DatasetNode("d", h5.INT64, Dataspace((10,)))
        evens = HyperslabSelection((10,), 0, 5, stride=2)
        d.write(evens, [0, 2, 4, 6, 8])
        out = d.read(HyperslabSelection((10,), 0, 6))
        np.testing.assert_array_equal(out, [0, 0, 2, 0, 4, 0])

    def test_total_written_bytes(self):
        d = DatasetNode("d", h5.INT64, Dataspace((4,)))
        d.write(AllSelection((4,)), [1, 2, 3, 4])
        assert d.total_written_bytes == 32


class TestAttributes:
    def test_create_write_read(self):
        f = FileNode("x")
        a = f.create_attribute("time", h5.FLOAT64, Dataspace(()))
        a.write(3.25)
        assert float(a.read()) == 3.25

    def test_array_attribute(self):
        f = FileNode("x")
        a = f.create_attribute("origin", h5.FLOAT32, Dataspace((3,)))
        a.write([1, 2, 3])
        np.testing.assert_array_equal(a.read(), [1, 2, 3])

    def test_duplicate_attribute(self):
        f = FileNode("x")
        f.create_attribute("a", h5.INT32, Dataspace(()))
        with pytest.raises(ExistsError):
            f.create_attribute("a", h5.INT32, Dataspace(()))

    def test_missing_attribute(self):
        f = FileNode("x")
        with pytest.raises(NotFoundError):
            f.get_attribute("nope")
        a = f.create_attribute("a", h5.INT32, Dataspace(()))
        with pytest.raises(NotFoundError):
            a.read()  # never written


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 9), st.integers(1, 10)), min_size=1, max_size=6,
))
def test_prop_piece_assembly_matches_dense_mirror(spans):
    """Random 1-d writes: tree reads must equal a dense numpy mirror."""
    extent = 24
    d = DatasetNode("d", h5.INT64, Dataspace((extent,)))
    mirror = np.zeros(extent, dtype=np.int64)
    for i, (start, length) in enumerate(spans):
        length = min(length, extent - start)
        if length <= 0:
            continue
        sel = HyperslabSelection((extent,), start, length)
        vals = np.full(length, i + 1)
        d.write(sel, vals)
        mirror[start:start + length] = i + 1
    np.testing.assert_array_equal(d.read(AllSelection((extent,))), mirror)


def test_dropped_tree_frees_its_arrays_without_the_collector():
    """A child links to its parent weakly, so a tree holds no reference
    cycle: dropping the root frees the payload at once."""
    gc.disable()
    try:
        root = FileNode("f")
        d = root.require_group("g").require_dataset(
            "d", h5.FLOAT64, Dataspace((4,)))
        d.write(AllSelection((4,)), np.arange(4.0))
        payload = weakref.ref(d.pieces[0]._data)
        assert d.parent.parent is root and d.path == "/g/d"
        del d, root
        assert payload() is None
    finally:
        gc.enable()


def _count_intersects(monkeypatch):
    calls = []
    real = _SeparableSelection.intersect

    def counting(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(_SeparableSelection, "intersect", counting)
    return calls


def test_box_read_visits_only_the_pieces_it_can_overlap(monkeypatch):
    shape = (64, 4)
    d = DatasetNode("d", h5.INT64, Dataspace(shape))
    mirror = np.zeros(shape, dtype=np.int64)
    for r in reversed(range(8)):  # slabs written out of start order
        d.write(HyperslabSelection(shape, (8 * r, 0), (8, 4)),
                np.full(32, r))
        mirror[8 * r:8 * r + 8] = r
    # A later write across slabs 1 and 2 wins where it lands.
    d.write(HyperslabSelection(shape, (12, 1), (8, 2)), np.full(16, 99))
    mirror[12:20, 1:3] = 99
    calls = _count_intersects(monkeypatch)
    box = HyperslabSelection(shape, (10, 0), (8, 4))
    np.testing.assert_array_equal(d.read(box), mirror[10:18].reshape(-1))
    assert len(calls) == 3  # slabs 1 and 2, and the later write
    calls.clear()
    pts = PointSelection(shape, [[0, 0], [63, 3], [13, 2]])
    np.testing.assert_array_equal(d.read(pts), [0, 7, 99])
    assert len(calls) == 9  # a point list scans every piece
    # A piece appended after a read is indexed at the next one.
    d.write(HyperslabSelection(shape, (0, 0), (64, 1)), np.full(64, -1))
    mirror[:, 0] = -1
    calls.clear()
    np.testing.assert_array_equal(d.read(box), mirror[10:18].reshape(-1))
    assert len(calls) == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prop_indexed_box_reads_match_dense_mirror(data):
    """Random row slabs of any length, some empty, and random box reads
    (strided or not): the piece index loses no piece and keeps the last
    write winning."""
    shape = (20, 3)
    d = DatasetNode("d", h5.INT64, Dataspace(shape))
    mirror = np.zeros(shape, dtype=np.int64)
    for i in range(data.draw(st.integers(2, 8))):
        start = data.draw(st.integers(0, 19))
        count = data.draw(st.integers(0, 20 - start))
        d.write(HyperslabSelection(shape, (start, 0), (count, 3)),
                np.full(3 * count, i + 1))
        mirror[start:start + count] = i + 1
    start = data.draw(st.integers(0, 19))
    stride = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, (19 - start) // stride + 1))
    box = HyperslabSelection(shape, (start, 1), (count, 2), (stride, 1))
    want = mirror[start:start + stride * count:stride, 1:3]
    np.testing.assert_array_equal(d.read(box), want.reshape(-1))
