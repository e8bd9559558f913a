"""Metadata-hierarchy (tree) tests."""

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
from repro.h5.selection import AllSelection, HyperslabSelection, PointSelection


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
