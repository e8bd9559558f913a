"""Bounds tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.diy import Bounds
from repro.h5.selection import HyperslabSelection, NoneSelection


def test_basic_properties():
    b = Bounds([0, 2], [4, 6])
    assert b.ndim == 2
    assert b.shape == (4, 4)
    assert b.size == 16
    assert not b.empty


def test_empty_normalization():
    b = Bounds([3], [1])
    assert b.empty
    assert b.size == 0
    assert b.shape == (0,)


def test_from_shape_and_selection():
    assert Bounds.from_shape((3, 4)) == Bounds([0, 0], [3, 4])
    sel = HyperslabSelection((10, 10), (2, 3), (4, 2))
    assert Bounds.from_selection(sel) == Bounds([2, 3], [6, 5])


def test_intersect():
    a = Bounds([0, 0], [4, 4])
    b = Bounds([2, 2], [6, 6])
    assert a.intersect(b) == Bounds([2, 2], [4, 4])
    assert a.intersects(b)
    c = Bounds([4, 0], [8, 4])  # touching edge: no overlap (half-open)
    assert not a.intersects(c)
    assert a.intersect(c).empty


def test_contains():
    a = Bounds([0, 0], [4, 4])
    assert a.contains(Bounds([1, 1], [3, 3]))
    assert a.contains(Bounds([0, 0], [4, 4]))
    assert not a.contains(Bounds([1, 1], [5, 3]))
    assert a.contains(Bounds([2, 2], [2, 2]))  # empty is inside anything
    assert a.contains_point((0, 0))
    assert not a.contains_point((4, 0))


def test_to_selection():
    b = Bounds([1, 2], [3, 5])
    sel = b.to_selection((10, 10))
    assert isinstance(sel, HyperslabSelection)
    assert sel.npoints == 6
    empty = Bounds([1], [1]).to_selection((4,))
    assert isinstance(empty, NoneSelection)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Bounds([0], [1]).intersect(Bounds([0, 0], [1, 1]))
    with pytest.raises(ValueError):
        Bounds([0, 0], [1])


def test_equality_and_hash():
    assert Bounds([0], [2]) == Bounds([0], [2])
    assert Bounds([0], [2]) != Bounds([0], [3])
    assert len({Bounds([0], [2]), Bounds([0], [2])}) == 1


boxes = st.integers(0, 10)


@given(st.lists(st.tuples(boxes, boxes, boxes, boxes), min_size=1, max_size=1))
def test_prop_intersection_matches_pointwise(params):
    (a0, a1, b0, b1), = params
    a = Bounds([min(a0, a1)], [max(a0, a1)])
    b = Bounds([min(b0, b1)], [max(b0, b1)])
    c = a.intersect(b)
    for x in range(12):
        inside = a.contains_point((x,)) and b.contains_point((x,))
        assert c.contains_point((x,)) == inside


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 8))
def test_prop_intersection_commutes(a0, a1, b0, b1):
    a = Bounds([min(a0, a1)], [max(a0, a1)])
    b = Bounds([min(b0, b1)], [max(b0, b1)])
    assert a.intersect(b) == b.intersect(a)
