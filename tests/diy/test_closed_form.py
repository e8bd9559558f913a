"""The closed-form common decomposition against brute force, and the
int boxes against a numpy reference.

``blocks_intersecting`` is a per-axis bisection and a row-major
product; the query issues its ``intersects`` RPCs in the order it
returns, so it must equal a scan of ``all_bounds()`` order included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.diy import Bounds, RegularDecomposer


@st.composite
def decompositions(draw):
    """Random 1-3-d shapes and block counts; small extents make the
    grid clamp (more blocks than points along an axis)."""
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1,
                                max_size=3)))
    return RegularDecomposer(shape, draw(st.integers(1, 40)))


@st.composite
def boxes(draw, ndim, reach=16):
    """Boxes anywhere around a domain: empty ones, inverted ones
    (collapsed to empty), ones partly or wholly outside it."""
    lo = draw(st.lists(st.integers(-4, reach), min_size=ndim,
                       max_size=ndim))
    hi = draw(st.lists(st.integers(-4, reach + 4), min_size=ndim,
                       max_size=ndim))
    return Bounds(lo, hi)


def brute_force(dec, box):
    return [gid for gid, b in enumerate(dec.all_bounds())
            if b.intersects(box)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_blocks_intersecting_is_the_ordered_scan(data):
    dec = data.draw(decompositions())
    box = data.draw(boxes(len(dec.shape)))
    got = dec.blocks_intersecting(box)
    assert got == brute_force(dec, box)
    assert all(type(g) is int for g in got)


@settings(max_examples=100, deadline=None)
@given(decompositions())
def test_whole_domain_hits_every_block_in_gid_order(dec):
    box = Bounds.from_shape(dec.shape)
    assert dec.blocks_intersecting(box) == list(range(dec.ngrid_blocks))


@settings(max_examples=100, deadline=None)
@given(decompositions())
def test_offsets_and_block_bounds_are_python_ints(dec):
    for offs in dec._offsets:
        assert all(type(v) is int for v in offs)
    for gid, b in enumerate(dec.all_bounds()):
        assert all(type(v) is int for v in b.min + b.max)
        assert np.ravel_multi_index(dec.gid_to_coords(gid), dec.grid) == gid


# -- Bounds against a numpy reference -------------------------------------


def ref(b):
    """(min, max) as int64 arrays, empty boxes collapsed like Bounds."""
    lo = np.asarray(b.min, dtype=np.int64)
    hi = np.maximum(np.asarray(b.max, dtype=np.int64), lo)
    return lo, hi


def ref_bounds(lo, hi):
    return Bounds(lo.tolist(), np.maximum(hi, lo).tolist())


def ints(t):
    return type(t) is tuple and all(type(v) is int for v in t)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bounds_operations_match_numpy(data):
    ndim = data.draw(st.integers(1, 3))
    a = data.draw(boxes(ndim, reach=8))
    b = data.draw(boxes(ndim, reach=8))
    (alo, ahi), (blo, bhi) = ref(a), ref(b)
    assert ints(a.min) and ints(a.max)
    assert (a.min, a.max) == (tuple(alo.tolist()), tuple(ahi.tolist()))

    size = int(np.prod(ahi - alo))
    assert a.size == size and type(a.size) is int
    assert a.shape == tuple((ahi - alo).tolist()) and ints(a.shape)
    assert a.empty == (size == 0)

    inter = a.intersect(b)
    assert ints(inter.min) and ints(inter.max)
    assert inter == ref_bounds(np.maximum(alo, blo), np.minimum(ahi, bhi))
    overlap = bool((np.minimum(ahi, bhi) - np.maximum(alo, blo) > 0).all())
    assert a.intersects(b) is overlap
    assert a.intersects(b) == (not inter.empty)

    contains = bool(b.empty or ((blo >= alo).all() and (bhi <= ahi).all()))
    assert a.contains(b) is contains

    same = bool((alo == blo).all() and (ahi == bhi).all())
    assert (a == b) is same
    if same:
        assert hash(a) == hash(b)
    assert hash(a) == hash((tuple(alo.tolist()), tuple(ahi.tolist())))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=3),
       st.lists(st.integers(-5, 5), min_size=1, max_size=3))
def test_inverted_boxes_collapse_to_empty(lo, hi):
    hi = (hi * 3)[:len(lo)]
    b = Bounds(lo, hi)
    want = np.maximum(np.asarray(hi), np.asarray(lo))
    assert b.max == tuple(want.tolist())
    assert b.empty == bool((want == np.asarray(lo)).any())


def test_numpy_inputs_become_python_ints():
    b = Bounds(np.array([1, 2], dtype=np.int64),
               np.array([4, 5], dtype=np.int32))
    assert ints(b.min) and ints(b.max)
    assert b == Bounds([1, 2], [4, 5])
