"""Interval-first selection algebra against its coordinate reference.

``Selection.coords()`` is the oracle: every operation that no longer
materializes coordinates (``npoints``, ``bounds``, ``intersect``,
``translate``, ``locate``, ``extract``, ``scatter``, ``same_elements``,
``linear_indices``, ``chunks_touched``) must agree with the same thing
computed from the full coordinate arrays, for every selection kind and
every mix of kinds. The one piece-values helper (``DataPiece.values``)
is pinned against the dict-of-coordinate-tuples gather it replaced, and
the selection codec against a byte-level reference of the file format,
so file images and ``bytes_sent`` cannot move.
"""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.h5.datatype import INT64
from repro.h5.dataspace import Dataspace
from repro.h5.format import Reader, Writer, decode_selection, encode_selection
from repro.h5.objects import DataPiece, DatasetNode
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    IndexSetSelection,
    NoneSelection,
    PointSelection,
    chunks_touched,
)

# -- strategies ---------------------------------------------------------------


@st.composite
def shapes(draw):
    nd = draw(st.integers(min_value=1, max_value=4))
    return tuple(draw(st.integers(min_value=1, max_value=9 - nd))
                 for _ in range(nd))


@st.composite
def hyperslabs(draw, shape):
    """Count 0 and 1, stride == block, stride > block, blocks > 1."""
    start, count, stride, block = [], [], [], []
    for extent in shape:
        b = draw(st.integers(min_value=1, max_value=min(3, extent)))
        stv = draw(st.sampled_from([b, b + 1, b + 2]))
        c = draw(st.integers(min_value=0,
                             max_value=(extent - b) // stv + 1))
        span = (c - 1) * stv + b if c else 0
        start.append(draw(st.integers(min_value=0, max_value=extent - span)))
        count.append(c)
        stride.append(stv)
        block.append(b)
    return HyperslabSelection(shape, start, count, stride, block)


@st.composite
def index_sets(draw, shape):
    return IndexSetSelection(shape, [
        draw(st.lists(st.integers(min_value=0, max_value=extent - 1),
                      max_size=extent))
        for extent in shape
    ])


@st.composite
def point_lists(draw, shape, unique=False):
    pts = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=e - 1)
                    for e in shape]),
        max_size=12, unique=unique))
    return PointSelection(shape, np.asarray(pts, dtype=np.int64)
                          .reshape(-1, len(shape)))


def selections(shape, unique_points=False):
    return st.one_of(
        st.just(AllSelection(shape)),
        st.just(NoneSelection(shape)),
        hyperslabs(shape),
        index_sets(shape),
        point_lists(shape, unique=unique_points),
    )


@st.composite
def pairs(draw, **kw):
    shape = draw(shapes())
    return draw(selections(shape, **kw)), draw(selections(shape, **kw))


# -- the coordinate reference -------------------------------------------------


def rows(sel):
    return [tuple(int(v) for v in c) for c in sel.coords()]


def ref_bounds(sel):
    c = sel.coords()
    if len(c) == 0:
        z = [0] * sel.ndim
        return z, z
    return list(c.min(axis=0)), list(c.max(axis=0) + 1)


# -- properties ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_npoints_bounds_linear_indices(data):
    shape = data.draw(shapes())
    sel = data.draw(selections(shape))
    c = sel.coords()
    assert c.shape == (sel.npoints, len(shape))
    lo, hi = sel.bounds()
    assert [list(lo), list(hi)] == list(ref_bounds(sel))
    want = (np.ravel_multi_index(tuple(c.T), shape) if len(c)
            else np.empty(0, dtype=np.int64))
    np.testing.assert_array_equal(sel.linear_indices(), want)


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_intersect(pair):
    a, b = pair
    got = a.intersect(b)
    in_b = set(rows(b))
    if isinstance(a, PointSelection) or not a.is_separable:
        keeper = a  # a point list keeps its own order (and repeats)
    elif isinstance(b, PointSelection):
        keeper, in_b = b, set(rows(a))
    else:
        keeper = None
    if keeper is not None:
        assert rows(got) == [r for r in rows(keeper) if r in in_b]
    else:  # separable x separable: row-major, duplicate-free
        assert rows(got) == sorted(set(rows(a)) & in_b)
        assert got.is_separable or got.npoints == 0
    assert got.npoints == len(rows(got))
    assert got.shape == a.shape


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_translate_into_bounding_box(data):
    shape = data.draw(shapes())
    sel = data.draw(selections(shape))
    lo, hi = sel.bounds()
    box = tuple(int(h - l) for l, h in zip(lo, hi))
    moved = sel.translate(lo, box)
    assert moved.shape == box
    assert rows(moved) == [tuple(int(v) for v in c - lo)
                           for c in sel.coords()]
    # Separable selections stay separable through a translate.
    assert moved.is_separable == sel.is_separable or sel.npoints == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extract_and_scatter(data):
    shape = data.draw(shapes())
    sel = data.draw(selections(shape, unique_points=True))
    at = tuple(sel.coords().T)
    arr = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    np.testing.assert_array_equal(sel.extract(arr), arr[at])
    vals = np.arange(100, 100 + sel.npoints)
    got = np.zeros(shape, dtype=np.int64)
    want = got.copy()
    sel.scatter(vals, got)
    want[at] = vals
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_same_elements(pair):
    a, b = pair
    assert a.same_elements(b) == (sorted(rows(a)) == sorted(rows(b)))
    assert a.same_elements(a)
    if a.is_separable:  # the same cells, written as a point list
        assert a.same_elements(PointSelection(a.shape, a.coords()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chunks_touched(data):
    shape = data.draw(shapes())
    sel = data.draw(selections(shape))
    chunk = tuple(data.draw(st.integers(min_value=1, max_value=e))
                  for e in shape)
    want = {tuple(int(v) for v in c // np.asarray(chunk))
            for c in sel.coords()}
    assert chunks_touched(sel, chunk) == len(want)


# -- the one piece-values helper ----------------------------------------------


def dict_gather(piece, overlap):
    """The gather ``DataPiece.values`` replaced, kept as its oracle."""
    want = {tuple(c): i for i, c in enumerate(overlap.coords())}
    out = np.empty(overlap.npoints, dtype=piece.data.dtype)
    for j, c in enumerate(piece.selection.coords()):
        i = want.get(tuple(c))
        if i is not None:
            out[i] = piece.data[j]
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_piece_values_match_dict_gather(data):
    shape = data.draw(shapes())
    stored = data.draw(st.one_of(
        hyperslabs(shape), index_sets(shape),
        point_lists(shape, unique=True), st.just(AllSelection(shape))))
    piece = DataPiece(stored, np.arange(1000, 1000 + stored.npoints))
    query = data.draw(selections(shape, unique_points=True))
    overlap = stored.intersect(query)
    if overlap.npoints == 0:
        return
    got = piece.values(overlap)
    np.testing.assert_array_equal(got, dict_gather(piece, overlap))
    assert not np.may_share_memory(got, piece.data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dataset_read_matches_dense_reference(data):
    shape = data.draw(shapes())
    node = DatasetNode("d", INT64, Dataspace(shape), fill_value=-1)
    dense = np.full(shape, -1, dtype=np.int64)
    for k in range(data.draw(st.integers(min_value=0, max_value=3))):
        sel = data.draw(selections(shape, unique_points=True))
        vals = np.arange(sel.npoints) + 100 * (k + 1)
        node.write(sel, vals)
        dense[tuple(sel.coords().T)] = vals
    query = data.draw(selections(shape))
    np.testing.assert_array_equal(node.read(query),
                                  dense[tuple(query.coords().T)])


# -- codec: byte-identical file images ----------------------------------------


def ref_encoding(sel, kind=None):
    """The on-disk bytes of ``sel`` written out from the format's
    definition (tag + fields), from public attributes and ``coords()``
    only -- what the encoder produced before selections held intervals."""
    u64 = struct.Struct("<Q").pack
    out = [struct.pack("<B", sel.ndim)] + [u64(s) for s in sel.shape]
    kind = kind or type(sel)
    if kind is AllSelection:
        out.append(b"\x01")
    elif kind is HyperslabSelection:
        out.append(b"\x02")
        out += [u64(v) for f in (sel.start, sel.count, sel.stride, sel.block)
                for v in f]
    elif kind is IndexSetSelection:
        out.append(b"\x03")
        for d in range(sel.ndim):
            idx = np.unique(sel.coords()[:, d])
            out += [u64(idx.size), idx.astype("<i8").tobytes()]
    elif kind is PointSelection:
        out.append(b"\x04")
        out += [u64(sel.coords().size), sel.coords().astype("<i8").tobytes()]
    else:
        out.append(b"\x05")
    return b"".join(out)


def encoded(sel):
    w = Writer()
    encode_selection(w, sel)
    return w.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codec_bytes_and_roundtrip(data):
    shape = data.draw(shapes())
    sel = data.draw(selections(shape))
    blob = encoded(sel)
    if isinstance(sel, IndexSetSelection) and sel.npoints == 0:
        # coords() cannot show the non-empty axes of an empty product.
        assert blob[:2 + 8 * sel.ndim] == ref_encoding(sel)[:2 + 8 * sel.ndim]
    else:
        assert blob == ref_encoding(sel)
    back = decode_selection(Reader(blob))
    assert type(back) is type(sel)
    assert rows(back) == rows(sel)
    assert encoded(back) == blob


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_derived_selections_keep_their_kind_on_disk(pair):
    # What intersect/translate hand back can reach the selection codec:
    # a solid box is a unit-stride hyperslab, anything else separable an
    # explicit index set, points stay points.
    a, b = pair
    for got in (a.intersect(b), a.translate((0,) * a.ndim, a.shape)):
        if got.npoints == 0:
            assert isinstance(got, NoneSelection)
            continue
        if not got.is_separable:
            assert encoded(got) == ref_encoding(got, PointSelection)
            continue
        lo, hi = ref_bounds(got)
        solid = got.npoints == int(np.prod(np.subtract(hi, lo)))
        if solid:
            want = HyperslabSelection(got.shape, lo, np.subtract(hi, lo))
            assert encoded(got) == ref_encoding(want)
        else:
            assert encoded(got) == ref_encoding(got, IndexSetSelection)
