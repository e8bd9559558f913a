"""Binary on-disk file format for the native VOL.

Layout::

    +--------------------------------------------------------------+
    | magic "REPROH5\\0" | version u32 | meta_off u64 | meta_len u64 |
    +--------------------------------------------------------------+
    | data section: piece and attribute payloads, back to back      |
    +--------------------------------------------------------------+
    | metadata section: encoded object tree (TLV, see below)        |
    +--------------------------------------------------------------+

The metadata section is a little tag-length-value encoding of the
:mod:`repro.h5.objects` tree. Dataset data is *not* embedded in the
metadata; each written piece records the offset/length of its payload in
the data section.

Each payload byte is copied once on each side.

- Writing: an open file is an :class:`Image`, one bytearray with the
  header reserved. A write appends the piece's bytes to it (the one
  copy) and the tree keeps a lazy payload over them; the data section
  is in write order. :meth:`Image.finish` appends the metadata, writes
  the header in place and hands over the bytearray, which the store
  adopts as the file. :func:`encode_file` is the same writer run over a
  tree, its pieces appended in tree order.
- Reading: decoding reads the header and the metadata section only. A
  decoded :class:`~repro.h5.objects.DataPiece` stays in the image. A
  box overlap of it, strided or not, is a read-only view of the image
  (:meth:`~repro.h5.selection.Selection.view`), so the reader's scatter
  is the one copy; any other overlap gathers its byte runs
  (:meth:`~repro.h5.selection.Selection.runs`) in one read.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.h5.datatype import Datatype
from repro.h5.dataspace import Dataspace
from repro.h5.errors import H5Error
from repro.h5.objects import (
    DatasetNode,
    FileNode,
    GroupNode,
    Node,
)
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    IndexSetSelection,
    NoneSelection,
    PointSelection,
    Selection,
)
from repro.pfs.store import gather, window

MAGIC = b"REPROH5\x00"
VERSION = 1
HEADER = struct.Struct("<8sIQQ")

_KIND_GROUP = 1
_KIND_DATASET = 2

_SEL_ALL = 1
_SEL_HYPERSLAB = 2
_SEL_INDEXSET = 3
_SEL_POINTS = 4
_SEL_NONE = 5


class Writer:
    """Append-only binary writer with small typed helpers."""

    def __init__(self):
        self.chunks: list[bytes] = []
        self._len = 0

    def u8(self, v):
        """Append an unsigned byte."""
        self.raw(struct.pack("<B", v))

    def u32(self, v):
        """Append an unsigned 32-bit integer."""
        self.raw(struct.pack("<I", v))

    def u64(self, v):
        """Append an unsigned 64-bit integer."""
        self.raw(struct.pack("<Q", v))

    def i64(self, v):
        """Append a signed 64-bit integer."""
        self.raw(struct.pack("<q", v))

    def blob(self, b: bytes):
        """Append a length-prefixed byte string."""
        self.u64(len(b))
        self.raw(b)

    def text(self, s: str):
        """Append a length-prefixed UTF-8 string."""
        self.blob(s.encode("utf-8"))

    def raw(self, b):
        """Append raw bytes."""
        self.chunks.append(b)
        self._len += len(b)

    @property
    def nbytes(self) -> int:
        """Number of bytes written so far."""
        return self._len

    def getvalue(self) -> bytes:
        """The bytes written so far."""
        return b"".join(self.chunks)


class Reader:
    """Positional binary reader over a bytes buffer."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise H5Error("truncated metadata block")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        """Read an unsigned byte."""
        return struct.unpack("<B", self._take(1))[0]

    def u32(self):
        """Read an unsigned 32-bit integer."""
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        """Read an unsigned 64-bit integer."""
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self):
        """Read a signed 64-bit integer."""
        return struct.unpack("<q", self._take(8))[0]

    def blob(self) -> bytes:
        """Read a length-prefixed byte string."""
        return self._take(self.u64())

    def text(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        return self.blob().decode("utf-8")


# -- selection codec ---------------------------------------------------------


def _enc_idx(w: Writer, arr: np.ndarray):
    a = np.ascontiguousarray(arr, dtype=np.int64)
    w.u64(a.size)
    w.raw(a.tobytes())


def _dec_idx(r: Reader) -> np.ndarray:
    n = r.u64()
    return np.frombuffer(r._take(8 * n), dtype=np.int64).copy()


def encode_selection(w: Writer, sel: Selection) -> None:
    """Append a selection's encoding to ``w``."""
    w.u8(len(sel.shape))
    for s in sel.shape:
        w.u64(s)
    if isinstance(sel, AllSelection):
        w.u8(_SEL_ALL)
    elif isinstance(sel, HyperslabSelection):
        w.u8(_SEL_HYPERSLAB)
        for field in (sel.start, sel.count, sel.stride, sel.block):
            for v in field:
                w.u64(v)
    elif isinstance(sel, IndexSetSelection):
        w.u8(_SEL_INDEXSET)
        for idx in sel.per_dim_indices():
            _enc_idx(w, idx)
    elif isinstance(sel, PointSelection):
        w.u8(_SEL_POINTS)
        _enc_idx(w, sel._coords.reshape(-1))
    elif isinstance(sel, NoneSelection):
        w.u8(_SEL_NONE)
    else:
        raise H5Error(f"cannot encode selection {type(sel).__name__}")


def decode_selection(r: Reader) -> Selection:
    """Inverse of :func:`encode_selection`."""
    ndim = r.u8()
    shape = tuple(r.u64() for _ in range(ndim))
    tag = r.u8()
    if tag == _SEL_ALL:
        return AllSelection(shape)
    if tag == _SEL_HYPERSLAB:
        fields = []
        for _ in range(4):
            fields.append(tuple(r.u64() for _ in range(ndim)))
        start, count, stride, block = fields
        return HyperslabSelection(shape, start, count, stride, block)
    if tag == _SEL_INDEXSET:
        return IndexSetSelection(shape, [_dec_idx(r) for _ in range(ndim)])
    if tag == _SEL_POINTS:
        flat = _dec_idx(r)
        return PointSelection(shape, flat.reshape(-1, ndim))
    if tag == _SEL_NONE:
        return NoneSelection(shape)
    raise H5Error(f"unknown selection tag {tag}")


# -- tree codec ------------------------------------------------------------------


def _encode_attrs(w: Writer, node: Node):
    w.u32(len(node.attributes))
    for name in sorted(node.attributes):
        attr = node.attributes[name]
        w.text(name)
        w.blob(attr.dtype.encode())
        w.blob(attr.space.encode())
        if attr.value is None:
            w.u8(0)
        else:
            w.u8(1)
            w.blob(np.ascontiguousarray(attr.value).tobytes())


def _decode_attrs(r: Reader, node: Node):
    for _ in range(r.u32()):
        name = r.text()
        dtype = Datatype.decode(r.blob())
        space = Dataspace.decode(r.blob())
        attr = node.create_attribute(name, dtype, space)
        if r.u8():
            raw = r.blob()
            val = np.frombuffer(raw, dtype=dtype.np)
            attr.write(val.reshape(space.shape))


def _encode_node(w: Writer, node: Node, extent):
    if isinstance(node, DatasetNode):
        w.u8(_KIND_DATASET)
        w.text(node.name)
        _encode_attrs(w, node)
        w.blob(node.dtype.encode())
        w.blob(node.space.encode())
        w.u8(0 if node.fill_value is None else 1)
        if node.fill_value is not None:
            w.blob(
                np.asarray(node.fill_value, dtype=node.dtype.np).tobytes()
            )
        if extent is None:  # metadata only: no chunk layout, no pieces
            w.u8(0)
            w.u32(0)
            return
        if node.chunks is None:
            w.u8(0)
        else:
            w.u8(len(node.chunks))
            for c in node.chunks:
                w.u64(c)
        w.u32(len(node.pieces))
        for piece in node.pieces:
            encode_selection(w, piece.selection)
            off, length = extent(piece)
            w.u64(off)  # within the data section
            w.u64(length)
    elif isinstance(node, GroupNode):
        w.u8(_KIND_GROUP)
        w.text(node.name)
        _encode_group(w, node, extent)
    else:  # pragma: no cover - tree invariant
        raise H5Error(f"cannot encode node {type(node).__name__}")


def _encode_group(w: Writer, group: GroupNode, extent):
    """Encode ``group``'s subtree, each piece placed at ``extent(piece)``
    in the data section; ``extent`` None encodes no pieces at all."""
    _encode_attrs(w, group)
    w.u32(len(group.children))
    for name in sorted(group.children):
        _encode_node(w, group.children[name], extent)


class _Payload:
    """A piece's values left in a file image (an open :class:`Image`,
    or a store handle): checked against the file's layout when made,
    against what each read returns when touched. It holds no view of
    the image, so an image being written can still grow."""

    __slots__ = ("_src", "_off", "nbytes", "_dtype")

    def __init__(self, src, off: int, length: int, dtype):
        self._src = src
        self._off = off
        self.nbytes = length
        self._dtype = dtype

    @property
    def extent(self) -> tuple[int, int]:
        """``(offset within the data section, length)`` of the values."""
        return self._off - HEADER.size, self.nbytes

    def _check(self, got: int, want: int) -> None:
        if got != want:
            raise H5Error(f"truncated file: {got} of {want} B of the "
                          f"payload at {self._off - HEADER.size}")

    def _whole(self, raw: np.ndarray) -> np.ndarray:
        self._check(raw.nbytes, self.nbytes)
        return raw.view(self._dtype)

    def fetch(self) -> np.ndarray:
        """The whole values, a read-only view of the image."""
        return self._src.view(self._off, self.nbytes, self._whole)

    def values(self, local) -> np.ndarray:
        """The elements ``local`` selects from the values' grid (see
        :meth:`~repro.h5.objects.DataPiece.values`): a read-only view of
        the image shaped as ``local``'s grid when it is a box, else
        ``local``'s element runs, back to back, in one gathered read."""
        out = self._src.view(self._off, self.nbytes, lambda raw: local.view(
            self._whole(raw).reshape(local.shape)))
        if out is None:
            starts, run = local.runs()
            size = self._dtype.itemsize
            raw = self._src.gather(self._off + starts * size, run * size)
            self._check(raw.nbytes, len(starts) * run * size)
            out = raw.view(self._dtype)
        return out


class Image:
    """A file's bytes in memory, and the writer of a file being written.

    ``buf`` is one bytearray: the header, then the data section, then,
    once :meth:`finish` ran, the metadata. It is also a source that
    :func:`decode_file` and lazy payloads read through, with the
    methods of a store handle (``pread``, ``view``, ``gather``); reads
    from an :class:`Image` are not counted. A view of ``buf`` lives no
    longer than the read that took it, so a write can still grow it.
    """

    __slots__ = ("buf",)

    def __init__(self, buf=None):
        self.buf = bytearray(HEADER.size) if buf is None else buf

    def pread(self, offset: int, length: int) -> bytes:
        """A copy of ``length`` bytes at ``offset`` (short at the end)."""
        return bytes(self.buf[offset:offset + length])

    def view(self, offset: int, length: int, take):
        """``take`` of the read-only view of ``length`` bytes at
        ``offset`` (see :meth:`repro.pfs.store.FileHandle.view`)."""
        return take(window(self.buf, offset, length))

    def gather(self, offsets, length: int) -> np.ndarray:
        """The ``length``-byte runs at ``offsets``, copied back to back."""
        return gather(self.buf, offsets, length)

    def append(self, values: np.ndarray) -> _Payload:
        """Append ``values``' bytes to the data section -- their one
        copy -- and return the lazy payload over them."""
        flat = np.ascontiguousarray(values).reshape(-1)
        off = len(self.buf)
        self.buf += memoryview(flat.view(np.uint8))
        return _Payload(self, off, flat.nbytes, flat.dtype)

    def finish(self, root: FileNode) -> bytearray:
        """The file of ``root``, ``buf`` itself: every piece of the tree
        whose values are not in this image yet appended, in tree order
        (in memory, or in another file: the one copy re-encoding
        costs), then the metadata, then the header written in place."""
        extents = {}
        for piece in _pieces(root):
            data = piece._data
            if not (isinstance(data, _Payload) and data._src is self):
                extents[id(piece)] = self.append(piece.data).extent
        meta = Writer()
        _encode_group(meta, root, lambda piece: extents.get(
            id(piece)) or piece._data.extent)
        meta_off = len(self.buf)
        self.buf += meta.getvalue()
        HEADER.pack_into(self.buf, 0, MAGIC, VERSION, meta_off, meta.nbytes)
        return self.buf


def _pieces(root: FileNode):
    """Every piece of the tree in the order the encoder visits them."""
    for node in root.walk():
        if isinstance(node, DatasetNode):
            yield from node.pieces


def _decode_node(r: Reader, parent: GroupNode, src, data_len: int) -> None:
    kind = r.u8()
    name = r.text()
    if kind == _KIND_DATASET:
        attrs = Node(name)
        _decode_attrs(r, attrs)
        dtype = Datatype.decode(r.blob())
        space = Dataspace.decode(r.blob())
        fill_value = None
        if r.u8():
            fill_value = np.frombuffer(r.blob(), dtype=dtype.np)[0]
        nchunk_dims = r.u8()
        chunks = tuple(r.u64() for _ in range(nchunk_dims)) \
            if nchunk_dims else None
        node = DatasetNode(name, dtype, space, parent, fill_value, chunks)
        node.attributes = attrs.attributes
        for _ in range(r.u32()):
            sel = decode_selection(r)
            off = r.u64()
            length = r.u64()
            if off + length > data_len \
                    or length != sel.npoints * dtype.itemsize:
                raise H5Error(
                    f"corrupt file: payload ({off}, {length}) of a "
                    f"{sel.npoints} x {dtype.itemsize} B piece, data "
                    f"section of {data_len} B")
            node._append(sel, _Payload(src, HEADER.size + off, length,
                                       dtype.np))
    elif kind == _KIND_GROUP:
        node = GroupNode(name, parent)
        _decode_group(r, node, src, data_len)
    else:
        raise H5Error(f"unknown node kind {kind}")
    parent.children[name] = node


def _decode_group(r: Reader, group: GroupNode, src, data_len: int):
    _decode_attrs(r, group)
    for _ in range(r.u32()):
        _decode_node(r, group, src, data_len)


# -- whole-file codec ---------------------------------------------------------------


def encode_file(root: FileNode) -> bytearray:
    """Serialize a file tree to an image: the writer of :class:`Image`
    run over the tree, each piece's values appended in tree order."""
    return Image().finish(root)


def encode_skeleton(root: FileNode) -> bytes:
    """The image of ``root``'s metadata alone -- groups, datasets and
    attributes, with no pieces and no chunk layout -- as LowFive serves
    it to a consumer opening the file."""
    meta = Writer()
    _encode_group(meta, root, None)
    return b"".join([HEADER.pack(MAGIC, VERSION, HEADER.size, meta.nbytes),
                     *meta.chunks])


def decode_file(src, name: str = "") -> FileNode:
    """Parse a file into a tree, reading its header and metadata only.

    ``src`` is an open store handle, an :class:`Image`, or the bytes of
    one; either way a piece's overlap is read when first asked for (see
    the module docstring).
    """
    if not hasattr(src, "pread"):
        src = Image(src)
    head = src.pread(0, HEADER.size)
    if len(head) < HEADER.size:
        raise H5Error("file too small for header")
    magic, version, meta_off, meta_len = HEADER.unpack(head)
    if magic != MAGIC:
        raise H5Error("bad magic: not a repro-h5 file")
    if version != VERSION:
        raise H5Error(f"unsupported format version {version}")
    root = FileNode(name, None)
    _decode_group(Reader(src.pread(meta_off, meta_len)), root, src,
                  meta_off - HEADER.size)
    return root
