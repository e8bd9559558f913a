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

Each payload byte is copied once on each side: one full-size copy per
byte where there were two.

- Writing: :func:`encode_chunks` lists the header, every piece's values
  (flat views) and the metadata, and ``PFSStore.create(name,
  contents=...)`` joins them straight into the new file (before: a
  joined blob, then a ``pwrite`` copying it into a growing entry).
- Reading: decoding reads the header and the metadata section only. A
  decoded :class:`~repro.h5.objects.DataPiece` stays on file; reading an
  overlap gathers that overlap's byte runs
  (:meth:`~repro.h5.selection.Selection.runs`) in one read (before: the
  whole piece was read, then the overlap copied out of it). Only
  re-encoding a piece fetches its whole payload; from an in-memory
  image that is a read-only view of the image.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.h5.datatype import Datatype
from repro.h5.dataspace import Dataspace
from repro.h5.errors import H5Error
from repro.h5.objects import (
    DataPiece,
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
from repro.pfs.store import gather as gather_image

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
        self.chunks: list = []  # bytes, or flat uint8 views of piece data
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
        """Append raw bytes (or a flat byte view, kept by reference)."""
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


def _encode_node(w: Writer, node: Node, data: Writer | None):
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
        if data is None:  # metadata only: no chunk layout, no pieces
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
            payload = np.ascontiguousarray(piece.data).view(np.uint8)
            w.u64(data.nbytes)  # offset within the data section
            w.u64(len(payload))
            data.raw(payload)
    elif isinstance(node, GroupNode):
        w.u8(_KIND_GROUP)
        w.text(node.name)
        _encode_group(w, node, data)
    else:  # pragma: no cover - tree invariant
        raise H5Error(f"cannot encode node {type(node).__name__}")


def _encode_group(w: Writer, group: GroupNode, data: Writer | None):
    _encode_attrs(w, group)
    w.u32(len(group.children))
    for name in sorted(group.children):
        _encode_node(w, group.children[name], data)


class _Payload:
    """A decoded piece's values, left on file: checked against the
    file's layout now, against what each read returns when touched."""

    __slots__ = ("_read", "_gather", "_off", "nbytes", "_dtype")

    def __init__(self, src, data_len: int, off: int, length: int, dtype,
                 npoints: int):
        if off + length > data_len or length != npoints * dtype.itemsize:
            raise H5Error(
                f"corrupt file: payload ({off}, {length}) of a {npoints} x "
                f"{dtype.itemsize} B piece, data section of {data_len} B"
            )
        self._read, self._gather = src
        self._off = HEADER.size + off
        self.nbytes = length
        self._dtype = dtype

    def _check(self, got: int, want: int) -> None:
        if got != want:
            raise H5Error(f"truncated file: {got} of {want} B of the "
                          f"payload at {self._off - HEADER.size}")

    def fetch(self) -> np.ndarray:
        """The whole values."""
        raw = self._read(self._off, self.nbytes)
        self._check(len(raw), self.nbytes)
        return np.frombuffer(raw, dtype=self._dtype)

    def gather(self, starts: np.ndarray, run: int) -> np.ndarray:
        """The element runs ``[s, s + run)``, back to back, in one read."""
        size = self._dtype.itemsize
        raw = self._gather(self._off + starts * size, run * size)
        self._check(raw.nbytes, len(starts) * run * size)
        return raw.view(self._dtype)


def _decode_node(r: Reader, parent: GroupNode, src, data_len: int) -> None:
    kind = r.u8()
    name = r.text()
    if kind == _KIND_DATASET:
        node = DatasetNode.__new__(DatasetNode)
        Node.__init__(node, name, parent)
        _decode_attrs(r, node)
        node.dtype = Datatype.decode(r.blob())
        node.space = Dataspace.decode(r.blob())
        node.fill_value = None
        if r.u8():
            raw = r.blob()
            node.fill_value = np.frombuffer(raw, dtype=node.dtype.np)[0]
        nchunk_dims = r.u8()
        node.chunks = tuple(r.u64() for _ in range(nchunk_dims)) \
            if nchunk_dims else None
        node.pieces = []
        for _ in range(r.u32()):
            sel = decode_selection(r)
            off = r.u64()
            length = r.u64()
            node.pieces.append(DataPiece(sel, _Payload(
                src, data_len, off, length, node.dtype.np, sel.npoints)))
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


def encode_chunks(root: FileNode) -> list:
    """The on-disk byte layout of a file tree as buffers: the header,
    every piece's values (flat views of them, not copies) and the
    metadata. Joining them is the one copy of the values."""
    meta = Writer()
    data = Writer()
    _encode_group(meta, root, data)
    header = HEADER.pack(
        MAGIC, VERSION, HEADER.size + data.nbytes, meta.nbytes
    )
    return [header, *data.chunks, *meta.chunks]


def encode_file(root: FileNode) -> bytes:
    """Serialize a file tree to one immutable image."""
    return b"".join(encode_chunks(root))


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

    ``src`` is an in-memory image or an open store handle; either way a
    piece's overlap is gathered in one read when first asked for (see
    the module docstring).
    """
    if hasattr(src, "pread"):
        read, gather = src.pread, src.gather
    else:
        image = memoryview(src)

        def read(off, length):
            return image[off:off + length]

        def gather(offsets, length):
            return gather_image(image, offsets, length)

    head = read(0, HEADER.size)
    if len(head) < HEADER.size:
        raise H5Error("file too small for header")
    magic, version, meta_off, meta_len = HEADER.unpack(head)
    if magic != MAGIC:
        raise H5Error("bad magic: not a repro-h5 file")
    if version != VERSION:
        raise H5Error(f"unsupported format version {version}")
    root = FileNode(name, None)
    _decode_group(Reader(bytes(read(meta_off, meta_len))), root,
                  (read, gather), meta_off - HEADER.size)
    return root
