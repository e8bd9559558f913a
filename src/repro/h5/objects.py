"""In-memory metadata hierarchy: files, groups, datasets, attributes.

This is the tree of paper Fig. 1: every node knows its name, parent and
children; dataset nodes carry a datatype, a dataspace, and the *data
pieces* written so far -- each piece is (selection, array, ownership),
where ownership records whether the node holds a deep copy or a shallow
reference to user memory (configurable per dataset, paper Sec. I).

The same node types, and the tree operations the VOL callbacks make on
them (get-or-create, attribute overwrite, link listing, object open),
back the native VOL's in-core image of a file and LowFive's metadata
VOL, which is exactly the reuse the paper describes ("we manage our own
tree of HDF5 objects ... that replicates the user's HDF5 data model").
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right

import numpy as np

from repro.h5.datatype import Datatype, as_datatype
from repro.h5.dataspace import Dataspace
from repro.h5.errors import ExistsError, NotFoundError, SelectionError
from repro.h5.selection import Selection

#: LowFive owns the buffer: a private copy made at write, or a received
#: bundle adopted as it arrived. Nobody writes into it, so its overlaps
#: are served as read-only views.
OWN_DEEP = "deep"
#: The node references user-owned memory (zero-copy). The user may
#: change it once the write returns, so its overlaps are served as
#: copies.
OWN_SHALLOW = "shallow"


def split_path(path: str) -> list[str]:
    """Split an HDF5 path into components, ignoring empty segments."""
    return [p for p in path.split("/") if p]


class Node:
    """Base tree node."""

    __slots__ = ("name", "_parent", "attributes", "__weakref__")

    def __init__(self, name: str, parent: "GroupNode | None" = None):
        self.name = name
        self.parent = parent
        self.attributes: dict[str, AttributeNode] = {}

    @property
    def parent(self) -> "GroupNode | None":
        """The group holding this node; None at the root, or once the
        tree above was dropped. The link is weak, so a tree holds no
        reference cycle: dropping its root frees it, payload arrays
        included, without waiting for the cyclic collector."""
        ref = self._parent
        return None if ref is None else ref()

    @parent.setter
    def parent(self, group: "GroupNode | None") -> None:
        self._parent = None if group is None else weakref.ref(group)

    @property
    def path(self) -> str:
        """Absolute path of this node within its file."""
        parts = []
        node = self
        while node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    @property
    def file_node(self) -> "FileNode":
        """The file root this node hangs off."""
        node = self
        while node.parent is not None:
            node = node.parent
        if not isinstance(node, FileNode):
            raise NotFoundError("node is not attached to a file")
        return node

    # -- attributes ------------------------------------------------------------

    def create_attribute(self, name: str, dtype: Datatype,
                         space: Dataspace) -> "AttributeNode":
        """Create a new attribute on this node."""
        if name in self.attributes:
            raise ExistsError(f"attribute {name!r} exists on {self.path}")
        attr = AttributeNode(name, dtype, space)
        self.attributes[name] = attr
        return attr

    def require_attribute(self, name: str, dtype,
                          space: Dataspace) -> "AttributeNode":
        """The attribute ``name``, with h5py's overwrite semantics: an
        existing one of the same type and space is kept, one of another
        is replaced. This also makes collective creation by every rank
        idempotent."""
        dtype = as_datatype(dtype)
        attr = self.attributes.get(name)
        if attr is not None and attr.dtype == dtype and attr.space == space:
            return attr
        self.attributes.pop(name, None)
        return self.create_attribute(name, dtype, space)

    def get_attribute(self, name: str) -> "AttributeNode":
        """Look up an attribute by name."""
        try:
            return self.attributes[name]
        except KeyError:
            raise NotFoundError(
                f"no attribute {name!r} on {self.path}"
            ) from None


class GroupNode(Node):
    """A group: named container of child nodes."""

    __slots__ = ("children",)

    def __init__(self, name: str, parent: "GroupNode | None" = None):
        super().__init__(name, parent)
        self.children: dict[str, Node] = {}

    # -- child management ----------------------------------------------------

    def add_child(self, node: Node) -> Node:
        """Attach ``node`` under this group."""
        if node.name in self.children:
            raise ExistsError(f"link {node.name!r} exists in {self.path}")
        node.parent = self
        self.children[node.name] = node
        return node

    # -- traversal --------------------------------------------------------------

    def lookup(self, path: str) -> Node:
        """Resolve a path relative to this node (absolute paths resolve
        from the file root)."""
        node: Node = self.file_node if path.startswith("/") else self
        for part in split_path(path):
            if not isinstance(node, GroupNode):
                raise NotFoundError(f"{node.path} is not a group")
            try:
                node = node.children[part]
            except KeyError:
                raise NotFoundError(
                    f"no link {part!r} in {node.path}"
                ) from None
        return node

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves under this node."""
        try:
            self.lookup(path)
            return True
        except NotFoundError:
            return False

    def open(self, path: str, kind: str | None = None) -> tuple[str, Node]:
        """``(kind, node)`` at ``path``, ``kind`` being ``"group"`` or
        ``"dataset"``; when ``kind`` is given, anything else is not
        found."""
        node = self.lookup(path)
        got = "dataset" if isinstance(node, DatasetNode) else "group"
        if kind is not None and got != kind:
            raise NotFoundError(f"{path!r} is not a {kind}")
        return got, node

    def links(self) -> list[tuple[str, str]]:
        """``(name, kind)`` of every child, sorted by name."""
        return [(name, "dataset" if isinstance(c, DatasetNode) else "group")
                for name, c in sorted(self.children.items())]

    def require_group(self, name: str) -> "GroupNode":
        """The child group ``name``, created when missing."""
        child = self.children.get(name)
        if child is None:
            return self.add_child(GroupNode(name))
        if not isinstance(child, GroupNode):
            raise ExistsError(f"{name!r} exists and is not a group")
        return child

    def require_dataset(self, name: str, dtype, space: Dataspace,
                        fill_value=None, chunks=None) -> "DatasetNode":
        """The child dataset ``name``, created when missing. An existing
        one must agree on type and space: every rank of a collective
        create makes the same call."""
        dtype = as_datatype(dtype)
        child = self.children.get(name)
        if child is None:
            return self.add_child(DatasetNode(
                name, dtype, space, fill_value=fill_value, chunks=chunks))
        if not isinstance(child, DatasetNode):
            raise ExistsError(f"{name!r} exists and is not a dataset")
        if child.dtype != dtype or child.space != space:
            raise ExistsError(
                f"dataset {name!r} exists with different type/space"
            )
        return child

    def walk(self):
        """Yield every descendant node, depth first, children sorted."""
        for name in sorted(self.children):
            child = self.children[name]
            yield child
            if isinstance(child, GroupNode):
                yield from child.walk()


class FileNode(GroupNode):
    """Root of a file's metadata hierarchy; behaves as the root group."""

    __slots__ = ()


class DataPiece:
    """One write's worth of data: where it lives in the file dataspace,
    the values, and whether we own them. ``data`` may be given as a lazy
    payload, values that stay in a file image (a piece written through
    the native VOL, or decoded from a file): an object with ``nbytes``,
    ``fetch()`` (the whole values) and ``values(local)`` (see
    :meth:`values`). An adopted piece (:meth:`DatasetNode.adopt`) may
    hold an N-d view shaped as its selection's grid."""

    __slots__ = ("selection", "ownership", "_data")

    def __init__(self, selection: Selection, data, ownership=OWN_DEEP):
        self.selection = selection
        self._data = data
        self.ownership = ownership

    @property
    def data(self) -> np.ndarray:
        """The values, flat and in selection order (C order of an N-d
        view; a copy when the view is strided). A lazy payload is
        fetched whole, as a read-only view of its image, and not kept:
        only re-encoding the piece needs that."""
        data = self._data
        if not isinstance(data, np.ndarray):
            data = data.fetch()
        return data.reshape(-1)

    @property
    def nbytes(self) -> int:
        """Size of this piece's values in bytes."""
        return int(self._data.nbytes)

    def values(self, overlap: Selection) -> np.ndarray:
        """Values of ``overlap`` -- a subset of this piece's selection --
        in ``overlap``'s order, whatever the piece's layout (solid box,
        strided slab, index set, point list).

        Who owns the buffer decides whether the result is a view. When
        LowFive does (``OWN_DEEP``, which includes a piece in a file
        image) and ``overlap`` is a box, possibly strided, of the
        piece's grid, the result is a read-only view of the piece's data
        shaped as ``overlap``'s grid, whose C order is ``overlap``'s
        order: the value is shipped to other ranks by reference, and the
        reader's scatter is its one host copy. Any other overlap, and
        every overlap of a user-owned (``OWN_SHALLOW``) piece, is a
        fresh flat array: the user may change that memory while the
        reply waits in a mailbox. A piece in a file image gathers such
        an overlap's runs alone, in one read, and keeps nothing. The
        result is read-only either way.
        """
        local = self.selection.locate(overlap)
        data = self._data
        if not isinstance(data, np.ndarray):
            out = data.values(local)
        else:
            data = data.reshape(local.shape)
            out = local.view(data) if self.ownership == OWN_DEEP else None
            if out is None:
                out = local.extract(data)
                if np.may_share_memory(out, data):
                    out = out.copy()
        out.flags.writeable = False
        return out


class DatasetNode(Node):
    """A dataset: datatype + dataspace + written data pieces.

    Each :meth:`write` appends a piece; :meth:`read` assembles any
    requested selection from the stored pieces (zero-filled where
    nothing was written, like HDF5's fill value). A separable read
    visits only the pieces whose first-axis extent meets its own (see
    :class:`_PieceIndex`).
    """

    __slots__ = ("dtype", "space", "pieces", "fill_value", "chunks",
                 "_index")

    def __init__(self, name: str, dtype: Datatype, space: Dataspace,
                 parent: GroupNode | None = None, fill_value=None,
                 chunks=None):
        super().__init__(name, parent)
        self.dtype = dtype
        self.space = space
        self.pieces: list[DataPiece] = []
        self.fill_value = fill_value
        if chunks is not None:
            chunks = tuple(int(c) for c in chunks)
            if len(chunks) != space.ndim or any(c < 1 for c in chunks):
                raise SelectionError(
                    f"bad chunk shape {chunks} for rank {space.ndim}"
                )
        self.chunks = chunks
        self._index = _PieceIndex()

    # -- writing -------------------------------------------------------------

    def write(self, selection: Selection, data: np.ndarray,
              ownership: str = OWN_DEEP, keep=None) -> DataPiece:
        """Record ``data`` (in selection order) for ``selection``.

        ``ownership == OWN_DEEP`` copies, once: a strided or
        type-converted input is already a private array after
        flattening. ``keep(values)``, when given, makes that one copy
        itself and returns what the piece holds (a file image appends
        the bytes and returns their lazy payload). ``OWN_SHALLOW`` keeps
        a reference to the caller's array (zero-copy; the caller must
        not modify it until the piece is consumed -- paper Sec. I).
        """
        if ownership not in (OWN_DEEP, OWN_SHALLOW):
            raise ValueError(f"unknown ownership {ownership!r}")
        self._check_extent(selection)
        arr = np.asarray(data, dtype=self.dtype.np).reshape(-1)
        self._check_size(selection, arr.size)
        if keep is not None:
            arr = keep(arr)
        elif ownership == OWN_DEEP and np.may_share_memory(arr, data):
            arr = arr.copy()
        return self._append(selection, arr, ownership)

    def adopt(self, selection: Selection, values: np.ndarray) -> DataPiece:
        """Record ``values`` that LowFive already owns -- a bundle
        received from another rank, possibly a read-only N-d view of the
        sender's piece shaped as ``selection``'s grid -- as an
        ``OWN_DEEP`` piece, without a copy. Its overlaps are served as
        views again."""
        self._check_extent(selection)
        values = np.asarray(values, self.dtype.np)
        self._check_size(selection, values.size)
        return self._append(selection, values, OWN_DEEP)

    def _check_extent(self, selection: Selection) -> None:
        if selection.shape != self.space.shape:
            raise SelectionError(
                f"selection extent {selection.shape} != dataset shape "
                f"{self.space.shape}"
            )

    @staticmethod
    def _check_size(selection: Selection, size: int) -> None:
        if size != selection.npoints:
            raise SelectionError(
                f"data size {size} != selection size {selection.npoints}"
            )

    def _append(self, selection: Selection, data,
                ownership: str = OWN_DEEP) -> DataPiece:
        piece = DataPiece(selection, data, ownership)
        self.pieces.append(piece)
        return piece

    # -- reading -----------------------------------------------------------------

    def read(self, selection: Selection) -> np.ndarray:
        """Assemble values for ``selection`` from stored pieces.

        Returns a flat array in selection order. Elements never written
        get the fill value (default 0).
        """
        self._check_extent(selection)
        return self.assemble(selection, self.overlaps(selection))

    def overlaps(self, selection: Selection, thin=None):
        """Yield ``(overlap, values)`` for every stored piece that
        intersects ``selection`` (see :meth:`DataPiece.values`).

        ``thin(overlap) -> overlap`` optionally reduces each overlap
        before its values are gathered (wire-side subsampling).
        """
        for piece in self._index.candidates(self.pieces, selection):
            overlap = piece.selection.intersect(selection)
            if overlap.npoints == 0:
                continue
            if thin is not None:
                overlap = thin(overlap)
            yield overlap, piece.values(overlap)

    def assemble(self, selection: Selection, parts) -> np.ndarray:
        """Flat values of ``selection`` (in selection order) put together
        from ``(overlap, values)`` parts; the fill value elsewhere."""
        if selection.npoints == 0:
            return np.empty(0, dtype=self.dtype.np)
        fill = 0 if self.fill_value is None else self.fill_value
        # Dense staging buffer over the selection's bounding box keeps the
        # assembly vectorized without allocating the whole dataspace.
        lo, hi = selection.bounds()
        box_shape = tuple(int(h - l) for l, h in zip(lo, hi))
        box = np.full(box_shape, fill, dtype=self.dtype.np)
        for overlap, values in parts:
            overlap.translate(lo, box_shape).scatter(values, box)
        return selection.translate(lo, box_shape).extract(box)

    @property
    def total_written_bytes(self) -> int:
        """Bytes held across all written pieces."""
        return sum(p.nbytes for p in self.pieces)


class _PieceIndex:
    """A dataset's pieces by first-axis start, so that a read visits
    only the pieces it can overlap.

    ``starts``, ``stops`` and ``seqs`` are parallel lists sorted by
    start: each indexed piece's first-axis extent ``[start, stop)`` and
    its position in write order. ``reach`` is the longest extent. A
    dataset's pieces are only ever appended; those appended since the
    last read are indexed at the next one.
    """

    __slots__ = ("starts", "stops", "seqs", "reach", "count")

    def __init__(self):
        self.starts: list[int] = []
        self.stops: list[int] = []
        self.seqs: list[int] = []
        self.reach = 0
        self.count = 0

    def candidates(self, pieces: list, selection: Selection) -> list:
        """The pieces of ``pieces`` that ``selection`` can overlap, in
        write order (the last write wins). Every piece when there is
        one, the dataset is scalar, or ``selection`` is not separable
        (a point list keeps the full scan)."""
        if len(pieces) < 2 or not selection.is_separable \
                or not selection.shape:
            return pieces
        for seq in range(self.count, len(pieces)):
            sel = pieces[seq].selection
            if sel.npoints:  # an empty piece overlaps nothing
                (start, *_), (stop, *_) = sel.bounds()
                at = bisect_right(self.starts, start)
                self.starts.insert(at, start)
                self.stops.insert(at, stop)
                self.seqs.insert(at, seq)
                self.reach = max(self.reach, stop - start)
        self.count = len(pieces)
        if not selection.npoints:
            return []
        (lo, *_), (hi, *_) = selection.bounds()
        first = bisect_left(self.starts, lo - self.reach + 1)
        last = bisect_left(self.starts, hi)
        return [pieces[seq] for seq in sorted(
            seq for seq, stop in zip(self.seqs[first:last],
                                     self.stops[first:last])
            if stop > lo)]


class AttributeNode(Node):
    """A small named value attached to any object."""

    __slots__ = ("dtype", "space", "value")

    def __init__(self, name: str, dtype: Datatype, space: Dataspace):
        super().__init__(name, None)
        self.dtype = dtype
        self.space = space
        self.value: np.ndarray | None = None

    def write(self, value) -> None:
        """Store ``value``, reshaped to the dataspace."""
        arr = np.asarray(value, dtype=self.dtype.np)
        if self.space.is_scalar:
            arr = arr.reshape(())
        else:
            arr = arr.reshape(self.space.shape)
        self.value = arr.copy()

    def read(self):
        """The stored value (raises if never written)."""
        if self.value is None:
            raise NotFoundError(f"attribute {self.name!r} never written")
        return self.value
