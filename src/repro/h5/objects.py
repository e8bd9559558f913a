"""In-memory metadata hierarchy: files, groups, datasets, attributes.

This is the tree of paper Fig. 1: every node knows its name, parent and
children; dataset nodes carry a datatype, a dataspace, and the *data
pieces* written so far -- each piece is (selection, array, ownership),
where ownership records whether the node holds a deep copy or a shallow
reference to user memory (configurable per dataset, paper Sec. I).

The same node types back the native VOL's in-core image of a file and
LowFive's metadata VOL, which is exactly the reuse the paper describes
("we manage our own tree of HDF5 objects ... that replicates the user's
HDF5 data model").
"""

from __future__ import annotations

import numpy as np

from repro.h5.datatype import Datatype
from repro.h5.dataspace import Dataspace
from repro.h5.errors import ExistsError, NotFoundError, SelectionError
from repro.h5.selection import Selection

#: LowFive made a private copy of the data.
OWN_DEEP = "deep"
#: The node references user-owned memory (zero-copy).
OWN_SHALLOW = "shallow"


def split_path(path: str) -> list[str]:
    """Split an HDF5 path into components, ignoring empty segments."""
    return [p for p in path.split("/") if p]


class Node:
    """Base tree node."""

    __slots__ = ("name", "parent", "attributes")

    def __init__(self, name: str, parent: "GroupNode | None" = None):
        self.name = name
        self.parent = parent
        self.attributes: dict[str, AttributeNode] = {}

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
    the values, and whether we own them. ``data`` may be given as a
    zero-argument callable (a piece decoded from a file): it is called
    once, the first time the values are touched."""

    __slots__ = ("selection", "ownership", "_data")

    def __init__(self, selection: Selection, data, ownership=OWN_DEEP):
        self.selection = selection
        self._data = data
        self.ownership = ownership

    @property
    def data(self) -> np.ndarray:
        """The values, in selection order (fetched on first use)."""
        if callable(self._data):
            self._data = self._data()
        return self._data

    @property
    def nbytes(self) -> int:
        """Size of this piece's values in bytes."""
        return int(self.data.nbytes)

    def values(self, overlap: Selection) -> np.ndarray:
        """Values of ``overlap`` -- a subset of this piece's selection --
        in ``overlap``'s order, whatever the piece's layout (solid box,
        strided slab, index set, point list).

        Always a fresh array, never a view of :attr:`data`: the result
        is shipped to other ranks, and an ``OWN_SHALLOW`` piece's data
        is the producer's own memory.
        """
        local = self.selection.locate(overlap)
        out = local.extract(self.data.reshape(local.shape))
        return out.copy() if np.may_share_memory(out, self.data) else out


class DatasetNode(Node):
    """A dataset: datatype + dataspace + written data pieces.

    Each :meth:`write` appends a piece; :meth:`read` assembles any
    requested selection from the stored pieces (zero-filled where
    nothing was written, like HDF5's fill value).
    """

    __slots__ = ("dtype", "space", "pieces", "fill_value", "chunks")

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

    # -- writing -------------------------------------------------------------

    def write(self, selection: Selection, data: np.ndarray,
              ownership: str = OWN_DEEP) -> DataPiece:
        """Record ``data`` (in selection order) for ``selection``.

        ``ownership == OWN_DEEP`` copies; ``OWN_SHALLOW`` keeps a
        reference to the caller's array (zero-copy; the caller must not
        modify it until the piece is consumed -- paper Sec. I).
        """
        if selection.shape != self.space.shape:
            raise SelectionError(
                f"selection extent {selection.shape} != dataset shape "
                f"{self.space.shape}"
            )
        arr = np.asarray(data, dtype=self.dtype.np).reshape(-1)
        if arr.size != selection.npoints:
            raise SelectionError(
                f"data size {arr.size} != selection size {selection.npoints}"
            )
        if ownership == OWN_DEEP:
            arr = arr.copy()
        elif ownership != OWN_SHALLOW:
            raise ValueError(f"unknown ownership {ownership!r}")
        piece = DataPiece(selection, arr, ownership)
        self.pieces.append(piece)
        return piece

    # -- reading -----------------------------------------------------------------

    def read(self, selection: Selection) -> np.ndarray:
        """Assemble values for ``selection`` from stored pieces.

        Returns a flat array in selection order. Elements never written
        get the fill value (default 0).
        """
        if selection.shape != self.space.shape:
            raise SelectionError(
                f"selection extent {selection.shape} != dataset shape "
                f"{self.space.shape}"
            )
        return self.assemble(selection, self.overlaps(selection))

    def overlaps(self, selection: Selection, thin=None):
        """Yield ``(overlap, values)`` for every stored piece that
        intersects ``selection`` (see :meth:`DataPiece.values`).

        ``thin(overlap) -> overlap`` optionally reduces each overlap
        before its values are gathered (wire-side subsampling).
        """
        for piece in self.pieces:
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
