"""Metadata VOL: the in-memory replica of the HDF5 hierarchy.

Paper Sec. III-A(b): "we redefine most of the functions in the base
layer with their in-memory metadata counterparts ... we manage our own
tree of HDF5 objects (files, groups, datasets, attributes, etc.) that
replicates the user's HDF5 data model."

Each *rank* owns its own tree per file (the data pieces it wrote are
local), while object metadata is replicated across ranks because object
creation is collective in the user code. A dataset's data is stored
deep (private copy) or shallow (zero-copy reference to the user buffer)
according to :class:`~repro.lowfive.config.LowFiveConfig`.

Files matching *passthru* patterns are additionally (or only) forwarded
to the underlying native VOL -- that is LowFive's *file mode*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.h5.datatype import as_datatype
from repro.h5.errors import NotFoundError
from repro.h5.objects import (
    DatasetNode,
    FileNode,
    GroupNode,
    OWN_DEEP,
    OWN_SHALLOW,
)
from repro.lowfive.config import CostConfig, LowFiveConfig
from repro.lowfive.vol_base import LowFiveBase


@dataclass
class LFFile:
    """Per-rank state of one LowFive-intercepted file."""

    fname: str
    comm: object
    mode: str
    root: FileNode | None  # in-memory hierarchy (None when not intercepted)
    under_token: object | None  # native token when passthru
    #: RPC client towards the producer task when this file was opened
    #: remotely by a consumer (set by the distributed VOL).
    remote_client: object | None = None


@dataclass
class LFToken:
    """LowFive VOL token: a node of our tree plus optional under-token."""

    fstate: LFFile
    node: object | None  # our tree node, or None for pure passthrough
    under: object | None  # underlying connector's token, when mirrored

    @property
    def comm(self):
        """The owning task's communicator."""
        return self.fstate.comm


class MetadataVOL(LowFiveBase):
    """In-memory metadata hierarchy with optional file passthrough.

    Parameters
    ----------
    under:
        Underlying connector for passthrough (usually
        :class:`~repro.h5.native.NativeVOL`); optional when every file is
        memory-only.
    config:
        Pattern rules; defaults to memory-everything (``set_memory("*")``
        is applied when no rule is given would be surprising, so the
        default config intercepts nothing -- callers declare patterns).
    costs:
        Software-stack cost constants charged to the virtual clock.
    """

    name = "lowfive-metadata"

    def __init__(self, under=None, config: LowFiveConfig | None = None,
                 costs: CostConfig | None = None):
        super().__init__(under)
        self.config = config if config is not None else LowFiveConfig()
        self.costs = costs if costs is not None else CostConfig()
        self._trees: dict[tuple[int, str], FileNode] = {}

    # -- convenience passthroughs to the config ---------------------------

    def set_memory(self, file_pattern: str, dset_pattern: str = "*"):
        """Declare matching datasets in-memory (in situ transport)."""
        self.config.set_memory(file_pattern, dset_pattern)

    def set_passthru(self, file_pattern: str, dset_pattern: str = "*"):
        """Declare matching operations forwarded to physical storage."""
        self.config.set_passthru(file_pattern, dset_pattern)

    def set_zero_copy(self, file_pattern: str, dset_pattern: str = "*"):
        """Declare matching datasets zero-copy (shallow references)."""
        self.config.set_zero_copy(file_pattern, dset_pattern)

    # -- cost charging --------------------------------------------------------

    @staticmethod
    def _rank_key(comm) -> int:
        return 0 if comm is None else comm.rank

    def _charge_op(self, comm) -> None:
        if comm is not None:
            comm.compute(self.costs.per_h5_op)

    def _charge_elements(self, comm, nelements: int) -> None:
        if comm is not None:
            comm.compute(self.costs.per_element_handle * nelements)

    # -- tree bookkeeping ---------------------------------------------------------

    def _tree_key(self, comm, fname: str) -> tuple[int, str]:
        return (self._rank_key(comm), fname)

    def get_tree(self, comm, fname: str) -> FileNode | None:
        """This rank's in-memory hierarchy for ``fname`` (or None)."""
        return self._trees.get(self._tree_key(comm, fname))

    def drop_file(self, comm, fname: str) -> None:
        """Forget this rank's in-memory hierarchy for ``fname``."""
        self._trees.pop(self._tree_key(comm, fname), None)

    # -- files ----------------------------------------------------------------------

    def file_create(self, fname, mode, fapl, comm):
        intercepted = self.config.file_intercepted(fname)
        passthru = self.config.file_passthru(fname) or not intercepted
        root = None
        if intercepted:
            root = FileNode(fname)
            self._trees[self._tree_key(comm, fname)] = root
        under_token = None
        if passthru:
            under_token = self._require_under().file_create(
                fname, mode, fapl, comm
            )
        self._charge_op(comm)
        fstate = LFFile(fname, comm, mode, root, under_token)
        return LFToken(fstate, root, under_token)

    def file_open(self, fname, mode, fapl, comm):
        intercepted = self.config.file_intercepted(fname)
        if intercepted:
            root = self.get_tree(comm, fname)
            if root is not None:
                self._charge_op(comm)
                fstate = LFFile(fname, comm, mode, root, None)
                return LFToken(fstate, root, None)
            # Intercepted but nothing in memory on this rank: fall back
            # to storage when possible (e.g. reading a checkpoint).
        under_token = self._require_under().file_open(fname, mode, fapl, comm)
        self._charge_op(comm)
        fstate = LFFile(fname, comm, mode, None, under_token)
        return LFToken(fstate, None, under_token)

    def file_close(self, ftoken):
        if ftoken.fstate.under_token is not None:
            self._require_under().file_close(ftoken.fstate.under_token)
        self._charge_op(ftoken.comm)
        # The in-memory tree survives the close: a consumer in the same
        # task may reopen it, and the distributed VOL serves from it.

    def file_flush(self, ftoken):
        if ftoken.fstate.under_token is not None:
            self._require_under().file_flush(ftoken.fstate.under_token)

    # -- groups ------------------------------------------------------------------------

    def group_create(self, parent, name):
        node = None
        if parent.node is not None:
            pnode = parent.node
            assert isinstance(pnode, GroupNode)
            node = pnode.children.get(name)
            if node is None:
                node = pnode.add_child(GroupNode(name))
        under = None
        if parent.under is not None:
            under = self._require_under().group_create(parent.under, name)
        self._charge_op(parent.comm)
        return LFToken(parent.fstate, node, under)

    def group_open(self, parent, name):
        node = None
        if parent.node is not None:
            node = parent.node.lookup(name)
            if not isinstance(node, GroupNode):
                raise NotFoundError(f"{name!r} is not a group")
        under = None
        if parent.under is not None:
            under = self._require_under().group_open(parent.under, name)
        return LFToken(parent.fstate, node, under)

    # -- datasets -----------------------------------------------------------------------

    def _dset_path(self, token) -> str:
        return token.node.path if token.node is not None else "*"

    def dataset_create(self, parent, name, dtype, space, dcpl):
        dtype = as_datatype(dtype)
        node = None
        if parent.node is not None:
            pnode = parent.node
            node = pnode.children.get(name)
            if node is None:
                fill = dcpl.fill_value if dcpl is not None else None
                chunks = dcpl.chunks if dcpl is not None else None
                node = pnode.add_child(
                    DatasetNode(name, dtype, space, fill_value=fill,
                                chunks=chunks)
                )
        under = None
        if parent.under is not None:
            under = self._require_under().dataset_create(
                parent.under, name, dtype, space, dcpl
            )
        self._charge_op(parent.comm)
        return LFToken(parent.fstate, node, under)

    def dataset_open(self, parent, name):
        node = None
        if parent.node is not None:
            node = parent.node.lookup(name)
            if not isinstance(node, DatasetNode):
                raise NotFoundError(f"{name!r} is not a dataset")
        under = None
        if parent.under is not None:
            under = self._require_under().dataset_open(parent.under, name)
        return LFToken(parent.fstate, node, under)

    def dataset_meta(self, dtoken):
        if dtoken.node is not None:
            return dtoken.node.dtype, dtoken.node.space
        return self._require_under().dataset_meta(dtoken.under)

    def dataset_write(self, dtoken, selection, data, dxpl):
        comm = dtoken.comm
        fname = dtoken.fstate.fname
        if dtoken.node is not None:
            path = dtoken.node.path
            if self.config.is_memory(fname, path) or dtoken.under is None:
                zero_copy = self.config.is_zero_copy(fname, path)
                ownership = OWN_SHALLOW if zero_copy else OWN_DEEP
                piece = dtoken.node.write(selection, data, ownership)
                self._charge_op(comm)
                self._charge_elements(comm, selection.npoints)
                if not zero_copy and comm is not None:
                    comm.charge_memcpy(piece.nbytes)
        if dtoken.under is not None:
            self._require_under().dataset_write(
                dtoken.under, selection, data, dxpl
            )

    def dataset_read(self, dtoken, selection, dxpl):
        comm = dtoken.comm
        node = dtoken.node
        if node is not None and (node.pieces or dtoken.under is None):
            values = node.read(selection)
            self._charge_op(comm)
            self._charge_elements(comm, selection.npoints)
            return values
        return self._require_under().dataset_read(
            dtoken.under, selection, dxpl
        )

    # -- attributes -------------------------------------------------------------------------

    def attr_create(self, obj, name, dtype, space):
        dtype = as_datatype(dtype)
        node = None
        if obj.node is not None:
            existing = obj.node.attributes.get(name)
            if existing is not None and (existing.dtype != dtype
                                         or existing.space != space):
                del obj.node.attributes[name]
                existing = None
            node = existing if existing is not None else \
                obj.node.create_attribute(name, dtype, space)
        under = None
        if obj.under is not None:
            under = self._require_under().attr_create(
                obj.under, name, dtype, space
            )
        self._charge_op(obj.comm)
        return LFToken(obj.fstate, node, under)

    def attr_open(self, obj, name):
        node = None
        if obj.node is not None:
            node = obj.node.get_attribute(name)
        under = None
        if obj.under is not None:
            under = self._require_under().attr_open(obj.under, name)
        return LFToken(obj.fstate, node, under)

    def attr_write(self, atoken, value):
        if atoken.node is not None:
            atoken.node.write(value)
        if atoken.under is not None:
            self._require_under().attr_write(atoken.under, value)
        self._charge_op(atoken.comm)

    def attr_read(self, atoken):
        if atoken.node is not None:
            return atoken.node.read()
        return self._require_under().attr_read(atoken.under)

    def attr_list(self, obj):
        if obj.node is not None:
            return sorted(obj.node.attributes)
        return self._require_under().attr_list(obj.under)

    # -- links ----------------------------------------------------------------------------------

    def link_exists(self, parent, path):
        if parent.node is not None:
            return parent.node.exists(path)
        return self._require_under().link_exists(parent.under, path)

    def links(self, parent):
        if parent.node is not None:
            out = []
            for name in sorted(parent.node.children):
                child = parent.node.children[name]
                kind = "dataset" if isinstance(child, DatasetNode) else "group"
                out.append((name, kind))
            return out
        return self._require_under().links(parent.under)

    def object_open(self, parent, path):
        if parent.node is not None:
            node = parent.node.lookup(path)
            kind = "dataset" if isinstance(node, DatasetNode) else "group"
            under = None
            if parent.under is not None:
                _, under = self._require_under().object_open(
                    parent.under, path
                )
            return kind, LFToken(parent.fstate, node, under)
        kind, under = self._require_under().object_open(parent.under, path)
        return kind, LFToken(parent.fstate, None, under)
