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

from repro.h5.objects import FileNode, OWN_DEEP, OWN_SHALLOW
from repro.h5.plist import DEFAULT_DCPL
from repro.h5.vol import VOLBase
from repro.lowfive.config import CostConfig, LowFiveConfig


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
    #: Opened against a staging task rather than the producers.
    staged: bool = False


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


class MetadataVOL(VOLBase):
    """In-memory metadata hierarchy with optional file passthrough.

    Parameters
    ----------
    under:
        Underlying connector for passthrough (usually
        :class:`~repro.h5.native.NativeVOL`) -- the paper's *base VOL*:
        whatever is not intercepted goes there. Optional when every file
        is memory-only.
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
        self.under = under
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

    def _require_under(self):
        if self.under is None:
            raise RuntimeError(
                f"{type(self).__name__} has no underlying VOL to pass "
                "through to (operation not intercepted)"
            )
        return self.under

    def _mirror(self, tok, on_node, on_under):
        """Token of ``on_node(node)`` on our tree and ``on_under(under
        VOL, under token)`` on the passthrough, each applied only where
        ``tok`` has that side."""
        node = None if tok.node is None else on_node(tok.node)
        under = None if tok.under is None else \
            on_under(self._require_under(), tok.under)
        return LFToken(tok.fstate, node, under)

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

    def file_create(self, fname, mode, comm):
        intercepted = self.config.file_intercepted(fname)
        passthru = self.config.file_passthru(fname) or not intercepted
        root = None
        if intercepted:
            root = FileNode(fname)
            self._trees[self._tree_key(comm, fname)] = root
        under_token = None
        if passthru:
            under_token = self._require_under().file_create(fname, mode, comm)
        self._charge_op(comm)
        fstate = LFFile(fname, comm, mode, root, under_token)
        return LFToken(fstate, root, under_token)

    def file_open(self, fname, mode, comm):
        intercepted = self.config.file_intercepted(fname)
        if intercepted:
            root = self.get_tree(comm, fname)
            if root is not None:
                self._charge_op(comm)
                fstate = LFFile(fname, comm, mode, root, None)
                return LFToken(fstate, root, None)
            # Intercepted but nothing in memory on this rank: fall back
            # to storage when possible (e.g. reading a checkpoint).
        under_token = self._require_under().file_open(fname, mode, comm)
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

    # -- groups and datasets ---------------------------------------------------

    def group_create(self, parent, name):
        tok = self._mirror(parent, lambda n: n.require_group(name),
                           lambda u, t: u.group_create(t, name))
        self._charge_op(parent.comm)
        return tok

    def group_open(self, parent, name):
        return self._mirror(parent, lambda n: n.open(name, "group")[1],
                            lambda u, t: u.group_open(t, name))

    def dataset_create(self, parent, name, dtype, space, dcpl):
        pl = dcpl or DEFAULT_DCPL
        tok = self._mirror(
            parent,
            lambda n: n.require_dataset(name, dtype, space, pl.fill_value,
                                        pl.chunks),
            lambda u, t: u.dataset_create(t, name, dtype, space, dcpl),
        )
        self._charge_op(parent.comm)
        return tok

    def dataset_open(self, parent, name):
        return self._mirror(parent, lambda n: n.open(name, "dataset")[1],
                            lambda u, t: u.dataset_open(t, name))

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
        tok = self._mirror(obj,
                           lambda n: n.require_attribute(name, dtype, space),
                           lambda u, t: u.attr_create(t, name, dtype, space))
        self._charge_op(obj.comm)
        return tok

    def attr_open(self, obj, name):
        return self._mirror(obj, lambda n: n.get_attribute(name),
                            lambda u, t: u.attr_open(t, name))

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
            return parent.node.links()
        return self._require_under().links(parent.under)

    def object_open(self, parent, path):
        node = under = None
        if parent.under is not None:
            kind, under = self._require_under().object_open(parent.under,
                                                            path)
        if parent.node is not None:
            kind, node = parent.node.open(path)
        return kind, LFToken(parent.fstate, node, under)
