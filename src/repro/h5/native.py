"""Native VOL connector: stores the tree in a real file on the PFS.

Semantics follow parallel HDF5:

- file create/open/close and object creates are collective over the
  file's communicator (every rank makes the same calls; the shared
  in-core image is built once and reference-shared),
- dataset writes go into the shared in-core image and are charged to the
  Lustre cost model (collective two-phase by default),
- on close, rank 0 serializes the image through :mod:`repro.h5.format`
  into the :class:`~repro.pfs.store.PFSStore`.

Readers decode a private tree per open from the header and metadata
section alone; a piece's payload is fetched with one positional read the
first time a ``dataset_read`` overlaps it, from the contents that were
open then (re-creating the file does not change what an open reader
sees). Costs are charged from the model (``open_time(nprocs)``,
``values.nbytes``), never from bytes fetched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.h5 import format as h5format
from repro.h5.datatype import as_datatype
from repro.h5.errors import (
    ClosedError,
    ExistsError,
    ModeError,
    NotFoundError,
)
from repro.h5.objects import (
    DatasetNode,
    FileNode,
    GroupNode,
    Node,
    OWN_DEEP,
)
from repro.h5.plist import DEFAULT_DCPL, DEFAULT_DXPL
from repro.h5.vol import VOLBase
from repro.obs import obs_of, span
from repro.pfs.lustre import LustreModel
from repro.pfs.store import PFSStore


class _FileState:
    """Shared state of one open (for writing) native file."""

    __slots__ = ("name", "root", "mode", "comm", "nprocs", "refcount",
                 "closed")

    def __init__(self, name: str, root: FileNode, mode: str, comm, nprocs: int):
        self.name = name
        self.root = root
        self.mode = mode
        self.comm = comm
        self.nprocs = nprocs
        self.refcount = 0
        self.closed = False


@dataclass
class _Token:
    """Native VOL object token: a tree node plus its file state."""

    state: _FileState
    node: Node
    closed: bool = False

    @property
    def comm(self):
        return self.state.comm


class NativeVOL(VOLBase):
    """The terminal VOL connector writing real bytes to the PFS.

    One ``NativeVOL`` instance is shared by all ranks of a task (they
    cooperate on the shared in-core image). Different tasks may use
    different instances as long as they share the :class:`PFSStore`.
    """

    name = "native"

    def __init__(self, store: PFSStore | None = None,
                 lustre: LustreModel | None = None):
        self.store = store if store is not None else PFSStore()
        self.lustre = lustre if lustre is not None else LustreModel()
        self._images: dict[str, _FileState] = {}

    # -- cost charging -------------------------------------------------------

    @staticmethod
    def _nprocs(comm) -> int:
        return 1 if comm is None else comm.size

    @staticmethod
    def _charge(comm, seconds: float) -> None:
        if comm is not None:
            comm.compute(seconds)

    def _count_ost_bytes(self, comm, name: str, nbytes: int,
                         fname: str) -> None:
        """Account transferred bytes, spread across the file's OSTs."""
        obs = obs_of(comm)
        if obs is None or nbytes <= 0:
            return
        rank = comm.world_rank(comm.rank)
        obs.metrics.inc(name, nbytes, rank=rank, file=fname)
        # Longitudinal view: bytes hitting the PFS over virtual time.
        obs.series.record(name, comm.vtime, nbytes, rank=rank)
        # Striped files spread large transfers evenly over the OSTs.
        nost = self.lustre.stripe_count
        per_ost = nbytes / nost
        for ost in range(nost):
            obs.metrics.inc(f"{name}.ost", per_ost, ost=ost)

    # -- files -----------------------------------------------------------------

    def file_create(self, fname, mode, fapl, comm):
        if mode not in ("w", "x"):
            raise ModeError(f"file_create mode must be w/x, got {mode!r}")
        nprocs = self._nprocs(comm)
        state = self._images.get(fname)
        if state is None or state.closed:
            if mode == "x" and self.store.exists(fname):
                raise ExistsError(f"file exists: {fname}")
            state = _FileState(fname, FileNode(fname), "w", comm, nprocs)
            self._images[fname] = state
        state.refcount += 1
        with span(comm, "pfs.open", cat="pfs", file=fname, mode=mode):
            self._charge(comm, self.lustre.open_time(nprocs))
        return _Token(state, state.root)

    def file_open(self, fname, mode, fapl, comm):
        if mode not in ("r", "a"):
            raise ModeError(f"file_open mode must be r/a, got {mode!r}")
        nprocs = self._nprocs(comm)
        if mode == "a":
            state = self._images.get(fname)
            if state is not None and not state.closed:
                state.refcount += 1
                with span(comm, "pfs.open", cat="pfs", file=fname,
                          mode=mode):
                    self._charge(comm, self.lustre.open_time(nprocs))
                return _Token(state, state.root)
        if not self.store.exists(fname):
            raise NotFoundError(f"no such file: {fname}")
        # A private tree decoded from the metadata alone; each piece
        # fetches its payload at first touch (charged at dataset_read).
        root = h5format.decode_file(self.store.open(fname), fname)
        state = _FileState(fname, root, mode, comm, nprocs)
        state.refcount = 1
        with span(comm, "pfs.open", cat="pfs", file=fname, mode=mode):
            self._charge(comm, self.lustre.open_time(nprocs))
        return _Token(state, root)

    def file_close(self, ftoken):
        state = ftoken.state
        if getattr(ftoken, "closed", False):
            raise ClosedError(f"file already closed: {state.name}")
        ftoken.closed = True
        comm = state.comm
        with span(comm, "pfs.close", cat="pfs", file=state.name):
            self._file_close_impl(ftoken, state)

    def _file_close_impl(self, ftoken, state):
        comm = state.comm
        nprocs = state.nprocs
        writeback = state.mode in ("w", "a")
        if comm is not None and writeback:
            # All writes land in the shared image before serialization.
            comm.barrier()
        state.refcount -= 1
        if state.refcount <= 0:
            state.closed = True
        if writeback and (comm is None or comm.rank == 0):
            blob = h5format.encode_file(state.root)
            self.store.create(state.name).pwrite(0, blob)
        if writeback:
            if state.closed and self._images.get(state.name) is state:
                del self._images[state.name]
        self._charge(comm, self.lustre.close_time(nprocs))
        if comm is not None and writeback:
            comm.barrier()

    # -- groups ---------------------------------------------------------------

    def group_create(self, parent, name):
        state = parent.state
        node = parent.node
        assert isinstance(node, GroupNode)
        child = node.children.get(name)
        if child is None:
            child = node.add_child(GroupNode(name))
        elif not isinstance(child, GroupNode):
            raise ExistsError(f"{name!r} exists and is not a group")
        self._charge(state.comm, self.lustre.metadata_op_time())
        return _Token(state, child)

    def group_open(self, parent, name):
        node = parent.node.lookup(name)
        if not isinstance(node, GroupNode):
            raise NotFoundError(f"{name!r} is not a group")
        return _Token(parent.state, node)

    # -- datasets ------------------------------------------------------------------

    def dataset_create(self, parent, name, dtype, space, dcpl):
        state = parent.state
        dtype = as_datatype(dtype)
        dcpl = dcpl or DEFAULT_DCPL
        node = parent.node
        assert isinstance(node, GroupNode)
        child = node.children.get(name)
        if child is None:
            child = node.add_child(
                DatasetNode(name, dtype, space,
                            fill_value=dcpl.fill_value,
                            chunks=dcpl.chunks)
            )
        elif isinstance(child, DatasetNode):
            # Collective create: later ranks must agree on the shape.
            if child.dtype != dtype or child.space != space:
                raise ExistsError(
                    f"dataset {name!r} exists with different type/space"
                )
        else:
            raise ExistsError(f"{name!r} exists and is not a dataset")
        self._charge(state.comm, self.lustre.metadata_op_time())
        return _Token(state, child)

    def dataset_open(self, parent, name):
        node = parent.node.lookup(name)
        if not isinstance(node, DatasetNode):
            raise NotFoundError(f"{name!r} is not a dataset")
        return _Token(parent.state, node)

    def dataset_meta(self, dtoken):
        node = dtoken.node
        return node.dtype, node.space

    def dataset_write(self, dtoken, selection, data, dxpl):
        state = dtoken.state
        if state.mode == "r":
            raise ModeError("file opened read-only")
        dxpl = dxpl or DEFAULT_DXPL
        node = dtoken.node
        piece = node.write(selection, data, OWN_DEEP)
        comm = state.comm
        local = piece.nbytes
        with span(comm, "pfs.write", cat="pfs", file=state.name,
                  dataset=node.path, nbytes=local,
                  collective=dxpl.collective):
            if comm is not None and dxpl.collective:
                total = comm.allreduce(local)
                self._charge(
                    comm, self.lustre.write_time(total, state.nprocs, True)
                )
            else:
                self._charge(
                    comm, self.lustre.write_time(local, state.nprocs, False)
                )
            if node.chunks is not None:
                # Chunked layout: per-chunk lock/index work replaces the
                # shared-extent locking; also pay a read-modify-write pass
                # on chunks the selection only partially covers.
                from repro.h5.selection import chunks_touched

                nchunks = chunks_touched(selection, node.chunks)
                import numpy as _np

                chunk_cells = int(_np.prod(node.chunks))
                full = selection.npoints // chunk_cells
                partial = max(0, nchunks - full)
                self._charge(comm, self.lustre.metadata_op_time(nchunks))
                if partial:
                    rmw_bytes = partial * chunk_cells * node.dtype.itemsize
                    self._charge(
                        comm,
                        self.lustre.read_time(rmw_bytes, state.nprocs,
                                              dxpl.collective),
                    )
        self._count_ost_bytes(comm, "pfs.bytes_written", local, state.name)

    def dataset_read(self, dtoken, selection, dxpl):
        state = dtoken.state
        dxpl = dxpl or DEFAULT_DXPL
        node = dtoken.node
        values = node.read(selection)
        comm = state.comm
        local = int(values.nbytes)
        with span(comm, "pfs.read", cat="pfs", file=state.name,
                  dataset=node.path, nbytes=local,
                  collective=dxpl.collective):
            if comm is not None and dxpl.collective:
                total = comm.allreduce(local)
                self._charge(
                    comm, self.lustre.read_time(total, state.nprocs, True)
                )
            else:
                self._charge(
                    comm, self.lustre.read_time(local, state.nprocs, False)
                )
        self._count_ost_bytes(comm, "pfs.bytes_read", local, state.name)
        return values

    # -- attributes ---------------------------------------------------------------

    def attr_create(self, obj, name, dtype, space):
        # Overwrite semantics (h5py-like), which also makes collective
        # attribute creation by every rank idempotent.
        state = obj.state
        dtype = as_datatype(dtype)
        existing = obj.node.attributes.get(name)
        if existing is not None and (existing.dtype != dtype
                                     or existing.space != space):
            del obj.node.attributes[name]
            existing = None
        attr = existing if existing is not None else \
            obj.node.create_attribute(name, dtype, space)
        self._charge(state.comm, self.lustre.metadata_op_time())
        return _Token(state, attr)

    def attr_open(self, obj, name):
        return _Token(obj.state, obj.node.get_attribute(name))

    def attr_write(self, atoken, value):
        atoken.node.write(value)
        self._charge(atoken.state.comm, self.lustre.metadata_op_time())

    def attr_read(self, atoken):
        return atoken.node.read()

    def attr_list(self, obj):
        return sorted(obj.node.attributes)

    # -- links ----------------------------------------------------------------------

    def link_exists(self, parent, path):
        node = parent.node
        return isinstance(node, GroupNode) and node.exists(path)

    def links(self, parent):
        node = parent.node
        out = []
        for name in sorted(node.children):
            child = node.children[name]
            kind = "dataset" if isinstance(child, DatasetNode) else "group"
            out.append((name, kind))
        return out

    def object_open(self, parent, path):
        node = parent.node.lookup(path)
        if isinstance(node, DatasetNode):
            return "dataset", _Token(parent.state, node)
        if isinstance(node, GroupNode):
            return "group", _Token(parent.state, node)
        raise NotFoundError(f"cannot open object at {path!r}")
