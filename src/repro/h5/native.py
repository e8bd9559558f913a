"""Native VOL connector: stores the tree in a real file on the PFS.

Semantics follow parallel HDF5:

- file create/open/close and object creates are collective over the
  file's communicator (every rank makes the same calls; the shared
  in-core tree is built once and reference-shared),
- the open file is its image (:class:`repro.h5.format.Image`): a
  dataset write appends the piece's bytes to it, the one copy of the
  caller's values, and is charged to the Lustre cost model (collective
  two-phase by default),
- on close, rank 0 appends the metadata, writes the header in place and
  hands the image to the :class:`~repro.pfs.store.PFSStore`, which keeps
  it as the file, uncopied.

The readers of one file in one task share one tree, decoded once from
the header and metadata section alone, and dropped at their last close;
a truncating re-create of the file makes the next open decode the new
one. A ``dataset_read`` reads, per piece it overlaps, that overlap alone:
a read-only view of the stored image for a box, the overlap's byte runs
gathered in one read otherwise; the reader's assembly is the one copy.
An open reader keeps the contents it opened. Costs are charged per rank
from the model (``open_time(nprocs)``, ``values.nbytes``), never from
bytes fetched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.h5 import format as h5format
from repro.h5.errors import (
    ClosedError,
    ExistsError,
    ModeError,
    NotFoundError,
)
from repro.h5.objects import FileNode, GroupNode, Node, OWN_DEEP
from repro.h5.plist import DEFAULT_DCPL, DEFAULT_DXPL
from repro.h5.vol import VOLBase
from repro.obs import obs_of, span
from repro.pfs.lustre import LustreModel
from repro.pfs.store import PFSStore


class _FileState:
    """Shared state of one open native file.

    A file open for writing holds its tree and the ``image`` its writes
    are appended to; a piece not in it yet (one an appending open
    decoded, or one a close already handed to the store) is copied in
    when the image is finished. A file open for reading holds the tree
    decoded from the store ``source``, shared by the task's readers.
    """

    __slots__ = ("name", "root", "mode", "comm", "nprocs", "refcount",
                 "closed", "image", "source")

    def __init__(self, name: str, root: FileNode, mode: str, comm,
                 nprocs: int, image=None, source=None):
        self.name = name
        self.root = root
        self.mode = mode
        self.comm = comm
        self.nprocs = nprocs
        self.refcount = 0
        self.closed = False
        self.image = image
        self.source = source


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
    cooperate on the shared in-core image, and share the tree of a file
    they read). Different tasks may use different instances as long as
    they share the :class:`PFSStore`.
    """

    name = "native"

    def __init__(self, store: PFSStore | None = None,
                 lustre: LustreModel | None = None):
        self.store = store if store is not None else PFSStore()
        self.lustre = lustre if lustre is not None else LustreModel()
        self._images: dict[str, _FileState] = {}
        # (name, comm) -> the tree a task's readers share
        self._readers: dict[tuple, _FileState] = {}

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

    def file_create(self, fname, mode, comm):
        if mode not in ("w", "x"):
            raise ModeError(f"file_create mode must be w/x, got {mode!r}")
        nprocs = self._nprocs(comm)
        state = self._images.get(fname)
        if state is None or state.closed:
            if mode == "x" and self.store.exists(fname):
                raise ExistsError(f"file exists: {fname}")
            state = _FileState(fname, FileNode(fname), "w", comm, nprocs,
                               image=h5format.Image())
            self._images[fname] = state
        state.refcount += 1
        with span(comm, "pfs.open", cat="pfs", file=fname, mode=mode):
            self._charge(comm, self.lustre.open_time(nprocs))
        return _Token(state, state.root)

    def file_open(self, fname, mode, comm):
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
        # A tree decoded from the metadata alone; a read fetches only
        # its overlap of each piece (charged at dataset_read). A task's
        # readers share it; the ranks of an appending open share it and
        # its image, as those of a creating open do.
        handle = self.store.open(fname)
        key = (fname, comm)
        state = self._readers.get(key) if mode == "r" else None
        if state is None or not state.source.same_file(handle):
            state = _FileState(fname, h5format.decode_file(handle, fname),
                               mode, comm, nprocs, source=handle,
                               image=h5format.Image() if mode == "a"
                               else None)
            if mode == "r":
                self._readers[key] = state
            else:
                self._images[fname] = state
        state.refcount += 1
        with span(comm, "pfs.open", cat="pfs", file=fname, mode=mode):
            self._charge(comm, self.lustre.open_time(nprocs))
        return _Token(state, state.root)

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
            image, state.image = state.image, h5format.Image()
            # The store's now: nothing extends it again.
            self.store.create(state.name, image=image.finish(state.root))
        if state.closed:
            key = state.name if writeback else (state.name, comm)
            owner = self._images if writeback else self._readers
            if owner.get(key) is state:
                del owner[key]
        self._charge(comm, self.lustre.close_time(nprocs))
        if comm is not None and writeback:
            comm.barrier()

    # -- groups and datasets ----------------------------------------------------

    def group_create(self, parent, name):
        child = parent.node.require_group(name)
        self._charge(parent.comm, self.lustre.metadata_op_time())
        return _Token(parent.state, child)

    def group_open(self, parent, name):
        return _Token(parent.state, parent.node.open(name, "group")[1])

    def dataset_create(self, parent, name, dtype, space, dcpl):
        dcpl = dcpl or DEFAULT_DCPL
        child = parent.node.require_dataset(name, dtype, space,
                                            dcpl.fill_value, dcpl.chunks)
        self._charge(parent.comm, self.lustre.metadata_op_time())
        return _Token(parent.state, child)

    def dataset_open(self, parent, name):
        return _Token(parent.state, parent.node.open(name, "dataset")[1])

    def dataset_meta(self, dtoken):
        node = dtoken.node
        return node.dtype, node.space

    def dataset_write(self, dtoken, selection, data, dxpl):
        state = dtoken.state
        if state.mode == "r":
            raise ModeError("file opened read-only")
        dxpl = dxpl or DEFAULT_DXPL
        node = dtoken.node
        piece = node.write(selection, data, OWN_DEEP,
                           keep=state.image.append)
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
        attr = obj.node.require_attribute(name, dtype, space)
        self._charge(obj.comm, self.lustre.metadata_op_time())
        return _Token(obj.state, attr)

    def attr_open(self, obj, name):
        return _Token(obj.state, obj.node.get_attribute(name))

    def attr_write(self, atoken, value):
        atoken.node.write(value)
        self._charge(atoken.comm, self.lustre.metadata_op_time())

    def attr_read(self, atoken):
        return atoken.node.read()

    def attr_list(self, obj):
        return sorted(obj.node.attributes)

    # -- links ----------------------------------------------------------------------

    def link_exists(self, parent, path):
        node = parent.node
        return isinstance(node, GroupNode) and node.exists(path)

    def links(self, parent):
        return parent.node.links()

    def object_open(self, parent, path):
        kind, node = parent.node.open(path)
        return kind, _Token(parent.state, node)
