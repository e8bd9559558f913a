"""Distributed metadata VOL: index-serve-query redistribution.

Paper Sec. III-A(c) and III-B. Producers and consumers are separate
tasks with their own communicators, linked by intercommunicators. The
producer and consumer implicitly agree on the *common decomposition* of
each dataset (a regular grid of ``n`` blocks, ``n`` = number of producer
processes, block ``i`` owned by producer ``i``); redistribution then
proceeds in three phases:

- **Index** (Algorithm 1): at file close, every producer sends the
  bounding boxes of its written data spaces to the owners of the common
  blocks they intersect (implemented as one all-to-all over the producer
  communicator -- "indexing the dataset is a collective operation").
- **Serve** (Algorithm 2): producers answer consumer queries until all
  consumer ranks signal done (at their file close).
- **Query** (Algorithm 3): to read a data space, a consumer asks the
  common-block owners which producers hold intersecting data, then
  requests the actual intersections from those producers, point-to-point
  and fully parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from repro.diy import Bounds, RegularDecomposer
from repro.h5 import format as h5format
from repro.h5.errors import NotFoundError
from repro.h5.objects import DatasetNode, FileNode
from repro.lowfive.reduce import (
    COST_PER_BYTE,
    reduced_nbytes,
    reduction_stride,
    subsample,
)
from repro.obs import span as obs_span
from repro.lowfive.rpc import (
    TAG_CTRL,
    Defer,
    Reply,
    RetryPolicy,
    RPCClient,
    RPCServer,
)
from repro.simmpi import ANY_SOURCE, payload_nbytes
from repro.lowfive.vol_metadata import LFFile, LFToken, MetadataVOL


@dataclass
class IndexedBox:
    """One indexed bounding box: who wrote data intersecting my block."""

    bounds: Bounds
    owner: int  # producer rank holding the actual data


class _RankState:
    """Per-rank distributed state: RPC server + indexed boxes."""

    def __init__(self):
        self.server = RPCServer()
        # (fname, dset path) -> list[IndexedBox] for MY common block
        self.boxes: dict[tuple[str, str], list[IndexedBox]] = {}
        self.ready_files: set[str] = set()
        self.served_files: set[str] = set()  # closed + indexed
        self.handlers_installed = False


class DistMetadataVOL(MetadataVOL):
    """The full LowFive connector with in situ n-to-m redistribution.

    Parameters
    ----------
    comm:
        This task's (local) communicator; the index phase is collective
        over it.
    under, config, costs:
        As in :class:`~repro.lowfive.vol_metadata.MetadataVOL`.
    """

    name = "lowfive-distributed"

    def __init__(self, comm, under=None, config=None, costs=None):
        super().__init__(under, config, costs)
        self.comm = comm
        #: Retry policy every remote-file RPC client is built with, so
        #: metadata/intersects/read calls ride out injected losses.
        self.rpc_retry = RetryPolicy(
            max_retries=self.costs.rpc_max_retries,
            timeout=self.costs.rpc_timeout,
            backoff=self.costs.rpc_backoff,
        )
        #: ``(role, file pattern, inter)``: every role wired, in order.
        self._wiring: list[tuple[str, str, object]] = []
        self._rank_states: dict[int, _RankState] = {}

    # -- wiring -----------------------------------------------------------

    def _wire(self, role: str, file_pattern: str, inter=None) -> None:
        """Give matching files ``role`` over ``inter`` (idempotent, so
        every rank of a task may wire the shared VOL)."""
        if (role, file_pattern, inter) not in self._wiring:
            self._wiring.append((role, file_pattern, inter))

    def _matches(self, role: str, fname: str) -> list:
        """The inters wired for ``role`` on ``fname``, in wiring order
        (``[None]`` for a role without one); empty when none match."""
        return [i for r, pat, i in self._wiring
                if r == role and fnmatchcase(fname, pat)]

    def serve_on_close(self, file_pattern: str, inter) -> None:
        """Producer role: at close of matching files, index and serve
        consumers on ``inter`` until they are done."""
        self._wire("producer", file_pattern, inter)

    def set_consumer(self, file_pattern: str, inter) -> None:
        """Consumer role: open matching files remotely over ``inter``."""
        self._wire("consumer", file_pattern, inter)

    def stream_on_close(self, file_pattern: str, inter) -> None:
        """Streaming producer role: at close of matching epoch files,
        index and *register* them with this rank's server -- but do not
        park in a serve loop. The :class:`~repro.stream.StreamProducer`
        serves at its deterministic points (backpressure gate, final
        drain) instead."""
        self._wire("stream", file_pattern, inter)

    def set_stream_consumer(self, file_pattern: str, inter) -> None:
        """Streaming consumer role: open matching epoch files remotely,
        but suppress the per-file ``__done__`` on close -- stream
        consumers release epochs explicitly (cumulative high-water
        marks) and send one final done at stream close."""
        self._wire("stream_consumer", file_pattern)
        self._wire("consumer", file_pattern, inter)

    def enable_push(self, file_pattern: str) -> None:
        """Producer-push extension (paper Sec. V-C direction: reduce
        synchronization / schedule communication).

        For matching files, producers proactively *push* each consumer
        rank's share of every dataset at file close -- assuming the
        consumer reads the regular block decomposition over its own rank
        count, which both sides compute independently (the same implicit
        agreement as the common decomposition). Reads covered by the
        pushed data are served locally with no query round trips; other
        selections transparently fall back to index-serve-query. Both
        sides must call this with the same pattern.
        """
        self._wire("push", file_pattern)

    def _rank_state(self) -> _RankState:
        key = self._rank_key(self.comm)
        st = self._rank_states.get(key)
        if st is None:
            st = _RankState()
            self._rank_states[key] = st
        return st

    # -- producer side: index (Algorithm 1) ----------------------------------

    def _index_file(self, fname: str) -> None:
        """Collective over the producer comm: exchange written bounding
        boxes so each rank indexes its common-decomposition block."""
        comm = self.comm
        with obs_span(comm, "lowfive.index", cat="lowfive", phase="index",
                      file=fname):
            self._index_file_impl(fname)

    def _index_file_impl(self, fname: str) -> None:
        comm = self.comm
        root = self.get_tree(comm, fname)
        if root is None:
            return
        nprocs = comm.size
        outgoing: list[list] = [[] for _ in range(nprocs)]
        ntests = 0
        for node in root.walk():
            if not isinstance(node, DatasetNode):
                continue
            dec = RegularDecomposer(node.space.shape, nprocs)
            for piece in node.pieces:
                bb = Bounds.from_selection(piece.selection)
                gids = dec.blocks_intersecting(bb)
                ntests += max(1, len(gids))
                for gid in gids:
                    outgoing[gid].append(
                        (node.path, bb.min, bb.max)
                    )
        comm.compute(self.costs.per_box_test * ntests)
        # Synchronization skew of the collective index + close epoch.
        comm.compute(
            self.costs.sync_factor * 0.5
            * comm.model.epoch_jitter(comm.engine.nprocs)
        )
        incoming = comm.alltoall(outgoing)
        st = self._rank_state()
        for src, entries in enumerate(incoming):
            for path, bmin, bmax in entries:
                st.boxes.setdefault((fname, path), []).append(
                    IndexedBox(Bounds(bmin, bmax), src)
                )

    # -- producer-push extension ---------------------------------------------

    #: Tag for proactively pushed data bundles.
    TAG_PUSH = 705

    def _push_file(self, fname: str, inters) -> None:
        """Push each consumer rank's regular-block share of every
        dataset (one bundle message per consumer rank)."""
        comm = self.comm
        root = self.get_tree(comm, fname)
        if root is None:
            return
        with obs_span(comm, "lowfive.push", cat="lowfive", phase="push",
                      file=fname):
            for inter in inters:
                bundles, nbytes = split_bundles(root, inter.remote_size)
                for crank, bundle in enumerate(bundles):
                    comm.charge_memcpy(nbytes[crank])
                    inter.send((fname, bundle), crank, self.TAG_PUSH)

    def _receive_pushes(self, root: FileNode, inter) -> None:
        """Consumer side: absorb one push bundle from every producer."""
        for _ in range(inter.remote_size):
            (_fname, bundle), _st = inter.recv(tag=self.TAG_PUSH)
            apply_bundle(root, bundle)

    @staticmethod
    def _covered(node: DatasetNode, selection) -> bool:
        """True when stored pieces fully cover ``selection``."""
        remaining = selection.npoints
        if remaining == 0:
            return True
        got = 0
        for piece in node.pieces:
            got += piece.selection.intersect(selection).npoints
        # Pushed pieces are disjoint (they tile the consumer block).
        return got >= remaining

    # -- producer side: serve (Algorithm 2) --------------------------------------

    def _install_handlers(self, st: _RankState) -> None:
        """Register the serve-side RPC handlers once per rank.

        Handlers are generic over file names; a request for a file this
        rank has not closed (and indexed) yet is deferred to the next
        serve epoch, which is how the consumer's open blocks until the
        producer's close signals that data are ready.
        """
        if st.handlers_installed:
            return
        st.handlers_installed = True
        comm = self.comm

        def _require_served(fname: str) -> FileNode:
            if fname not in st.served_files:
                raise Defer()
            root = self.get_tree(comm, fname)
            if root is None:
                raise NotFoundError(f"no in-memory file {fname!r}")
            return root

        def metadata(source, fname):
            root = _require_served(fname)
            blob = h5format.encode_skeleton(root)
            comm.charge_memcpy(len(blob))
            return blob

        def intersects(source, fname, path, qmin, qmax):
            _require_served(fname)
            qbb = Bounds(qmin, qmax)
            entries = st.boxes.get((fname, path), [])
            comm.compute(self.costs.per_box_test * max(1, len(entries)))
            return sorted({
                e.owner for e in entries if e.bounds.intersects(qbb)
            })

        def read(source, fname, path, selection):
            node = _require_served(fname).lookup(path)
            comm.compute(self.costs.per_box_test * max(1, len(node.pieces)))
            return _read_reply(comm, self.costs, node, selection)

        st.server.register("metadata", metadata)
        st.server.register("intersects", intersects)
        st.server.register("read", read)

    def _register(self, fname: str, inters) -> None:
        """Make a closed (indexed) file servable to ``inters``."""
        st = self._rank_state()
        self._install_handlers(st)
        st.served_files.add(fname)
        for inter in inters:
            st.server.attach(inter)

    def _serve_file(self, fname: str, inters) -> None:
        self._register(fname, inters)
        with obs_span(self.comm, "lowfive.serve", cat="lowfive",
                      phase="serve", file=fname):
            self._rank_state().server.serve()

    def rank_server(self) -> RPCServer:
        """This rank's serve-side RPC server, handlers installed.

        The streaming layer runs its backpressure and end-of-stream
        serve loops on it.
        """
        st = self._rank_state()
        self._install_handlers(st)
        return st.server

    # -- consumer side: query (Algorithm 3) -----------------------------------------

    def _open_remote(self, fname: str, comm, inter,
                     staged: bool = False) -> LFToken:
        """Open ``fname`` against the serving task on ``inter`` (the
        producers, or the stagers): fetch and decode its metadata."""
        client = RPCClient(inter, retry=self.rpc_retry)
        me = 0 if comm is None else comm.rank
        blob = client.call(me % client.remote_size, "metadata", fname)
        root = h5format.decode_file(blob, fname)
        self._charge_op(comm)
        return LFToken(LFFile(fname, comm, "r", root, None,
                              remote_client=client, staged=staged),
                       root, None)

    def _assemble_remote(self, dtoken, selection, servers):
        """Values of ``selection`` put together from the ``read``
        replies of the remote ranks ``servers``."""
        fstate, node = dtoken.fstate, dtoken.node
        if selection.npoints == 0:
            return np.empty(0, dtype=node.dtype.np)
        values = node.assemble(selection, (
            part for p in servers
            for part in fstate.remote_client.call(p, "read", fstate.fname,
                                                  node.path, selection)
        ))
        self._charge_elements(fstate.comm, selection.npoints)
        return values

    def _remote_open(self, fname: str, comm, inter):
        with obs_span(comm, "lowfive.metadata_open", cat="lowfive",
                      phase="metadata_open", file=fname):
            tok = self._open_remote(fname, comm, inter)
            if comm is not None:
                # Consumer-side share of the wait-for-close
                # synchronization.
                comm.compute(
                    self.costs.sync_factor * 0.5
                    * comm.model.epoch_jitter(comm.engine.nprocs)
                )
            if self._matches("push", fname):
                self._receive_pushes(tok.node, inter)
            return tok

    def _query_read(self, dtoken, selection):
        """Algorithm 3 for one read call."""
        comm = dtoken.fstate.comm
        with obs_span(comm, "lowfive.query", cat="lowfive", phase="query",
                      file=dtoken.fstate.fname, dataset=dtoken.node.path):
            return self._query_read_impl(dtoken, selection)

    def _query_read_impl(self, dtoken, selection):
        fstate = dtoken.fstate
        client: RPCClient = fstate.remote_client
        comm = fstate.comm
        node = dtoken.node
        path = node.path
        nprod = client.remote_size
        # Step 0: the implicitly agreed common decomposition.
        dec = RegularDecomposer(node.space.shape, nprod)
        qbb = Bounds.from_selection(selection)
        gids = dec.blocks_intersecting(qbb)
        if comm is not None:
            comm.compute(self.costs.per_box_test * max(1, len(gids)))
        # Step 1: ask block owners which producers hold intersecting data.
        owners: set[int] = set()
        for gid in gids:
            owners.update(
                client.call(gid, "intersects", fstate.fname, path,
                            qbb.min, qbb.max)
            )
        # Step 2: request and receive the data, assemble locally.
        return self._assemble_remote(dtoken, selection, sorted(owners))

    # -- VOL overrides ---------------------------------------------------------------------

    def file_open(self, fname, mode, comm):
        inters = self._matches("consumer", fname)
        intercepted = self.config.file_intercepted(fname)
        if inters and intercepted and self.get_tree(comm, fname) is None:
            # In situ consumer: open the producer's hierarchy remotely;
            # blocks until the producer serves.
            return self._remote_open(fname, comm, inters[0])
        if inters and not intercepted and self.config.file_passthru(fname):
            # File mode: wait until the producer announces the physical
            # file is complete, then read it from storage.
            self._wait_file_ready(fname, inters[0], comm)
        return super().file_open(fname, mode, comm)

    def file_close(self, ftoken):
        fstate = ftoken.fstate
        fname, comm = fstate.fname, fstate.comm
        super().file_close(ftoken)
        if fstate.remote_client is not None:
            # Consumer side: release the producers (Algorithm 2's
            # "done"). A stream epoch close sends none: the consumer
            # releases epochs explicitly and signals done once at
            # stream close.
            if not self._matches("stream_consumer", fname):
                client: RPCClient = fstate.remote_client
                for dest in range(client.remote_size):
                    client.notify(dest, "__done__")
            self.drop_file(comm, fname)
            return
        intercepted = self.config.file_intercepted(fname)
        stream_inters = self._matches("stream", fname)
        if stream_inters and intercepted:
            # Streaming epoch close: index collectively, register with
            # the server without blocking in a serve loop, hand control
            # straight back to the producer loop (publish/backpressure
            # live in repro.stream).
            self._index_file(fname)
            self._register(fname, stream_inters)
            return
        inters = self._matches("producer", fname)
        if not inters:
            return
        if intercepted:
            self._index_file(fname)
            if self._matches("push", fname):
                self._push_file(fname, inters)
        if self.config.file_passthru(fname):
            # File-mode close epoch: the VOL replays its object metadata
            # and readiness handshake against the MDS -- the overhead
            # measured in paper Fig. 6 -- plus the synchronization skew
            # of coordinating with the consumers.
            lustre = getattr(self.under, "lustre", None)
            if comm is not None:
                # A pfs-category span: consumers blocked on the
                # __file_ready__ handshake get their wait attributed
                # to PFS contention, not a generic late sender.
                with obs_span(comm, "pfs.close_epoch", cat="pfs",
                              file=fname, phase="close_epoch"):
                    if lustre is not None:
                        comm.compute(lustre.open_time(comm.size)
                                     + lustre.close_time(comm.size))
                    comm.compute(
                        self.costs.sync_factor
                        * comm.model.epoch_jitter(comm.engine.nprocs)
                    )
            if not intercepted:
                # Only a consumer of a file that is not also in memory
                # waits for this; one that is opens it remotely.
                self._announce_file_ready(fname, inters, comm)
        if intercepted:
            self._serve_file(fname, inters)

    def dataset_read(self, dtoken, selection, dxpl):
        fstate = dtoken.fstate
        if fstate.remote_client is not None and not (
                self._matches("push", fstate.fname)
                and self._covered(dtoken.node, selection)):
            return self._query_read(dtoken, selection)
        # Local data, or pushed data covering the request: served here,
        # no query round trips.
        return super().dataset_read(dtoken, selection, dxpl)

    # -- file mode readiness signalling -----------------------------------------------------

    def _announce_file_ready(self, fname: str, inters, comm) -> None:
        """Producer rank 0 tells every consumer rank the file is on disk."""
        if comm is not None and comm.rank != 0:
            return
        for inter in inters:
            client = RPCClient(inter)
            client.notify_all("__file_ready__", fname)

    def _wait_file_ready(self, fname: str, inter, comm) -> None:
        st = self._rank_state()
        if fname in st.ready_files:
            return
        while fname not in st.ready_files:
            payload, _ = inter.recv(source=ANY_SOURCE, tag=TAG_CTRL)
            fn, args = payload
            if fn == "__file_ready__":
                st.ready_files.add(args[0])


# -- helpers ---------------------------------------------------------------------


def _read_reply(comm, costs, node: DatasetNode, selection):
    """Reply to a ``read`` request: the ``(overlap, values)`` parts of
    ``node`` inside ``selection``, reduced as ``costs`` says; the
    serving rank (owner of ``comm``) is charged for the copies."""
    stride = reduction_stride(costs)
    out = list(node.overlaps(selection, lambda o: subsample(o, stride)))
    # Contiguous-region serialization: bulk copies, not per point
    # (paper Sec. IV-B(c): this is why LowFive beats the
    # hand-written per-point MPI code at small scale).
    comm.charge_memcpy(sum(int(values.nbytes) for _, values in out))
    if costs.reduction_level > 0:
        # Simulated compression stage: CPU cost per input byte,
        # wire bytes scaled down; the payload itself is intact.
        raw = payload_nbytes((True, out))
        comm.compute(COST_PER_BYTE * raw)
        return Reply(out, reduced_nbytes(raw, costs))
    return out


def split_bundles(root: FileNode, nblocks: int) -> tuple[list, list]:
    """This rank's pieces split along the regular decomposition of every
    dataset into ``nblocks`` blocks: per block, the bundle of ``(path,
    overlap, values)`` and its payload bytes."""
    bundles: list[list] = [[] for _ in range(nblocks)]
    nbytes = [0] * nblocks
    for node in root.walk():
        if not isinstance(node, DatasetNode):
            continue
        dec = RegularDecomposer(node.space.shape, nblocks)
        for gid in range(dec.ngrid_blocks):
            blk = dec.block_bounds(gid).to_selection(node.space.shape)
            for overlap, values in node.overlaps(blk):
                bundles[gid].append((node.path, overlap, values))
                nbytes[gid] += int(values.nbytes)
    return bundles, nbytes


def apply_bundle(root: FileNode, bundle) -> None:
    """Store a received bundle's values in ``root``, zero-copy.

    The values are LowFive's own -- read-only views of the sender's
    pieces, or copies made for the bundle -- so they are adopted as
    LowFive-owned pieces (:meth:`DatasetNode.adopt`), and this rank
    (a stager, or a push consumer) serves their overlaps as views
    again. A user-owned piece never reaches a bundle uncopied."""
    for path, overlap, values in bundle:
        root.lookup(path).adopt(overlap, values)
