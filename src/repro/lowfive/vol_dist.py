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

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

import numpy as np

from repro.diy import Bounds, RegularDecomposer
from repro.h5 import format as h5format
from repro.h5.errors import NotFoundError
from repro.h5.objects import DatasetNode, FileNode, GroupNode
from repro.lowfive.reduce import reduced_nbytes, reduction_stride, subsample
from repro.obs import obs_of, span as obs_span
from repro.lowfive.rpc import Defer, Reply, RetryPolicy, RPCClient, RPCServer
from repro.simmpi import payload_nbytes
from repro.lowfive.vol_metadata import LFFile, LFToken, MetadataVOL


@dataclass
class PhaseStats:
    """Accumulated per-rank phase costs (virtual seconds + counters)."""

    seconds: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` under ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    def total(self) -> float:
        """Total profiled seconds across phases."""
        return sum(self.seconds.values())

    def breakdown(self) -> dict:
        """Phase -> fraction of profiled time."""
        tot = self.total()
        if tot <= 0:
            return {k: 0.0 for k in self.seconds}
        return {k: v / tot for k, v in self.seconds.items()}


@dataclass
class IndexedBox:
    """One indexed bounding box: who wrote data intersecting my block."""

    bounds: Bounds
    owner: int  # producer rank holding the actual data


def _skeleton_bytes(root: FileNode) -> bytes:
    """Serialize the metadata hierarchy without any data payloads."""
    copy = FileNode(root.name)

    def clone(src, dst_parent):
        for name in sorted(src.children):
            child = src.children[name]
            if isinstance(child, DatasetNode):
                node = DatasetNode(name, child.dtype, child.space,
                                   fill_value=child.fill_value)
                dst_parent.add_child(node)
            else:
                node = dst_parent.add_child(GroupNode(name))
                clone(child, node)
            for aname, attr in child.attributes.items():
                a = node.create_attribute(aname, attr.dtype, attr.space)
                if attr.value is not None:
                    a.write(attr.value)
        return dst_parent

    for aname, attr in root.attributes.items():
        a = copy.create_attribute(aname, attr.dtype, attr.space)
        if attr.value is not None:
            a.write(attr.value)
    clone(root, copy)
    return h5format.encode_file(copy)


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
        self._producer_inters: list[tuple[str, object]] = []
        self._consumer_inters: list[tuple[str, object]] = []
        self._stream_inters: list[tuple[str, object]] = []
        self._stream_consumer_pats: list[str] = []
        self._rank_states: dict[int, _RankState] = {}
        self._push_patterns: list[str] = []

    # -- wiring -----------------------------------------------------------

    def serve_on_close(self, file_pattern: str, inter) -> None:
        """Producer role: at close of matching files, index and serve
        consumers on ``inter`` until they are done."""
        self._producer_inters.append((file_pattern, inter))

    def set_consumer(self, file_pattern: str, inter) -> None:
        """Consumer role: open matching files remotely over ``inter``."""
        self._consumer_inters.append((file_pattern, inter))

    def stream_on_close(self, file_pattern: str, inter) -> None:
        """Streaming producer role: at close of matching epoch files,
        index and *register* them with this rank's server -- but do not
        park in a serve loop. The :class:`~repro.stream.StreamProducer`
        serves at its deterministic points (backpressure gate, final
        drain) instead. Idempotent per ``(pattern, inter)`` pair, so
        every rank of a task may wire the shared VOL."""
        if (file_pattern, inter) not in self._stream_inters:
            self._stream_inters.append((file_pattern, inter))

    def set_stream_consumer(self, file_pattern: str, inter) -> None:
        """Streaming consumer role: open matching epoch files remotely,
        but suppress the per-file ``__done__`` on close -- stream
        consumers release epochs explicitly (cumulative high-water
        marks) and send one final done at stream close. Idempotent."""
        if file_pattern not in self._stream_consumer_pats:
            self._stream_consumer_pats.append(file_pattern)
        if (file_pattern, inter) not in self._consumer_inters:
            self._consumer_inters.append((file_pattern, inter))

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
        self._push_patterns.append(file_pattern)

    def _push_enabled(self, fname: str) -> bool:
        return any(fnmatchcase(fname, p) for p in self._push_patterns)

    def _rank_state(self) -> _RankState:
        key = self._rank_key(self.comm)
        st = self._rank_states.get(key)
        if st is None:
            st = _RankState()
            self._rank_states[key] = st
        return st

    def _producer_matches(self, fname: str):
        return [i for pat, i in self._producer_inters
                if fnmatchcase(fname, pat)]

    def _consumer_matches(self, fname: str):
        return [i for pat, i in self._consumer_inters
                if fnmatchcase(fname, pat)]

    def _stream_matches(self, fname: str):
        return [i for pat, i in self._stream_inters
                if fnmatchcase(fname, pat)]

    def _is_stream_consumed(self, fname: str) -> bool:
        return any(fnmatchcase(fname, p)
                   for p in self._stream_consumer_pats)

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
                        (node.path, tuple(bb.min), tuple(bb.max))
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
                ncons = inter.remote_size
                for crank in range(ncons):
                    bundle = []
                    nbytes = 0
                    for node in root.walk():
                        if not isinstance(node, DatasetNode):
                            continue
                        dec = RegularDecomposer(node.space.shape, ncons)
                        if crank >= dec.ngrid_blocks:
                            continue
                        blk = dec.block_bounds(crank).to_selection(
                            node.space.shape
                        )
                        for overlap, values in node.overlaps(blk):
                            bundle.append((node.path, overlap, values))
                            nbytes += int(values.nbytes)
                    comm.charge_memcpy(nbytes)
                    inter.send((fname, bundle), crank, self.TAG_PUSH)

    def _receive_pushes(self, fname: str, root: FileNode, comm, inter):
        """Consumer side: absorb one push bundle from every producer."""
        from repro.h5.objects import OWN_SHALLOW

        for _ in range(inter.remote_size):
            (fn, bundle), _st = inter.recv(tag=self.TAG_PUSH)
            for path, overlap, values in bundle:
                node = root.lookup(path)
                node.write(overlap, values, OWN_SHALLOW)

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
            blob = _skeleton_bytes(root)
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

    def _serve_file(self, fname: str, inters) -> None:
        st = self._rank_state()
        self._install_handlers(st)
        st.served_files.add(fname)
        for inter in inters:
            st.server.attach(inter)
        with obs_span(self.comm, "lowfive.serve", cat="lowfive",
                      phase="serve", file=fname):
            st.server.serve()

    def _stream_register(self, fname: str, inters) -> None:
        """Epoch-aware serve: make a closed (indexed) epoch file
        servable without blocking in a serve loop."""
        st = self._rank_state()
        self._install_handlers(st)
        st.served_files.add(fname)
        for inter in inters:
            st.server.attach(inter)

    def rank_server(self) -> RPCServer:
        """This rank's serve-side RPC server, handlers installed.

        The streaming layer runs its backpressure and end-of-stream
        serve loops on it.
        """
        st = self._rank_state()
        self._install_handlers(st)
        return st.server

    # -- consumer side: query (Algorithm 3) -----------------------------------------

    def _remote_open(self, fname: str, mode, fapl, comm, inter):
        with obs_span(comm, "lowfive.metadata_open", cat="lowfive",
                      phase="metadata_open", file=fname):
            return self._remote_open_impl(fname, mode, fapl, comm, inter)

    def _remote_open_impl(self, fname: str, mode, fapl, comm, inter):
        client = RPCClient(inter, retry=self.rpc_retry)
        me = 0 if comm is None else comm.rank
        dest = me % client.remote_size
        blob = client.call(dest, "metadata", fname)
        root = h5format.decode_file(blob, fname)
        self._charge_op(comm)
        if comm is not None:
            # Consumer-side share of the wait-for-close synchronization.
            comm.compute(
                self.costs.sync_factor * 0.5
                * comm.model.epoch_jitter(comm.engine.nprocs)
            )
        if self._push_enabled(fname):
            self._receive_pushes(fname, root, comm, inter)
        fstate = LFFile(fname, comm, "r", root, None, remote_client=client)
        return LFToken(fstate, root, None)

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
                            tuple(qbb.min), tuple(qbb.max))
            )
        # Step 2: request and receive the data, assemble locally.
        if selection.npoints == 0:
            return np.empty(0, dtype=node.dtype.np)
        values = node.assemble(selection, (
            part for p in sorted(owners)
            for part in client.call(p, "read", fstate.fname, path, selection)
        ))
        self._charge_elements(comm, selection.npoints)
        return values

    # -- VOL overrides ---------------------------------------------------------------------

    def file_open(self, fname, mode, fapl, comm):
        if self.config.file_intercepted(fname):
            root = self.get_tree(comm, fname)
            if root is None:
                inters = self._consumer_matches(fname)
                if inters:
                    # In situ consumer: open the producer's hierarchy
                    # remotely; blocks until the producer serves.
                    return self._remote_open(fname, mode, fapl, comm,
                                             inters[0])
        if self.config.file_passthru(fname) and not self.config.file_intercepted(fname):
            # File mode: wait until the producer announces the physical
            # file is complete, then read it from storage.
            inters = self._consumer_matches(fname)
            if inters:
                self._wait_file_ready(fname, inters[0], comm)
        return super().file_open(fname, mode, fapl, comm)

    def file_close(self, ftoken):
        fname = ftoken.fstate.fname
        comm = ftoken.fstate.comm
        is_remote = ftoken.fstate.remote_client is not None
        super().file_close(ftoken)
        if is_remote:
            if self._is_stream_consumed(fname):
                # Stream epoch close: no per-file done -- the consumer
                # releases epochs explicitly and signals done once at
                # stream close.
                self.drop_file(comm, fname)
                return
            # Consumer side: release the producers (Algorithm 2's "done").
            client: RPCClient = ftoken.fstate.remote_client
            for dest in range(client.remote_size):
                client.notify(dest, "__done__")
            self.drop_file(comm, fname)
            return
        stream_inters = self._stream_matches(fname)
        if stream_inters and self.config.file_intercepted(fname):
            # Streaming epoch close: index collectively, register with
            # the server, hand control straight back to the producer
            # loop (publish/backpressure live in repro.stream).
            self._index_file(fname)
            self._stream_register(fname, stream_inters)
            return
        prod_inters = self._producer_inters_for_close(fname)
        if not prod_inters:
            return
        if self.config.file_intercepted(fname):
            self._index_file(fname)
            if self._push_enabled(fname):
                self._push_file(fname, prod_inters)
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
            self._announce_file_ready(fname, prod_inters, comm)
        if self.config.file_intercepted(fname):
            self._serve_file(fname, prod_inters)

    def _producer_inters_for_close(self, fname: str):
        return self._producer_matches(fname)

    def phase_stats(self, comm=None) -> PhaseStats:
        """This rank's per-phase profile so far (paper Sec. V-C:
        finer-grained communication profiling), folded from the
        ``lowfive`` spans the machine recorded for the calling rank."""
        comm = comm if comm is not None else self.comm
        stats = PhaseStats()
        obs = obs_of(comm)
        if obs is not None:
            rank = comm.world_rank(comm.rank)
            for s in obs.spans.spans(cat="lowfive", rank=rank):
                stats.add(s.labels["phase"], s.duration)
        return stats

    def dataset_read(self, dtoken, selection, dxpl):
        if dtoken.fstate.remote_client is not None:
            node = dtoken.node
            if (self._push_enabled(dtoken.fstate.fname)
                    and isinstance(node, DatasetNode)
                    and self._covered(node, selection)):
                # Pushed data covers the request: serve locally, no
                # query round trips.
                comm = dtoken.fstate.comm
                values = node.read(selection)
                self._charge_op(comm)
                self._charge_elements(comm, selection.npoints)
                return values
            return self._query_read(dtoken, selection)
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
        from repro.lowfive.rpc import TAG_CTRL
        from repro.simmpi import ANY_SOURCE

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
        comm.compute(costs.reduce_cost_per_byte * raw)
        return Reply(out, reduced_nbytes(raw, costs))
    return out
