"""In-transit (staged) transport mode for LowFive.

The paper distinguishes *direct messaging* (LowFive's choice: producers
serve consumers themselves, no extra resources, but synchronization
couples the tasks) from *data staging / in transit* (DataSpaces' choice:
dedicated staging ranks decouple producer and consumer at the cost of
extra resources). This module adds the staging option to LowFive itself
while keeping the full hierarchical data model:

- **producer** (:class:`StagedMetadataVOL` with :meth:`stage_on_close`):
  at file close, each rank pushes its metadata skeleton and its data
  pieces -- split along the *staging decomposition* (a regular grid over
  the staging rank count) -- to the staging task, then returns
  immediately. No serve loop: the producer is decoupled.
- **staging task** (:func:`staging_main`): holds the staged trees and
  answers consumer queries; a file becomes visible once, for every
  producer rank, its data bundle has been applied *and* its completion
  marker has arrived (queries arriving earlier are deferred). For a
  stream, each stream's staged epochs sit in one
  :class:`~repro.stream.state.EpochWindow` whose release quorum is every
  consumer rank; an epoch every consumer released is dropped (and a
  ``stream.drop`` instant recorded), so the stagers hold a bounded
  window of live epochs.
- **consumer** (:meth:`set_staged_consumer`): opens files against the
  staging task and reads with single-hop queries -- the staging
  placement is deterministic, so no redirect step is needed.

The trade-off is measured in ``tests/lowfive/test_staged.py`` and the
staging ablation benchmark: with a late consumer, the direct producer is
stuck serving while the staged producer finished long ago.
"""

from __future__ import annotations

from repro.diy import Bounds, RegularDecomposer
from repro.h5 import format as h5format
from repro.h5.errors import NotFoundError
from repro.h5.objects import DatasetNode
from repro.lowfive.config import CostConfig
from repro.lowfive.rpc import Defer, RPCClient, RPCServer
from repro.obs import span as obs_span
from repro.lowfive.vol_dist import (
    DistMetadataVOL,
    _read_reply,
    apply_bundle,
    split_bundles,
)
from repro.lowfive.vol_metadata import MetadataVOL
from repro.stream.state import EpochWindow


class StagedMetadataVOL(DistMetadataVOL):
    """LowFive with an in-transit option.

    Files matched by :meth:`stage_on_close` (producer side) or
    :meth:`set_staged_consumer` (consumer side) go through the staging
    task; everything else behaves exactly like
    :class:`~repro.lowfive.vol_dist.DistMetadataVOL`.
    """

    name = "lowfive-staged"

    #: Tag for staged data bundles (producer -> staging).
    TAG_STAGE = 707

    # -- wiring ------------------------------------------------------------

    def stage_on_close(self, file_pattern: str, inter) -> None:
        """Producer role: at close, push matching files to the staging
        task on ``inter`` and return without serving."""
        self._wire("stage", file_pattern, inter)

    def set_staged_consumer(self, file_pattern: str, inter) -> None:
        """Consumer role: open matching files against the staging task."""
        self._wire("staged_consumer", file_pattern, inter)

    # -- producer side ---------------------------------------------------------

    def _stage_file(self, fname: str, inter) -> None:
        """Split this rank's pieces along the staging decomposition and
        push them (plus the skeleton, from rank 0) to the stagers."""
        comm = self.comm
        root = self.get_tree(comm, fname)
        if root is None:
            return
        with obs_span(comm, "lowfive.stage", cat="lowfive", phase="stage",
                      file=fname):
            nstage = inter.remote_size
            if comm is None or comm.rank == 0:
                blob = h5format.encode_skeleton(root)
                for srank in range(nstage):
                    inter.send(("skeleton", fname, blob), srank,
                               self.TAG_STAGE)
            bundles, nbytes = split_bundles(root, nstage)
            comm.charge_memcpy(sum(nbytes))
            for srank in range(nstage):
                inter.send(("pieces", fname, bundles[srank]), srank,
                           self.TAG_STAGE)
            # Visibility marker: this rank's contribution is complete.
            RPCClient(inter).notify_all("__staged__", fname)

    # -- consumer side -----------------------------------------------------------

    def _staged_read(self, dtoken, selection):
        """Single-hop query against the staging decomposition."""
        fstate = dtoken.fstate
        node = dtoken.node
        with obs_span(fstate.comm, "lowfive.staged_query", cat="lowfive",
                      phase="staged_query", file=fstate.fname,
                      dataset=node.path):
            dec = RegularDecomposer(node.space.shape,
                                    fstate.remote_client.remote_size)
            gids = dec.blocks_intersecting(Bounds.from_selection(selection))
            return self._assemble_remote(dtoken, selection, gids)

    # -- VOL overrides -----------------------------------------------------------------

    def file_open(self, fname, mode, comm):
        inters = self._matches("staged_consumer", fname)
        if inters and self.config.file_intercepted(fname) \
                and self.get_tree(comm, fname) is None:
            return self._open_remote(fname, comm, inters[0], staged=True)
        return super().file_open(fname, mode, comm)

    def file_close(self, ftoken):
        fname = ftoken.fstate.fname
        comm = ftoken.fstate.comm
        if ftoken.fstate.staged:
            # Staged consumer: the stagers keep serving until finalize,
            # so closing only drops the local skeleton.
            MetadataVOL.file_close(self, ftoken)
            self.drop_file(comm, fname)
            return
        stage_inters = self._matches("stage", fname)
        if stage_inters and self.config.file_intercepted(fname):
            MetadataVOL.file_close(self, ftoken)
            for inter in stage_inters:
                self._stage_file(fname, inter)
            return  # decoupled: no serve loop
        super().file_close(ftoken)

    def dataset_read(self, dtoken, selection, dxpl):
        if dtoken.fstate.staged:
            return self._staged_read(dtoken, selection)
        return super().dataset_read(dtoken, selection, dxpl)

    @staticmethod
    def finalize_staging(inter, comm=None) -> None:
        """Release the staging ranks (each client rank, per task)."""
        RPCClient(inter).notify_all("__done__")


def staging_main(inters, costs=None, timeout: float = 60.0) -> dict:
    """Run one staging rank until every client rank has sent done.

    ``inters`` are the staging-side views of the producer and consumer
    intercommunicators. ``timeout`` is the virtual seconds this rank
    waits without traffic arriving before it gives up with
    :class:`~repro.lowfive.rpc.RPCTimeout`. Returns ``{file: pieces
    held}`` counts (useful for tests/monitoring).
    """
    costs = costs or CostConfig()
    server = RPCServer()
    skeletons: dict[str, bytes] = {}
    trees: dict[str, object] = {}
    # fname -> {("marker" | "data", producer rank)}: what has landed here.
    # The small ``__staged__`` marker overtakes the same rank's bundle
    # on the wire, so a file is visible only once *both* are in for
    # every producer (each sends exactly one bundle, possibly empty).
    complete: dict[str, set] = {}
    producer_inter = inters[0]

    def _tree(fname):
        root = trees.get(fname)
        if root is None:
            if fname not in skeletons:
                raise Defer()
            root = h5format.decode_file(skeletons[fname], fname)
            trees[fname] = root
        return root

    def _require_visible(fname):
        if len(complete.get(fname, ())) < 2 * producer_inter.remote_size:
            raise Defer()

    def metadata(source, fname):
        _require_visible(fname)
        if fname not in skeletons:
            raise NotFoundError(f"not staged: {fname!r}")
        return skeletons[fname]

    def read(source, fname, path, selection):
        _require_visible(fname)
        return _read_reply(inters[0], costs, _tree(fname).lookup(path),
                           selection)

    def staged(source, fname):
        complete.setdefault(fname, set()).add(("marker", source))

    # Epoch-aware retention: streaming consumers release epochs with
    # cumulative high-water marks (``__release__(stream, upto, world)``,
    # ``world`` disambiguating ranks across multiple consumer inters).
    # Each stream keeps one EpochWindow whose quorum is every consumer
    # rank: once all of them released epoch ``e``, its staged tree is
    # dropped -- the stagers hold a bounded window of live epochs
    # instead of the whole history.
    consumers = [w for i in inters[1:] for w in i.remote_members]
    windows: dict[str, EpochWindow] = {}
    my_world = inters[0].world_rank(inters[0].rank)
    obs = inters[0].engine.obs

    def release(source, stream, upto, world):
        window = windows.get(stream)
        if window is None:
            window = windows[stream] = EpochWindow(consumers)
        window.release(world, upto)
        if window.floor() < 0:
            return  # some consumer rank has released nothing yet
        for e in window.retire_ready():
            fname = f"{stream}@{e}"
            if fname in skeletons:
                skeletons.pop(fname, None)
                trees.pop(fname, None)
                complete.pop(fname, None)
                obs.spans.instant("stream.drop", "stream", my_world,
                                  inters[0].vtime,
                                  {"stream": stream, "epoch": e})
        live = sum(1 for f in skeletons if f.startswith(stream + "@"))
        obs.series.record("stream.staged_live", inters[0].vtime, live,
                          rank=my_world, stream=stream)

    server.register("metadata", metadata)
    server.register("read", read)
    server.on_notify("__staged__", staged)
    server.on_notify("__release__", release)
    for inter in inters:
        server.attach(inter)

    # Staged data bundles arrive on their own tag, registered as an
    # extra serve lane: the server drains REQUEST, CTRL and STAGE
    # traffic in one global virtual-arrival order. Pieces can outrace
    # the skeleton (different producer ranks), so they wait in
    # ``pending_pieces`` until their skeleton lands.
    pending_pieces: list[tuple[str, list, int]] = []

    def _apply(fname, payload, source):
        apply_bundle(_tree(fname), payload)
        complete.setdefault(fname, set()).add(("data", source))

    def _flush_pending():
        still = []
        for fname, payload, source in pending_pieces:
            if fname in skeletons:
                _apply(fname, payload, source)
            else:
                still.append((fname, payload, source))
        pending_pieces[:] = still

    def stage_lane(inter, payload, source):
        kind, fname, data = payload
        if kind == "skeleton":
            skeletons[fname] = data
            trees.pop(fname, None)
            _flush_pending()
        elif fname in skeletons:
            _apply(fname, data, source)
        else:
            pending_pieces.append((fname, data, source))

    server.add_lane(StagedMetadataVOL.TAG_STAGE, stage_lane)

    # The span marks this rank as a server for the whole staging
    # lifetime: client waits on it classify as rpc-server-busy.
    with obs_span(inters[0], "lowfive.staging", cat="lowfive",
                  phase="staging"):
        server.serve(timeout=timeout)
    return {fname: sum(len(n.pieces) for n in _tree(fname).walk()
                       if isinstance(n, DatasetNode))
            for fname in skeletons}
