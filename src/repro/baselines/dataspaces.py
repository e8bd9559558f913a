"""DataSpaces-like staging transport (paper Fig. 8).

Key design points reproduced from DataSpaces (Docan et al.) as used in
the paper's comparison:

- **Dedicated staging ranks**: a separate server task indexes metadata.
  This is the extra resource cost the paper highlights ("at full scale,
  we used 4 additional compute nodes for the DataSpaces server").
- **``put_local``**: producers register only *metadata* with the
  servers; the data stays in producer memory ("the server only maintains
  indexing metadata") and is fetched by consumers one-sidedly (RDMA), so
  producers never block serving data.
- **Restricted data model**: N-dimensional arrays addressed by bounding
  boxes; no hierarchy, types, or irregular selections. Registered boxes
  of one version must tile (not overlap) the region consumers query.
- **No file-close synchronization**: a ``get`` blocks only until the
  queried region is covered by registered puts, not until the producer
  finishes its whole output step -- one reason DataSpaces beats LowFive
  by 20-50% in the paper.

The server-side index is sharded over server ranks by a regular
decomposition of each array's global shape (a DHT over space, as in the
real DataSpaces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.diy import Bounds, RegularDecomposer
from repro.h5.selection import Selection
from repro.lowfive.rpc import Defer, RPCClient, RPCServer


@dataclass(frozen=True)
class DSCosts:
    """Client/server software costs (smaller than LowFive's: restricted
    flat-array data model, no VOL interception, no type machinery)."""

    per_put: float = 3e-6
    per_get: float = 3e-6
    per_rdma_fetch: float = 4e-6
    per_element_handle: float = 4.6e-8
    #: DataSpaces decouples producers and consumers through the staging
    #: index (no file-close wait, no collective index), so it pays less
    #: per-epoch synchronization skew than LowFive or direct exchanges.
    sync_factor: float = 0.5


class _Registered:
    """One put_local registration living in producer memory."""

    __slots__ = ("selection", "data", "producer")

    def __init__(self, selection: Selection, data: np.ndarray, producer: int):
        self.selection = selection
        self.data = np.asarray(data).reshape(-1)
        self.producer = producer


class DataSpaces:
    """Shared state of one DataSpaces deployment.

    Construct once in the workflow driver and share with the producer,
    consumer, and server tasks. Clients use :meth:`put_local` /
    :meth:`get` / :meth:`finalize`; server ranks run
    :func:`dataspaces_server_main`.
    """

    def __init__(self, nservers: int, costs: DSCosts | None = None):
        if nservers < 1:
            raise ValueError("need at least one staging rank")
        self.nservers = nservers
        self.costs = costs if costs is not None else DSCosts()
        # (name, version) -> list[_Registered]; producer-memory registry
        # reachable one-sidedly (models RDMA-registered buffers).
        self._registry: dict[tuple[str, int], list[_Registered]] = {}

    # -- spatial DHT -------------------------------------------------------

    def server_ranks_for(self, shape, bounds: Bounds) -> list[int]:
        """Server ranks whose DHT block intersects ``bounds``."""
        dec = RegularDecomposer(tuple(shape), self.nservers)
        return dec.blocks_intersecting(bounds)

    # -- producer API --------------------------------------------------------

    def put_local(self, inter, comm, name: str, version: int,
                  selection: Selection, data) -> None:
        """Register ``data`` for ``selection`` without copying it out.

        ``inter`` is the producer->server intercommunicator. Metadata
        goes to the DHT shards asynchronously; the call returns without
        waiting for consumers (unlike LowFive's serve-at-close).
        """
        reg = _Registered(selection, data, comm.rank)
        self._registry.setdefault((name, version), []).append(reg)
        bb = Bounds.from_selection(selection)
        comm.compute(self.costs.per_put)
        for srank in self.server_ranks_for(selection.shape, bb):
            inter.send(
                ("register",
                 (name, version, tuple(selection.shape),
                  bb.min, bb.max, comm.rank)),
                srank, _TAG_CTRL,
            )

    # -- consumer API ----------------------------------------------------------

    def get(self, inter, comm, name: str, version: int,
            selection: Selection, dtype, fill=0) -> np.ndarray:
        """Read ``selection`` of array ``name``@``version``.

        Blocks until the servers report the region covered, then fetches
        the intersecting pieces one-sidedly from producer memory.
        """
        client = RPCClient(inter)
        qbb = Bounds.from_selection(selection)
        comm.compute(self.costs.per_get)
        comm.compute(
            self.costs.sync_factor
            * comm.model.epoch_jitter(comm.engine.nprocs)
        )
        hits: set[tuple[int, tuple, tuple]] = set()  # (producer, bmin, bmax)
        for srank in self.server_ranks_for(selection.shape, qbb):
            found = client.call(
                srank, "query",
                name, version, tuple(selection.shape),
                qbb.min, qbb.max,
            )
            hits.update((p, tuple(bmin), tuple(bmax))
                        for p, bmin, bmax in found)
        if selection.npoints == 0:
            return np.empty(0, dtype=dtype)
        lo, hi = selection.bounds()
        box_shape = tuple(int(h - l) for l, h in zip(lo, hi))
        box = np.full(box_shape, fill, dtype=dtype)
        regs = list(self._registry.get((name, version), []))
        by_key = {(reg.producer, *reg.selection.bounds()): reg
                  for reg in regs}
        fetched_elems = 0
        for key in sorted(hits):
            reg = by_key[key]
            overlap = reg.selection.intersect(selection)
            if overlap.npoints == 0:
                continue
            plo = reg.selection.bounds()[0]
            pshape = tuple(
                int(h - l) for l, h in zip(plo, reg.selection.bounds()[1])
            )
            values = overlap.translate(plo, pshape).extract(
                reg.data.reshape(pshape)
            )
            # One-sided fetch: wire time charged on the consumer only.
            comm.compute(
                self.costs.per_rdma_fetch
                + comm.model.transfer_time(
                    int(values.nbytes), comm.engine.nprocs
                )
            )
            overlap.translate(lo, box_shape).scatter(values, box)
            fetched_elems += overlap.npoints
        comm.compute(self.costs.per_element_handle * fetched_elems)
        return selection.translate(lo, box_shape).extract(box)

    # -- teardown ------------------------------------------------------------------

    @staticmethod
    def finalize(inter, comm) -> None:
        """Each client rank releases the servers (collective per task)."""
        client = RPCClient(inter)
        for dest in range(inter.remote_size):
            client.notify(dest, "__done__")


_TAG_CTRL = 703  # matches rpc.TAG_CTRL: registrations ride the ctrl lane


def dataspaces_server_main(dataspaces: DataSpaces, inters) -> None:
    """Run one staging rank: index registrations, answer queries.

    ``inters`` are the server-side views of the client intercomms
    (producer task and consumer task). Returns when every client rank of
    every intercomm has sent done.
    """
    index: dict[tuple[str, int], list[tuple[Bounds, int]]] = {}
    server = RPCServer()
    my_rank = inters[0].rank  # server's rank within its own task

    def register(source, name, version, shape, bmin, bmax, producer):
        index.setdefault((name, version), []).append(
            (Bounds(bmin, bmax), producer)
        )

    def query(source, name, version, shape, qmin, qmax):
        qbb = Bounds(qmin, qmax)
        entries = index.get((name, version), [])
        # Visibility: the region must be fully covered by registered
        # (non-overlapping) puts within this shard's DHT block before
        # the get may proceed.
        dec = RegularDecomposer(tuple(shape), dataspaces.nservers)
        if my_rank < dec.ngrid_blocks:
            region = qbb.intersect(dec.block_bounds(my_rank))
        else:  # rank owns no block; nothing to check
            region = Bounds(qbb.min, qbb.min)
        got = sum(b.intersect(region).size for b, _ in entries)
        if got < region.size:
            raise Defer()
        return [
            (producer, b.min, b.max)
            for b, producer in entries
            if b.intersects(qbb)
        ]

    server.register("query", query)
    server.on_notify("register", register)
    for inter in inters:
        server.attach(inter)
    server.serve()
