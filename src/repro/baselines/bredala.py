"""Bredala-like container data model and redistribution (paper Fig. 9-10).

Bredala (Dreher & Peterka) annotates fields appended to a *container*
with how they must be redistributed between n producer and m consumer
processes. The two policies the paper benchmarks:

- **contiguous** (Fig. 10 top): a linear list of items keeps its global
  ordering; producers ship contiguous chunks to the consumers whose
  global ranges they overlap. Cheap: offsets are computed from counts
  and data moves in contiguous buffers ("the particles dataset conforms
  to these requirements").
- **bounding box** (Fig. 10 bottom): items carry d-dimensional
  coordinates that must land inside each consumer's subdomain. Dreher et
  al. report that "most of that time is spent computing and
  communicating the indices of intersecting bounding boxes", and the
  per-item classification/reordering ships coordinates along with the
  data. Those costs are charged here (see :class:`BredalaCosts`), which
  is what makes the grid dataset blow up at scale in Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.diy import Bounds, RegularDecomposer, even_offsets

REDIST_CONTIGUOUS = "contiguous"
REDIST_BBOX = "bbox"

_TAG_BASE = 820


@dataclass(frozen=True)
class BredalaCosts:
    """Calibrated cost constants for Bredala's data path.

    ``per_item_contiguous`` covers append/serialize of one item in the
    contiguous policy (bulk-friendly). ``per_item_bbox`` covers per-item
    coordinate classification, reordering and serialization in the
    bounding-box policy. ``per_pair_index`` is the per-(producer,
    consumer)-pair cost of computing and exchanging intersecting bbox
    indices -- the term Dreher et al. measured to dominate, quadratic in
    task sizes and responsible for Fig. 9's blow-up.
    """

    per_item_contiguous: float = 3.0e-7
    per_item_bbox: float = 1.0e-6
    per_pair_index: float = 6.0e-5
    #: Direct-messaging transport: one epoch of synchronization skew.
    sync_factor: float = 1.0


@dataclass
class Field:
    """One annotated field of a container.

    Producer side sets ``data`` (and ``coords`` for the bbox policy);
    consumer side leaves them ``None`` and fills in the metadata needed
    to receive (``global_count`` or ``domain``).
    """

    name: str
    policy: str
    dtype: object
    item_shape: tuple = ()
    data: np.ndarray | None = None
    coords: np.ndarray | None = None  # (nitems, d) for bbox policy
    domain: tuple | None = None       # global domain shape for bbox
    global_count: int | None = None   # total items for contiguous

    def __post_init__(self):
        if self.policy not in (REDIST_CONTIGUOUS, REDIST_BBOX):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == REDIST_BBOX and self.domain is None:
            raise ValueError("bbox policy needs a domain shape")


@dataclass
class Container:
    """An ordered set of fields exchanged in one redistribution epoch."""

    fields: list = dc_field(default_factory=list)

    def append(self, f: Field) -> None:
        """Append a field; names must be unique."""
        if any(g.name == f.name for g in self.fields):
            raise ValueError(f"duplicate field {f.name!r}")
        self.fields.append(f)

    def __iter__(self):
        return iter(self.fields)

    def __len__(self):
        return len(self.fields)


def redistribute_producer(inter, comm, container: Container,
                          costs: BredalaCosts | None = None) -> None:
    """Producer side: split and send every field to the consumers.

    Every consumer receives exactly one message per field from every
    producer (possibly empty), so the consumer side is deterministic.
    """
    costs = costs or BredalaCosts()
    comm.compute(costs.sync_factor * 0.5
                 * comm.model.epoch_jitter(comm.engine.nprocs))
    ncons = inter.remote_size
    for fidx, f in enumerate(container):
        tag = _TAG_BASE + fidx
        data = np.asarray(f.data)
        nitems = data.shape[0] if data.ndim else 0
        if f.policy == REDIST_CONTIGUOUS:
            counts = comm.allgather(nitems)
            my_start = sum(counts[:comm.rank])
            total = sum(counts)
            comm.charge_pack_elements(0)  # appended in bulk
            comm.compute(costs.per_item_contiguous * nitems)
            offs = even_offsets(total, ncons)
            for crank, (c0, c1) in enumerate(zip(offs, offs[1:])):
                lo = max(my_start, c0)
                hi = min(my_start + nitems, c1)
                if lo >= hi:
                    inter.send((f.name, None, None), crank, tag)
                else:
                    chunk = data[lo - my_start:hi - my_start]
                    comm.charge_memcpy(int(chunk.nbytes))
                    inter.send((f.name, lo, chunk), crank, tag)
        else:  # REDIST_BBOX
            coords = np.asarray(f.coords)
            dec = RegularDecomposer(f.domain, ncons)
            # The dominant cost Dreher et al. measured: computing and
            # communicating intersecting bbox indices, all pairs.
            nprod = comm.size
            comm.compute(costs.per_pair_index * nprod * ncons)
            # Per-item classification into consumer blocks (vectorized
            # here, but charged per item as Bredala walks items).
            comm.compute(costs.per_item_bbox * nitems)
            gids = dec.point_gids(coords) if nitems else \
                np.empty(0, dtype=np.int64)
            for crank in range(ncons):
                mask = gids == crank
                if not mask.any():
                    inter.send((f.name, None, None), crank, tag)
                    continue
                # Coordinates travel with the data (reordering on the
                # receive side needs them) -- extra bytes on the wire.
                payload = (coords[mask], data[mask])
                inter.send((f.name, payload[0], payload[1]), crank, tag)
        comm.barrier()  # Bredala epochs are collective per field


def redistribute_consumer(inter, comm, container: Container,
                          costs: BredalaCosts | None = None) -> dict:
    """Consumer side: receive one message per producer per field.

    Returns ``{field name: (origin, array)}`` where origin is the global
    start index (contiguous) or the block :class:`Bounds` (bbox), and
    the array holds this consumer's items in global order / block
    layout.
    """
    costs = costs or BredalaCosts()
    comm.compute(costs.sync_factor * 0.5
                 * comm.model.epoch_jitter(comm.engine.nprocs))
    nprod = inter.remote_size
    ncons = comm.size
    out = {}
    for fidx, f in enumerate(container):
        tag = _TAG_BASE + fidx
        np_dtype = np.dtype(getattr(f.dtype, "np", f.dtype))
        if f.policy == REDIST_CONTIGUOUS:
            offs = even_offsets(f.global_count, ncons)
            c0, c1 = offs[comm.rank], offs[comm.rank + 1]
            buf = np.zeros((c1 - c0,) + tuple(f.item_shape), dtype=np_dtype)
            for _ in range(nprod):
                (name, start, chunk), _st = inter.recv(tag=tag)
                if start is None:
                    continue
                comm.charge_memcpy(int(np.asarray(chunk).nbytes))
                buf[start - c0:start - c0 + len(chunk)] = chunk
            out[f.name] = (c0, buf)
        else:
            dec = RegularDecomposer(f.domain, ncons)
            if comm.rank < dec.ngrid_blocks:
                blk = dec.block_bounds(comm.rank)
            else:
                blk = Bounds([0] * len(f.domain), [0] * len(f.domain))
            buf = np.zeros(blk.shape + tuple(f.item_shape), dtype=np_dtype)
            nitems = 0
            for _ in range(nprod):
                (name, coords, values), _st = inter.recv(tag=tag)
                if coords is None:
                    continue
                local = np.asarray(coords) - blk.min
                buf[tuple(local.T)] = values
                nitems += len(coords)
            # Per-item reorder/deserialize on the receive side.
            comm.compute(costs.per_item_bbox * nitems)
            out[f.name] = (blk, buf)
    return out
