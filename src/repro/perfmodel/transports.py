"""Analytic completion-time models for every transport in the evaluation.

Each function mirrors the cost structure its executed counterpart
charges (same geometry, same constants), evaluated without threads so it
scales to the paper's 16,384 ranks. See ``tests/perfmodel`` for the
executed-vs-modeled agreement checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from repro.baselines.bredala import BredalaCosts
from repro.baselines.dataspaces import DSCosts
from repro.diy import RegularDecomposer, even_offsets
from repro.lowfive.config import CostConfig
from repro.pfs.lustre import LustreModel
from repro.simmpi import NetworkModel
from repro.synth import SyntheticWorkload


@dataclass(frozen=True)
class Machine:
    """A machine configuration: network + software cost constants."""

    name: str
    net: NetworkModel
    lf: CostConfig
    ds: DSCosts
    br: BredalaCosts
    lustre: LustreModel

    def cpu_scaled(self, factor: float, name: str | None = None) -> "Machine":
        """Scale CPU-bound constants by ``factor`` (e.g. Haswell cores
        are ~3x faster than KNL cores for this serial software stack)."""
        return Machine(
            name=name or f"{self.name} x{factor}",
            net=replace(
                self.net,
                msg_overhead=self.net.msg_overhead * factor,
                per_element_pack=self.net.per_element_pack * factor,
                epoch_jitter_per_log2p=(
                    self.net.epoch_jitter_per_log2p * factor
                ),
                memcpy_bandwidth=self.net.memcpy_bandwidth / factor,
            ),
            lf=replace(
                self.lf,
                per_h5_op=self.lf.per_h5_op * factor,
                per_element_handle=self.lf.per_element_handle * factor,
                per_box_test=self.lf.per_box_test * factor,
            ),
            ds=replace(
                self.ds,
                per_put=self.ds.per_put * factor,
                per_get=self.ds.per_get * factor,
                per_rdma_fetch=self.ds.per_rdma_fetch * factor,
                per_element_handle=self.ds.per_element_handle * factor,
            ),
            br=replace(
                self.br,
                per_item_contiguous=self.br.per_item_contiguous * factor,
                per_item_bbox=self.br.per_item_bbox * factor,
                per_pair_index=self.br.per_pair_index * factor,
            ),
            lustre=self.lustre,
        )


#: Theta: Intel Xeon Phi KNL nodes (slow serial cores), Aries network.
THETA_KNL = Machine(
    name="Theta (KNL)",
    net=NetworkModel(),
    lf=CostConfig(),
    ds=DSCosts(),
    br=BredalaCosts(),
    lustre=LustreModel(),
)

#: Cori Haswell partition: ~3x faster serial cores than KNL. On Haswell
#: the hand-written point-at-a-time loop is no longer the bottleneck it
#: is on KNL (out-of-order cores hide it), so its per-element cost
#: converges to LowFive's contiguous path -- which is why Fig. 11 sees
#: "LowFive remains as fast as MPI" while Fig. 7 (KNL) saw LowFive win.
_haswell = THETA_KNL.cpu_scaled(1.0 / 3.0, name="Cori (Haswell)")
CORI_HASWELL = replace(
    _haswell, net=replace(_haswell.net, per_element_pack=1.8e-8)
)


# -- geometry -----------------------------------------------------------------


@dataclass
class Geometry:
    """Per-consumer and per-producer traffic of one dataset.

    A *cell* is one element of the decomposed domain: a grid point, or
    one item of a list.
    """

    cons_cells: np.ndarray      # cells read by each consumer
    cons_owners: np.ndarray     # producers supplying each consumer
    cons_common: np.ndarray     # common-decomp blocks each consumer asks
    prod_cells: np.ndarray      # cells served by each producer
    prod_reqs: np.ndarray       # data requests served by each producer


def _overlaps(offs, other) -> np.ndarray:
    """How many non-empty runs of the split ``other`` each run of the
    split ``offs`` overlaps (0 for an empty run). Both splits cover the
    same range, so each overlapping pair is counted once."""
    offs = np.asarray(offs, dtype=np.int64)
    lo, hi = offs[:-1], offs[1:]
    first = np.searchsorted(other, lo, side="right")
    last = np.searchsorted(other, hi - 1, side="right")
    return np.where(hi > lo, last - first + 1, 0)


def grid_geometry(shape, nprod: int, ncons: int) -> Geometry:
    """Traffic of row-slab producers -> block consumers for ``shape``.

    A consumer block is one slot per axis, so its cells and its common
    blocks are products of per-slot counts. Its producers are those of
    its first-axis slot; a producer serves each first-axis slot it
    overlaps once per block in that slot, and every cell of its slab.
    Consumers past the decomposer's grid read nothing.
    """
    prod_offs = even_offsets(shape[0], nprod)
    cdec = RegularDecomposer(shape, ncons)
    common = RegularDecomposer(shape, nprod)
    ones = [np.ones(k, dtype=np.int64) for k in cdec.grid[1:]]

    def per_block(*per_axis):
        out = np.zeros(ncons, dtype=np.int64)
        out[:cdec.ngrid_blocks] = reduce(np.multiply.outer, per_axis).ravel()
        return out

    return Geometry(
        cons_cells=per_block(*map(np.diff, cdec.offsets)),
        cons_owners=per_block(_overlaps(cdec.offsets[0], prod_offs), *ones),
        # Step-1 intersect queries go to common-decomposition owners.
        cons_common=per_block(*map(_overlaps, cdec.offsets, common.offsets)),
        prod_cells=np.diff(prod_offs) * math.prod(cdec.shape[1:]),
        prod_reqs=(_overlaps(prod_offs, cdec.offsets[0])
                   * math.prod(cdec.grid[1:])),
    )


def list_geometry(n_total: int, nprod: int, ncons: int) -> Geometry:
    """Traffic of contiguous-range producers -> contiguous consumers."""
    prod_offs = even_offsets(n_total, nprod)
    cons_offs = even_offsets(n_total, ncons)
    owners = _overlaps(cons_offs, prod_offs)
    # 1-d: the common decomposition is the producers' split.
    return Geometry(np.diff(cons_offs), owners, owners, np.diff(prod_offs),
                    _overlaps(prod_offs, cons_offs))


def _rtt(net: NetworkModel) -> float:
    """One request/reply round trip's latency + software overheads."""
    return 2.0 * (net.latency + 2.0 * net.msg_overhead)


# -- in situ transports --------------------------------------------------------------


def lowfive_memory_time(nprod: int, ncons: int,
                        wl: SyntheticWorkload | None = None,
                        machine: Machine = THETA_KNL) -> float:
    """Completion time of LowFive memory mode (Figs. 5, 7, 8, 9, 11)."""
    wl = wl or SyntheticWorkload()
    net, c = machine.net, machine.lf
    P = nprod + ncons
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)
    gg = grid_geometry(shape, nprod, ncons)
    lg = list_geometry(npart, nprod, ncons)

    gpts_pp = int(np.prod(shape)) // nprod
    parts_pp = npart // nprod
    bytes_pp = gpts_pp * 8 + parts_pp * 12

    # Producer phase: creates + deep-copy writes + collective index.
    t_prod = (
        8 * c.per_h5_op
        + c.per_element_handle * (gpts_pp + 3 * parts_pp)
        + net.memcpy_time(bytes_pp)
        + 0.5 * c.sync_factor * net.epoch_jitter(P)
        + net.collective_time("alltoall", nprod, 256)
        + c.per_box_test * 8
    )

    # Consumer critical path (serial RPC rounds, as implemented).
    rtt = _rtt(net)
    grid_bytes = gg.cons_cells * 8
    part_bytes = lg.cons_cells * 12
    t_cons = (
        rtt + net.memcpy_time(2048) + 2 * c.per_h5_op  # metadata open
        + 0.5 * c.sync_factor * net.epoch_jitter(P)
        + (gg.cons_common + lg.cons_common) * (rtt + c.per_box_test * 4)
        + (gg.cons_owners + lg.cons_owners) * rtt
        + (grid_bytes + part_bytes) * (
            1.0 / (net.bandwidth / net.contention_factor(P))
            + 1.0 / net.memcpy_bandwidth  # producer-side extract
        )
        + c.per_element_handle * (gg.cons_cells + 3 * lg.cons_cells)
    )

    # Producer serve load (requests are answered serially per producer).
    t_serve = (
        (gg.prod_cells * 8 + lg.prod_cells * 12) / net.memcpy_bandwidth
        + (gg.prod_reqs + lg.prod_reqs) * 3 * net.msg_overhead
    )
    return float(t_prod + max(float(t_cons.max()), float(t_serve.max()))
                 + rtt)


def pure_mpi_time(nprod: int, ncons: int,
                  wl: SyntheticWorkload | None = None,
                  machine: Machine = THETA_KNL) -> float:
    """Completion time of the hand-written MPI exchange (Figs. 7, 11)."""
    wl = wl or SyntheticWorkload()
    net = machine.net
    P = nprod + ncons
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)
    gg = grid_geometry(shape, nprod, ncons)
    lg = list_geometry(npart, nprod, ncons)
    gpts_pp = int(np.prod(shape)) // nprod
    parts_pp = npart // nprod

    # Producer: point-at-a-time packing of everything it sends, after
    # its half of the epoch's synchronization skew.
    t_prod = (
        0.5 * net.epoch_jitter(P)
        + net.pack_elements_time(gpts_pp + 3 * parts_pp)
        + (ncons * 2) * net.msg_overhead  # one message per consumer/dataset
    )
    # Consumer: per-point unpack plus wire time, then straggler skew
    # (post-receive, so it does not hide behind the producer's packing;
    # see pure_mpi_consumer).
    bytes_c = gg.cons_cells * 8 + lg.cons_cells * 12
    t_cons = (
        net.pack_elements_time(gg.cons_cells + 3 * lg.cons_cells)
        + bytes_c / (net.bandwidth / net.contention_factor(P))
        + (gg.cons_owners + lg.cons_owners) * net.msg_overhead
        + 0.65 * net.epoch_jitter(P)
    )
    return float(t_prod + t_cons.max())


def dataspaces_time(nprod: int, ncons: int,
                    wl: SyntheticWorkload | None = None,
                    machine: Machine = CORI_HASWELL,
                    nservers: int = 4) -> float:
    """Completion time of DataSpaces staging (Figs. 8, 11).

    Requires ``nservers`` extra staging ranks beyond ``nprod + ncons``
    (resource cost highlighted in the paper's discussion).
    """
    wl = wl or SyntheticWorkload()
    net, dsc = machine.net, machine.ds
    P = nprod + ncons + nservers
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)
    gg = grid_geometry(shape, nprod, ncons)
    lg = list_geometry(npart, nprod, ncons)
    rtt = _rtt(net)

    # Producer: metadata-only puts, asynchronous (no serve phase).
    t_prod = 2 * dsc.per_put + 2 * net.msg_overhead * min(nservers, 4)

    # Consumer: DHT queries + one-sided fetches.
    bytes_c = gg.cons_cells * 8 + lg.cons_cells * 12
    nshards = min(nservers, 4)
    t_cons = (
        dsc.sync_factor * net.epoch_jitter(P)
        + 2 * dsc.per_get + 2 * nshards * rtt
        + (gg.cons_owners + lg.cons_owners) * dsc.per_rdma_fetch
        + bytes_c / (net.bandwidth / net.contention_factor(P))
        + dsc.per_element_handle * (gg.cons_cells + 3 * lg.cons_cells)
    )
    return float(t_prod + t_cons.max())


def bredala_times(nprod: int, ncons: int,
                  wl: SyntheticWorkload | None = None,
                  machine: Machine = THETA_KNL) -> dict:
    """Bredala grid/particles/total times (Fig. 9)."""
    wl = wl or SyntheticWorkload()
    net, br = machine.net, machine.br
    P = nprod + ncons
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)
    gg = grid_geometry(shape, nprod, ncons)
    lg = list_geometry(npart, nprod, ncons)
    gpts_pp = int(np.prod(shape)) // nprod
    parts_pp = npart // nprod
    # One epoch's synchronization skew, charged once (the producer's
    # half; the consumer's half overlaps it -- see redistribute_*),
    # split evenly between the two decomposed curves.
    jitter = 0.25 * br.sync_factor * net.epoch_jitter(P)

    # Grid: bounding-box policy. Quadratic index computation/exchange,
    # per-item classification + reorder, coordinates on the wire.
    grid_wire = gg.cons_cells * (8 + 8 * len(shape))  # data + coords
    t_grid = (
        jitter
        + br.per_pair_index * nprod * ncons
        + br.per_item_bbox * gpts_pp  # producer classify/serialize
        + float((br.per_item_bbox * gg.cons_cells
                 + grid_wire / (net.bandwidth / net.contention_factor(P))
                 ).max())
    )
    # Particles: contiguous policy, bulk buffers.
    t_parts = (
        jitter
        + net.collective_time("allgather", nprod, 8)
        + br.per_item_contiguous * parts_pp
        + net.memcpy_time(parts_pp * 12)
        + float((br.per_item_contiguous * lg.cons_cells
                 + (lg.cons_cells * 12)
                 / (net.bandwidth / net.contention_factor(P))
                 + (lg.cons_cells * 12) / net.memcpy_bandwidth
                 ).max())
    )
    return {"grid": t_grid, "particles": t_parts,
            "total": t_grid + t_parts}


# -- file-based transports ---------------------------------------------------------


def pure_hdf5_time(nprod: int, ncons: int,
                   wl: SyntheticWorkload | None = None,
                   machine: Machine = THETA_KNL) -> float:
    """Write + read through a shared HDF5 file, no LowFive (Fig. 6)."""
    wl = wl or SyntheticWorkload()
    lu = machine.lustre
    total_bytes = wl.total_bytes(nprod)
    t_write = (
        lu.open_time(nprod)
        + lu.metadata_op_time(8)
        + lu.write_time(total_bytes, nprod)
        + lu.close_time(nprod)
    )
    t_read = (
        lu.open_time(ncons)
        + lu.read_time(total_bytes, ncons)
        + lu.close_time(ncons)
    )
    return t_write + t_read


def lowfive_file_time(nprod: int, ncons: int,
                      wl: SyntheticWorkload | None = None,
                      machine: Machine = THETA_KNL) -> float:
    """LowFive file mode: pure HDF5 plus the VOL's overheads (Figs. 5-6).

    On top of the physical I/O, LowFive's close performs a second
    metadata epoch (object-metadata replay and readiness handshake
    against the MDS) plus the synchronization skew of coordinating with
    the consumers. Mirrors DistMetadataVOL.file_close.
    """
    wl = wl or SyntheticWorkload()
    net, c, lu = machine.net, machine.lf, machine.lustre
    overhead = (
        lu.open_time(nprod) + lu.close_time(nprod)
        + c.sync_factor * net.epoch_jitter(nprod + ncons)
        + 10 * c.per_h5_op
    )
    return pure_hdf5_time(nprod, ncons, wl, machine) + overhead
