"""Executed (simmpi) drivers for the paper's synthetic benchmark.

Every driver couples one producer task with one consumer task (paper
Sec. IV-B), generates the grid + particles workload with
position-encoded values, transports it with one of the evaluated
mechanisms, validates the redistribution, and returns the simulated
completion time. The multi-epoch streaming pipeline and the
message-matching stress body live here too: every workload the
reference runs (:mod:`repro.bench.registry`) execute is built once.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import repro.h5 as h5
from repro.baselines import (
    Container,
    DataSpaces,
    Field,
    REDIST_BBOX,
    REDIST_CONTIGUOUS,
    dataspaces_server_main,
    pure_mpi_consumer,
    pure_mpi_producer,
    redistribute_consumer,
    redistribute_producer,
)
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL, StreamConfig
from repro.lowfive.config import CostConfig
from repro.pfs import PFSStore
from repro.perfmodel.transports import Machine, THETA_KNL
from repro.stream import epoch_fname, stream_pattern
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    consumer_particle_selection,
    grid_values,
    particle_values,
    producer_grid_selection,
    producer_particle_selection,
    validate_grid,
    validate_particles,
)
from repro.workflow import Workflow


@dataclass
class ExecutedResult:
    """One executed benchmark point.

    ``metrics`` is the run's plain-dict obs metrics dump (the counters
    of every instrumented layer); ``None`` only for hand-built results. ``attribution`` is the causal summary
    (:meth:`repro.obs.critpath.CausalReport.summary`): critical-path
    category/phase shares, wait-state totals, conservation status.
    """

    nprod: int
    ncons: int
    vtime: float
    validated: bool
    messages: int
    bytes_sent: int
    metrics: dict | None = None
    attribution: dict | None = None


def _check(returns) -> bool:
    return all(bool(r) for r in returns)


def _run(wf: Workflow, machine: Machine, consumer_name: str = "consumer",
         timeout: float = 120.0) -> tuple:
    res = wf.run(model=machine.net, timeout=timeout)
    return res, _check(res.returns[consumer_name])


def _finish(nprod, ncons, res, ok) -> ExecutedResult:
    if not ok:
        raise AssertionError("consumer-side validation failed")
    metrics = res.obs.metrics.to_dict() if res.obs is not None else None
    attribution = None
    if res.obs is not None and res.clocks:
        attribution = res.causal_report().summary()
    return ExecutedResult(nprod, ncons, res.vtime, ok,
                          res.messages, res.bytes_sent, metrics,
                          attribution)


# -- LowFive ----------------------------------------------------------------


def lowfive_workflow(nprod: int, ncons: int, wl: SyntheticWorkload,
                     machine: Machine, mode: str, store: PFSStore):
    """The Fig. 5 producer/consumer job through LowFive in ``mode``
    (memory, file or both); every consumer returns its validation."""
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)

    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(
                comm=ctx.comm, under=NativeVOL(store, machine.lustre),
                costs=machine.lf,
            )
            if mode in ("memory", "both"):
                vol.set_memory("out.h5")
            if mode in ("file", "both"):
                vol.set_passthru("out.h5")
            if role == "producer":
                vol.serve_on_close("out.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("out.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
        grid = f.create_dataset("group1/grid", shape=shape, dtype=h5.UINT64)
        gsel = producer_grid_selection(shape, ctx.rank, ctx.size)
        grid.write(grid_values(gsel, shape), file_select=gsel)
        parts = f.create_dataset("group2/particles", shape=(npart, 3),
                                 dtype=h5.FLOAT32)
        psel = producer_particle_selection(npart, ctx.rank, ctx.size)
        parts.write(particle_values(psel), file_select=psel)
        f.close()
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
        gsel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        gv = f["group1/grid"].read(gsel, reshape=False)
        psel = consumer_particle_selection(npart, ctx.rank, ctx.size)
        pv = f["group2/particles"].read(psel, reshape=False)
        f.close()
        return (validate_grid(gsel, shape, gv)
                and validate_particles(psel, pv))

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf


def run_lowfive_memory(nprod: int, ncons: int,
                       wl: SyntheticWorkload | None = None,
                       machine: Machine = THETA_KNL) -> ExecutedResult:
    """LowFive memory mode (in situ over MPI)."""
    wl = wl or SyntheticWorkload()
    wf = lowfive_workflow(nprod, ncons, wl, machine, "memory", PFSStore())
    res, ok = _run(wf, machine)
    return _finish(nprod, ncons, res, ok)


def run_lowfive_file(nprod: int, ncons: int,
                     wl: SyntheticWorkload | None = None,
                     machine: Machine = THETA_KNL) -> ExecutedResult:
    """LowFive file mode (transport via the parallel file system)."""
    wl = wl or SyntheticWorkload()
    wf = lowfive_workflow(nprod, ncons, wl, machine, "file", PFSStore())
    res, ok = _run(wf, machine, timeout=240.0)
    return _finish(nprod, ncons, res, ok)


# -- pure HDF5 (no LowFive) ------------------------------------------------------


def run_pure_hdf5(nprod: int, ncons: int,
                  wl: SyntheticWorkload | None = None,
                  machine: Machine = THETA_KNL) -> ExecutedResult:
    """Producer writes an HDF5 file, consumer reads it, no VOL plugin.

    The consumer polls the store for the finished file (the paper runs
    them as separate jobs; in situ ordering is not available here).
    """
    wl = wl or SyntheticWorkload()
    store = PFSStore()
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)

    def producer(ctx):
        vol = ctx.singleton("vol", lambda: NativeVOL(store, machine.lustre))
        f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
        grid = f.create_dataset("group1/grid", shape=shape, dtype=h5.UINT64)
        gsel = producer_grid_selection(shape, ctx.rank, ctx.size)
        grid.write(grid_values(gsel, shape), file_select=gsel)
        parts = f.create_dataset("group2/particles", shape=(npart, 3),
                                 dtype=h5.FLOAT32)
        psel = producer_particle_selection(npart, ctx.rank, ctx.size)
        parts.write(particle_values(psel), file_select=psel)
        f.close()
        ctx.intercomm("consumer").send(b"done", dest=0) \
            if ctx.rank == 0 else None
        return True

    def consumer(ctx):
        if ctx.rank == 0:
            ctx.intercomm("producer").recv()  # wait for the file
        ctx.comm.barrier()
        vol = ctx.singleton("vol", lambda: NativeVOL(store, machine.lustre))
        f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
        gsel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        gv = f["group1/grid"].read(gsel, reshape=False)
        psel = consumer_particle_selection(npart, ctx.rank, ctx.size)
        pv = f["group2/particles"].read(psel, reshape=False)
        f.close()
        return (validate_grid(gsel, shape, gv)
                and validate_particles(psel, pv))

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    res, ok = _run(wf, machine, timeout=240.0)
    return _finish(nprod, ncons, res, ok)


# -- hand-written MPI ---------------------------------------------------------------


def pure_mpi_workflow(nprod: int, ncons: int, wl: SyntheticWorkload,
                      machine: Machine):
    """The Fig. 7 hand-written MPI exchange of the same data; every
    consumer returns its validation."""
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)

    def producer(ctx):
        inter = ctx.intercomm("consumer")
        gsel = producer_grid_selection(shape, ctx.rank, ctx.size)
        pure_mpi_producer(inter, gsel, grid_values(gsel, shape), [
            consumer_grid_selection(shape, r, ncons) for r in range(ncons)
        ], tag=901, epoch_start=True)
        psel = producer_particle_selection(npart, ctx.rank, ctx.size)
        pure_mpi_producer(inter, psel, particle_values(psel), [
            consumer_particle_selection(npart, r, ncons)
            for r in range(ncons)
        ], tag=902, epoch_start=False)
        return True

    def consumer(ctx):
        inter = ctx.intercomm("producer")
        gsel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        gv = pure_mpi_consumer(inter, gsel, np.uint64, tag=901,
                                   epoch_end=False)
        psel = consumer_particle_selection(npart, ctx.rank, ctx.size)
        pv = pure_mpi_consumer(inter, psel, np.float32, tag=902,
                                   epoch_end=True)
        return (validate_grid(gsel, shape, gv)
                and validate_particles(psel, pv))

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf


def run_pure_mpi(nprod: int, ncons: int,
                 wl: SyntheticWorkload | None = None,
                 machine: Machine = THETA_KNL) -> ExecutedResult:
    """The paper's hand-written MPI redistribution."""
    wl = wl or SyntheticWorkload()
    wf = pure_mpi_workflow(nprod, ncons, wl, machine)
    res, ok = _run(wf, machine)
    return _finish(nprod, ncons, res, ok)


# -- DataSpaces ------------------------------------------------------------------------


def run_dataspaces(nprod: int, ncons: int,
                   wl: SyntheticWorkload | None = None,
                   machine: Machine = THETA_KNL,
                   nservers: int = 2) -> ExecutedResult:
    """DataSpaces-like staging (requires ``nservers`` extra ranks)."""
    wl = wl or SyntheticWorkload()
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)
    ds = DataSpaces(nservers, machine.ds)

    def producer(ctx):
        inter = ctx.intercomm("server")
        gsel = producer_grid_selection(shape, ctx.rank, ctx.size)
        ds.put_local(inter, ctx.comm, "grid", 0, gsel,
                     grid_values(gsel, shape))
        psel = producer_particle_selection(npart, ctx.rank, ctx.size)
        ds.put_local(inter, ctx.comm, "particles", 0, psel,
                     particle_values(psel))
        ds.finalize(inter, ctx.comm)
        return True

    def consumer(ctx):
        inter = ctx.intercomm("server")
        gsel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        gv = ds.get(inter, ctx.comm, "grid", 0, gsel, np.uint64)
        psel = consumer_particle_selection(npart, ctx.rank, ctx.size)
        pv = ds.get(inter, ctx.comm, "particles", 0, psel, np.float32)
        ds.finalize(inter, ctx.comm)
        return (validate_grid(gsel, shape, gv)
                and validate_particles(psel, pv))

    def server(ctx):
        dataspaces_server_main(
            ds, [ctx.intercomm("producer"), ctx.intercomm("consumer")]
        )
        return True

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_task("server", nservers, server)
    wf.add_link("producer", "server")
    wf.add_link("consumer", "server")
    res, ok = _run(wf, machine)
    return _finish(nprod, ncons, res, ok)


# -- Bredala --------------------------------------------------------------------------------


def run_bredala(nprod: int, ncons: int,
                wl: SyntheticWorkload | None = None,
                machine: Machine = THETA_KNL) -> ExecutedResult:
    """Bredala-like transport: grid via bbox, particles contiguous."""
    wl = wl or SyntheticWorkload()
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)

    def producer(ctx):
        inter = ctx.intercomm("consumer")
        gsel = producer_grid_selection(shape, ctx.rank, ctx.size)
        coords = gsel.coords()
        gvals = grid_values(gsel, shape)
        psel = producer_particle_selection(npart, ctx.rank, ctx.size)
        # Particle items are rows (id, id+.25, id+.5): reshape flat vals.
        pvals = particle_values(psel).reshape(-1, 3)
        c = Container()
        c.append(Field("particles", REDIST_CONTIGUOUS, np.float32,
                       item_shape=(3,), data=pvals, global_count=npart))
        c.append(Field("grid", REDIST_BBOX, np.uint64, data=gvals,
                       coords=coords, domain=shape))
        redistribute_producer(inter, ctx.comm, c, machine.br)
        return True

    def consumer(ctx):
        inter = ctx.intercomm("producer")
        c = Container()
        c.append(Field("particles", REDIST_CONTIGUOUS, np.float32,
                       item_shape=(3,), global_count=npart))
        c.append(Field("grid", REDIST_BBOX, np.uint64, domain=shape))
        out = redistribute_consumer(inter, ctx.comm, c, machine.br)
        start, parts = out["particles"]
        ids = (np.arange(start, start + len(parts)) % (1 << 23)
               ).astype(np.float32)
        ok_parts = (
            np.array_equal(parts[:, 0], ids)
            and np.array_equal(parts[:, 1], ids + 0.25)
            and np.array_equal(parts[:, 2], ids + 0.5)
        )
        blk, grid = out["grid"]
        if grid.size:
            sel = blk.to_selection(shape)
            ok_grid = np.array_equal(
                grid.reshape(-1), grid_values(sel, shape)
            )
        else:
            ok_grid = True
        return ok_parts and ok_grid

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    res, ok = _run(wf, machine, timeout=240.0)
    return _finish(nprod, ncons, res, ok)


# -- streaming pipeline ------------------------------------------------------------


#: Global grid of one stream epoch.
STREAM_SHAPE = (24, 16)


def epoch_values(sel, shape, epoch):
    """Position-encoded grid values, shifted per epoch."""
    return grid_values(sel, shape) + np.uint64(1000 * epoch)


def stream_workflow(nprod: int, ncons: int, nsteps: int, *,
                    shape=STREAM_SHAPE, level: int = 0, max_lag: int = 2,
                    producer_compute: float = 0.0,
                    consumer_compute: float = 0.0, catch_up: bool = False,
                    direct: bool = False) -> Workflow:
    """A producer task streaming ``nsteps`` epochs of a ``shape`` grid
    to a consumer task (``repro.stream``) at wire-reduction ``level``.

    With ``direct`` the same epochs move as one plain ``serve_on_close``
    file each, without the streaming machinery: the baseline a level-0
    stream must match bit for bit. Each consumer rank returns
    ``(seen, digest)``: ``seen`` lists ``(epoch, values exact)`` per
    epoch read, ``digest`` covers every value read (:func:`stream_digest`
    combines them).
    """
    costs = CostConfig(reduction_level=level)
    pattern = stream_pattern("sim")

    def make_vol(ctx, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()),
                                  costs=costs)
            if direct:
                vol.set_memory(pattern)
                if peer == "consumer":
                    vol.serve_on_close(pattern, ctx.intercomm(peer))
                else:
                    vol.set_consumer(pattern, ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "consumer")
        sel = producer_grid_selection(shape, ctx.rank, ctx.size)
        stream = nullcontext() if direct else ctx.stream_producer(
            "consumer", "sim", vol, StreamConfig(max_lag=max_lag))
        with stream as prod:
            for step in range(nsteps):
                if producer_compute:
                    ctx.comm.compute(producer_compute)
                epoch = h5.File(epoch_fname("sim", step), "w", comm=ctx.comm,
                                vol=vol) if direct else prod.epoch()
                with epoch as f:
                    d = f.create_dataset("grid", shape=shape,
                                         dtype=h5.UINT64)
                    d.write(epoch_values(sel, shape, step), file_select=sel)
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "producer")
        sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        h = hashlib.blake2b(digest_size=16)
        seen = []

        def read(epoch, f):
            vals = np.asarray(f["grid"].read(sel, reshape=False))
            h.update(vals.tobytes())
            seen.append((epoch, np.array_equal(
                vals, epoch_values(sel, shape, epoch))))

        if direct:
            for step in range(nsteps):
                with h5.File(epoch_fname("sim", step), "r", comm=ctx.comm,
                             vol=vol) as f:
                    read(step, f)
            return seen, h.hexdigest()
        cfg = StreamConfig(max_lag=max_lag, catch_up=catch_up)
        with ctx.stream_consumer("producer", "sim", vol, cfg) as cons:
            for ep in cons.epochs():
                with ep:
                    read(ep.id, ep.file)
                if consumer_compute:
                    ctx.comm.compute(consumer_compute)
        return seen, h.hexdigest()

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf


def stream_digest(res) -> str:
    """One digest of every value a :func:`stream_workflow` run's
    consumers read, combined in rank order."""
    h = hashlib.blake2b(digest_size=16)
    for _, digest in res.returns["consumer"]:
        h.update(digest.encode())
    return h.hexdigest()


# -- message-matching stress -------------------------------------------------------------


def stress_matching(comm):
    """Reverse-order many-to-one: the mailbox-matching worst case.

    A rank body for :class:`~repro.simmpi.Engine`. Every rank sends
    ``flood`` messages per round to rank 0, which receives
    fully-qualified ``(source, tag)`` matches in *reverse* source order,
    so its mailbox backs up to ~``(size-1) * flood`` messages.
    """
    rounds, flood = 4, 8
    me, n = comm.rank, comm.size
    if me == 0:
        for r in range(rounds):
            for src in range(n - 1, 0, -1):
                for _ in range(flood):
                    comm.recv(source=src, tag=r)
    else:
        for r in range(rounds):
            for k in range(flood):
                comm.send((me, r, k), dest=0, tag=r)
    return comm.vtime
