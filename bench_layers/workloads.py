"""Inputs and rank bodies of the five ``bench_layers`` workloads.

Everything a repetition needs -- per-rank selections, value arrays,
expected consumer arrays, the halo ring -- is generated once in
:func:`build` from the seed; a repetition only moves and checks data.
Seed 0 is the paper layout (rank ``r`` owns block ``r``, identity
ring); any other seed shuffles the rank -> block assignment of the
producers (in ``stream_epochs`` of the consumers too), permutes the
halo ring and jitters the elements per producer by +-1 %.

The rank bodies use package-level exports only, so a refactor of the
internals cannot break a benchmark it is not allowed to edit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import hostclock

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import (
    DistMetadataVOL,
    StagedMetadataVOL,
    StreamConfig,
    staging_main,
)
from repro.perfmodel.transports import THETA_KNL
from repro.pfs import PFSStore
from repro.simmpi import run_world
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    consumer_particle_selection,
    grid_shape_for,
    grid_values,
    particle_values,
    producer_grid_selection,
    producer_particle_selection,
)
from repro.workflow import Workflow

PAYLOAD = ("memory_redist", "file_passthru", "staged_intransit")
NAMES = PAYLOAD + ("stream_epochs", "halo_lockstep")

FNAME = "out.h5"
STREAM_SHAPE = (24, 16)
#: A repetition slower than this (host seconds) counts as failed.
WALL_TIMEOUT = 120.0


@dataclass(frozen=True)
class Sizes:
    """Workload dimensions; chosen for a 2-core box (see README)."""

    payload_procs: int = 16
    elems: int = 60_000
    nstage: int = 2
    stream_procs: int = 8  # producers and consumers each
    stream_epochs: int = 20
    halo_ranks: int = 64
    halo_iters: int = 100


FULL = Sizes()
#: ``--selftest`` sizes: every code path, a few hundred milliseconds.
TINY = Sizes(payload_procs=8, elems=1_500, nstage=2, stream_procs=2,
             stream_epochs=4, halo_ranks=8, halo_iters=10)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Rep:
    """What one repetition returned."""

    ok: bool
    vtime: float
    messages: int
    bytes_sent: int
    #: Rank-body host timings: task-wise maxima, plus epoch gaps.
    body: dict


@dataclass
class Workload:
    name: str
    #: Stated input size, recorded in the output document.
    inputs: dict
    #: Validated elements (halo: messages) a repetition delivers.
    elements: int
    run: object  # () -> Rep
    #: CPUs the process confines itself to (``None``: all it may use).
    #: The two control-plane workloads are bound by the interpreter
    #: lock, so a second core adds nothing but cross-core hand-offs of
    #: that lock; how costly those are depends on where the hypervisor
    #: puts the two vCPUs, which made their wall time bimodal (halo:
    #: 1.1 s or 1.7 s for minutes on end; 0.63 s +-3 % on one CPU).
    #: The payload workloads keep both cores: numpy runs outside the
    #: lock there (file mode: 0.97 s on two CPUs, 1.40 s on one).
    cpus: int | None = None


def _perm(rng: random.Random, n: int, seed: int) -> list[int]:
    p = list(range(n))
    if seed:
        rng.shuffle(p)
    return p


def _max_over(returns, key: str) -> float:
    return max(r[key] for r in returns)


# -- memory / file / staged: the paper's Fig. 5 synthetic data ------------


def _payload(name: str, seed: int, sz: Sizes, corrupt: bool) -> Workload:
    rng = random.Random(seed)
    nprod, ncons = SyntheticWorkload.split_procs(sz.payload_procs)
    elems = sz.elems
    if seed:
        elems = round(elems * (1.0 + rng.uniform(-0.01, 0.01)))
    shape = grid_shape_for(elems, nprod)
    npart = elems * nprod
    pblock = _perm(rng, nprod, seed)
    # Consumers keep their blocks here: which consumer rank reads which
    # block moves memory_redist's host time by up to 45 % on its own,
    # more than any bound, while the producer side is cost-neutral.
    cblock = list(range(ncons))

    prod_in = []
    for b in pblock:
        gsel = producer_grid_selection(shape, b, nprod)
        psel = producer_particle_selection(npart, b, nprod)
        prod_in.append((gsel, grid_values(gsel, shape),
                        psel, particle_values(psel)))
    cons_in = []
    for b in cblock:
        gsel = consumer_grid_selection(shape, b, ncons)
        psel = consumer_particle_selection(npart, b, ncons)
        cons_in.append((gsel, grid_values(gsel, shape),
                        psel, particle_values(psel)))
    if corrupt:
        cons_in[0][1][0] += 1
    elements = sum(g.size + p.size for _, g, _, p in cons_in)
    staged = name == "staged_intransit"
    machine = THETA_KNL

    def make_vol(ctx, role):
        def factory():
            under = NativeVOL(store, machine.lustre)
            if staged:
                vol = StagedMetadataVOL(comm=ctx.comm, under=under,
                                        costs=machine.lf)
                vol.set_memory(FNAME)
                if role == "producer":
                    vol.stage_on_close(FNAME, ctx.intercomm("staging"))
                else:
                    vol.set_staged_consumer(FNAME,
                                            ctx.intercomm("staging"))
                return vol
            vol = DistMetadataVOL(comm=ctx.comm, under=under,
                                  costs=machine.lf)
            if name == "file_passthru":
                vol.set_passthru(FNAME)
            else:
                vol.set_memory(FNAME)
            peer = "consumer" if role == "producer" else "producer"
            if role == "producer":
                vol.serve_on_close(FNAME, ctx.intercomm(peer))
            else:
                vol.set_consumer(FNAME, ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        gsel, gvals, psel, pvals = prod_in[ctx.rank]
        vol = make_vol(ctx, "producer")
        t0 = hostclock.wall()
        f = h5.File(FNAME, "w", comm=ctx.comm, vol=vol)
        grid = f.create_dataset("group1/grid", shape=shape,
                                dtype=h5.UINT64)
        grid.write(gvals, file_select=gsel)
        parts = f.create_dataset("group2/particles", shape=(npart, 3),
                                 dtype=h5.FLOAT32)
        parts.write(pvals, file_select=psel)
        t1 = hostclock.wall()
        f.close()
        t2 = hostclock.wall()
        if staged:
            StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))
        return {"write_s": t1 - t0, "close_s": t2 - t1}

    def consumer(ctx):
        gsel, gexp, psel, pexp = cons_in[ctx.rank]
        vol = make_vol(ctx, "consumer")
        t0 = hostclock.wall()
        f = h5.File(FNAME, "r", comm=ctx.comm, vol=vol)
        t1 = hostclock.wall()
        gv = f["group1/grid"].read(gsel, reshape=False)
        pv = f["group2/particles"].read(psel, reshape=False)
        t2 = hostclock.wall()
        f.close()
        if staged:
            StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))
        ok = (np.array_equal(np.asarray(gv).reshape(-1), gexp)
              and np.array_equal(np.asarray(pv).reshape(-1), pexp))
        return {"ok": ok, "open_s": t1 - t0, "read_s": t2 - t1}

    def staging(ctx):
        return staging_main([ctx.intercomm("producer"),
                             ctx.intercomm("consumer")],
                            costs=machine.lf)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    if staged:
        wf.add_task("staging", sz.nstage, staging)
    wf.add_task("consumer", ncons, consumer)
    if staged:
        wf.add_link("producer", "staging")
        wf.add_link("consumer", "staging")
    else:
        wf.add_link("producer", "consumer")

    store = None

    def run() -> Rep:
        nonlocal store
        store = PFSStore()  # a fresh file system per repetition
        res = wf.run(model=machine.net, timeout=WALL_TIMEOUT)
        prods, conss = res.returns["producer"], res.returns["consumer"]
        body = {
            "h5.write_s": _max_over(prods, "write_s"),
            "lowfive.close_s": _max_over(prods, "close_s"),
            "lowfive.open_s": _max_over(conss, "open_s"),
            "lowfive.read_s": _max_over(conss, "read_s"),
        }
        return Rep(all(c["ok"] for c in conss), res.vtime, res.messages,
                   res.bytes_sent, body)

    inputs = {"producers": nprod, "consumers": ncons,
              "elems_per_producer": elems, "grid_shape": list(shape),
              "particles": npart, "validated_elements": elements}
    if staged:
        inputs["staging_ranks"] = sz.nstage
    return Workload(name, inputs, elements, run)


# -- stream: many small control messages -----------------------------------


def _stream(seed: int, sz: Sizes, corrupt: bool) -> Workload:
    rng = random.Random(seed)
    n, nepochs, shape = sz.stream_procs, sz.stream_epochs, STREAM_SHAPE
    pblock = _perm(rng, n, seed)
    cblock = _perm(rng, n, seed)
    prod_in = []
    for b in pblock:
        sel = producer_grid_selection(shape, b, n)
        prod_in.append((sel, grid_values(sel, shape)))
    cons_in = []
    for b in cblock:
        sel = consumer_grid_selection(shape, b, n)
        cons_in.append((sel, grid_values(sel, shape)))
    if corrupt:
        cons_in[0][1][0] += 1
    elements = nepochs * sum(v.size for _, v in cons_in)

    def make_vol(ctx):
        return ctx.singleton("vol", lambda: DistMetadataVOL(
            comm=ctx.comm, under=NativeVOL(PFSStore())))

    def producer(ctx):
        sel, vals = prod_in[ctx.rank]
        vol = make_vol(ctx)
        cfg = StreamConfig(max_lag=2)
        with ctx.stream_producer("consumer", "sim", vol, cfg) as prod:
            for step in range(nepochs):
                with prod.epoch() as f:
                    d = f.create_dataset("grid", shape=shape,
                                         dtype=h5.UINT64)
                    d.write(vals + np.uint64(1000 * step),
                            file_select=sel)
        return True

    def consumer(ctx):
        sel, exp = cons_in[ctx.rank]
        vol = make_vol(ctx)
        ok = True
        stamps = [hostclock.wall()]
        with ctx.stream_consumer("producer", "sim", vol) as cons:
            for step, ep in enumerate(cons.epochs()):
                with ep:
                    vals = np.asarray(ep.file["grid"].read(
                        sel, reshape=False))
                    ok = ok and np.array_equal(
                        vals.reshape(-1), exp + np.uint64(1000 * step))
                stamps.append(hostclock.wall())
        ok = ok and len(stamps) == nepochs + 1
        return {"ok": ok, "gaps": np.diff(stamps).tolist()}

    wf = Workflow()
    wf.add_task("producer", n, producer)
    wf.add_task("consumer", n, consumer)
    wf.add_link("producer", "consumer")

    def run() -> Rep:
        res = wf.run(timeout=WALL_TIMEOUT)
        conss = res.returns["consumer"]
        gaps = [g for c in conss for g in c["gaps"]]
        return Rep(all(c["ok"] for c in conss), res.vtime, res.messages,
                   res.bytes_sent, {"stream.epoch_gaps_s": gaps})

    inputs = {"producers": n, "consumers": n, "epochs": nepochs,
              "grid_shape": list(shape), "max_lag": 2,
              "validated_elements": elements}
    return Workload("stream_epochs", inputs, elements, run, cpus=1)


# -- halo: simmpi alone ------------------------------------------------------


def _halo(seed: int, sz: Sizes, corrupt: bool) -> Workload:
    rng = random.Random(seed)
    n, iters = sz.halo_ranks, sz.halo_iters
    ring = _perm(rng, n, seed)
    nbrs = [None] * n
    for pos, r in enumerate(ring):
        nbrs[r] = (ring[pos - 1], ring[(pos + 1) % n])
    # What rank r must receive: its neighbours' ranks, per iteration.
    expect = [list(pair) for pair in nbrs]
    if corrupt:
        expect[0][0] += 1
    allsum = n * (n - 1) // 2

    def main(comm):
        me = comm.rank
        left, right = nbrs[me]
        exp_left, exp_right = expect[me]
        ok = True
        for it in range(iters):
            reqs = [comm.isend((me, it), dest=left, tag=0),
                    comm.isend((me, it), dest=right, tag=1)]
            from_right, _ = comm.recv(source=right, tag=0)
            from_left, _ = comm.recv(source=left, tag=1)
            ok = (ok and from_right == (exp_right, it)
                  and from_left == (exp_left, it))
            for r in reqs:
                r.wait()
            if it % 10 == 9:
                total = comm.allreduce(me)
                ok = ok and total == allsum
        return ok

    def run() -> Rep:
        res = run_world(n, main, timeout=WALL_TIMEOUT)
        return Rep(all(res.returns), res.vtime, res.messages,
                   res.bytes_sent, {})

    elements = n * 2 * iters
    inputs = {"ranks": n, "iterations": iters,
              "allreduce_every": 10, "validated_messages": elements}
    return Workload("halo_lockstep", inputs, elements, run, cpus=1)


def build(name: str, seed: int, sizes: Sizes = FULL,
          corrupt: bool = False) -> Workload:
    """Generate workload ``name``'s inputs from ``seed``.

    ``corrupt`` (the self-test's negative control) alters one expected
    value of consumer rank 0, so validation must fail.
    """
    if name in PAYLOAD:
        return _payload(name, seed, sizes, corrupt)
    if name == "stream_epochs":
        return _stream(seed, sizes, corrupt)
    if name == "halo_lockstep":
        return _halo(seed, sizes, corrupt)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
