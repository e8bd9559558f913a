"""Micro kernels: one public operation of one module, timed alone.

Each kernel is a factory that imports what it needs, builds fixed
inputs (the ``memory_redist`` seed-0 layout, rank 0) and returns
``op(n)``: perform ``n`` operations, return the host seconds they took.
:func:`measure` sizes ``n`` so a batch lasts about ``batch_s`` and
reports the median microseconds per operation over the batches. A
kernel whose target API is gone is reported as ``None`` with the reason
-- later refactors may delete what a kernel calls, and must not be able
to crash a benchmark they are not allowed to edit.

Kernels run in the calling thread; the four ``simmpi``/``rpc`` kernels
start the simulator's own rank threads.
"""

from __future__ import annotations

import statistics

import hostclock

BATCHES = 11

_NPROD, _NCONS, _ELEMS = 12, 4, 60_000
_MAILBOX_DEPTH = 2048
_SPAWN_RANKS = 256


def _loop(fn):
    def op(n):
        t0 = hostclock.wall()
        for _ in range(n):
            fn()
        return hostclock.wall() - t0
    return op


def _grid():
    from repro.synth import (
        consumer_grid_selection,
        grid_shape_for,
        producer_grid_selection,
    )

    shape = grid_shape_for(_ELEMS, _NPROD)
    return (shape, producer_grid_selection(shape, 0, _NPROD),
            consumer_grid_selection(shape, 0, _NCONS))


def _overlap():
    """What producer 0 serves to consumer 0."""
    _, psel, csel = _grid()
    return psel.intersect(csel)


# -- h5.selection ------------------------------------------------------------


def k_intersect():
    _, psel, csel = _grid()
    return _loop(lambda: psel.intersect(csel))


def k_coords():
    return _loop(_overlap().coords)


def k_bounds():
    return _loop(_overlap().bounds)


def k_extract():
    import numpy as np

    shape, _, csel = _grid()
    arr = np.arange(int(np.prod(shape)), dtype=np.uint64).reshape(shape)
    return _loop(lambda: csel.extract(arr))


def k_scatter():
    import numpy as np

    shape, _, csel = _grid()
    arr = np.zeros(shape, dtype=np.uint64)
    vals = np.arange(csel.npoints, dtype=np.uint64)
    return _loop(lambda: csel.scatter(vals, arr))


# -- h5.format ---------------------------------------------------------------


def _file_image() -> bytes:
    """The file ``file_passthru`` producer 0 would write, alone."""
    import repro.h5 as h5
    from repro.h5.native import NativeVOL
    from repro.pfs import PFSStore
    from repro.synth import (
        grid_values,
        particle_values,
        producer_particle_selection,
    )

    shape, gsel, _ = _grid()
    npart = _ELEMS * _NPROD
    psel = producer_particle_selection(npart, 0, _NPROD)
    store = PFSStore()
    f = h5.File("k.h5", "w", vol=NativeVOL(store))
    try:
        f.create_dataset("group1/grid", shape=shape,
                         dtype=h5.UINT64).write(
            grid_values(gsel, shape), file_select=gsel)
        f.create_dataset("group2/particles", shape=(npart, 3),
                         dtype=h5.FLOAT32).write(
            particle_values(psel), file_select=psel)
    finally:
        f.close()
    handle = store.open("k.h5")
    return handle.pread(0, handle.size)


def k_encode():
    from repro.h5.format import decode_file, encode_file

    root = decode_file(_file_image(), "k.h5")
    return _loop(lambda: encode_file(root))


def k_decode():
    from repro.h5.format import decode_file

    buf = _file_image()
    return _loop(lambda: decode_file(buf, "k.h5"))


def k_selection_codec():
    from repro.h5.format import (
        Reader,
        Writer,
        decode_selection,
        encode_selection,
    )

    inter = _overlap()

    def once():
        w = Writer()
        encode_selection(w, inter)
        decode_selection(Reader(w.getvalue()))

    return _loop(once)


# -- diy ---------------------------------------------------------------------


def k_blocks_intersecting():
    from repro.diy import Bounds, RegularDecomposer

    shape, psel, _ = _grid()
    dec = RegularDecomposer(shape, _NCONS)
    box = Bounds.from_selection(psel)
    return _loop(lambda: dec.blocks_intersecting(box))


# -- simmpi ------------------------------------------------------------------


def k_mailbox_match():
    """Push a backlog, then match it in reverse order: what is left of
    the old flood-to-rank-0 stress, without its threads."""
    from repro.simmpi import CommMailbox
    from repro.simmpi.message import Message

    msgs = [Message(comm_id=0, src=s, dst_world=0, tag=0, payload=None,
                    nbytes=0, arrival=float(s))
            for s in range(_MAILBOX_DEPTH)]
    consumed: set = set()

    def once():
        box = CommMailbox()
        for m in msgs:
            box.push(m)
        for s in range(_MAILBOX_DEPTH - 1, -1, -1):
            box.pop_match(s, 0, consumed)

    return _loop(once)


def k_pingpong():
    from repro.simmpi import run_world

    def main(comm, n):
        peer = 1 - comm.rank
        for i in range(n):
            if comm.rank == 0:
                comm.send(i, dest=peer, tag=0)
                comm.recv(source=peer, tag=1)
            else:
                comm.recv(source=peer, tag=0)
                comm.send(i, dest=peer, tag=1)

    def op(n):
        t0 = hostclock.wall()
        run_world(2, main, args=(n,))
        return hostclock.wall() - t0

    return op


def k_alltoall():
    from repro.simmpi import run_world

    def main(comm, n):
        out = list(range(comm.size))
        for _ in range(n):
            comm.alltoall(out)

    def op(n):
        t0 = hostclock.wall()
        run_world(16, main, args=(n,))
        return hostclock.wall() - t0

    return op


def k_spawn():
    from repro.simmpi import run_world

    def main(comm):
        return None

    return _loop(lambda: run_world(_SPAWN_RANKS, main))


# -- lowfive.rpc ---------------------------------------------------------------


def k_rpc_roundtrip():
    from repro.lowfive import RPCClient, RPCServer
    from repro.workflow import Workflow

    def op(n):
        def server(ctx):
            srv = RPCServer()
            srv.attach(ctx.intercomm("client"))
            srv.register("echo", lambda source, x: x)
            srv.serve()

        def client(ctx):
            cl = RPCClient(ctx.intercomm("server"))
            for i in range(n):
                cl.call(0, "echo", i)
            cl.notify_all("__done__")

        wf = Workflow()
        wf.add_task("server", 1, server)
        wf.add_task("client", 1, client)
        wf.add_link("server", "client")
        t0 = hostclock.wall()
        wf.run()
        return hostclock.wall() - t0

    return op


# -- pfs ---------------------------------------------------------------------


def k_lustre_cost():
    from repro.pfs import LustreModel

    lustre = LustreModel()

    def once():
        lustre.open_time(16)
        lustre.write_time(14_000_000, 12)
        lustre.read_time(3_500_000, 4)
        lustre.close_time(16)

    return _loop(once)


def k_mpiio_cost():
    from repro.pfs import LustreModel, TwoPhaseModel
    from repro.simmpi import NetworkModel

    model = TwoPhaseModel(NetworkModel(), LustreModel())
    return _loop(lambda: model.collective_write_time(14_000_000, 12))


def k_store_rw():
    from repro.pfs import PFSStore

    store = PFSStore()
    data = bytes(64 * 1024)

    def once():
        h = store.create("k.bin")
        h.pwrite(0, data)
        h.pread(0, len(data))

    return _loop(once)


# -- obs ---------------------------------------------------------------------


class _Comm:
    """The three things ``ObsContext.span`` asks of a communicator."""

    rank = 0
    vtime = 0.0

    @staticmethod
    def world_rank(local_rank):
        return local_rank


def k_obs_span():
    from repro.obs import ObsContext

    def op(n):
        obs = ObsContext()  # fresh, so the span list does not grow
        comm = _Comm()
        t0 = hostclock.wall()
        for _ in range(n):
            with obs.span(comm, "bench.kernel", cat="bench"):
                pass
        return hostclock.wall() - t0

    return op


def k_obs_counter():
    from repro.obs import ObsContext

    obs = ObsContext()
    return _loop(lambda: obs.metrics.inc("bench.kernel", 1, rank=0))


#: metric name -> (factory, unit[, operations per ``op`` step])
KERNELS = {
    "h5.selection.intersect_us": (k_intersect, "us"),
    "h5.selection.coords_us": (k_coords, "us"),
    "h5.selection.bounds_us": (k_bounds, "us"),
    "h5.selection.extract_us": (k_extract, "us"),
    "h5.selection.scatter_us": (k_scatter, "us"),
    "h5.format.encode_ms": (k_encode, "ms"),
    "h5.format.decode_ms": (k_decode, "ms"),
    "h5.format.selection_codec_us": (k_selection_codec, "us"),
    "diy.decomposer.blocks_intersecting_us": (k_blocks_intersecting, "us"),
    "simmpi.mailbox.match_us": (k_mailbox_match, "us", _MAILBOX_DEPTH),
    "simmpi.pingpong_us": (k_pingpong, "us"),
    "simmpi.alltoall_us": (k_alltoall, "us"),
    "simmpi.spawn_us": (k_spawn, "us", _SPAWN_RANKS),
    "lowfive.rpc.roundtrip_us": (k_rpc_roundtrip, "us"),
    "pfs.lustre.cost_eval_us": (k_lustre_cost, "us"),
    "pfs.mpiio.cost_eval_us": (k_mpiio_cost, "us"),
    "pfs.store.rw_us": (k_store_rw, "us"),
    "obs.span_us": (k_obs_span, "us"),
    "obs.counter_us": (k_obs_counter, "us"),
}

_SCALE = {"us": 1e6, "ms": 1e3}


def measure(name: str, batch_s: float) -> tuple[float | None, str]:
    """Median time per operation of kernel ``name`` in its unit, or
    ``(None, reason)`` when the kernel cannot run on this tree."""
    factory, unit, *per_step = KERNELS[name]
    scale = _SCALE[unit] / (per_step[0] if per_step else 1)
    try:
        op = factory()
        # Size the batch from a growing probe, so that slow and fast
        # kernels both get batches of about ``batch_s``.
        n, took = 1, op(1)
        while took < batch_s / 8 and n < 1 << 24:
            n *= 4
            took = op(n)
        n = max(1, round(n * batch_s / took))
        per_op = [op(n) / n for _ in range(BATCHES)]
    except Exception as exc:  # noqa: BLE001,ANL006 - a kernel must never crash the run
        return None, f"{type(exc).__name__}: {exc}"
    return statistics.median(per_op) * scale, ""


def run_all(batch_s: float) -> tuple[dict, dict]:
    """``({metric: value or None}, {metric: why it is None})``."""
    values, missing = {}, {}
    for name in KERNELS:
        values[name], why = measure(name, batch_s)
        if values[name] is None:
            missing[name] = why
    return values, missing
