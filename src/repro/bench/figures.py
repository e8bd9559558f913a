"""The paper's evaluation (Sec. IV) as one table, :data:`EXHIBITS`;
:func:`render` gives an entry's modeled section of its result file."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.bench.drivers import (
    run_bredala, run_dataspaces, run_lowfive_file, run_lowfive_memory,
    run_pure_hdf5, run_pure_mpi)
from repro.bench.plot import ascii_loglog
from repro.bench.tables import format_series_table, format_table
from repro.perfmodel import (
    CORI_HASWELL, THETA_KNL, bredala_times, dataspaces_time,
    lowfive_file_time, lowfive_memory_time, nyx_reeber_times, pure_hdf5_time,
    pure_mpi_time)
from repro.synth import SyntheticWorkload

#: The paper's weak-scaling process counts (Table I).
PAPER_SCALES = (4, 16, 64, 256, 1024, 4096, 16384)
TO_1K, TO_4K = PAPER_SCALES[:5], PAPER_SCALES[:6]
#: Scales small enough to execute with one thread per rank.
EXECUTED_SCALES = (4, 8, 16)
WL = SyntheticWorkload()  # the paper's 1e6 + 1e6 per producer process
WL10 = SyntheticWorkload(10**7, 10**7)  # Fig. 11's 10x data
#: Per-process elements of the reduced executed runs: enough that
#: per-element software costs dominate, as in the paper's 1e6 runs.
EXEC_ELEMS = 300_000
EXEC_WL = SyntheticWorkload(EXEC_ELEMS, EXEC_ELEMS)
#: Executed vs modeled vtime of LowFive memory and file mode.
AGREEMENT = 0.01
#: "At full scale, we used 4 additional compute nodes for the
#: DataSpaces server."
STAGING_RANKS = 4

MEM, FILE, MPI, DS, H5 = ("LowFive Memory Mode", "LowFive File Mode",
                          "Pure MPI", "DataSpaces", "Pure HDF5")
BR, GRID, PARTS = ("Bredala total (grid+particles)", "Bredala grid",
                   "Bredala particles")
REDUCED = "Executed validation (reduced workload, simmpi):"


@dataclass(frozen=True)
class Exhibit:
    """One table or figure, stated once: result file, title and scales;
    modeled series (label -> scale -> seconds, ``None`` where the paper
    has no point), evaluated uncached from :mod:`repro.perfmodel`; the
    paper's shapes as ``(claim, predicate)`` pairs; executed validation,
    small simmpi runs that check themselves and return their lines."""

    name: str      # result file under results/
    title: str     # a "Figure ..." title also gets a log-log plot
    scales: tuple
    series: dict   # label -> (scale -> value)
    shapes: tuple  # (claim, predicate over evaluate()'s dict)
    executed: Callable[[], list[str]] | None = None
    axis: str = "#procs"     # a table's first column ...
    row: str = "{}"          # ... and its cell format

    def evaluate(self) -> dict:
        """Every series at every scale: label -> scale -> value."""
        return {label: {s: fn(s) for s in self.scales}
                for label, fn in self.series.items()}


def render(ex: Exhibit, values: dict) -> str:
    """The modeled section of ``results/<ex.name>``: the table, then a
    figure's log-log plot (legend labels drop any parenthetical)."""
    cols = {label: [v[s] for s in ex.scales] for label, v in values.items()}
    if not ex.title.startswith("Figure"):
        rows = [[ex.row.format(s), *(c[i] for c in cols.values())]
                for i, s in enumerate(ex.scales)]
        return format_table([ex.axis, *cols], rows, title=ex.title)
    return (format_series_table(list(ex.scales), cols, title=ex.title)
            + "\n" + ascii_loglog(
                list(ex.scales),
                {label.split(" (")[0]: c for label, c in cols.items()},
                title=ex.title.split(":")[0] + " (reproduced, log-log)"))


def _model(fn, machine, wl=WL, upto=PAPER_SCALES[-1], **kw):
    """A modeled series at the paper's 3:1 split; ``None`` past ``upto``."""
    return lambda P: (fn(*wl.split_procs(P), wl, machine, **kw)
                      if P <= upto else None)


# -- executed validation -----------------------------------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def _agrees(vtime: float, model_s: float, what: str) -> None:
    _require(abs(vtime / model_s - 1) <= AGREEMENT,
             f"{what}: executed {vtime:.6f}s vs model {model_s:.6f}s")


def _attribution(res, label: str) -> str:
    """One run's critical-path shares, time split and dominant wait
    cause; its time must be conserved and its path telescope exactly."""
    a = res.attribution
    _require(a is not None and a["conservation_ok"]
             and abs(a["critpath_residual"]) <= 1e-9,
             f"{label}: time not conserved")
    cp = " ".join(f"{c}={s * 100:.1f}%" for c, s in sorted(
        a["critpath"].items(), key=lambda kv: -kv[1]) if s > 0.005)
    sh = "/".join(f"{k} {v * 100:.1f}%" for k, v in a["shares"].items())
    waits = a["wait_by_category"]
    wtop = max(waits, key=waits.get) if waits else "none"
    return (f"         {label} critpath[{cp}] shares[{sh}] "
            f"wait-dominant={wtop} conservation=ok")


def _fig5_executed():
    lines = [REDUCED]
    for P in EXECUTED_SCALES:
        n = EXEC_WL.split_procs(P)
        mem = run_lowfive_memory(*n, EXEC_WL)
        fil = run_lowfive_file(*n, EXEC_WL)
        model_mem = lowfive_memory_time(*n, EXEC_WL)
        _agrees(mem.vtime, model_mem, f"P={P} memory")
        _agrees(fil.vtime, lowfive_file_time(*n, EXEC_WL), f"P={P} file")
        _require(fil.vtime > mem.vtime, f"P={P}: file not slower")
        lines += [f"  P={P:3d}: executed memory {mem.vtime:8.3f}s (model "
                  f"{model_mem:8.3f}s), executed file {fil.vtime:8.3f}s",
                  _attribution(mem, "memory"), _attribution(fil, "file  ")]
        # File mode's path and waits are on the PFS; memory mode's path
        # is LowFive's index/serve machinery plus MPI, never the PFS.
        fcp, mcp = fil.attribution["critpath"], mem.attribution["critpath"]
        fw, mw = (r.attribution["wait_by_category"].get("pfs-contention", 0)
                  for r in (fil, mem))
        _require(fcp["pfs"] > 0.5 and fw > 0 and mcp["pfs"] < 0.05
                 and mw < 1e-9 and mcp["lowfive"] + mcp["simmpi"] > 0.5,
                 f"P={P}: critical paths misattributed")
    return lines


def _fig7_executed():
    # The full 1e6 workload: LowFive beats MPI where per-element
    # serialization dominates; smaller workloads sit at the crossover.
    lines = ["Executed validation (full 1e6/proc workload, simmpi):"]
    for P in (4, 8):
        n = WL.split_procs(P)
        lf, mpi = run_lowfive_memory(*n, WL), run_pure_mpi(*n, WL)
        _agrees(lf.vtime, lowfive_memory_time(*n, WL), f"P={P} memory")
        _require(lf.vtime < mpi.vtime, f"P={P}: MPI not slower")
        lines += [f"  P={P:3d}: executed LowFive {lf.vtime:8.3f}s, "
                  f"pure MPI {mpi.vtime:8.3f}s "
                  f"(LowFive {mpi.vtime / lf.vtime:4.2f}x faster)",
                  _attribution(lf, "lowfive"), _attribution(mpi, "mpi    ")]
        _require(mpi.attribution["critpath"]["lowfive"] < 0.01,
                 f"P={P}: pure MPI entered LowFive")
    return lines


def _versus(line, *runs, lowfive=run_lowfive_memory,
           model_fn=lowfive_memory_time, machine=THETA_KNL, slower=False,
           wl=EXEC_WL, scales=EXECUTED_SCALES, header=REDUCED):
    """Executed LowFive, checked against its model, then each baseline
    of ``runs``; LowFive must be ``slower`` than the first baseline, or
    faster. ``line`` prints the vtimes, LowFive's first."""
    lines = [header]
    for P in scales:
        n = wl.split_procs(P)
        t = [run(*n, wl, machine).vtime for run in (lowfive, *runs)]
        _agrees(t[0], model_fn(*n, wl, machine), f"P={P} LowFive")
        _require((t[0] > t[1]) == slower, f"P={P}: wrong winner")
        lines.append(f"  P={P:3d}: executed {line(*t)}")
    return lines


def _table2_executed():
    """The Nyx proxy -> LowFive -> Reeber halo finder at 16^3 on 4 + 2
    ranks; the in situ halo catalog must equal a serial reference. The
    write path of the plotfile column runs too."""
    import numpy as np

    import repro.h5 as h5
    from repro.cosmo import (NyxProxy, find_halos_distributed,
                             find_halos_serial, write_plotfile,
                             write_snapshot_h5)
    from repro.cosmo.nyx import DENSITY_PATH
    from repro.diy import Bounds, RegularDecomposer
    from repro.h5.native import NativeVOL
    from repro.lowfive import DistMetadataVOL
    from repro.pfs import PFSStore
    from repro.simmpi import run_world
    from repro.workflow import Workflow

    n, threshold = 16, 2.0
    dens = NyxProxy(n, None, seed=11, max_grid_size=8).advance()
    full = np.zeros((n, n, n))
    for bid in dens.local_box_ids:
        box = dens.boxarray[bid]
        full[tuple(map(slice, box.min, box.max))] = dens.fab(bid)
    expected = [h.round() for h in find_halos_serial(full, threshold)]

    def vol(ctx, peer, role):
        def make():
            v = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
            v.set_memory("plt.h5")
            getattr(v, role)("plt.h5", ctx.intercomm(peer))
            return v
        return ctx.singleton("vol", make)

    def nyx(ctx):
        v = vol(ctx, "reeber", "serve_on_close")
        density = NyxProxy(n, ctx.comm, seed=11, max_grid_size=8).advance()
        write_snapshot_h5("plt.h5", density, ctx.comm, v, step=0)

    def reeber(ctx):
        f = h5.File("plt.h5", "r", comm=ctx.comm,
                    vol=vol(ctx, "nyx", "set_consumer"))
        dset = f[DENSITY_PATH]
        dec = RegularDecomposer(dset.shape, ctx.size)
        b = dec.block_bounds(ctx.rank) if ctx.rank < dec.ngrid_blocks \
            else Bounds([0, 0, 0], [0, 0, 0])
        block = np.asarray(dset.read(b.to_selection(dset.shape)))
        f.close()
        return [h.round() for h in find_halos_distributed(
            ctx.comm, block, b, dset.shape, threshold)]

    wf = Workflow()
    wf.add_task("nyx", 4, nyx)
    wf.add_task("reeber", 2, reeber)
    wf.add_link("nyx", "reeber")
    res = wf.run(model=THETA_KNL.net)
    _require(all(h == expected for h in res.returns["reeber"]),
             "in situ halos differ from the serial reference")
    store = PFSStore()
    plt = run_world(4, lambda comm: write_plotfile(
        store, "plt00000", NyxProxy(16, comm, seed=4, max_grid_size=8)
        .advance(), comm, step=0, nfiles=2))
    _require(plt.vtime > 0 and any(
        f.startswith("plt00000/") for f in store.listdir()), "no plotfile")
    return [f"Executed validation: 16^3 proxy pipeline, 4 Nyx + 2 Reeber "
            f"ranks, {len(expected)} halos found in situ, matching the "
            f"serial reference (vtime {res.vtime:.3f}s)."]


# -- the table ---------------------------------------------------------------


def _nprod(P):
    return WL.split_procs(P)[0]


def _nyx(column):
    return lambda grid: nyx_reeber_times(grid)[column]


def _bredala(part):
    return _model(lambda *a: bredala_times(*a)[part], THETA_KNL)


EXHIBITS = (
    Exhibit(
        "table1_configuration.txt",
        "Table I: processes and data sizes, 1 producer + 1 consumer task "
        "(3:1 split, 1e6 grid points + 1e6 particles per producer process)",
        PAPER_SCALES,
        {"#Producer Procs.": _nprod,
         "#Consumer Procs.": lambda P: WL.split_procs(P)[1],
         "Total #Grid Points":
             lambda P: f"{WL.total_grid_points(_nprod(P)):.1e}",
         "Total #Particles": lambda P: f"{WL.total_particles(_nprod(P)):.1e}",
         "Total Data Size (GiB)":
             lambda P: round(WL.total_bytes(_nprod(P)) / 2**30, 2)},
        (("1024 procs: 768 + 256 ranks, 14.34 GiB (within 2 %)",
          lambda v: (v["#Producer Procs."][1024], v["#Consumer Procs."][1024])
          == (768, 256)
          and abs(v["Total Data Size (GiB)"][1024] / 14.34 - 1) < 0.02),),
        axis="Total #MPI Procs."),
    Exhibit(
        "fig5_file_vs_memory.txt",
        "Figure 5: weak scaling, LowFive file vs memory mode (modeled, "
        "Theta KNL; file mode terminated at 1K as in the paper)",
        PAPER_SCALES,
        {FILE: _model(lowfive_file_time, THETA_KNL, upto=1024),
         MEM: _model(lowfive_memory_time, THETA_KNL)},
        (("file slower than memory wherever it ran, >3x from 64 on",
          lambda v: all(v[FILE][P] > (3 if P >= 64 else 1) * v[MEM][P]
                        for P in TO_1K)),
         ("file mode orders of magnitude slower: >30x at 1K",
          lambda v: v[FILE][1024] > 30 * v[MEM][1024]),
         ("memory mode rises slowly: monotone, <4x from 4 to 16K",
          lambda v: all(v[MEM][a] < v[MEM][b] for a, b in
                        zip(PAPER_SCALES, PAPER_SCALES[1:]))
          and v[MEM][16384] < 4 * v[MEM][4]),
         ("memory mode just over 3 s at 16K: 1-10 s",
          lambda v: 1 < v[MEM][16384] < 10)),
        _fig5_executed),
    Exhibit(
        "fig6_filemode_vs_hdf5.txt",
        "Figure 6: weak scaling, LowFive file mode vs pure HDF5 (modeled, "
        "Theta KNL)",
        TO_1K,
        {FILE: _model(lowfive_file_time, THETA_KNL),
         H5: _model(pure_hdf5_time, THETA_KNL)},
        (("overhead over pure HDF5 at most ~2x: 1-2.5x everywhere",
          lambda v: all(1 < v[FILE][P] / v[H5][P] < 2.5 for P in TO_1K)),
         ("overhead within variance at 1K: below 64's, <1.2x",
          lambda v: v[FILE][1024] / v[H5][1024]
          < min(v[FILE][64] / v[H5][64], 1.2))),
        partial(_versus, lambda a, b: f"LowFive-file {a:8.3f}s, pure HDF5 "
                f"{b:8.3f}s, overhead {a / b:5.2f}x", run_pure_hdf5,
                lowfive=run_lowfive_file, model_fn=lowfive_file_time,
                slower=True)),
    Exhibit(
        "fig7_memory_vs_mpi.txt",
        "Figure 7: weak scaling, LowFive memory mode vs pure MPI (modeled, "
        "Theta KNL)",
        PAPER_SCALES,
        {MEM: _model(lowfive_memory_time, THETA_KNL),
         MPI: _model(pure_mpi_time, THETA_KNL)},
        (("LowFive 10-40% faster than MPI at 4, ahead at 16 and 64",
          lambda v: 1.10 < v[MPI][4] / v[MEM][4] < 1.45
          and all(v[MEM][P] < v[MPI][P] for P in (16, 64))),
         ("LowFive ~6% slower than MPI at 16K: 1-1.25x",
          lambda v: 1.0 < v[MEM][16384] / v[MPI][16384] < 1.25),
         ("16K gap small (paper 0.2 s): <0.6 s",
          lambda v: abs(v[MEM][16384] - v[MPI][16384]) < 0.6)),
        _fig7_executed),
    Exhibit(
        "fig8_memory_vs_dataspaces.txt",
        "Figure 8: weak scaling, LowFive memory mode vs DataSpaces "
        f"(modeled, Cori Haswell; DataSpaces uses {STAGING_RANKS} extra "
        "staging ranks)",
        TO_4K,
        {MEM: _model(lowfive_memory_time, CORI_HASWELL),
         DS: _model(dataspaces_time, CORI_HASWELL, nservers=STAGING_RANKS)},
        (("DataSpaces consistently faster",
          lambda v: all(v[DS][P] < v[MEM][P] for P in TO_4K)),
         ("difference at 4K is 0.5 s: 0.3-0.8 s",
          lambda v: 0.3 < v[MEM][4096] - v[DS][4096] < 0.8),
         ("curves roughly parallel: ratio varies <1.5x",
          lambda v: max(r := [v[MEM][P] / v[DS][P] for P in TO_4K])
          < 1.5 * min(r)),
         ("Haswell plot under 2 s", lambda v: v[MEM][4096] < 2.0),
         ("Haswell runs LowFive faster than KNL (16, 1K)",
          lambda v: all(v[MEM][P] < lowfive_memory_time(
              *WL.split_procs(P), WL, THETA_KNL) for P in (16, 1024)))),
        partial(_versus, lambda a, b: f"LowFive {a:8.3f}s, DataSpaces "
                f"{b:8.3f}s (+2 staging ranks)",
                partial(run_dataspaces, nservers=2), machine=CORI_HASWELL,
                slower=True)),
    Exhibit(
        "fig9_memory_vs_bredala.txt",
        "Figure 9: weak scaling, LowFive memory mode vs Bredala (modeled, "
        "Theta KNL)",
        TO_4K,
        {MEM: _model(lowfive_memory_time, THETA_KNL), BR: _bredala("total"),
         GRID: _bredala("grid"), PARTS: _bredala("particles")},
        (("LowFive much faster: ahead, >5x at 1K, >20x at 4K",
          lambda v: all(v[MEM][P] * {1024: 5, 4096: 20}.get(P, 1) < v[BR][P]
                        for P in TO_4K)),
         ("the bbox grid is the culprit: >20x particles at 4K",
          lambda v: v[GRID][4096] > 20 * v[PARTS][4096]),
         ("contiguous particles scale: <5x from 4 to 4K",
          lambda v: v[PARTS][4096] < 5 * v[PARTS][4]),
         ("the grid blows up, ~2 s to ~200 s: >20x from 4 to 4K",
          lambda v: v[GRID][4096] > 20 * v[GRID][4]),
         ("Bredala ~200 s at 4K: 50-500 s",
          lambda v: 50 < v[BR][4096] < 500)),
        partial(_versus, lambda a, b: f"LowFive {a:8.3f}s, Bredala {b:8.3f}s",
                run_bredala)),
    Exhibit(
        "fig11_large_data.txt",
        "Figure 11: weak scaling at 10x data (1e7+1e7 per producer proc, "
        "0.55 TiB at 4K), LowFive vs DataSpaces vs MPI (modeled, Cori "
        "Haswell)",
        TO_4K,
        {MEM: _model(lowfive_memory_time, CORI_HASWELL, WL10),
         DS: _model(dataspaces_time, CORI_HASWELL, WL10),
         "MPI": _model(pure_mpi_time, CORI_HASWELL, WL10)},
        (("0.55 TiB in total at 4K (within 0.06)",
          lambda v: abs(WL10.total_bytes(WL10.split_procs(4096)[0])
                        / 2**40 - 0.55) < 0.06),
         ("LowFive remains as fast as MPI: 0.85-1.15x everywhere",
          lambda v: all(0.85 < v[MEM][P] / v["MPI"][P] < 1.15
                        for P in TO_4K)),
         ("DataSpaces stays ahead everywhere",
          lambda v: all(v[DS][P] < v[MEM][P] for P in TO_4K)),
         ("LowFive ~20% slower than DataSpaces at 4K: 1.1-2x",
          lambda v: 1.1 < v[MEM][4096] / v[DS][4096] < 2.0)),
        partial(_versus, lambda a, b, c: f"LowFive {a:8.3f}s, DataSpaces "
                f"{b:8.3f}s, MPI {c:8.3f}s", run_dataspaces, run_pure_mpi,
                machine=CORI_HASWELL, slower=True, scales=(4, 8),
                wl=SyntheticWorkload(10 * EXEC_ELEMS, 10 * EXEC_ELEMS),
                header="Executed validation (reduced 10x workload, simmpi):")),
    Exhibit(
        "table2_nyx_reeber.txt",
        "Table II: Nyx-Reeber use case, modeled at 4096+1024 procs (Cori "
        "KNL), 2 snapshots; 'x' = did not finish in 1.5 h",
        (256, 512, 1024, 2048),
        {label: _nyx(column) for label, column in (
            ("LowFive Write", "lowfive_write"),
            ("LowFive Read", "lowfive_read"), ("HDF5 Write", "hdf5_write"),
            ("HDF5 Read", "hdf5_read"), ("Plotfiles Write", "plotfile_write"),
            ("LowFive vs HDF5", "speedup_vs_hdf5"),
            ("LowFive vs Plotfiles", "speedup_vs_plotfiles"))},
        (("HDF5 does not finish in 1.5 h at 2048^3 only",
          lambda v: v["HDF5 Write"][2048] is None
          and v["HDF5 Write"][1024] is not None),
         ("speed-up over HDF5 grows with grid, >100x at 1024^3",
          lambda v: (s := v["LowFive vs HDF5"])[256] < s[512] < s[1024]
          and s[1024] > 100),
         ("plotfiles between LowFive and HDF5 (512^3, 1024^3)",
          lambda v: all(v["LowFive Write"][g] < v["Plotfiles Write"][g]
                        < v["HDF5 Write"][g] for g in (512, 1024))),
         ("LowFive >10x faster than plotfiles at 2048^3",
          lambda v: v["LowFive vs Plotfiles"][2048] > 10),
         ("LowFive write stays flat: <4x from 256^3 to 2048^3",
          lambda v: v["LowFive Write"][2048] < 4 * v["LowFive Write"][256]),
         ("HDF5 reads <0.1x its writes at 512^3 and 1024^3",
          lambda v: all(v["HDF5 Read"][g] < 0.1 * v["HDF5 Write"][g]
                        for g in (512, 1024)))),
        _table2_executed, axis="Data Size", row="{}^3"),
)
