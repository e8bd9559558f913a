"""Analytic model of the Nyx-Reeber use case (paper Table II).

Configuration from the paper: 4096 Nyx processes, 1024 Reeber
processes, grids 256^3 ... 2048^3, the first two time steps (two
snapshots) written and read, on Cori KNL. Three I/O paths:

- **Baseline HDF5**: all data to one shared HDF5 file, Reeber reads it
  back (DNF at 2048^3: "the I/O did not finish in 1.5 hours");
- **Plotfiles**: AMReX's multi-file binary format (write time only --
  the paper omits the unoptimized plotfile read);
- **LowFive**: in situ, with zero-copy disabled because the AMReX
  writer repacks ("up to three copies of the same data ... can exist in
  memory simultaneously").

The speed-up columns follow the paper's arithmetic: the ratio of write
times (the plotfile-read time is excluded so the reported gain is a
lower bound).
"""

from __future__ import annotations

from repro.perfmodel.transports import Machine, THETA_KNL, _rtt

#: The paper's 1.5-hour cutoff after which runs were abandoned.
DNF_SECONDS = 5400.0


def nyx_reeber_times(grid_size: int, nprod: int = 4096, ncons: int = 1024,
                     machine: Machine = THETA_KNL, snapshots: int = 2,
                     nfiles: int = 64) -> dict:
    """Model Table II's row for ``grid_size``^3.

    Returns a dict with lowfive/hdf5/plotfile write/read times in
    seconds (``None`` marks DNF entries) and the two speed-up factors.
    """
    net, c, lu = machine.net, machine.lf, machine.lustre
    P = nprod + ncons
    total_bytes = grid_size ** 3 * 8
    cells_pp = grid_size ** 3 / nprod   # per Nyx rank
    cells_pc = grid_size ** 3 / ncons   # per Reeber rank
    bytes_pp = cells_pp * 8
    bytes_pc = cells_pc * 8

    # -- LowFive (memory mode, zero-copy disabled: 3 in-memory copies) --
    lf_write = snapshots * (
        3 * net.memcpy_time(bytes_pp)          # repack + deep copy + pack
        + c.per_element_handle * cells_pp
        + 8 * c.per_h5_op
        + 0.5 * c.sync_factor * net.epoch_jitter(P)
        + net.collective_time("alltoall", nprod, 256)
    )
    lf_read = snapshots * (
        c.per_element_handle * cells_pc
        + bytes_pc / (net.bandwidth / net.contention_factor(P))
        + bytes_pc / net.memcpy_bandwidth
        + 8 * _rtt(net)
        + 0.5 * c.sync_factor * net.epoch_jitter(P)
    )

    # -- Baseline HDF5: one shared file ---------------------------------
    hdf5_write = snapshots * (
        lu.open_time(nprod)
        + lu.metadata_op_time(4)
        + lu.write_time(total_bytes, nprod)
        + lu.close_time(nprod)
    )
    hdf5_read = snapshots * (
        lu.open_time(ncons)
        + lu.read_time(total_bytes, ncons)
        + lu.close_time(ncons)
    )
    dnf = hdf5_write + hdf5_read > DNF_SECONDS

    # -- Plotfiles: nfiles binary files + header ------------------------
    writers_per_file = max(1, nprod // nfiles)
    plot_write = snapshots * (
        lu.write_time(total_bytes, writers_per_file)
        + lu.metadata_op_time(nfiles)
        + lu.open_time(writers_per_file)
        + lu.close_time(writers_per_file)
    )

    out = {
        "grid": grid_size,
        "lowfive_write": lf_write,
        "lowfive_read": lf_read,
        "hdf5_write": None if dnf else hdf5_write,
        "hdf5_read": None if dnf else hdf5_read,
        "plotfile_write": plot_write,
        # Paper's speed-up arithmetic: ratio of write times.
        "speedup_vs_hdf5": None if dnf else hdf5_write / lf_write,
        "speedup_vs_plotfiles": plot_write / lf_write,
    }
    return out

