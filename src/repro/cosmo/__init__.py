"""Nyx/Reeber-like cosmology use case (paper Sec. IV-C, Table II).

- :mod:`repro.cosmo.amr` -- an AMReX-like block-structured substrate
  (boxes, box arrays, distribution mappings, multifabs);
- :mod:`repro.cosmo.nyx` -- a particle-mesh cosmology proxy producing
  baryon-density snapshots through the h5 API, including the AMReX
  writer's *repack* behaviour that defeats LowFive's zero-copy;
- :mod:`repro.cosmo.reeber` -- a Reeber-like distributed halo finder
  (connected components above a density threshold, merged across ranks
  with a union-find where Reeber uses merge trees);
- :mod:`repro.cosmo.plotfile` -- an AMReX plotfile-style multi-file
  binary snapshot format, the second I/O baseline of Table II.
"""

from repro.cosmo.amr import Box, BoxArray, DistributionMapping, MultiFab
from repro.cosmo.nyx import NyxProxy, write_snapshot_h5
from repro.cosmo.reeber import Halo, find_halos_distributed, find_halos_serial
from repro.cosmo.plotfile import write_plotfile, read_plotfile_header

__all__ = [
    "Box",
    "BoxArray",
    "DistributionMapping",
    "MultiFab",
    "NyxProxy",
    "write_snapshot_h5",
    "Halo",
    "find_halos_distributed",
    "find_halos_serial",
    "write_plotfile",
    "read_plotfile_header",
]
