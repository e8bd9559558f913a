"""Benchmark harness: executed drivers + table/series formatting.

:mod:`repro.bench.figures` states the paper's evaluation as one table
(see DESIGN.md's experiment index). Each table or figure combines:

- **modeled** points from :mod:`repro.perfmodel` at the paper's full
  scales (4 ... 16384 ranks, 1e6 elements/process), whose shapes
  tier-1 checks, and
- **executed** points from real simmpi runs (threads) at small scales
  with a reduced per-process workload, which validate the model and
  validate data correctness (position-encoded values);
  ``benchmarks/bench_paper.py`` runs them and writes ``results/``.
"""

from repro.bench.drivers import (
    ExecutedResult,
    run_bredala,
    run_dataspaces,
    run_lowfive_file,
    run_lowfive_memory,
    run_pure_hdf5,
    run_pure_mpi,
)
from repro.bench.plot import ascii_loglog
from repro.bench.tables import format_series_table, format_table, write_result

__all__ = [
    "ExecutedResult",
    "run_lowfive_memory",
    "run_lowfive_file",
    "run_pure_hdf5",
    "run_pure_mpi",
    "run_dataspaces",
    "run_bredala",
    "ascii_loglog",
    "format_table",
    "format_series_table",
    "write_result",
]
