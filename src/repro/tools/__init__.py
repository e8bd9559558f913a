"""Command-line style utilities for the native file format and PFS.

- :func:`h5ls` / :func:`h5dump` -- inspect files in the native binary
  format (like the HDF5 tools of the same names);
- :func:`export_store` / :func:`import_store` -- move a simulated PFS's
  contents to and from a real directory on disk, so simulated runs can
  leave artifacts that other tooling can read back;
- :func:`render_timeline` / :func:`communication_matrix` -- ASCII views
  of a run's causal record;
- :func:`run_workload` -- run the workload :func:`workload_args`
  selects, as the run-and-inspect subcommands do.

Also usable as a module: ``python -m repro.tools h5dump <dir> <file>``,
``python -m repro.tools trace <out.json>``, ... (``--help`` lists all).
"""

from repro.tools.inspect import h5dump, h5ls
from repro.tools.timeline import (
    communication_matrix,
    render_matrix,
    render_timeline,
)
from repro.tools.transfer import export_store, import_store
from repro.tools.workload import run_workload, workload_args

__all__ = [
    "h5ls",
    "h5dump",
    "export_store",
    "import_store",
    "render_timeline",
    "communication_matrix",
    "render_matrix",
    "run_workload",
    "workload_args",
]
