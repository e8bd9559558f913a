"""The workload every run-and-inspect subcommand shares.

``trace``, ``critpath``, ``analyze`` and ``report`` all run one
workflow and then look at its :class:`~repro.obs.ObsContext`: the
paper's Fig. 5 LowFive producer/consumer job (the default), the Fig. 7
hand-written MPI exchange, or any python file exposing
``build_workflow()``, always on the Theta machine model.
"""

from __future__ import annotations

import argparse
import importlib.util

from repro.perfmodel.transports import THETA_KNL
from repro.pfs import PFSStore
from repro.synth import SyntheticWorkload

#: Workloads built in; anything else names an example file.
BUILTIN = ("fig5", "fig7")


def add_workload_args(p) -> None:
    """The workload-selection arguments of a run-and-inspect parser."""
    p.add_argument("--example", default="fig5",
                   help="fig5 (LowFive), fig7 (pure MPI), or a python "
                        "file exposing build_workflow() (default fig5)")
    p.add_argument("--mode", choices=["memory", "file", "both"],
                   default="memory",
                   help="LowFive transport mode of fig5")
    p.add_argument("--nprod", type=int, default=4,
                   help="producer ranks (default 4)")
    p.add_argument("--ncons", type=int, default=2,
                   help="consumer ranks (default 2)")
    p.add_argument("--grid-points", type=int, default=4096,
                   help="grid points per producer rank")
    p.add_argument("--particles", type=int, default=2048,
                   help="particles per producer rank")
    p.add_argument("--timeout", type=float, default=240.0,
                   help="real-time bound on the whole run (default 240 s)")


def load_example(path: str):
    """Import ``path`` as a module and return its ``build_workflow()``."""
    spec = importlib.util.spec_from_file_location("_tools_example", path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot import example {path!r}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    build = getattr(mod, "build_workflow", None)
    if build is None:
        raise SystemExit(
            f"example {path!r} defines no build_workflow() function"
        )
    return build()


def build_workflow(args):
    """The :class:`~repro.workflow.Workflow` the arguments select."""
    if args.example not in BUILTIN:
        return load_example(args.example)
    from repro.bench.drivers import lowfive_workflow, pure_mpi_workflow

    wl = SyntheticWorkload(grid_points_per_proc=args.grid_points,
                           particles_per_proc=args.particles)
    if args.example == "fig7":
        return pure_mpi_workflow(args.nprod, args.ncons, wl, THETA_KNL)
    return lowfive_workflow(args.nprod, args.ncons, wl, THETA_KNL,
                            args.mode, PFSStore())


def workload_args(**overrides) -> argparse.Namespace:
    """What :func:`add_workload_args` parses from an empty command
    line, with ``overrides`` applied (for library callers)."""
    p = argparse.ArgumentParser()
    add_workload_args(p)
    return p.parse_args([], argparse.Namespace(**overrides))


def run_workload(args, faults=None):
    """Build (see :func:`build_workflow`) and run the workload; returns
    its :class:`~repro.workflow.runner.WorkflowResult`. The built-in
    jobs validate every consumer's data."""
    res = build_workflow(args).run(model=THETA_KNL.net,
                                   timeout=args.timeout, faults=faults)
    if args.example in BUILTIN and not all(res.returns["consumer"]):
        raise AssertionError("consumer-side validation failed")
    return res
