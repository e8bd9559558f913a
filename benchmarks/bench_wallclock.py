#!/usr/bin/env python
"""Wall-clock performance harness for the simulator core.

``python benchmarks/bench_wallclock.py --output BENCH_wallclock.json``
times, in *real* seconds, the fig5 executed drivers (LowFive memory and
file mode), the fig7 pure-MPI baseline, and a high-rank message-matching
stress workload (default 256 simulated ranks doing reverse-order
many-to-one receives -- the worst case for mailbox matching and wakeup
delivery). Virtual-time results (``vtime``, ``messages``,
``bytes_sent``) are recorded alongside so perf PRs can prove the cost
model is untouched: none of these fields may drift.

With ``--check-ref`` the run is compared against a committed reference
(``benchmarks/BENCH_wallclock_ref.json``) via the shared
:mod:`repro.obs.ledger` comparator: any virtual-time drift exits
nonzero, and wall-clock speedups vs the reference's recorded seed
timings are written into the output document. Wall seconds are
machine-dependent, so speedups are informational; the drift check is
the hard gate.

The suite also measures telemetry self-accounting where telemetry
costs something: the matching stress body (thousands of messages, no
payload work) is timed again under a
:class:`~repro.obs.noop.NullObsContext`, recording the wall-clock
overhead fraction (the virtual results must be identical -- telemetry
never changes simulation semantics). ``--obs-budget FRAC`` turns the
overhead into a hard gate. ``--ledger PATH`` appends every run as a
:class:`~repro.obs.ledger.RunRecord` to a JSONL run ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Bump when the document layout changes incompatibly.
SCHEMA_VERSION = 1

#: Virtual fields that must be bit-identical across perf-only changes.
VIRTUAL_FIELDS = ("vtime", "messages", "bytes_sent")

DEFAULT_REF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_wallclock_ref.json")


def stress_matching(comm, rounds: int = 4, flood: int = 8):
    """Reverse-order many-to-one: the mailbox-matching worst case.

    Every rank floods rank 0, which receives fully-qualified
    ``(source, tag)`` matches in *reverse* source order, so the mailbox
    backs up to ~``(size-1) * flood`` messages and every receive used
    to rescan all of them (and every delivery used to wake rank 0).
    """
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


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall time; returns (wall_seconds, result)."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, result


def run_suite(elems: int, nprocs: int, stress_ranks: int,
              repeats: int) -> list[dict]:
    """Execute every workload; returns the per-run records."""
    import repro.bench as bench
    from repro.simmpi import run_world
    from repro.synth import SyntheticWorkload

    wl = SyntheticWorkload(grid_points_per_proc=elems,
                           particles_per_proc=elems)
    nprod, ncons = wl.split_procs(nprocs)
    runs = []
    for figure, transport, fn in (
        ("fig5", "lowfive_memory", "run_lowfive_memory"),
        ("fig5", "lowfive_file", "run_lowfive_file"),
        ("fig7", "pure_mpi", "run_pure_mpi"),
    ):
        wall, res = _timed(
            lambda fn=fn: getattr(bench, fn)(nprod, ncons, wl), repeats)
        runs.append({
            "workload": f"{figure}/{transport}/P{nprocs}",
            "nprocs": nprocs,
            "wall_seconds": wall,
            "vtime": res.vtime,
            "messages": res.messages,
            "bytes_sent": res.bytes_sent,
        })

    wall, res = _timed(
        lambda: run_world(stress_ranks, stress_matching, timeout=600.0),
        repeats)
    runs.append({
        "workload": f"stress/matching/R{stress_ranks}",
        "nprocs": stress_ranks,
        "wall_seconds": wall,
        "vtime": res.vtime,
        "messages": res.messages,
        "bytes_sent": res.bytes_sent,
    })
    return runs


def measure_obs_overhead(stress_run: dict,
                         repeats: int) -> tuple[dict, list[str]]:
    """Telemetry self-accounting on the matching stress workload.

    ``stress_run`` is the suite's instrumented ``stress/matching`` row;
    the identical body is timed under a
    :class:`~repro.obs.noop.NullObsContext`, and virtual results must
    match exactly (telemetry must never perturb the simulation).
    Returns ``(run record, invariant problems)``.
    """
    from repro.obs.noop import NullObsContext
    from repro.simmpi import Engine

    ranks = stress_run["nprocs"]
    wall_on = stress_run["wall_seconds"]
    wall_off, res_off = _timed(
        lambda: Engine(ranks, timeout=600.0,
                       obs=NullObsContext()).run(stress_matching),
        repeats)
    problems = []
    for fieldname in VIRTUAL_FIELDS:
        on, off = stress_run[fieldname], getattr(res_off, fieldname)
        if on != off:
            problems.append(
                f"obs overhead: {fieldname} changed with telemetry "
                f"disabled ({on!r} vs {off!r}); observability must not "
                f"perturb the simulation"
            )
    frac = (wall_on - wall_off) / wall_off if wall_off > 0 else 0.0
    rec = dict(stress_run, workload=f"obs/overhead/R{ranks}",
               wall_obs_off=wall_off, obs_overhead_frac=frac)
    return rec, problems


def compare(runs: list[dict], ref: dict) -> tuple[list[str], bool]:
    """Annotate ``runs`` with speedups vs ``ref``; returns
    (drift problems, compared anything). Thin wrapper over the shared
    :func:`repro.obs.ledger.compare_runs` comparator."""
    from repro.obs.ledger import compare_runs

    return compare_runs(runs, ref, exact=VIRTUAL_FIELDS,
                        check_digest=False, annotate_wall=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--output", default="BENCH_wallclock.json",
                    help="output path (default BENCH_wallclock.json)")
    ap.add_argument("--elems", type=int,
                    default=int(os.environ.get("REPRO_BENCH_ELEMS",
                                               "60000")),
                    help="elements per producer rank for the fig "
                         "drivers (default 60000, or REPRO_BENCH_ELEMS)")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="total ranks for the fig drivers (default 4)")
    ap.add_argument("--stress-ranks", type=int, default=256,
                    help="simulated ranks of the matching stress "
                         "workload (default 256)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="timing repeats per workload; best is kept")
    ap.add_argument("--ref", default=DEFAULT_REF,
                    help="reference document for speedup/drift "
                         "comparison (default the committed seed "
                         "baseline)")
    ap.add_argument("--check-ref", action="store_true",
                    help="exit nonzero when any virtual-time field "
                         "drifts from the reference")
    ap.add_argument("--obs-budget", type=float, default=None,
                    metavar="FRAC",
                    help="fail when the telemetry wall-clock overhead "
                         "fraction exceeds FRAC (e.g. 0.25 = 25%%)")
    ap.add_argument("--ledger", default=None, metavar="PATH",
                    help="append every run to this JSONL run ledger")
    args = ap.parse_args(argv)

    runs = run_suite(args.elems, args.nprocs, args.stress_ranks,
                     args.repeats)
    obs_rec, invariants = measure_obs_overhead(runs[-1], args.repeats)
    runs.append(obs_rec)
    if args.obs_budget is not None \
            and obs_rec["obs_overhead_frac"] > args.obs_budget:
        invariants.append(
            f"obs overhead {obs_rec['obs_overhead_frac']:.1%} exceeds "
            f"budget {args.obs_budget:.1%}"
        )

    from repro.obs.ledger import check_reference

    problems = check_reference(
        runs, args.ref,
        our_params={"elems_per_proc": args.elems, "nprocs": args.nprocs,
                    "stress_ranks": args.stress_ranks},
        check_ref=args.check_ref, exact=VIRTUAL_FIELDS,
        check_digest=False, annotate_wall=True,
    )

    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "elems_per_proc": args.elems,
            "nprocs": args.nprocs,
            "stress_ranks": args.stress_ranks,
            "repeats": args.repeats,
            "machine": "THETA_KNL",
        },
        "runs": runs,
    }
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.ledger:
        from repro.obs.ledger import Ledger

        n = Ledger(args.ledger).append_doc(doc)
        print(f"appended {n} runs to {args.ledger}")

    for run in runs:
        speed = run.get("speedup_vs_reference")
        extra = f"  ({speed:.1f}x vs reference)" if speed else ""
        print(f"{run['workload']:32s} {run['wall_seconds']:8.3f}s "
              f"vtime={run['vtime']:.6g}{extra}")
    print(f"obs overhead: {obs_rec['obs_overhead_frac']:+.1%} "
          f"({obs_rec['wall_seconds']:.3f}s instrumented vs "
          f"{obs_rec['wall_obs_off']:.3f}s disabled)")
    print(f"wrote {args.output}: {len(runs)} runs, "
          f"schema v{SCHEMA_VERSION}")
    for p in invariants + problems:
        print(f"ERROR: {p}", file=sys.stderr)
    if invariants:
        return 1  # telemetry invariants and budget always fail
    return 1 if (problems and args.check_ref) else 0


if __name__ == "__main__":
    raise SystemExit(main())
