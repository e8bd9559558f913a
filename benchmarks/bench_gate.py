#!/usr/bin/env python
"""Run every reference run, check its invariants, write one document.

``python benchmarks/bench_gate.py [--output F] [--ledger L]
[--obs-budget FRAC]`` executes each entry of
:data:`repro.bench.registry.REGISTRY` (the Fig. 5/7 drivers, the
256-rank matching stress, the streaming sweep and its rate-mismatch
run), records the wall seconds of each next to its virtual fields, and
exits 1 when any invariant of :func:`repro.bench.registry.check` fails.
``--ledger`` appends every row to a JSONL run ledger.

The telemetry overhead row times :data:`PAIRS` alternating
instrumented / :class:`~repro.obs.noop.NullObsContext` runs of the
stress body and keeps the fastest of each. The null context still pays
a few Python calls per recorder write, so the fraction is a lower
bound on what telemetry costs; ``--obs-budget`` turns it into a hard
gate.

Drift is checked in one place::

    python -m repro.tools regress F --ref benchmarks/BENCH_ref.json --check-ref
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.registry import OVERHEAD, PARAMS, REGISTRY, STRESS, check
from repro.obs.ledger import Ledger

#: Bump when the document layout changes incompatibly.
SCHEMA_VERSION = 1

#: Instrumented / null pairs timed for the overhead row.
PAIRS = 5


def _timed(fn):
    t0 = time.perf_counter()
    row = fn()
    row["wall_seconds"] = time.perf_counter() - t0
    return row


def run_rows() -> list[dict]:
    """Every registry row, timed, in registry order."""
    rows = {name: _timed(fn) for name, fn in REGISTRY.items()
            if name not in (STRESS, OVERHEAD)}
    pairs = [(_timed(REGISTRY[STRESS]), _timed(REGISTRY[OVERHEAD]))
             for _ in range(PAIRS)]
    on = min((p[0] for p in pairs), key=lambda r: r["wall_seconds"])
    off = min((p[1] for p in pairs), key=lambda r: r["wall_seconds"])
    rows[STRESS] = on
    rows[OVERHEAD] = dict(
        off, wall_seconds=on["wall_seconds"],
        wall_obs_off=off["wall_seconds"],
        obs_overhead_frac=(on["wall_seconds"] - off["wall_seconds"])
        / off["wall_seconds"])
    return [rows[name] for name in REGISTRY]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="BENCH_gate.json",
                    help="output path (default BENCH_gate.json)")
    ap.add_argument("--ledger", default=None, metavar="PATH",
                    help="append every run to this JSONL run ledger")
    ap.add_argument("--obs-budget", type=float, default=None,
                    metavar="FRAC",
                    help="fail when the telemetry wall-clock overhead "
                         "fraction exceeds FRAC (e.g. 0.25 = 25%%)")
    args = ap.parse_args(argv)

    runs = run_rows()
    doc = {"schema_version": SCHEMA_VERSION, "params": PARAMS,
           "runs": runs}
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.ledger:
        n = Ledger(args.ledger).append_doc(doc)
        print(f"appended {n} runs to {args.ledger}")

    for run in runs:
        print(f"{run['workload']:28s} {run['wall_seconds']:7.3f}s "
              f"vtime={run['vtime']:.6g} bytes={run['bytes_sent']}")
    obs = next(r for r in runs if r["workload"] == OVERHEAD)
    print(f"obs overhead >= {obs['obs_overhead_frac']:+.1%} (best of "
          f"{PAIRS}: {obs['wall_seconds']:.3f}s instrumented vs "
          f"{obs['wall_obs_off']:.3f}s null)")
    print(f"wrote {args.output}: {len(runs)} runs, "
          f"schema v{SCHEMA_VERSION}")
    problems = check(runs, args.obs_budget)
    for p in problems:
        print(f"ERROR: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
