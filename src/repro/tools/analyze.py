"""``python -m repro.tools analyze`` -- schedule analysis CLI.

Runs a workload (see :mod:`repro.tools.workload`), then feeds the
recorded causal trace to every :mod:`repro.analyze` dynamic check --
wildcard races, collective mismatches, message leaks -- and renders
the findings. Exit status is the number of findings capped at 1, so
CI can gate on a silent schedule; ``--no-strict`` always exits 0.

A fault plan can be layered on (``--delay-src/--delay-dst/--delay``)
to demonstrate the detector: delaying one sender's messages past a
concurrent rival's arrival turns a clean many-to-one exchange into a
reported wildcard race, deterministically.
"""

from __future__ import annotations

import json
import sys

from repro.tools.workload import add_workload_args, run_workload


def _fault_plan(args):
    if args.delay <= 0.0:
        return None
    from repro.faults import FaultPlan, MessageFaultRule

    rule = MessageFaultRule(src=args.delay_src, dst=args.delay_dst,
                            p_delay=1.0, max_delay=args.delay)
    return FaultPlan(args.seed, messages=[rule])


def run(args) -> int:
    """Entry point for the ``analyze`` subcommand."""
    from repro.analyze import analyze_obs

    res = run_workload(args, faults=_fault_plan(args))
    findings = analyze_obs(res.obs)

    n = sum(e.spec is not None for e in res.obs.causal.edges())
    print(f"analyzed {args.example}: {res.messages} messages, "
          f"{n} wildcard matches, vtime {res.vtime:.6f} s")
    if not findings:
        print("no findings: schedule is race-free, collectives agree, "
              "no message leaks")
    for f in findings:
        print(f"FINDING [{f.kind}] rank {f.rank}: {f.summary}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump([f.to_dict() for f in findings], fh, indent=2,
                      sort_keys=True)
        print(f"wrote report {args.report}")
    if findings and args.strict:
        print(f"ERROR: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def add_parser(sub) -> None:
    """Register the ``analyze`` subcommand on ``sub``."""
    p = sub.add_parser(
        "analyze",
        help="run a workload and check its schedule for wildcard "
             "races, collective mismatches and message leaks",
    )
    add_workload_args(p)
    p.add_argument("--delay", type=float, default=0.0,
                   help="inject a deterministic message delay of up to "
                        "this many virtual seconds (0 disables)")
    p.add_argument("--delay-src", type=int, default=None,
                   help="world rank whose sends the delay applies to")
    p.add_argument("--delay-dst", type=int, default=None,
                   help="destination world rank the delay applies to")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan PRF seed (default 0)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the findings as JSON here")
    p.add_argument("--no-strict", dest="strict", action="store_false",
                   help="exit 0 even when there are findings")
    p.set_defaults(run=run, strict=True)
