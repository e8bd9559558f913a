"""``python -m repro.tools critpath``: causal analysis of one run.

Runs a workload (see :mod:`repro.tools.workload`), extracts the critical
path, classifies every blocked interval, checks the per-rank time
conservation invariant, and prints the result as a report: top-k
critical-path segments, per-category and per-phase shares, and the
wait-state table. ``--trace``/``--report`` write the Chrome trace and
the full JSON report; ``--strict`` turns any conservation, path
residual, or trace-validation violation into a nonzero exit.
"""

from __future__ import annotations

import json
import sys

from repro.tools.workload import add_workload_args, run_workload


def _fmt_seconds(sec: float) -> str:
    return f"{sec * 1e3:10.4f} ms"


def _print_report(report, top: int, out=None) -> None:
    """Human-readable report: path table, shares, wait states."""
    out = out if out is not None else sys.stdout
    p = lambda *a: print(*a, file=out)  # noqa: E731

    path = report.path
    p(f"makespan          {_fmt_seconds(report.makespan)}")
    p(f"critical path     {len(path.segments)} segments, residual "
      f"{path.residual:.3e} s")
    p(f"compute imbalance {report.imbalance:.3f} (max/mean - 1)")
    p("")
    p(f"top {min(top, len(path.segments))} critical-path segments:")
    p(f"  {'duration':>13}  {'rank':>4}  {'kind':<10} {'category':<8} "
      f"detail")
    for s in path.top_segments(top):
        p(f"  {_fmt_seconds(s.duration)}  {s.rank:>4}  {s.kind:<10} "
          f"{s.category:<8} {s.detail}")
    p("")
    p("critical-path shares by category:")
    for cat, share in sorted(path.category_shares().items(),
                             key=lambda kv: -kv[1]):
        p(f"  {cat:<10} {share * 100:6.2f} %")
    phases = path.phase_breakdown()
    if phases:
        p("critical-path time by phase:")
        for ph, sec in sorted(phases.items(), key=lambda kv: -kv[1]):
            p(f"  {ph:<14} {_fmt_seconds(sec)}")
    p("")
    p("aggregate rank-second shares:")
    for k, v in report.shares.items():
        p(f"  {k:<10} {v * 100:6.2f} %")
    p("")
    waits = report.wait_by_category()
    if waits:
        p("wait states (idle rank-seconds by cause):")
        for cat, sec in sorted(waits.items(), key=lambda kv: -kv[1]):
            n = sum(1 for w in report.waits if w.category == cat)
            p(f"  {cat:<22} {_fmt_seconds(sec)}  ({n} intervals)")
        longest = sorted(report.waits, key=lambda w: -w.seconds)[:top]
        p(f"longest {len(longest)} wait intervals:")
        p(f"  {'duration':>13}  {'rank':>4}  {'category':<22} "
          f"{'cause':>5}  span")
        for w in longest:
            cause = "-" if w.cause_rank is None else str(w.cause_rank)
            p(f"  {_fmt_seconds(w.seconds)}  {w.rank:>4}  "
              f"{w.category:<22} {cause:>5}  {w.cause_span or '-'}")
    else:
        p("wait states: none (no rank ever blocked)")
    p("")
    cons = report.conservation
    status = "OK" if cons.ok else "VIOLATED"
    p(f"conservation      {status} (max residual "
      f"{cons.max_residual:.3e} s, wait residual "
      f"{cons.max_wait_residual:.3e} s)")


def run(args) -> int:
    """Entry point for the ``critpath`` subcommand."""
    res = run_workload(args)
    report = res.causal_report(tol=args.tol)
    _print_report(report, args.top)

    failures = []
    if not report.conservation.ok:
        failures.append(
            f"conservation violated: max residual "
            f"{report.conservation.max_residual:.3e} s"
        )
    if abs(report.path.residual) > args.tol:
        failures.append(
            f"critical path residual {report.path.residual:.3e} s "
            f"exceeds {args.tol:.1e}"
        )
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        print(f"wrote report {args.report}")
    if args.trace:
        from repro.obs import validate_chrome_trace, write_chrome_trace

        doc = write_chrome_trace(args.trace, res.obs)
        try:
            validate_chrome_trace(doc)
        except ValueError as exc:
            failures.append(f"trace validation failed: {exc}")
        else:
            flows = sum(1 for e in doc["traceEvents"]
                        if e.get("ph") == "s")
            print(f"wrote trace {args.trace} ({flows} flow edges)")
    if failures:
        for msg in failures:
            print(f"ERROR: {msg}", file=sys.stderr)
        return 1 if args.strict else 0
    return 0


def add_parser(sub) -> None:
    """Register the ``critpath`` subcommand on ``sub``."""
    p = sub.add_parser(
        "critpath",
        help="run a workload and print its critical path, wait-state "
             "table and conservation check",
    )
    add_workload_args(p)
    p.add_argument("--top", type=int, default=10,
                   help="rows in the segment/wait tables (default 10)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="conservation / path-residual tolerance in "
                        "virtual seconds (default 1e-9)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="also write the run's Chrome trace JSON here")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the full JSON report here")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on conservation, path-residual or "
                        "trace-validation failure")
    p.set_defaults(run=run)
