"""``python -m repro.tools run``: run one workload once and inspect it.

The workload is the paper's Fig. 5 LowFive producer/consumer job (the
default), the Fig. 7 hand-written MPI exchange, or any python file
exposing ``build_workflow()``, always on the Theta machine model. A
fault plan (``--delay/--delay-src/--delay-dst/--seed``) can be layered
on: delaying one sender's messages past a concurrent rival's arrival
turns a clean many-to-one exchange into a reported wildcard race,
deterministically.

After the run the verb always prints the critical-path summary (top
segments, category and phase shares, wait states, the per-rank time
conservation check) and the findings of every :mod:`repro.analyze`
dynamic check (wildcard races, collective mismatches, message and
epoch leaks). It writes what its flags ask for:

- ``--trace PATH``: the Chrome/Perfetto ``trace_event`` JSON, validated;
  its ``otherData`` carries the metrics and virtual-time series dumps;
- ``--report PATH``: a self-contained HTML run report when ``PATH``
  ends in ``.html`` (manifest, span p50/p95/p99, critical path, wait
  taxonomy, series sparklines, injected faults), otherwise the JSON
  causal report with the analyzer's findings under ``"findings"``;
- ``--ledger PATH``: the run's :class:`~repro.obs.ledger.RunRecord`,
  appended to a JSONL ledger for ``repro.tools regress``.

``--strict`` exits 1 on any conservation, path-residual,
trace-validation or analyzer failure.
"""

from __future__ import annotations

import html
import importlib.util
import json
import sys
from collections import defaultdict

import numpy as np

from repro.obs.metrics import key_str
from repro.perfmodel.transports import THETA_KNL

#: Workloads built in; anything else names an example file.
BUILTIN = ("fig5", "fig7")

#: Sparkline viewport (px).
_SPARK_W, _SPARK_H = 220, 36


# -- the workload -------------------------------------------------------------


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
    from repro.pfs import PFSStore
    from repro.synth import SyntheticWorkload

    wl = SyntheticWorkload(grid_points_per_proc=args.grid_points,
                           particles_per_proc=args.particles)
    if args.example == "fig7":
        return pure_mpi_workflow(args.nprod, args.ncons, wl, THETA_KNL)
    return lowfive_workflow(args.nprod, args.ncons, wl, THETA_KNL,
                            args.mode, PFSStore())


def fault_plan(args):
    """The ``--delay`` fault plan, or ``None`` when no delay is asked."""
    if args.delay <= 0.0:
        return None
    from repro.faults import FaultPlan, MessageFaultRule

    rule = MessageFaultRule(src=args.delay_src, dst=args.delay_dst,
                            p_delay=1.0, max_delay=args.delay)
    return FaultPlan(args.seed, messages=[rule])


def run_record(args, res):
    """The ledger row of the run. Only fig5 runs LowFive, so only it
    records a transport mode and the LowFive cost digest; only the
    built-in jobs take the workload parameters."""
    kw: dict = {}
    label = args.example
    if args.example == "fig5":
        label = f"lowfive_{args.mode}"
        kw = {"mode": args.mode, "costs": THETA_KNL.lf}
    if args.example in BUILTIN:
        kw["params"] = {"nprod": args.nprod, "ncons": args.ncons,
                        "grid_points": args.grid_points,
                        "particles": args.particles}
    return res.run_record(f"run/{label}/P{len(res.clocks)}", **kw)


# -- terminal output ----------------------------------------------------------


def _fmt_seconds(sec: float) -> str:
    return f"{sec * 1e3:10.4f} ms"


def print_causal(report, top: int) -> None:
    """Human-readable causal report: path table, shares, wait states."""
    path = report.path
    print(f"makespan          {_fmt_seconds(report.makespan)}")
    print(f"critical path     {len(path.segments)} segments, residual "
          f"{path.residual:.3e} s")
    print(f"compute imbalance {report.imbalance:.3f} (max/mean - 1)")
    print(f"\ntop {min(top, len(path.segments))} critical-path segments:")
    print(f"  {'duration':>13}  {'rank':>4}  {'kind':<10} "
          f"{'category':<8} detail")
    for s in path.top_segments(top):
        print(f"  {_fmt_seconds(s.duration)}  {s.rank:>4}  {s.kind:<10} "
              f"{s.category:<8} {s.detail}")
    print("\ncritical-path shares by category:")
    for cat, share in sorted(path.category_shares().items(),
                             key=lambda kv: -kv[1]):
        print(f"  {cat:<10} {share * 100:6.2f} %")
    phases = path.phase_breakdown()
    if phases:
        print("critical-path time by phase:")
        for ph, sec in sorted(phases.items(), key=lambda kv: -kv[1]):
            print(f"  {ph:<14} {_fmt_seconds(sec)}")
    print("\naggregate rank-second shares:")
    for k, v in report.shares.items():
        print(f"  {k:<10} {v * 100:6.2f} %")
    waits = report.wait_by_category()
    if waits:
        print("\nwait states (idle rank-seconds by cause):")
        for cat, sec in sorted(waits.items(), key=lambda kv: -kv[1]):
            n = sum(1 for w in report.waits if w.category == cat)
            print(f"  {cat:<22} {_fmt_seconds(sec)}  ({n} intervals)")
        longest = sorted(report.waits, key=lambda w: -w.seconds)[:top]
        print(f"longest {len(longest)} wait intervals:")
        print(f"  {'duration':>13}  {'rank':>4}  {'category':<22} "
              f"{'cause':>5}  span")
        for w in longest:
            cause = "-" if w.cause_rank is None else str(w.cause_rank)
            print(f"  {_fmt_seconds(w.seconds)}  {w.rank:>4}  "
                  f"{w.category:<22} {cause:>5}  {w.cause_span or '-'}")
    else:
        print("\nwait states: none (no rank ever blocked)")
    cons = report.conservation
    print(f"\nconservation      {'OK' if cons.ok else 'VIOLATED'} (max "
          f"residual {cons.max_residual:.3e} s, wait residual "
          f"{cons.max_wait_residual:.3e} s)")


def trace_summary(doc: dict) -> str:
    """One-line human summary of a trace document."""
    evs = doc["traceEvents"]
    cats = sorted({e.get("cat", "") for e in evs if e["ph"] == "X"} - {""})
    spans = sum(1 for e in evs if e["ph"] == "X")
    flows = sum(1 for e in evs if e["ph"] == "s")
    metrics = sum(len(by_key)
                  for by_key in doc["otherData"]["metrics"].values())
    return (f"{spans} spans ({', '.join(cats)}), {flows} message flows, "
            f"{metrics} metric series")


# -- the HTML report ----------------------------------------------------------


def span_stats(obs) -> list[dict]:
    """Per-``(name, cat)`` span duration statistics, largest total
    first. p50/p95/p99 are exact order statistics of the sorted
    durations: the ``ceil(q * n)``-th smallest."""
    durations: dict[tuple, list] = defaultdict(list)
    for s in obs.spans.spans():
        durations[(s.name, s.cat)].append(s.t1 - s.t0)
    out = []
    for (name, cat), vals in durations.items():
        d = np.sort(vals)
        nth = np.ceil(np.array([0.50, 0.95, 0.99]) * len(d)).astype(int)
        p50, p95, p99 = d[nth - 1].tolist()
        out.append({"name": name, "cat": cat, "count": len(d),
                    "total": float(d.sum()), "mean": float(d.mean()),
                    "p50": p50, "p95": p95, "p99": p99,
                    "max": float(d[-1])})
    out.sort(key=lambda r: (-r["total"], r["name"], r["cat"]))
    return out


def sparkline(series_value) -> str:
    """Inline SVG sparkline of one series: the line tracks the window
    means, the filled band spans the per-window min/max."""
    pts = series_value.points()
    if not pts:
        return ""
    w, h = _SPARK_W, _SPARK_H
    t0 = pts[0][0]
    tspan = max(pts[-1][0] + series_value.interval - t0, 1e-12)
    vmin = min(win.vmin for _, win in pts)
    vspan = max(max(win.vmax for _, win in pts) - vmin, 1e-12)

    def xy(t, v):
        return (f"{round((t - t0) / tspan * (w - 2) + 1, 1)},"
                f"{round(h - 2 - (v - vmin) / vspan * (h - 4), 1)}")

    half = series_value.interval / 2
    line = " ".join(xy(t + half, win.mean) for t, win in pts)
    band = " ".join([xy(t + half, win.vmax) for t, win in pts]
                    + [xy(t + half, win.vmin) for t, win in reversed(pts)])
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        f'<polygon points="{band}" fill="#cfe3f7" stroke="none"/>'
        f'<polyline points="{line}" fill="none" stroke="#1f6fb2" '
        f'stroke-width="1.2"/></svg>'
    )


def _esc(v) -> str:
    return html.escape(str(v))


def _sec(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def _table(headers, rows, cls="") -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>"
        for row in rows
    )
    attr = f' class="{cls}"' if cls else ""
    return (f"<table{attr}><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em;
border-bottom: 1px solid #ddd; padding-bottom: .2em; }
table { border-collapse: collapse; margin: .8em 0; }
th, td { border: 1px solid #ddd; padding: .25em .6em;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f4f6fa; }
td svg { vertical-align: middle; }
.kv td:first-child { font-weight: 600; background: #f4f6fa; }
.muted { color: #777; }
"""


def build_report(res, record, report) -> str:
    """Render the HTML document for one finished run.

    ``res`` is the :class:`~repro.workflow.runner.WorkflowResult`,
    ``record`` its ledger :class:`~repro.obs.ledger.RunRecord` and
    ``report`` the :class:`~repro.obs.critpath.CausalReport`.
    """
    obs, path = res.obs, report.path
    parts = [f"<style>{_CSS}</style>",
             f"<h1>Run report: {_esc(record.workload)}</h1>"]

    manifest = [
        ("workload", record.workload), ("mode", record.mode or "-"),
        ("ranks", record.nprocs), ("attempts", record.attempts),
        ("virtual makespan (s)", _sec(record.vtime)),
        ("messages", record.messages),
        ("bytes on wire", record.bytes_sent),
        ("cost-model digest", record.cost_digest or "-"),
        ("git revision", record.git_rev or "-"),
        ("stable record digest", record.digest()),
    ]
    if record.failed_tasks:
        manifest.append(("dropped tasks", ", ".join(record.failed_tasks)))
    parts.append("<h2>Manifest</h2>")
    parts.append(_table(("", ""), [(_esc(k), _esc(v)) for k, v in manifest],
                        cls="kv"))

    parts.append("<h2>Spans and phases</h2>")
    parts.append(_table(
        ("span", "layer", "count", "total s", "mean s", "p50 s",
         "p95 s", "p99 s", "max s"),
        [(_esc(r["name"]), _esc(r["cat"]), r["count"],
          *(_sec(r[k]) for k in ("total", "mean", "p50", "p95", "p99",
                                 "max")))
         for r in span_stats(obs)],
    ))
    phases = path.phase_breakdown()
    if phases:
        parts.append("<h3>Critical-path phases</h3>")
        parts.append(_table(
            ("phase", "seconds", "share of path"),
            [(_esc(ph), _sec(sec), f"{sec / max(path.total, 1e-12):.1%}")
             for ph, sec in sorted(phases.items(), key=lambda kv: -kv[1])],
        ))

    parts.append("<h2>Critical path</h2>")
    parts.append(_table(
        ("category", "share"),
        [(_esc(c), f"{s:.1%}") for c, s in sorted(
            path.category_shares().items(), key=lambda kv: -kv[1])],
    ))
    parts.append("<h3>Longest segments</h3>")
    parts.append(_table(
        ("rank", "kind", "t0", "t1", "seconds"),
        [(s.rank, _esc(s.kind), _sec(s.t0), _sec(s.t1), _sec(s.duration))
         for s in path.top_segments(10)],
    ))
    parts.append(
        f'<p class="muted">path residual {path.residual:.3e} s over '
        f'{len(path.segments)} segments; conservation '
        f'{"ok" if report.conservation.ok else "VIOLATED"} '
        f'(max residual {report.conservation.max_residual:.3e} s)</p>'
    )

    parts.append("<h2>Wait taxonomy</h2>")
    by_cat = report.wait_by_category()
    if by_cat:
        parts.append(_table(
            ("category", "idle seconds", "intervals"),
            [(_esc(cat), _sec(sec),
              sum(1 for w in report.waits if w.category == cat))
             for cat, sec in sorted(by_cat.items(), key=lambda kv: -kv[1])],
        ))
        parts.append("<h3>Longest waits</h3>")
        parts.append(_table(
            ("rank", "category", "seconds", "cause rank", "cause span"),
            [(w.rank, _esc(w.category), _sec(w.seconds), w.cause_rank,
              _esc(w.cause_span or "-"))
             for w in sorted(report.waits, key=lambda w: -w.seconds)[:10]],
        ))
    else:
        parts.append('<p class="muted">no classified waits</p>')

    series = obs.series.items()
    if series:
        parts.append("<h2>Virtual-time series</h2>")
        parts.append(_table(
            ("series", "samples", "window s", "sparkline"),
            [(_esc(key_str(key)), sv.count, f"{sv.interval:.4g}",
              sparkline(sv)) for key, sv in series],
        ))

    faults = [i for i in obs.spans.instants() if i.cat == "faults"]
    if faults:
        parts.append("<h2>Injected faults</h2>")
        parts.append(_table(
            ("vtime", "rank", "kind", "detail"),
            [(_sec(i.t), i.rank, _esc(i.name), _esc(i.labels or ""))
             for i in sorted(faults, key=lambda i: i.t)],
        ))

    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{_esc(record.workload)}</title></head><body>"
            + "\n".join(parts) + "</body></html>\n")


# -- the verb -----------------------------------------------------------------


def run(args) -> int:
    """Entry point for the ``run`` subcommand."""
    from repro.analyze import analyze_obs
    from repro.obs import validate_chrome_trace, write_chrome_trace

    res = build_workflow(args).run(model=THETA_KNL.net,
                                   timeout=args.timeout,
                                   faults=fault_plan(args))
    if args.example in BUILTIN and not all(res.returns["consumer"]):
        raise AssertionError("consumer-side validation failed")
    report = res.causal_report(tol=args.tol)
    print_causal(report, args.top)

    findings = analyze_obs(res.obs)
    wild = sum(e.spec is not None for e in res.obs.causal.edges())
    print(f"\nanalyzed {args.example}: {res.messages} messages, "
          f"{wild} wildcard matches, vtime {res.vtime:.6f} s")
    if not findings:
        print("no findings: schedule is race-free, collectives agree, "
              "no message leaks")
    for f in findings:
        print(f"FINDING [{f.kind}] rank {f.rank}: {f.summary}")

    failures = [f"{len(findings)} analyzer finding(s)"] if findings else []
    if not report.conservation.ok:
        failures.append(f"conservation violated: max residual "
                        f"{report.conservation.max_residual:.3e} s")
    if abs(report.path.residual) > args.tol:
        failures.append(f"critical path residual {report.path.residual:.3e}"
                        f" s exceeds {args.tol:.1e}")
    if args.trace:
        doc = write_chrome_trace(args.trace, res.obs)
        try:
            validate_chrome_trace(doc)
        except ValueError as exc:
            failures.append(f"trace validation failed: {exc}")
        else:
            print(f"wrote trace {args.trace}: {trace_summary(doc)}")
    html_report = (args.report or "").endswith(".html")
    record = run_record(args, res) if args.ledger or html_report else None
    if args.report:
        with open(args.report, "w") as f:
            if html_report:
                f.write(build_report(res, record, report))
            else:
                json.dump({**report.to_dict(),
                           "findings": [x.to_dict() for x in findings]},
                          f, indent=2, sort_keys=True)
        print(f"wrote report {args.report}")
    if args.ledger:
        from repro.obs.ledger import Ledger

        Ledger(args.ledger).append(record)
        print(f"appended {record.workload} to {args.ledger} "
              f"(stable record digest {record.digest()})")
    for msg in failures:
        print(f"ERROR: {msg}", file=sys.stderr)
    return 1 if failures and args.strict else 0


def add_parser(sub) -> None:
    """Register the ``run`` subcommand on ``sub``."""
    p = sub.add_parser(
        "run",
        help="run a workload once; print its critical path and schedule "
             "findings, write its trace, report and ledger row",
    )
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
    p.add_argument("--delay", type=float, default=0.0,
                   help="inject a deterministic message delay of up to "
                        "this many virtual seconds (0 disables)")
    p.add_argument("--delay-src", type=int, default=None,
                   help="world rank whose sends the delay applies to")
    p.add_argument("--delay-dst", type=int, default=None,
                   help="destination world rank the delay applies to")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan PRF seed (default 0)")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the segment/wait tables (default 10)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="conservation / path-residual tolerance in "
                        "virtual seconds (default 1e-9)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the run's Chrome trace JSON here")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the run report here: HTML when PATH ends "
                        "in .html, else the JSON causal report with the "
                        "analyzer's findings")
    p.add_argument("--ledger", metavar="PATH", default=None,
                   help="append the run's RunRecord to this JSONL ledger")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any conservation, path-residual, "
                        "trace-validation or analyzer failure")
    p.set_defaults(run=run)
