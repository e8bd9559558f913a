"""Self-contained HTML run report: ``python -m repro.tools report``.

Runs a workload (see :mod:`repro.tools.workload`; the same job
``repro.tools trace`` exports) and renders everything the observability
layer knows about it into one dependency-free HTML file:

- the run manifest (workload, mode, ranks, virtual results, cost-model
  digest, git revision, stable record digest);
- a span/phase table with count, total seconds and bucket-interpolated
  p50/p95/p99 span durations (:meth:`HistogramValue.quantile`);
- the critical path: category shares plus the longest segments;
- the wait-state taxonomy with causes;
- inline SVG sparklines of every recorded virtual-time series (queue
  depth, PFS bytes, mailbox depth, ...);
- fault annotations, when the run injected any.

A terminal summary prints alongside, and ``--ledger`` appends the
run's :class:`~repro.obs.ledger.RunRecord` to a JSONL ledger so the
report run also feeds the cross-run regression gate.
"""

from __future__ import annotations

import html

from repro.obs.metrics import HistogramValue, key_str
from repro.tools.workload import add_workload_args, run_workload

#: Sparkline viewport (px).
_SPARK_W, _SPARK_H = 220, 36


def span_stats(obs) -> list[dict]:
    """Per-span-name duration statistics with quantile estimates.

    Folds every completed span into one base-2
    :class:`HistogramValue` per ``(name, cat)``, then reads p50/p95/p99
    through bucket interpolation -- the same estimator the metrics
    layer exposes, exercised here on real span populations.
    """
    hists: dict[tuple, HistogramValue] = {}
    for s in obs.spans.spans():
        h = hists.get((s.name, s.cat))
        if h is None:
            h = hists[(s.name, s.cat)] = HistogramValue()
        h.observe(s.t1 - s.t0)
    out = []
    for (name, cat), h in sorted(hists.items()):
        out.append({
            "name": name, "cat": cat, "count": h.count,
            "total": h.total, "mean": h.mean,
            "p50": h.quantile(0.50), "p95": h.quantile(0.95),
            "p99": h.quantile(0.99), "max": h.vmax,
        })
    out.sort(key=lambda r: -r["total"])
    return out


def sparkline(series_value) -> str:
    """Inline SVG sparkline of one series (mean per window + band).

    The filled band spans the per-window min/max; the line tracks the
    window means. Returns an ``<svg>`` fragment.
    """
    pts = series_value.points()
    if not pts:
        return ""
    w, h = _SPARK_W, _SPARK_H
    t0 = pts[0][0]
    t1 = pts[-1][0] + series_value.interval
    tspan = max(t1 - t0, 1e-12)
    vmax = max(win.vmax for _, win in pts)
    vmin = min(win.vmin for _, win in pts)
    vspan = max(vmax - vmin, 1e-12)

    def x(t):
        return round((t - t0) / tspan * (w - 2) + 1, 1)

    def y(v):
        return round(h - 2 - (v - vmin) / vspan * (h - 4), 1)

    mean_pts, band_hi, band_lo = [], [], []
    for t, win in pts:
        tx = x(t + series_value.interval / 2)
        mean_pts.append(f"{tx},{y(win.mean)}")
        band_hi.append(f"{tx},{y(win.vmax)}")
        band_lo.append(f"{tx},{y(win.vmin)}")
    band = " ".join(band_hi + list(reversed(band_lo)))
    line = " ".join(mean_pts)
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


def _table(headers, rows) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (f'<table><thead><tr>{head}</tr></thead>'
            f'<tbody>{body}</tbody></table>')


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
    obs = res.obs
    parts = [f"<style>{_CSS}</style>",
             f"<h1>Run report: {_esc(record.workload)}</h1>"]

    # -- manifest ----------------------------------------------------------
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
    parts.append(_table(
        ("", ""), [(_esc(k), _esc(v)) for k, v in manifest]
    ).replace("<table>", '<table class="kv">'))

    # -- span/phase table --------------------------------------------------
    parts.append("<h2>Spans and phases</h2>")
    rows = [
        (_esc(r["name"]), _esc(r["cat"]), r["count"],
         _sec(r["total"]), _sec(r["mean"]), _sec(r["p50"]),
         _sec(r["p95"]), _sec(r["p99"]), _sec(r["max"]))
        for r in span_stats(obs)
    ]
    parts.append(_table(
        ("span", "layer", "count", "total s", "mean s", "p50 s",
         "p95 s", "p99 s", "max s"), rows,
    ))
    phases = report.path.phase_breakdown()
    if phases:
        parts.append("<h3>Critical-path phases</h3>")
        parts.append(_table(
            ("phase", "seconds", "share of path"),
            [(_esc(ph), _sec(sec),
              f"{sec / max(report.path.total, 1e-12):.1%}")
             for ph, sec in sorted(phases.items(),
                                   key=lambda kv: -kv[1])],
        ))

    # -- critical path -----------------------------------------------------
    parts.append("<h2>Critical path</h2>")
    shares = report.path.category_shares()
    parts.append(_table(
        ("category", "share"),
        [(_esc(c), f"{s:.1%}") for c, s in sorted(
            shares.items(), key=lambda kv: -kv[1])],
    ))
    parts.append("<h3>Longest segments</h3>")
    parts.append(_table(
        ("rank", "kind", "t0", "t1", "seconds"),
        [(s.rank, _esc(s.kind), _sec(s.t0), _sec(s.t1),
          _sec(s.duration)) for s in report.path.top_segments(10)],
    ))
    parts.append(
        f'<p class="muted">path residual '
        f'{report.path.residual:.3e} s over {len(report.path.segments)} '
        f'segments; conservation '
        f'{"ok" if report.conservation.ok else "VIOLATED"} '
        f'(max residual {report.conservation.max_residual:.3e} s)</p>'
    )

    # -- wait taxonomy -----------------------------------------------------
    parts.append("<h2>Wait taxonomy</h2>")
    by_cat = report.wait_by_category()
    if by_cat:
        parts.append(_table(
            ("category", "idle seconds", "intervals"),
            [(_esc(cat), _sec(sec),
              sum(1 for w in report.waits if w.category == cat))
             for cat, sec in sorted(by_cat.items(),
                                    key=lambda kv: -kv[1])],
        ))
        worst = sorted(report.waits, key=lambda w: -w.seconds)[:10]
        parts.append("<h3>Longest waits</h3>")
        parts.append(_table(
            ("rank", "category", "seconds", "cause rank", "cause span"),
            [(w.rank, _esc(w.category), _sec(w.seconds), w.cause_rank,
              _esc(w.cause_span or "-")) for w in worst],
        ))
    else:
        parts.append('<p class="muted">no classified waits</p>')

    # -- series sparklines -------------------------------------------------
    series = obs.series.items()
    if series:
        parts.append("<h2>Virtual-time series</h2>")
        rows = []
        for key, sv in series:
            rows.append((_esc(key_str(key)), sv.count,
                         f"{sv.interval:.4g}", sparkline(sv)))
        parts.append(_table(
            ("series", "samples", "window s", "sparkline"), rows,
        ))

    # -- faults ------------------------------------------------------------
    faults = [i for i in obs.spans.instants() if i.cat == "faults"]
    if faults:
        parts.append("<h2>Injected faults</h2>")
        parts.append(_table(
            ("vtime", "rank", "kind", "detail"),
            [(_sec(i.t), i.rank, _esc(i.name),
              _esc(i.labels or "")) for i in
             sorted(faults, key=lambda i: i.t)],
        ))

    return "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">" \
        f"<title>{_esc(record.workload)}</title></head><body>" \
        + "\n".join(parts) + "</body></html>\n"


def terminal_summary(record, report) -> str:
    """A few lines for the terminal alongside the HTML."""
    shares = report.path.category_shares()
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
    share_s = ", ".join(f"{c} {s:.0%}" for c, s in top)
    waits = report.wait_by_category()
    wait_s = ", ".join(
        f"{c} {sec:.4g}s" for c, sec in
        sorted(waits.items(), key=lambda kv: -kv[1])[:3]
    ) or "none"
    return (
        f"{record.workload}: vtime={record.vtime:.6g}s "
        f"messages={record.messages} bytes={record.bytes_sent} "
        f"attempts={record.attempts}\n"
        f"  critical path: {share_s} "
        f"(residual {report.path.residual:.1e}s)\n"
        f"  waits: {wait_s}\n"
        f"  stable record digest: {record.digest()}"
    )


def run(args) -> int:
    """Entry point of the ``report`` subcommand."""
    from repro.perfmodel.transports import THETA_KNL

    res = run_workload(args)
    label = f"lowfive_{args.mode}" if args.example == "fig5" \
        else args.example
    workload = args.workload or f"report/{label}/P{len(res.clocks)}"
    record = res.run_record(
        workload, mode=args.mode,
        params={"nprod": args.nprod, "ncons": args.ncons,
                "grid_points": args.grid_points,
                "particles": args.particles},
        costs=THETA_KNL.lf,
    )
    report = res.causal_report()
    doc = build_report(res, record, report)
    with open(args.output, "w") as f:
        f.write(doc)
    if args.ledger:
        from repro.obs.ledger import Ledger

        Ledger(args.ledger).append(record)
        print(f"appended {workload} to {args.ledger}")
    print(f"wrote {args.output} ({len(doc)} bytes)")
    print(terminal_summary(record, report))
    return 0


def add_parser(sub) -> None:
    """Register the ``report`` subcommand on ``sub``."""
    p = sub.add_parser(
        "report",
        help="run a workload and write a self-contained HTML run "
             "report (spans, critical path, waits, series)",
    )
    p.add_argument("output", help="output .html path")
    add_workload_args(p)
    p.add_argument("--workload", default=None,
                   help="workload key recorded in the ledger (default "
                        "report/lowfive_<mode>/P<n>)")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="append the run's RunRecord to this JSONL "
                        "ledger")
    p.set_defaults(run=run)
