"""``python -m repro.tools trace``: export a run as a Chrome/Perfetto trace.

Runs the selected workload (default: the paper's producer/consumer
workflow in LowFive memory mode on a shrunk problem) and writes the
run's full observability record -- spans from every instrumented layer
(simmpi collectives, lowfive index/serve/query, pfs I/O, workflow
tasks), one flow arrow per message, and the metrics dump -- as
``trace_event`` JSON. Open the file at https://ui.perfetto.dev or
``chrome://tracing``.
"""

from __future__ import annotations

import json

from repro.obs import write_chrome_trace
from repro.tools.workload import add_workload_args, run_workload


def trace_summary(doc: dict) -> str:
    """One-paragraph human summary of a trace document."""
    evs = doc["traceEvents"]
    spans = [e for e in evs if e["ph"] == "X"]
    cats = sorted({e.get("cat", "") for e in spans})
    flows = sum(1 for e in evs if e["ph"] == "s")
    metrics = sum(len(by_key)
                  for by_key in doc["otherData"]["metrics"].values())
    return (f"{len(spans)} spans ({', '.join(c for c in cats if c)}), "
            f"{flows} message flows, "
            f"{metrics} metric series")


def run(args) -> int:
    """Entry point for the ``trace`` subcommand."""
    res = run_workload(args)
    doc = write_chrome_trace(args.output, res.obs)
    print(f"wrote {args.output}: {trace_summary(doc)}")
    if args.metrics:
        side = {"metrics": res.obs.metrics.to_dict(),
                "series": res.obs.series.to_dict()}
        with open(args.output + ".metrics.json", "w") as f:
            json.dump(side, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}.metrics.json")
    return 0


def add_parser(sub) -> None:
    """Register the ``trace`` subcommand on ``sub``."""
    p = sub.add_parser(
        "trace",
        help="run a workload and write a Chrome/Perfetto trace_event "
             "JSON file",
    )
    p.add_argument("output", help="output .json path")
    add_workload_args(p)
    p.add_argument("--metrics", action="store_true",
                   help="also dump the metrics (and series) "
                        "as <output>.metrics.json next to the trace")
    p.set_defaults(run=run)
