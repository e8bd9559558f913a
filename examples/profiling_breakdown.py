#!/usr/bin/env python
"""Fine-grained phase profiling of LowFive's transport, via repro.obs.

The paper's future work: "We are working on profiling our communication
at finer grain in order to see where the remaining bottlenecks are."
This example runs the synthetic benchmark twice -- with the paper's
index-serve-query protocol and with the producer-push extension -- and
prints the per-phase breakdown from the run's observability record
(``WorkflowResult.obs``): every LowFive phase is a span, so the
breakdown, the timeline, and a Chrome/Perfetto trace all come from the
same telemetry.

Run:  python examples/profiling_breakdown.py
"""

import numpy as np

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.pfs import PFSStore
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow

WL = SyntheticWorkload(grid_points_per_proc=200_000,
                       particles_per_proc=200_000)
NPROD, NCONS = 6, 2
SHAPE = WL.grid_shape(NPROD)
RANKS = {"producer": range(NPROD), "consumer": range(NPROD, NPROD + NCONS)}


def run(push: bool):
    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
            vol.set_memory("o.h5")
            if push:
                vol.enable_push("o.h5")
            if role == "producer":
                vol.serve_on_close("o.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("o.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("grid", shape=SHAPE, dtype=h5.UINT64)
        sel = producer_grid_selection(SHAPE, ctx.rank, ctx.size)
        d.write(grid_values(sel, SHAPE), file_select=sel)
        f.close()
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
        sel = consumer_grid_selection(SHAPE, ctx.rank, ctx.size)
        vals = f["grid"].read(sel, reshape=False)
        assert validate_grid(sel, SHAPE, vals)
        f.close()
        return True

    wf = Workflow()
    wf.add_task("producer", NPROD, producer)
    wf.add_task("consumer", NCONS, consumer)
    wf.add_link("producer", "consumer")
    return wf.run()


def show(label, res):
    print(f"\n=== {label}: completion {res.vtime:.3f} simulated s ===")
    spans = res.obs.spans
    for side, ranks in RANKS.items():
        # Per-rank total of each lowfive phase, averaged over the task.
        phases = {}
        for r in ranks:
            for s in spans.spans(cat="lowfive", rank=r):
                phases.setdefault(s.labels["phase"], {}) \
                    .setdefault(r, 0.0)
                phases[s.labels["phase"]][r] += s.duration
        print(f"  {side}:")
        for k in sorted(phases):
            vals = list(phases[k].values())
            print(f"    {k:<14} mean {np.mean(vals) * 1e3:8.2f} ms   "
                  f"max {np.max(vals) * 1e3:8.2f} ms")


def main():
    res_q = run(push=False)
    show("index-serve-query (paper protocol)", res_q)
    res_p = run(push=True)
    show("producer push (extension)", res_p)
    print(f"\npush saves {(res_q.vtime - res_p.vtime) * 1e3:.2f} "
          f"simulated ms "
          f"({100 * (1 - res_p.vtime / res_q.vtime):.1f}%) on this shape")

    # The same telemetry renders as an ASCII timeline (spans paint
    # their extents; point events draw on top) ...
    from repro.tools import (
        communication_matrix,
        render_matrix,
        render_timeline,
    )

    nprocs = NPROD + NCONS
    print()
    print(render_timeline(res_q.obs, nprocs, width=64,
                          title="Transport timeline (query protocol)",
                          spans=res_q.obs.spans.spans(cat="lowfive")))
    m = communication_matrix(res_q.obs, nprocs)
    print(render_matrix(m, title="Bytes sent rank-to-rank "
                                 f"(ranks 0-{NPROD - 1} produce, "
                                 f"{NPROD}-{nprocs - 1} consume)"))

    # ... and as a Chrome/Perfetto trace for interactive digging.
    out = "profiling_breakdown_trace.json"
    res_q.obs.write_chrome_trace(out)
    print(f"Chrome trace written to {out} "
          "(open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
