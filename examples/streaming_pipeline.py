#!/usr/bin/env python
"""Streaming pipeline demo: epochs, backpressure, wire reduction.

A simulation task publishes a series of timestep *epochs* through the
LowFive VOL while an analysis task subscribes and lags behind. The
producer keeps at most ``max_lag`` epochs live: when the consumer
falls further behind, the producer blocks in a backpressure gate --
serving the laggard's queries -- until a release shrinks the window.
The run shows:

1. a consumer made 6x slower by a deterministic `ComputeSlowRule`
   fault, driving the producer into backpressure (visible in the
   causal report, attributed to the lagging consumer);
2. the live-epoch window staying bounded by ``max_lag`` throughout;
3. wire-side data reduction: re-running the same stream at increasing
   `CostConfig.reduction_level` shrinks bytes-on-wire monotonically
   (level 0 is bit-exact full fidelity).

Run:  python examples/streaming_pipeline.py
"""

import numpy as np

import repro.h5 as h5
from repro.faults import ComputeSlowRule, FaultPlan
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL, StreamConfig
from repro.lowfive.config import CostConfig
from repro.pfs import PFSStore
from repro.stream import max_depth
from repro.workflow import Workflow

GRID = (64, 48)
NSTEPS = 8
MAX_LAG = 2


def build(level=0):
    costs = CostConfig(reduction_level=level)

    def make_vol(ctx):
        return ctx.singleton("vol", lambda: DistMetadataVOL(
            comm=ctx.comm, under=NativeVOL(PFSStore()), costs=costs))

    def simulation(ctx):
        vol = make_vol(ctx)
        cfg = StreamConfig(max_lag=MAX_LAG)
        with ctx.stream_producer("analysis", "sim", vol, cfg) as prod:
            for step in range(NSTEPS):
                ctx.comm.compute(0.01)  # one timestep of simulation
                with prod.epoch() as f:
                    d = f.create_dataset("field", shape=GRID,
                                         dtype=h5.UINT64)
                    d.write(np.full(GRID, step, dtype=np.uint64)
                            .ravel())
        return True

    def analysis(ctx):
        vol = make_vol(ctx)
        totals = []
        with ctx.stream_consumer("simulation", "sim", vol) as cons:
            for ep in cons.epochs():
                with ep:
                    vals = np.asarray(ep.file["field"][...])
                    totals.append((ep.id, int(vals.sum())))
                ctx.comm.compute(0.02)  # per-epoch analysis work
        return totals

    wf = Workflow()
    wf.add_task("simulation", 2, simulation)
    wf.add_task("analysis", 1, analysis)
    wf.add_link("simulation", "analysis")
    return wf


def build_workflow():
    """The level-0 pipeline, for ``python -m repro.tools run --example``."""
    return build()


def main():
    # -- 1. a lagging consumer hits the backpressure gate ------------------
    plan = FaultPlan(7, slowdowns=(ComputeSlowRule(2, 6.0),))
    res = build().run(timeout=120.0, faults=plan)
    epochs = res.returns["analysis"][0]
    assert [e for e, _ in epochs] == list(range(NSTEPS))
    print(f"analysis consumed all {NSTEPS} epochs in order "
          f"(makespan {res.vtime * 1e3:.1f} simulated ms)")

    rep = res.causal_report()
    bp = rep.wait_by_category().get("backpressure", 0.0)
    causes = {w.cause_rank for w in rep.waits
              if w.category == "backpressure"}
    print(f"producer spent {bp * 1e3:.1f} ms gated on backpressure, "
          f"caused by lagging consumer rank(s) {sorted(causes)}")

    depth = max_depth(res.obs, "sim")
    print(f"live-epoch window stayed bounded: max depth {depth} "
          f"<= max_lag {MAX_LAG}")

    # -- 2. wire-side reduction: same stream, fewer bytes ------------------
    print("\nreduction sweep (same stream, increasing level):")
    for level in (0, 1, 2):
        r = build(level).run(timeout=120.0)
        tag = "full fidelity" if level == 0 else \
            f"stride {2 ** level} subsample + compression"
        print(f"  level {level}: {r.bytes_sent:9d} bytes on wire "
              f"({tag})")


if __name__ == "__main__":
    main()
