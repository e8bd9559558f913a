#!/usr/bin/env python
"""Chaos demo: a seeded fault plan shaking the index-serve-query run.

The same producer/consumer exchange is executed three times:

1. fault-free, as the baseline;
2. under a `FaultPlan` injecting message delays, duplicates, a slow
   wire, lost RPCs and a degraded OST -- the results must still be
   byte-identical to the baseline (that is the transport's recovery
   story), only the virtual timeline stretches;
3. with the *same seed* again, to show the chaos itself is
   deterministic: identical injected-fault counts, identical payloads
   (with several concurrent consumers the serving *order* -- and hence
   the exact clock -- can vary; single-consumer runs replay exactly,
   see tests/faults/test_chaos_properties.py).

Every injected fault is visible in the run's observability record --
as `faults.injected` counters and as instants in the exported
Chrome/Perfetto trace.

Run:  python examples/chaos_run.py
"""

import numpy as np

import repro.h5 as h5
from repro.faults import FaultPlan, MessageFaultRule, OstSlowRule, RpcFaultRule
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.pfs import PFSStore
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
)
from repro.workflow import Workflow

GRID = (16, 12, 8)
NPROD, NCONS = 4, 2
SEED = 1234


def make_plan():
    """One shake of every recoverable fault class (fresh state)."""
    return FaultPlan(
        SEED,
        messages=[
            # Producer 0's outbound wire is 3x slow; everything else
            # sees random delays and occasional duplicate delivery.
            MessageFaultRule(src=0, wire_factor=3.0,
                             p_delay=0.3, max_delay=2e-3),
            MessageFaultRule(p_delay=0.3, max_delay=2e-3,
                             p_duplicate=0.2),
        ],
        rpcs=[
            # The first two read RPCs vanish; retries absorb them.
            RpcFaultRule(fn="read", lose_first=2),
        ],
        osts=[OstSlowRule(ost=1, factor=0.25)],
    )


def run(faults=None):
    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
            vol.set_memory("o.h5")
            if role == "producer":
                vol.serve_on_close("o.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("o.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("grid", shape=GRID, dtype=h5.UINT64)
        sel = producer_grid_selection(GRID, ctx.rank, ctx.size)
        d.write(grid_values(sel, GRID), file_select=sel)
        f.close()
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
        sel = consumer_grid_selection(GRID, ctx.rank, ctx.size)
        vals = f["grid"].read(sel, reshape=False)
        f.close()
        return np.asarray(vals).tobytes()

    wf = Workflow()
    wf.add_task("producer", NPROD, producer)
    wf.add_task("consumer", NCONS, consumer)
    wf.add_link("producer", "consumer")
    return wf.run(faults=faults)


def injected(res):
    """Injected-fault counters from the run's metrics, by kind."""
    out = {}
    for kind in ("msg_delay", "msg_duplicate", "rpc_lost"):
        counters = [res.obs.metrics.get("faults.injected", kind=kind, rank=r)
                    for r in range(NPROD + NCONS)]
        total = sum(c.total for c in counters if c is not None)
        if total:
            out[kind] = total
    return out


def main():
    clean = run()
    print(f"fault-free baseline: {clean.vtime * 1e3:9.3f} simulated ms")

    chaotic = run(faults=make_plan())
    print(f"under the plan:      {chaotic.vtime * 1e3:9.3f} simulated ms")
    assert chaotic.returns["consumer"] == clean.returns["consumer"], \
        "recoverable faults must not change the data"
    print("consumer payloads are byte-identical to the baseline")

    print("\ninjected faults (from faults.injected counters):")
    for kind, n in sorted(injected(chaotic).items()):
        print(f"  {kind:<14} {int(n):4d}")

    replay = run(faults=make_plan())
    assert injected(replay) == injected(chaotic), \
        "same seed must inject the same faults"
    assert replay.returns == {k: list(v)
                              for k, v in chaotic.returns.items()}
    print(f"\nsame-seed replay:    {replay.vtime * 1e3:9.3f} simulated ms "
          "(identical injections, identical payloads)")

    # A degraded OST is a *model* fault: apply it to a Lustre config to
    # see the straggler drag the stripe's aggregate bandwidth.
    from repro.pfs.lustre import LustreModel

    base = LustreModel()
    slow = make_plan().lustre_model(base)
    print(f"\nOST 1 at 25% speed: stripe peak "
          f"{base.stripe_peak() / 1e9:.1f} -> "
          f"{slow.stripe_peak() / 1e9:.1f} GB/s")

    out = "chaos_run_trace.json"
    chaotic.obs.write_chrome_trace(out)
    print(f"\nChrome trace written to {out} -- fault.* instants mark "
          "every injection (open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
