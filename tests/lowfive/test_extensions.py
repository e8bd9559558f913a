"""Extension-feature tests: phase profiling and producer push.

Both implement directions from the paper's future work (Sec. V-C):
finer-grained communication profiling, and reducing synchronization by
scheduling/pushing communication.
"""

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.obs import obs_of
from repro.pfs import PFSStore
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow

SHAPE = (12, 8)


def phase_seconds(comm):
    """This rank's ``lowfive`` span seconds so far, by phase."""
    out = {}
    rank = comm.world_rank(comm.rank)
    for s in obs_of(comm).spans.spans(cat="lowfive", rank=rank):
        phase = s.labels["phase"]
        out[phase] = out.get(phase, 0.0) + s.duration
    return out


def build_workflow(nprod, ncons, push=False, collect=None,
                   consumer_body=None):
    """Producer/consumer pair; returns the WorkflowResult."""
    collect = collect if collect is not None else {}

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
            collect.setdefault(role, vol)
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("o.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("d", shape=SHAPE, dtype=h5.UINT64)
        sel = producer_grid_selection(SHAPE, ctx.rank, ctx.size)
        d.write(grid_values(sel, SHAPE), file_select=sel)
        f.close()
        return phase_seconds(ctx.comm)

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("o.h5", "r", comm=ctx.comm, vol=vol)
        if consumer_body is not None:
            out = consumer_body(ctx, f)
        else:
            sel = consumer_grid_selection(SHAPE, ctx.rank, ctx.size)
            vals = f["d"].read(sel, reshape=False)
            out = validate_grid(sel, SHAPE, vals)
        f.close()
        return out, phase_seconds(ctx.comm)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf.run()


class TestProfiling:
    def test_producer_phases_recorded(self):
        res = build_workflow(3, 2)
        for phases in res.returns["producer"]:
            assert "index" in phases and "serve" in phases
            assert phases["index"] >= 0
            assert phases["serve"] >= 0

    def test_consumer_phases_recorded(self):
        res = build_workflow(3, 2)
        for ok, phases in res.returns["consumer"]:
            assert ok
            assert "metadata_open" in phases
            assert "query" in phases


class TestPush:
    def test_push_delivers_correct_data(self):
        res = build_workflow(3, 2, push=True)
        for ok, _phases in res.returns["consumer"]:
            assert ok

    def test_push_eliminates_query_phase(self):
        res = build_workflow(3, 2, push=True)
        for _ok, phases in res.returns["consumer"]:
            assert "query" not in phases  # served from pushed data
        for phases in res.returns["producer"]:
            assert "push" in phases

    def test_push_mismatched_selection_falls_back_to_query(self):
        """A read outside the pushed block still works (via query)."""
        def body(ctx, f):
            # Deliberately read a selection that is NOT this rank's
            # regular block: the whole first row.
            sel = h5.HyperslabSelection(SHAPE, (0, 0), (1, SHAPE[1]))
            vals = f["d"].read(sel, reshape=False)
            return validate_grid(sel, SHAPE, vals)

        res = build_workflow(3, 2, push=True, consumer_body=body)
        fellback = []
        for ok, phases in res.returns["consumer"]:
            assert ok
            fellback.append("query" in phases)
        # Rank 0's pushed block contains row 0 (local hit); rank 1's
        # does not, so it must have queried.
        assert fellback == [False, True]

    def test_push_faster_than_query_mode(self):
        """The point of the extension: fewer round trips, less time."""
        t_query = build_workflow(4, 2, push=False).vtime
        t_push = build_workflow(4, 2, push=True).vtime
        assert t_push < t_query

    def test_push_with_n_to_m_mismatch(self):
        res = build_workflow(5, 3, push=True)
        for ok, _ in res.returns["consumer"]:
            assert ok
