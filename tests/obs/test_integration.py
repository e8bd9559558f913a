"""End-to-end observability: a LowFive memory-mode workflow produces
spans from every instrumented layer, and a rank's per-phase profile,
queried inside its task as ``spans(cat="lowfive", rank=...)``, is the
record the run returns."""

import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.obs import obs_of, validate_chrome_trace
from repro.pfs import PFSStore
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow

GRID = (8, 4, 2)
NPROD, NCONS = 2, 2


def run_workflow(obs=None):
    """Producer/consumer LowFive memory-mode run at test scale.

    Returns ``(result, stats)`` where ``stats`` maps
    ``(role, local rank)`` -> ``(world rank, lowfive spans)`` queried
    inside each task at its end.
    """
    stats = {}

    def profile(ctx):
        world = ctx.comm.world_rank(ctx.rank)
        spans = obs_of(ctx.comm).spans.spans(cat="lowfive", rank=world)
        return world, spans

    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm,
                                  under=NativeVOL(PFSStore()))
            vol.set_memory("out.h5")
            if role == "producer":
                vol.serve_on_close("out.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("out.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("g/d", shape=GRID, dtype=h5.UINT64)
        sel = producer_grid_selection(GRID, ctx.rank, ctx.size)
        d.write(grid_values(sel, GRID), file_select=sel)
        f.close()  # indexes, then serves until consumers detach
        stats[("producer", ctx.rank)] = profile(ctx)
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
        sel = consumer_grid_selection(GRID, ctx.rank, ctx.size)
        vals = f["g/d"].read(sel, reshape=False)
        f.close()
        stats[("consumer", ctx.rank)] = profile(ctx)
        return validate_grid(sel, GRID, vals)

    wf = Workflow()
    wf.add_task("producer", NPROD, producer)
    wf.add_task("consumer", NCONS, consumer)
    wf.add_link("producer", "consumer")
    res = wf.run(obs=obs)
    assert all(res.returns["consumer"])
    return res, stats


@pytest.fixture(scope="module")
def run():
    return run_workflow()


class TestSpans:
    def test_lowfive_phases_present(self, run):
        res, _ = run
        names = {s.name for s in res.obs.spans.spans(cat="lowfive")}
        assert {"lowfive.index", "lowfive.serve",
                "lowfive.query"} <= names

    def test_index_on_producers_query_on_consumers(self, run):
        res, _ = run
        index_ranks = {s.rank for s in
                       res.obs.spans.spans(name="lowfive.index")}
        query_ranks = {s.rank for s in
                       res.obs.spans.spans(name="lowfive.query")}
        assert index_ranks == set(range(NPROD))
        assert query_ranks == set(range(NPROD, NPROD + NCONS))

    def test_query_spans_carry_dataset_labels(self, run):
        res, _ = run
        q = res.obs.spans.spans(name="lowfive.query")
        assert q and all(s.labels.get("dataset") == "/g/d" for s in q)

    def test_index_alltoall_nests_under_lowfive_phase(self, run):
        # The docstring case: the index phase's metadata exchange is a
        # child of lowfive.index, itself a child of the task span.
        res, _ = run
        by_id = {s.span_id: s for s in res.obs.spans.spans()}
        a2a = [s for s in res.obs.spans.spans(cat="simmpi")
               if s.name == "mpi.alltoall"]
        assert len(a2a) == NPROD
        for c in a2a:
            phase = by_id[c.parent_id]
            assert phase.name == "lowfive.index"
            task = by_id[phase.parent_id]
            assert task.cat == "workflow" and task.rank == c.rank
            # Parent intervals contain the child's.
            assert phase.t0 <= c.t0 and c.t1 <= phase.t1
            assert task.t0 <= phase.t0

    def test_wiring_collectives_precede_task_spans(self, run):
        res, _ = run
        task_start = {s.rank: s.t0
                      for s in res.obs.spans.spans(cat="workflow")}
        top_level = [s for s in res.obs.spans.spans(cat="simmpi")
                     if s.parent_id is None]
        assert top_level  # intercomm wiring + context barrier
        for c in top_level:
            assert c.t1 <= task_start[c.rank] + 1e-12


def by_phase(spans):
    """``{phase: (total seconds, count)}`` of ``lowfive`` spans."""
    out = {}
    for sp in spans:
        secs, n = out.get(sp.labels["phase"], (0.0, 0))
        out[sp.labels["phase"]] = (secs + sp.duration, n + 1)
    return out


class TestPhaseStats:
    def test_totals_equal_span_totals_exactly(self, run):
        # One record: the in-task query reads the spans the run
        # returns, so the totals are the same floats.
        res, stats = run
        assert stats  # every task rank reported
        for (role, local), (world, spans) in stats.items():
            phases = by_phase(spans)
            assert phases, f"{role}:{local} profiled nothing"
            for phase, (secs, _n) in phases.items():
                span_total = res.obs.spans.total(
                    cat="lowfive", name=f"lowfive.{phase}", rank=world
                )
                assert span_total == secs, \
                    f"{role}:{local} phase {phase}"

    def test_empty_when_telemetry_disabled(self):
        from repro.obs import NullObsContext

        res, stats = run_workflow(obs=NullObsContext())
        assert stats
        for _world, spans in stats.values():
            assert spans == []

    def test_counts_match_span_counts(self, run):
        res, stats = run
        for (_role, _local), (world, spans) in stats.items():
            for phase, (_secs, n) in by_phase(spans).items():
                got = res.obs.spans.spans(cat="lowfive", rank=world,
                                          phase=phase)
                assert len(got) == n


class TestExportAndMetrics:
    def test_trace_has_three_layers(self, run):
        res, _ = run
        doc = res.obs.chrome_trace()
        validate_chrome_trace(doc)
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"simmpi", "lowfive", "workflow"} <= cats
        # Every message rides along as a flow arrow.
        flows = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        assert len(flows) == len(res.obs.causal.edges()) > 0

    def test_task_pids_separate_producer_consumer(self, run):
        res, _ = run
        doc = res.obs.chrome_trace()
        procs = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs["producer"] != procs["consumer"]

    def test_message_metrics_counted(self, run):
        res, _ = run
        dump = res.obs.metrics.to_dict()
        sends = [k for k in dump["counter"]
                 if k.startswith("simmpi.send.count")]
        assert sends
        assert sum(dump["counter"][k]["count"] for k in sends) \
            == res.messages


class TestAlwaysOn:
    def test_spans_recorded_by_default(self):
        res, _ = run_workflow()
        assert res.obs.spans.spans(cat="simmpi")
        assert res.obs.spans.spans(cat="lowfive")
        doc = res.obs.chrome_trace()
        validate_chrome_trace(doc)
