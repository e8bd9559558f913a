"""Stream lifecycle events as ``stream``-category span instants:
queries, a staged run, and the Chrome trace export."""

from repro.analyze import check_stream_leaks
from repro.obs import ObsContext, validate_chrome_trace
from repro.stream import max_depth


def _filled():
    obs = ObsContext()
    for name, epoch, rank, t, extra in (
            ("publish", 0, 0, 0.1, {"depth": 1}),
            ("acquire", 0, 2, 0.2, {}),
            ("release", 0, 2, 0.3, {}),
            ("drop", 0, 0, 0.4, {"depth": 0})):
        obs.spans.instant(f"stream.{name}", "stream", rank, t,
                          {"stream": "s", "epoch": epoch, **extra})
    return obs


class TestQueries:
    def test_ledger_answers_queries(self):
        obs = _filled()
        assert max_depth(obs, "s") == 1
        assert max_depth(obs, "other") == -1
        assert check_stream_leaks(obs) == []
        assert [i.name for i in obs.spans.instants("stream", stream="s")] \
            == ["stream.publish", "stream.acquire", "stream.release",
                "stream.drop"]
        assert [i.t for i in obs.spans.instants(name="stream.drop",
                                                 rank=0)] == [0.4]


def _run_staged(nsteps=3):
    """Minimal 1 producer -> 1 stager -> 1 consumer staged pipeline."""
    import repro.h5 as h5
    from repro.h5.native import NativeVOL
    from repro.lowfive.rpc import RPCClient
    from repro.lowfive.vol_staged import StagedMetadataVOL, staging_main
    from repro.pfs import PFSStore
    from repro.stream import epoch_fname, stream_pattern
    from repro.workflow import Workflow

    pattern = stream_pattern("sim")
    shape = (8, 4)

    def make_vol(ctx, role):
        def factory():
            vol = StagedMetadataVOL(comm=ctx.comm,
                                    under=NativeVOL(PFSStore()))
            vol.set_memory(pattern)
            if role == "producer":
                vol.stage_on_close(pattern, ctx.intercomm("staging"))
            else:
                vol.set_staged_consumer(pattern,
                                        ctx.intercomm("staging"))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer")
        for e in range(nsteps):
            f = h5.File(epoch_fname("sim", e), "w", comm=ctx.comm,
                        vol=vol)
            d = f.create_dataset("grid", shape=shape, dtype=h5.UINT64)
            d.write([[e] * shape[1]] * shape[0])
            f.close()
        StagedMetadataVOL.finalize_staging(ctx.intercomm("staging"))
        return True

    def consumer(ctx):
        vol = make_vol(ctx, "consumer")
        inter = ctx.intercomm("staging")
        world = ctx.comm.world_rank(ctx.rank)
        for e in range(nsteps):
            f = h5.File(epoch_fname("sim", e), "r", comm=ctx.comm,
                        vol=vol)
            f["grid"].read()
            f.close()
            RPCClient(inter).notify_all("__release__", "sim", e, world)
        StagedMetadataVOL.finalize_staging(inter)
        return True

    def staging(ctx):
        return staging_main(
            [ctx.intercomm("producer"), ctx.intercomm("consumer")]
        )

    wf = Workflow()
    wf.add_task("producer", 1, producer)
    wf.add_task("consumer", 1, consumer)
    wf.add_task("staging", 1, staging)
    wf.add_link("producer", "staging")
    wf.add_link("consumer", "staging")
    return wf.run(timeout=120.0)


class TestStagedRun:
    def test_staged_ledger_records_drops(self):
        """A staged-mode pipeline records one drop per epoch and leaves
        no acquisition open."""
        res = _run_staged()
        drops = res.obs.spans.instants("stream", "stream.drop",
                                       stream="sim")
        assert sorted(i.labels["epoch"] for i in drops) == [0, 1, 2]
        assert check_stream_leaks(res.obs) == []

    def test_staged_retention_series_recorded(self):
        # vol_staged samples the stagers' live-epoch count into the
        # virtual-time series on every drop.
        res = _run_staged()
        live = [v for k, v in res.obs.series.items()
                if k[0] == "stream.staged_live"]
        assert live and sum(s.count for s in live) == 3


class TestTrace:
    def test_lifecycle_instants_reach_the_chrome_trace(self):
        from repro.bench.drivers import stream_workflow

        res = stream_workflow(2, 2, 4).run(timeout=120.0)
        doc = res.obs.chrome_trace()
        validate_chrome_trace(doc)
        instants = [ev for ev in doc["traceEvents"]
                    if ev["ph"] == "i" and ev["cat"] == "stream"]
        kinds = {ev["name"] for ev in instants}
        assert kinds == {"stream.publish", "stream.acquire",
                         "stream.release", "stream.drop"}
        for ev in instants:
            assert ev["args"]["stream"] == "sim"
            assert ev["args"]["epoch"] in range(4)
        published = {ev["args"]["epoch"] for ev in instants
                     if ev["name"] == "stream.publish"}
        assert published == set(range(4))
