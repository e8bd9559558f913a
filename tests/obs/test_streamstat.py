"""Stream ledger queries, including a staged run."""

from repro.obs.streamstat import StreamEvent, StreamLedger


def _filled():
    led = StreamLedger()
    led.publish("s", 0, 0, 0.1, 1)
    led.acquire("s", 0, 2, 0.2)
    led.release("s", 0, 2, 0.3)
    led.drop("s", 0, 0, 0.4, 0)
    return led


class TestQueries:
    def test_ledger_answers_queries(self):
        led = _filled()
        assert led.streams() == ["s"]
        assert led.max_depth("s") == 1
        assert led.open_acquisitions() == []
        assert [e.kind for e in led.events("s")] == \
            ["publish", "acquire", "release", "drop"]


class TestMerge:
    def test_identical_events_are_equal(self):
        x = StreamEvent("publish", "s", 0, 0, 0.1, 1)
        y = StreamEvent("publish", "s", 0, 0, 0.1, 1)
        assert x == y and hash(x) == hash(y)


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
        led = res.obs.stream
        drops = led.events("sim", "drop")
        assert sorted(ev.epoch for ev in drops) == [0, 1, 2]
        assert led.open_acquisitions() == []

    def test_staged_retention_series_recorded(self):
        # vol_staged samples the stagers' live-epoch count into the
        # virtual-time series on every drop.
        res = _run_staged()
        live = [v for k, v in res.obs.series.items()
                if k[0] == "stream.staged_live"]
        assert live and sum(s.count for s in live) == 3
