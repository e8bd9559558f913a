"""Collective-mismatch and message-leak checkers."""

from repro.analyze import analyze_obs, check_collectives, check_leaks
from repro.simmpi import run_world
from tests.analyze.tracestub import StubObs, coll, msg


class TestCollectives:
    def test_matching_kinds_pass(self):
        obs = StubObs(collectives=[
            coll(0, {0: 1.0, 1: 1.1}, t_end=1.2,
                 kinds={0: "barrier", 1: "barrier"})])
        assert check_collectives(obs) == []

    def test_mismatched_kinds_flagged_with_rank_groups(self):
        obs = StubObs(collectives=[
            coll(0, {0: 1.0, 1: 1.1, 2: 1.0}, t_end=1.2,
                 kinds={0: "barrier", 1: "bcast", 2: "barrier"})])
        findings = check_collectives(obs)
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == "collective-mismatch"
        assert f.detail["kinds"] == {0: "barrier", 1: "bcast",
                                     2: "barrier"}
        assert "barrier on ranks [0, 2]" in f.summary
        assert "bcast on ranks [1]" in f.summary

    def test_real_run_collectives_agree(self):
        def main(comm):
            comm.barrier()
            comm.allreduce(comm.rank)
            return None

        res = run_world(3, main, timeout=30.0)
        assert check_collectives(res.obs) == []


class TestLeaks:
    def test_unreceived_message_reported(self):
        obs = StubObs(messages=[msg(5, src=1, dst=0, t_post=0.5),
                                msg(6, src=1, dst=0, t_post=0.5,
                                    t_recv=0.6)])
        findings = check_leaks(obs)
        assert len(findings) == 1
        assert findings[0].kind == "message-leak"
        assert findings[0].rank == 1
        assert findings[0].detail["msg_id"] == 5

    def test_real_leak_detected_at_finalize(self):
        """A send nobody receives keeps a record with no receive."""

        def main(comm):
            if comm.rank == 0:
                comm.send("orphan", dest=1, tag=99)
            comm.barrier()
            return None

        res = run_world(2, main, timeout=30.0)
        findings = analyze_obs(res.obs)
        leaks = [f for f in findings if f.kind == "message-leak"]
        assert len(leaks) == 1
        assert "tag 99" in leaks[0].summary

    def test_clean_exchange_has_no_leaks(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=1)
                return None
            return comm.recv(source=0, tag=1)[0]

        res = run_world(2, main, timeout=30.0)
        assert check_leaks(res.obs) == []


def stream_instants(*events):
    """A span recorder holding ``(kind, epoch, rank, t)`` lifecycle
    instants of stream ``"sim"``, labelled as the stream layer labels
    them."""
    from repro.obs import SpanRecorder

    spans = SpanRecorder()
    for kind, epoch, rank, t in events:
        spans.instant(f"stream.{kind}", "stream", rank, t,
                      {"stream": "sim", "epoch": epoch})
    return spans


class TestEpochLeaks:
    def test_open_acquisition_reported_with_epoch_id(self):
        from types import SimpleNamespace

        from repro.analyze import check_stream_leaks

        spans = stream_instants(("publish", 0, 0, 0.1),
                                ("publish", 1, 0, 0.2),
                                ("acquire", 0, 1, 0.3),
                                ("acquire", 1, 1, 0.4),
                                ("release", 0, 1, 0.5))  # hwm 0: 1 open
        findings = check_stream_leaks(SimpleNamespace(spans=spans))
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == "epoch-leak"
        assert f.rank == 1
        assert "epoch 1" in f.summary
        assert f.detail == {"stream": "sim", "epoch": 1, "rank": 1}

    def test_cumulative_release_closes_earlier_epochs(self):
        from types import SimpleNamespace

        from repro.analyze import check_stream_leaks

        spans = stream_instants(
            ("acquire", 0, 1, 0.1),
            ("acquire", 3, 1, 0.2),  # caught-up consumer skipped
            ("release", 3, 1, 0.3))  # hwm 3 covers everything
        assert check_stream_leaks(SimpleNamespace(spans=spans)) == []

    def test_obs_without_ledger_is_clean(self):
        from repro.analyze import check_stream_leaks

        assert check_stream_leaks(StubObs()) == []

    def test_real_retained_epoch_surfaces_in_analyze_obs(self):
        """A consumer that retains its last epoch and exits without
        releasing it: the run finishes, but ``analyze_obs`` names the
        leaked epoch."""
        import numpy as np

        import repro.h5 as h5
        from repro.h5.native import NativeVOL
        from repro.lowfive import DistMetadataVOL
        from repro.pfs import PFSStore
        from repro.workflow import Workflow

        shape = (8, 4)

        def make_vol(ctx):
            return ctx.singleton("vol", lambda: DistMetadataVOL(
                comm=ctx.comm, under=NativeVOL(PFSStore())))

        def producer(ctx):
            vol = make_vol(ctx)
            with ctx.stream_producer("consumer", "sim", vol) as prod:
                for step in range(2):
                    with prod.epoch() as f:
                        d = f.create_dataset("g", shape=shape,
                                             dtype=h5.UINT64)
                        d.write(np.full(shape, step,
                                        dtype=np.uint64).ravel())
            return True

        def consumer(ctx):
            vol = make_vol(ctx)
            with ctx.stream_consumer("producer", "sim", vol) as cons:
                for ep in cons.epochs():
                    with ep:
                        if ep.id == 1:
                            ep.retain()  # never released
            return True

        wf = Workflow()
        wf.add_task("producer", 1, producer)
        wf.add_task("consumer", 1, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run(timeout=60.0)
        leaks = [f for f in analyze_obs(res.obs)
                 if f.kind == "epoch-leak"]
        assert len(leaks) == 1
        assert leaks[0].detail == {"stream": "sim", "epoch": 1,
                                   "rank": 1}
