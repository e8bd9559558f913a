"""Streaming under faults: lagging consumers, crashes, depth bound.

The satellite scenarios: a consumer made deterministically slow by a
:class:`~repro.faults.ComputeSlowRule` drives the producer into
backpressure and still drains the whole stream; a consumer crash
mid-stream recovers through :class:`~repro.workflow.RestartPolicy`
with the rerun joining late and catching up from the newest retained
epoch; and a hypothesis property pinning the core queue invariant --
the live-epoch depth never exceeds ``max_lag``, whatever the relative
producer/consumer rates.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.h5 as h5
from repro.analyze import check_stream_leaks
from repro.faults import ComputeSlowRule, CrashRule, FaultPlan
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL, StreamConfig
from repro.pfs import PFSStore
from repro.stream import max_depth
from repro.workflow import RestartPolicy, Workflow

SHAPE = (10, 6)


@pytest.fixture(autouse=True)
def aggressive_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


def build_stream_wf(nsteps, *, max_lag=2, catch_up=False,
                    consumer_compute=0.0, consumer_delay=0.0):
    """1 producer rank -> 1 consumer rank (world ranks 0 and 1)."""
    def make_vol(ctx):
        return ctx.singleton("vol", lambda: DistMetadataVOL(
            comm=ctx.comm, under=NativeVOL(PFSStore())))

    def producer(ctx):
        vol = make_vol(ctx)
        with ctx.stream_producer("consumer", "sim", vol,
                                 StreamConfig(max_lag=max_lag)) as prod:
            for step in range(nsteps):
                with prod.epoch() as f:
                    d = f.create_dataset("grid", shape=SHAPE,
                                         dtype=h5.UINT64)
                    d.write(np.full(SHAPE, step, dtype=np.uint64)
                            .ravel())
        return True

    def consumer(ctx):
        vol = make_vol(ctx)
        if consumer_delay:
            ctx.comm.compute(consumer_delay)
        cfg = StreamConfig(max_lag=max_lag, catch_up=catch_up)
        seen = []
        with ctx.stream_consumer("producer", "sim", vol, cfg) as cons:
            for ep in cons.epochs():
                with ep:
                    vals = np.asarray(ep.file["grid"][...])
                    seen.append((ep.id, int(vals.flat[0]) == ep.id))
                if consumer_compute:
                    ctx.comm.compute(consumer_compute)
        return seen

    wf = Workflow()
    wf.add_task("producer", 1, producer)
    wf.add_task("consumer", 1, consumer)
    wf.add_link("producer", "consumer")
    return wf


class TestLaggingConsumer:
    def test_slow_rule_triggers_backpressure_then_drains(self):
        # The consumer is only slow through the fault plan: same user
        # code, 6x the virtual cost per epoch of processing.
        wf = build_stream_wf(8, max_lag=2, consumer_compute=0.02)
        plan = FaultPlan(3, slowdowns=(ComputeSlowRule(1, 6.0),))
        res = wf.run(timeout=120.0, faults=plan)
        seen = res.returns["consumer"][0]
        assert seen == [(e, True) for e in range(8)]  # fully drained
        rep = res.causal_report()
        assert rep.wait_by_category().get("backpressure", 0.0) > 0.0
        bp = [w for w in rep.waits if w.category == "backpressure"]
        assert {w.rank for w in bp} == {0}
        assert {w.cause_rank for w in bp} == {1}
        assert max_depth(res.obs, "sim") <= 2

    def test_slowdown_scales_virtual_cost(self):
        wf_fast = build_stream_wf(4, consumer_compute=0.05)
        t_fast = wf_fast.run(timeout=120.0).vtime
        wf_slow = build_stream_wf(4, consumer_compute=0.05)
        plan = FaultPlan(3, slowdowns=(ComputeSlowRule(1, 5.0),))
        t_slow = wf_slow.run(timeout=120.0, faults=plan).vtime
        assert t_slow > t_fast


class TestCrashRecovery:
    def test_consumer_crash_restarts_and_catches_up(self):
        # The consumer joins late (0.3s of startup work) and crashes
        # once mid-stream; the whole-workflow retry carries the same
        # plan (times=1 -> the crash is spent) and the rerun, with
        # catch_up, subscribes from the newest retained epoch instead
        # of replaying the stream from 0.
        wf = build_stream_wf(6, max_lag=2, catch_up=True,
                             consumer_delay=0.3, consumer_compute=0.02)
        plan = FaultPlan(5, crashes=(CrashRule(rank=1, at_vtime=0.35,
                                               times=1),))
        res = wf.run(timeout=120.0, faults=plan,
                     restart=RestartPolicy(max_retries=1))
        assert res.attempts == 2
        seen = res.returns["consumer"][0]
        assert all(ok for _, ok in seen)
        assert [e for e, _ in seen] == sorted(e for e, _ in seen)
        assert seen[-1][0] == 5  # reached end of stream
        # The successful attempt's first acquisition is a catch-up:
        # the late joiner starts past epoch 0.
        acquires = res.obs.spans.instants("stream", "stream.acquire",
                                          stream="sim")
        assert min(i.labels["epoch"] for i in acquires) > 0
        assert check_stream_leaks(res.obs) == []

    def test_crash_without_restart_policy_propagates(self):
        from repro.simmpi import RankFailure

        wf = build_stream_wf(6, consumer_delay=0.3,
                             consumer_compute=0.02)
        plan = FaultPlan(5, crashes=(CrashRule(rank=1, at_vtime=0.35,
                                               times=1),))
        with pytest.raises(RankFailure):
            wf.run(timeout=120.0, faults=plan)


class TestDepthInvariant:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(nsteps=st.integers(1, 5), max_lag=st.integers(1, 3),
           slow=st.sampled_from([1.0, 3.0, 8.0]))
    def test_queue_depth_never_exceeds_max_lag(self, nsteps, max_lag,
                                               slow):
        wf = build_stream_wf(nsteps, max_lag=max_lag,
                             consumer_compute=0.01)
        plan = FaultPlan(11, slowdowns=(ComputeSlowRule(1, slow),))
        res = wf.run(timeout=120.0, faults=plan)
        seen = res.returns["consumer"][0]
        assert [e for e, _ in seen] == list(range(nsteps))
        assert max_depth(res.obs, "sim") <= max_lag
