"""Same-seed determinism (the schedule-analysis payoff).

The wait-state attribution used to wobble across same-seed runs: serve
loops raced on real-thread match order, accounts summed in dict order,
and span ties broke on ids. With one runnable rank at a time, picked
by virtual event time, the whole pipeline is a function of the seed by
construction; :mod:`tests.analyze.schedfuzz` is the proof net. It runs
each transport mode under randomized switch intervals and background
load -- the conditions under which the staged report used to flake
(2/59 runs: a stager answered a consumer request before a producer's
earlier-arriving bundle) -- and here with three runs per mode.
"""

import pytest

from repro.analyze import analyze_obs
from repro.bench.drivers import run_lowfive_file, run_lowfive_memory
from repro.obs.ledger import assert_identical, first_diff
from repro.synth import SyntheticWorkload
from tests.analyze import schedfuzz


@pytest.mark.parametrize("mode", list(schedfuzz.WORKLOADS))
def test_schedule_fuzz(mode):
    """Run record and causal report are identical under host-schedule
    noise, in every transport mode and under message faults."""
    schedfuzz.fuzz(mode, n=3)


def small_wl():
    return SyntheticWorkload(grid_points_per_proc=2000,
                             particles_per_proc=1000)


def fingerprint(res):
    """Everything attribution-shaped, as one JSON-able document."""
    return {"vtime": res.vtime, "messages": res.messages,
            "bytes": res.bytes_sent, "attribution": res.attribution}


class TestFirstDiff:
    def test_names_path_and_both_values(self):
        a = {"report": {"ranks": [{"clock": 1.0}, {"clock": 2.0}]}}
        b = {"report": {"ranks": [{"clock": 1.0}, {"clock": 2.5}]}}
        assert first_diff(a, a) is None
        assert first_diff(a, b) == "/report/ranks/1/clock: 2.0 != 2.5"
        with pytest.raises(AssertionError, match="ranks/1/clock"):
            assert_identical([a, a, b])

    def test_missing_key_and_length(self):
        assert first_diff({"x": 1}, {}) == "/x: 1 != '<missing>'"
        assert first_diff([1, 2], [1]) == ": length 2 != 1"


class TestSameSeedSameLedgers:
    def test_memory_mode_attribution_is_byte_identical(self):
        runs = [run_lowfive_memory(2, 2, small_wl()) for _ in range(3)]
        assert_identical([fingerprint(r) for r in runs])

    def test_file_mode_attribution_is_byte_identical(self):
        runs = [run_lowfive_file(2, 2, small_wl()) for _ in range(2)]
        assert_identical([fingerprint(r) for r in runs])


class TestAnalyzerDeterminism:
    def test_findings_and_trace_identical_across_runs(self):
        """Message ids are per-sender streams, so even the raw causal
        trace (every message record, wildcard specs included) replays
        identically."""
        from repro.bench.drivers import _lowfive_wf, _check
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore

        def one():
            wf = _lowfive_wf(2, 2, small_wl(), THETA_KNL, "memory",
                             PFSStore())
            res = wf.run(model=THETA_KNL.net, timeout=120.0)
            assert _check(res.returns["consumer"])
            return {
                "causal": schedfuzz.causal_table(res.obs),
                "findings": [f.to_dict() for f in analyze_obs(res.obs)],
            }

        a, b = one(), one()
        assert a == b
        assert a["findings"] == []
        assert any(m["spec"] for m in a["causal"]["messages"])


def _report_fingerprint(res):
    """Full causal report -- waits included -- as one document."""
    return {"vtime": res.vtime, "messages": res.messages,
            "bytes": res.bytes_sent,
            "report": res.causal_report().to_dict()}


class TestStreamDeterminism:
    def test_stream_backpressure_report_is_byte_identical(self):
        """A streaming run that gates on backpressure: announcements,
        the catch-up target and the producer's serve order are all
        resolved at deterministic virtual-time points, so the full
        report replays byte-identically."""
        import numpy as np

        import repro.h5 as h5
        from repro.h5.native import NativeVOL
        from repro.lowfive import DistMetadataVOL, StreamConfig
        from repro.pfs import PFSStore
        from repro.workflow import Workflow

        shape = (10, 6)

        def one():
            def make_vol(ctx):
                return ctx.singleton("vol", lambda: DistMetadataVOL(
                    comm=ctx.comm, under=NativeVOL(PFSStore())))

            def producer(ctx):
                vol = make_vol(ctx)
                with ctx.stream_producer(
                        "consumer", "sim", vol,
                        StreamConfig(max_lag=2)) as prod:
                    for step in range(5):
                        with prod.epoch() as f:
                            d = f.create_dataset("g", shape=shape,
                                                 dtype=h5.UINT64)
                            d.write(np.full(shape, step,
                                            dtype=np.uint64).ravel())
                return True

            def consumer(ctx):
                vol = make_vol(ctx)
                seen = []
                with ctx.stream_consumer("producer", "sim",
                                         vol) as cons:
                    for ep in cons.epochs():
                        with ep:
                            seen.append(ep.id)
                        ctx.comm.compute(0.05)
                return seen

            wf = Workflow()
            wf.add_task("producer", 1, producer)
            wf.add_task("consumer", 1, consumer)
            wf.add_link("producer", "consumer")
            res = wf.run(timeout=90.0)
            assert res.returns["consumer"][0] == list(range(5))
            return _report_fingerprint(res)

        assert_identical([one() for _ in range(3)])
