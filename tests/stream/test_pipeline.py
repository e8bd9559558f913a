"""Streaming pipeline tests: epoch lifecycle, backpressure, reduction.

Every test runs a producer task publishing a series of epochs through
the VOL while a consumer task subscribes -- the ``repro.stream``
tentpole. Values are position+epoch encoded so cross-epoch mixups are
caught, and the stream ledger is asserted against the lifecycle the
run should have produced.
"""

import sys

import numpy as np
import pytest

import repro.h5 as h5
from repro.bench.drivers import epoch_values, stream_workflow
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.lowfive.config import CostConfig
from repro.lowfive.reduce import reduction_stride
from repro.pfs import PFSStore
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
)
from repro.workflow import Workflow

SHAPE = (12, 8)


@pytest.fixture(autouse=True)
def aggressive_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


def epoch_grid(sel, epoch):
    """Position-encoded values, shifted per epoch."""
    return epoch_values(sel, SHAPE, epoch)


def run_stream(nprod, ncons, nsteps, **kw):
    """1 producer task -> 1 consumer task streaming ``nsteps`` epochs of
    a ``SHAPE`` grid (:func:`repro.bench.drivers.stream_workflow`)."""
    return stream_workflow(nprod, ncons, nsteps, shape=SHAPE,
                           **kw).run(timeout=120.0)


def epochs_read(res):
    """Per consumer rank, ``[(epoch, values exact), ...]`` in read
    order."""
    return [s for s, _ in res.returns["consumer"]]


class TestPipeline:
    def test_1_to_1_all_epochs_in_order(self):
        res = run_stream(1, 1, 5)
        for seen in epochs_read(res):
            assert seen == [(e, True) for e in range(5)]

    def test_n_to_m_redistribution_per_epoch(self):
        # Mismatched decompositions, re-resolved for every epoch.
        res = run_stream(3, 2, 4)
        for seen in epochs_read(res):
            assert seen == [(e, True) for e in range(4)]

    def test_zero_epoch_stream_terminates(self):
        res = run_stream(2, 2, 0)
        for seen in epochs_read(res):
            assert seen == []

    def test_single_epoch(self):
        res = run_stream(2, 1, 1, max_lag=1)
        assert epochs_read(res)[0] == [(0, True)]

    def test_epochs_are_retired_once_released(self):
        res = run_stream(1, 1, 6, max_lag=2)
        ledger = res.obs.stream
        drops = ledger.events("sim", "drop")
        # Every epoch is eventually dropped by the producer rank.
        assert sorted(e.epoch for e in drops) == list(range(6))
        assert ledger.open_acquisitions() == []

    def test_ledger_lifecycle_per_epoch(self):
        res = run_stream(1, 1, 3)
        ledger = res.obs.stream
        for e in range(3):
            kinds = [ev.kind for ev in ledger.events("sim")
                     if ev.epoch == e]
            assert "publish" in kinds
            assert "acquire" in kinds
            assert "release" in kinds
            assert "drop" in kinds


class TestBackpressure:
    def test_queue_depth_is_bounded_by_max_lag(self):
        # Consumer 2x+ slower than the producer.
        res = run_stream(1, 1, 8, max_lag=2, producer_compute=0.01,
                         consumer_compute=0.08)
        assert res.obs.stream.max_depth("sim") <= 2

    def test_backpressure_wait_attributed_to_lagging_consumer(self):
        res = run_stream(1, 1, 8, max_lag=2, producer_compute=0.01,
                         consumer_compute=0.08)
        rep = res.causal_report()
        by_cat = rep.wait_by_category()
        assert by_cat.get("backpressure", 0.0) > 0.0
        bp = [w for w in rep.waits if w.category == "backpressure"]
        # The producer (world rank 0) waits; the lagging consumer
        # (world rank 1) is the cause.
        assert {w.rank for w in bp} == {0}
        assert {w.cause_rank for w in bp} == {1}

    def test_window_wider_than_stream_never_gates(self):
        # A live window bigger than the whole stream can never fill,
        # so the producer never blocks: zero backpressure seconds
        # (end-of-stream drain waits must not be misclassified).
        res = run_stream(1, 1, 5, max_lag=6, producer_compute=0.05)
        rep = res.causal_report()
        assert rep.wait_by_category().get("backpressure", 0.0) == 0.0

    def test_max_lag_1_lockstep(self):
        res = run_stream(1, 1, 5, max_lag=1, consumer_compute=0.02)
        assert res.obs.stream.max_depth("sim") <= 1
        for seen in epochs_read(res):
            assert [e for e, _ in seen] == list(range(5))


class TestCatchUp:
    def test_slow_joiner_skips_to_newest(self):
        # A consumer far slower than the producer, allowed to skip:
        # it consumes fewer epochs than published but always the
        # newest available, and every epoch still gets released
        # (cumulative high-water marks cover the skipped ones).
        res = run_stream(1, 1, 8, max_lag=4, producer_compute=0.001,
                         consumer_compute=0.2, catch_up=True)
        seen = epochs_read(res)[0]
        ids = [e for e, ok in seen]
        assert all(ok for _, ok in seen)
        assert ids == sorted(ids)
        assert ids[-1] == 7  # reached the end of the stream
        assert len(ids) < 8  # actually skipped some epochs
        assert res.obs.stream.open_acquisitions() == []

    def test_catch_up_releases_cover_skipped_epochs(self):
        res = run_stream(1, 1, 8, max_lag=4, producer_compute=0.001,
                         consumer_compute=0.2, catch_up=True)
        drops = res.obs.stream.events("sim", "drop")
        assert sorted(e.epoch for e in drops) == list(range(8))


class TestReduction:
    def test_level_0_is_bit_identical_full_fidelity(self):
        res = run_stream(2, 2, 3, level=0)
        for seen in epochs_read(res):
            assert all(ok for _, ok in seen)

    def test_bytes_on_wire_decrease_monotonically(self):
        sizes = []
        for level in (0, 1, 2):
            res = run_stream(1, 1, 3, level=level)
            sizes.append(res.bytes_sent)
        assert sizes[0] > sizes[1] > sizes[2]

    def test_subsampled_values_are_exact_at_kept_points(self):
        # At level 1 the server decimates each served piece by the
        # configured stride; the points that do arrive carry exact
        # values at their true positions.
        costs = CostConfig(reduction_level=1)
        stride = reduction_stride(costs)
        assert stride == 2

        def make_vol(ctx):
            return ctx.singleton("vol", lambda: DistMetadataVOL(
                comm=ctx.comm, under=NativeVOL(PFSStore()), costs=costs))

        def producer(ctx):
            vol = make_vol(ctx)
            with ctx.stream_producer("consumer", "sim", vol) as prod:
                with prod.epoch() as f:
                    d = f.create_dataset("grid", shape=SHAPE,
                                         dtype=h5.UINT64)
                    sel = producer_grid_selection(SHAPE, 0, 1)
                    d.write(grid_values(sel, SHAPE), file_select=sel)
            return True

        def consumer(ctx):
            vol = make_vol(ctx)
            with ctx.stream_consumer("producer", "sim", vol) as cons:
                with cons.next_epoch() as ep:
                    vals = np.asarray(ep.file["grid"][...])
            return vals

        wf = Workflow()
        wf.add_task("producer", 1, producer)
        wf.add_task("consumer", 1, consumer)
        wf.add_link("producer", "consumer")
        res = wf.run(timeout=60.0)
        got = res.returns["consumer"][0]
        full = grid_values(
            producer_grid_selection(SHAPE, 0, 1), SHAPE
        ).reshape(SHAPE)
        # Kept points (the producer's single piece decimated by the
        # stride in every dimension) are exact ...
        assert np.array_equal(got[::stride, ::stride],
                              full[::stride, ::stride])
        # ... and the decimated points were not transported (fill 0;
        # position-encoding makes 0 impossible except at the origin).
        assert not np.array_equal(got, full)
        assert np.count_nonzero(got) <= (full.size + 3) // 4 + 1


def _run_retain(release_after_loop: bool):
    """1->1 stream of 3 epochs; the consumer retains the last one.

    With ``release_after_loop`` it reads the retained epoch once the
    stream has ended and releases it properly; otherwise it exits
    without releasing -- the epoch-leak scenario.
    """
    def make_vol(ctx):
        return ctx.singleton("vol", lambda: DistMetadataVOL(
            comm=ctx.comm, under=NativeVOL(PFSStore())))

    def producer(ctx):
        vol = make_vol(ctx)
        with ctx.stream_producer("consumer", "sim", vol) as prod:
            for step in range(3):
                with prod.epoch() as f:
                    d = f.create_dataset("grid", shape=SHAPE,
                                         dtype=h5.UINT64)
                    sel = producer_grid_selection(SHAPE, 0, 1)
                    d.write(epoch_grid(sel, step), file_select=sel)
        return True

    def consumer(ctx):
        vol = make_vol(ctx)
        held = None
        with ctx.stream_consumer("producer", "sim", vol) as cons:
            for ep in cons.epochs():
                with ep:
                    if ep.id == 2:
                        ep.retain()
                        held = ep
            late = None
            if release_after_loop:
                # The stream has ended (EOS seen) but the retained
                # epoch is still live on the producer: reads still
                # work, then the explicit release retires it.
                sel = consumer_grid_selection(SHAPE, 0, 1)
                late = np.asarray(held.file["grid"].read(
                    sel, reshape=False))
                ok = np.array_equal(late, epoch_grid(sel, 2))
                held.release()
                return ok
        return held is not None

    wf = Workflow()
    wf.add_task("producer", 1, producer)
    wf.add_task("consumer", 1, consumer)
    wf.add_link("producer", "consumer")
    return wf.run(timeout=60.0)


class TestRetain:
    def test_retained_last_epoch_readable_after_eos_then_released(self):
        res = _run_retain(release_after_loop=True)
        assert res.returns["consumer"] == [True]
        assert res.obs.stream.open_acquisitions() == []
        drops = res.obs.stream.events("sim", "drop")
        assert sorted(e.epoch for e in drops) == [0, 1, 2]

    def test_unreleased_retained_epoch_is_an_open_acquisition(self):
        res = _run_retain(release_after_loop=False)
        assert res.returns["consumer"] == [True]
        # World rank 1 (the consumer) still holds epoch 2.
        assert res.obs.stream.open_acquisitions() == [("sim", 2, 1)]
