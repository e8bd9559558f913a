"""Bounded virtual-time series: windows, coarsening, exact merges."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.obs.series import (
    DEFAULT_INTERVAL,
    DEFAULT_WINDOWS,
    SeriesRecorder,
    SeriesSnapshot,
    SeriesValue,
    Window,
    series_dump,
)


class TestWindow:
    def test_add_tracks_all_aggregates(self):
        w = Window()
        w.add(3.0)
        w.add(1.0)
        w.add(2.0)
        assert w.count == 3
        assert w.total == 6.0
        assert w.vmin == 1.0 and w.vmax == 3.0
        assert w.mean == 2.0

    def test_merge_is_componentwise(self):
        a, b = Window(), Window()
        a.add(1.0)
        b.add(5.0)
        m = a.merge(b)
        assert (m.count, m.total, m.vmin, m.vmax) == (2, 6.0, 1.0, 5.0)

    def test_empty_mean_is_zero(self):
        assert Window().mean == 0.0


class TestSeriesValue:
    def test_samples_fold_into_time_windows(self):
        s = SeriesValue(base_interval=1.0, max_windows=8)
        s.record(0.2, 10.0)
        s.record(0.9, 20.0)   # same window as 0.2
        s.record(2.5, 30.0)
        pts = s.points()
        assert [t for t, _ in pts] == [0.0, 2.0]
        assert pts[0][1].count == 2 and pts[0][1].total == 30.0
        assert pts[1][1].count == 1

    def test_coarsens_when_span_exceeds_budget(self):
        s = SeriesValue(base_interval=1.0, max_windows=4)
        for t in range(16):
            s.record(float(t), 1.0)
        assert s.interval > 1.0
        assert len(s.windows) <= 4
        assert s.count == 16  # no samples lost to coarsening

    def test_memory_stays_bounded_on_long_runs(self):
        s = SeriesValue(base_interval=DEFAULT_INTERVAL, max_windows=16)
        for i in range(5000):
            s.record(i * 0.01, float(i))
        assert len(s.windows) <= 16
        assert s.count == 5000

    def test_coarsening_is_exact(self):
        # floor(t / 2i) == floor(t / i) // 2: the coarse series equals
        # what recording at the coarse width would have produced.
        fine = SeriesValue(base_interval=1.0, max_windows=64)
        coarse = SeriesValue(base_interval=2.0, max_windows=64)
        samples = [(0.1, 1.0), (1.9, 2.0), (2.0, 3.0), (3.5, 4.0),
                   (7.7, 5.0)]
        for t, v in samples:
            fine.record(t, v)
            coarse.record(t, v)
        fine._coarsen()
        assert fine.interval == coarse.interval
        assert {i: w.to_json() for i, w in fine.windows.items()} == \
            {i: w.to_json() for i, w in coarse.windows.items()}

    def test_merge_of_split_equals_full_record(self):
        full = SeriesValue(base_interval=1.0, max_windows=64)
        a = SeriesValue(base_interval=1.0, max_windows=64)
        b = SeriesValue(base_interval=1.0, max_windows=64)
        for i, (t, v) in enumerate([(0.5, 1.0), (1.5, 2.0), (2.5, 3.0),
                                    (3.5, 4.0)]):
            full.record(t, v)
            (a if i % 2 == 0 else b).record(t, v)
        merged = a.merge(b)
        assert merged.to_json() == full.to_json()
        assert merged.digest() == full.digest()

    def test_merge_aligns_mixed_intervals(self):
        a = SeriesValue(base_interval=1.0, max_windows=4)
        b = SeriesValue(base_interval=1.0, max_windows=64)
        for t in range(16):  # forces a to coarsen to interval 4
            a.record(float(t), 1.0)
        b.record(0.5, 7.0)
        m = a.merge(b)
        assert m.interval == a.interval
        assert m.count == 17

    def test_merge_rejects_mismatched_bases(self):
        a = SeriesValue(base_interval=1.0)
        b = SeriesValue(base_interval=0.5)
        with pytest.raises(ValueError, match="base interval"):
            a.merge(b)

    def test_copy_is_independent(self):
        s = SeriesValue(base_interval=1.0)
        s.record(0.0, 1.0)
        c = s.copy()
        c.record(0.0, 2.0)
        assert s.count == 1 and c.count == 2

    def test_digest_depends_on_content_only(self):
        a = SeriesValue(base_interval=1.0)
        b = SeriesValue(base_interval=1.0)
        a.record(1.5, 2.0)
        b.record(1.5, 2.0)
        assert a.digest() == b.digest()
        b.record(1.5, 2.0)
        assert a.digest() != b.digest()

    def test_validates_constructor_args(self):
        with pytest.raises(ValueError):
            SeriesValue(base_interval=0.0)
        with pytest.raises(ValueError):
            SeriesValue(max_windows=1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)),
        max_size=60),
        st.integers(min_value=0, max_value=60))
    def test_merge_preserves_count_and_total(self, samples, cut):
        full = SeriesValue(base_interval=1.0, max_windows=8)
        a = SeriesValue(base_interval=1.0, max_windows=8)
        b = SeriesValue(base_interval=1.0, max_windows=8)
        for i, (t, v) in enumerate(samples):
            full.record(t, v)
            (a if i < cut else b).record(t, v)
        m = a.merge(b)
        assert m.count == full.count == len(samples)
        assert sum(w.total for w in m.windows.values()) == pytest.approx(
            sum(v for _, v in samples), abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=-100, max_value=100)),
        min_size=2, max_size=80),
        st.integers(min_value=2, max_value=8))
    def test_record_equals_brute_force_recompute(self, samples, budget):
        """Whenever samples open windows and force coarsening, the series
        holds what binning every sample at the final width gives: the
        narrowest doubling of the base whose span fits the budget.
        Integer values keep window totals exact in any summation order."""
        s = SeriesValue(base_interval=1.0, max_windows=budget)
        for t, v in samples:
            s.record(t, float(v))
        interval = 1.0
        while True:
            idx = [int(t // interval) for t, _ in samples]
            if max(idx) - min(idx) + 1 <= budget:
                break
            interval *= 2.0
        assume(interval > 1.0)
        ref = SeriesValue(base_interval=1.0, max_windows=budget)
        ref.interval = interval
        for i, (_, v) in zip(idx, samples):
            ref.windows.setdefault(i, Window()).add(float(v))
        assert s.interval == interval
        assert s.to_json() == ref.to_json()
        assert s.digest() == ref.digest()


class TestRecorderAndSnapshot:
    def test_record_separates_label_sets(self):
        rec = SeriesRecorder(base_interval=1.0)
        rec.record("depth", 0.0, 1.0, rank=0)
        rec.record("depth", 0.0, 5.0, rank=1)
        snap = rec.snapshot()
        assert snap.get("depth", rank=0).count == 1
        assert snap.get("depth", rank=1).points()[0][1].vmax == 5.0
        assert snap.get("depth") is None

    def test_bound_handle_hits_same_slot(self):
        rec = SeriesRecorder(base_interval=1.0)
        h = rec.bound("q", stream="s")
        h.record(0.0, 1.0)
        h.record(0.5, 2.0)
        assert rec.snapshot().get("q", stream="s").count == 2

    def test_snapshot_is_isolated_from_recorder(self):
        rec = SeriesRecorder(base_interval=1.0)
        rec.record("x", 0.0, 1.0)
        snap = rec.snapshot()
        rec.record("x", 0.0, 2.0)
        assert snap.get("x").count == 1

    def test_snapshot_merge_unions_keys(self):
        ra, rb = SeriesRecorder(base_interval=1.0), \
            SeriesRecorder(base_interval=1.0)
        ra.record("a", 0.0, 1.0)
        rb.record("a", 0.0, 1.0)
        rb.record("b", 0.0, 1.0)
        m = ra.snapshot().merge(rb.snapshot())
        assert m.get("a").count == 2
        assert m.get("b").count == 1

    def test_dump_shapes(self):
        rec = SeriesRecorder(base_interval=1.0)
        rec.record("x", 0.5, 3.0, rank=2)
        doc = series_dump(rec)
        assert doc == series_dump(rec.snapshot())
        assert doc["x{rank=2}"]["windows"] == [[0, 1, 3.0, 3.0, 3.0]]
        with pytest.raises(TypeError):
            series_dump({"not": "a recorder"})

    def test_defaults_are_power_of_two(self):
        # The merge-exactness argument needs the base width to be a
        # power of two; guard the constant.
        import math

        assert DEFAULT_INTERVAL == 2.0 ** -10
        assert math.log2(DEFAULT_WINDOWS).is_integer()
        assert SeriesSnapshot().to_dict() == {}
