"""Bounded virtual-time series: windows, coarsening, recorder queries.

Sample times are written in units of the finest window width
(``DEFAULT_INTERVAL``); ``I`` below is that width."""

from hypothesis import assume, given, settings, strategies as st

from repro.obs.series import (
    DEFAULT_INTERVAL,
    DEFAULT_WINDOWS,
    SeriesRecorder,
    SeriesValue,
    Window,
)

I = DEFAULT_INTERVAL


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
        s = SeriesValue()
        s.record(0.2 * I, 10.0)
        s.record(0.9 * I, 20.0)   # same window as 0.2
        s.record(2.5 * I, 30.0)
        pts = s.points()
        assert [t for t, _ in pts] == [0.0, 2.0 * I]
        assert pts[0][1].count == 2 and pts[0][1].total == 30.0
        assert pts[1][1].count == 1

    def test_coarsens_when_span_exceeds_budget(self):
        s = SeriesValue()
        n = 4 * DEFAULT_WINDOWS
        for t in range(n):
            s.record(t * I, 1.0)
        assert s.interval == 4 * I
        assert len(s.windows) <= DEFAULT_WINDOWS
        assert s.count == n  # no samples lost to coarsening

    def test_memory_stays_bounded_on_long_runs(self):
        s = SeriesValue()
        for i in range(5000):
            s.record(i * 0.01, float(i))
        assert len(s.windows) <= DEFAULT_WINDOWS
        assert s.count == 5000

    def test_coarsening_is_exact(self):
        # floor(t / 2i) == floor(t / i) // 2: the coarse series equals
        # what recording at the coarse width would have produced.
        fine, coarse = SeriesValue(), SeriesValue()
        coarse.interval = 2 * I
        samples = [(0.1, 1.0), (1.9, 2.0), (2.0, 3.0), (3.5, 4.0),
                   (7.7, 5.0)]
        for t, v in samples:
            fine.record(t * I, v)
            coarse.record(t * I, v)
        fine._coarsen()
        assert fine.interval == coarse.interval
        assert {i: w.to_json() for i, w in fine.windows.items()} == \
            {i: w.to_json() for i, w in coarse.windows.items()}

    def test_digest_depends_on_content_only(self):
        a, b = SeriesValue(), SeriesValue()
        a.record(1.5 * I, 2.0)
        b.record(1.5 * I, 2.0)
        assert a.digest() == b.digest()
        b.record(1.5 * I, 2.0)
        assert a.digest() != b.digest()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=-100, max_value=100)),
        min_size=2, max_size=80))
    def test_record_equals_brute_force_recompute(self, samples):
        """Whenever samples open windows and force coarsening, the series
        holds what binning every sample at the final width gives: the
        narrowest doubling of the base whose span fits the budget.
        Integer values keep window totals exact in any summation order."""
        samples = [(t * I, v) for t, v in samples]
        s = SeriesValue()
        for t, v in samples:
            s.record(t, float(v))
        interval = I
        while True:
            idx = [int(t // interval) for t, _ in samples]
            if max(idx) - min(idx) + 1 <= DEFAULT_WINDOWS:
                break
            interval *= 2.0
        assume(interval > I)
        ref = SeriesValue()
        ref.interval = interval
        for i, (_, v) in zip(idx, samples):
            ref.windows.setdefault(i, Window()).add(float(v))
        assert s.interval == interval
        assert s.to_json() == ref.to_json()
        assert s.digest() == ref.digest()


class TestRecorderAndSnapshot:
    def test_record_separates_label_sets(self):
        rec = SeriesRecorder()
        rec.record("depth", 0.0, 1.0, rank=0)
        rec.record("depth", 0.0, 5.0, rank=1)
        assert rec.get("depth", rank=0).count == 1
        assert rec.get("depth", rank=1).points()[0][1].vmax == 5.0
        assert rec.get("depth") is None
        assert [key for key, _ in rec.items()] == [
            ("depth", (("rank", 0),)), ("depth", (("rank", 1),))]

    def test_bound_handle_hits_same_slot(self):
        rec = SeriesRecorder()
        h = rec.bound("q", stream="s")
        h.record(0.0, 1.0)
        h.record(0.5 * I, 2.0)
        assert rec.get("q", stream="s").count == 2

    def test_dump_shapes(self):
        rec = SeriesRecorder()
        rec.record("x", 0.5 * I, 3.0, rank=2)
        doc = rec.to_dict()
        assert doc["x{rank=2}"] == {"interval": I,
                                    "windows": [[0, 1, 3.0, 3.0, 3.0]]}
        assert rec.digests() == {"x{rank=2}": rec.get("x", rank=2).digest()}
        assert SeriesRecorder().to_dict() == {}

    def test_defaults_are_power_of_two(self):
        # Exact coarsening needs the base width to be a power of two;
        # guard the constant.
        import math

        assert DEFAULT_INTERVAL == 2.0 ** -10
        assert math.log2(DEFAULT_WINDOWS).is_integer()
