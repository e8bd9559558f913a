"""Metrics registry: counters, queries and the dump."""

import json

from repro.obs.metrics import MetricsRegistry, key_str, metric_key


class TestKeys:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 2, "a": 1}) == \
            metric_key("m", {"a": 1, "b": 2})

    def test_key_str(self):
        assert key_str(metric_key("m", {})) == "m"
        assert key_str(metric_key("m", {"rank": 3, "file": "f"})) == \
            "m{file=f,rank=3}"


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("bytes", 100)
        reg.inc("bytes", 50)
        v = reg.get("bytes")
        assert v.total == 150 and v.count == 2

    def test_default_increment_is_one(self):
        reg = MetricsRegistry()
        reg.inc("calls")
        reg.inc("calls")
        assert reg.get("calls").total == 2

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("bytes", 10, rank=0)
        reg.inc("bytes", 20, rank=1)
        assert reg.get("bytes", rank=0).total == 10
        assert reg.get("bytes", rank=1).total == 20
        assert reg.get("bytes") is None  # unlabeled series distinct


class TestBoundCounters:
    def test_bound_inc_lands_in_same_slot_as_plain_inc(self):
        reg = MetricsRegistry()
        reg.inc("msgs", 2, rank=3, kind="send")
        handle = reg.counter("msgs", rank=3, kind="send")
        handle.inc()
        handle.inc(5)
        v = reg.get("msgs", rank=3, kind="send")
        assert v.total == 8 and v.count == 3

    def test_handles_to_different_labels_stay_separate(self):
        reg = MetricsRegistry()
        a = reg.counter("msgs", rank=0)
        b = reg.counter("msgs", rank=1)
        a.inc(10)
        b.inc(20)
        assert reg.get("msgs", rank=0).total == 10
        assert reg.get("msgs", rank=1).total == 20


class TestSnapshots:
    def test_to_dict_is_json_able(self):
        reg = MetricsRegistry()
        reg.inc("bytes", 7, rank=0)
        reg.counter("calls").inc(3, count=2)
        d = reg.to_dict()
        json.dumps(d)  # must not raise
        assert d == {"counter": {
            "bytes{rank=0}": {"total": 7, "count": 1},
            "calls": {"total": 3, "count": 2},
        }}
