"""Metrics: counters and histograms.

Every metric is keyed by ``(name, labels)``; per-rank scoping is just a
``rank=...`` label, so one registry serves all ranks of a simulated
machine. Readers query the registry itself:

    reg = MetricsRegistry()
    reg.inc("simmpi.send.bytes", 4096, rank=3)
    reg.observe("lowfive.query.bytes", 1024, rank=1, dataset="/grid")
    reg.get("simmpi.send.bytes", rank=3).total   # 4096.0
    reg.to_dict()   # plain JSON-able dict

Histograms use base-2 exponential buckets (bucket ``i`` holds values in
``(2**(i-1), 2**i]``; non-positive values land in bucket ``None``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import cast

#: Canonical metric key: ``(name, sorted (label, value) pairs)``.
Key = tuple[str, tuple[tuple[str, object], ...]]


def metric_key(name: str, labels: dict[str, object]) -> Key:
    """Canonical hashable key for ``(name, labels)``."""
    return (name, tuple(sorted(labels.items())))


def key_str(key: Key) -> str:
    """Prometheus-flavoured rendering: ``name{k=v,...}``."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class CounterValue:
    """Monotonic sum plus increment count."""

    total: float = 0.0
    count: int = 0

    def inc(self, value: float = 1.0, count: int = 1) -> None:
        """Add ``value``, standing for ``count`` increments
        (``inc(s, count=n)`` equals ``n`` increments summing to ``s``)."""
        self.total += value
        self.count += count

    def to_json(self) -> dict[str, object]:
        """JSON-able form."""
        return {"total": self.total, "count": self.count}


def bucket_index(value: float) -> int | None:
    """Exponential bucket of ``value``: smallest ``i`` with
    ``2**i >= value`` (and ``None`` for values <= 0)."""
    if value <= 0:
        return None
    return max(0, math.ceil(math.log2(value)))


@dataclass
class HistogramValue:
    """Bucketed distribution: counts per base-2 bucket + moments."""

    buckets: dict[int | None, int] = field(default_factory=dict)
    total: float = 0.0
    count: int = 0
    vmin: float = math.inf
    vmax: float = -math.inf

    def observe(self, value: float) -> None:
        """Count ``value`` into its bucket and the moments."""
        b = bucket_index(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.total += value
        self.count += 1
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate (``None`` when empty).

        The base-2 bucket containing the order statistic is exact;
        within it the estimate interpolates linearly between the bucket
        bounds, then clamps to the observed ``[min, max]``. For values
        ``>= 1`` the estimate is always within a factor of two of the
        true order statistic (bucket 0 spans all of ``(0, 1]``, so no
        such bound holds below 1).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0.0
        # None bucket (non-positive values) sorts lowest.
        ordered = sorted(self.buckets.items(),
                         key=lambda kv: (kv[0] is not None, kv[0] or 0))
        for b, n in ordered:
            if seen + n >= target or (b, n) == ordered[-1]:
                if b is None:
                    lo, hi = self.vmin, min(0.0, self.vmax)
                elif b == 0:
                    lo, hi = 0.0, 1.0
                else:
                    lo, hi = 2.0 ** (b - 1), 2.0 ** b
                frac = (target - seen) / n if n else 0.0
                est = lo + min(max(frac, 0.0), 1.0) * (hi - lo)
                return min(max(est, self.vmin), self.vmax)
            seen += n
        return self.vmax  # unreachable; defensive

    def to_json(self) -> dict[str, object]:
        """JSON-able form; ``min``/``max`` are ``None`` when empty."""
        return {
            "buckets": {str(b): n for b, n in sorted(
                self.buckets.items(), key=lambda kv: (kv[0] is None, kv[0]))},
            "total": self.total,
            "count": self.count,
            "min": None if self.count == 0 else self.vmin,
            "max": None if self.count == 0 else self.vmax,
        }


#: Any concrete metric value.
MetricValue = CounterValue | HistogramValue

_KINDS: dict[str, type[MetricValue]] = {
    "counter": CounterValue, "histogram": HistogramValue,
}


class MetricsRegistry:
    """Registry of counters and histograms.

    Operations are dictionary lookups plus a couple of float ops, cheap
    enough for per-message accounting on the simulated machine.
    """

    PRODUCERS = ("inc", "counter", "observe")  # see ObsContext

    def __init__(self) -> None:
        self._data: dict[tuple[str, Key], MetricValue] = {}

    def _slot(self, kind: str, name: str,
              labels: dict[str, object]) -> MetricValue:
        key = (kind, metric_key(name, labels))
        v = self._data.get(key)
        if v is None:
            for other in _KINDS:
                if other != kind and (other, key[1]) in self._data:
                    raise TypeError(
                        f"metric {name!r} already registered as {other}"
                    )
            v = _KINDS[kind]()
            self._data[key] = v
        return v

    def inc(self, name: str, value: float = 1.0, *,
            rank: object = None, **labels: object) -> None:
        """Add ``value`` to the counter ``(name, labels)``."""
        if rank is not None:
            labels["rank"] = rank
        cast(CounterValue,
             self._slot("counter", name, labels)).inc(value)

    def counter(self, name: str, *, rank: object = None,
                **labels: object) -> CounterValue:
        """Resolve ``(name, labels)`` once; returns the counter itself.

        Use on hot paths instead of repeated :meth:`inc` calls with the
        same labels: :meth:`CounterValue.inc` on the returned slot skips
        the per-call key construction entirely. A producer that tallies
        on its own side folds ``count`` increments into one call.
        """
        if rank is not None:
            labels["rank"] = rank
        return cast(CounterValue, self._slot("counter", name, labels))

    def observe(self, name: str, value: float, *,
                rank: object = None, **labels: object) -> None:
        """Record ``value`` into the histogram ``(name, labels)``."""
        if rank is not None:
            labels["rank"] = rank
        cast(HistogramValue,
             self._slot("histogram", name, labels)).observe(value)

    def get(self, name: str, **labels: object) -> MetricValue | None:
        """The live value object for ``(name, labels)`` or ``None``."""
        key = metric_key(name, labels)
        for kind in _KINDS:
            v = self._data.get((kind, key))
            if v is not None:
                return v
        return None

    def to_dict(self) -> dict[str, dict[str, object]]:
        """Plain-dict dump: ``{kind: {name{labels}: value...}}``."""
        out: dict[str, dict[str, object]] = {kind: {} for kind in _KINDS}
        for (kind, key), v in sorted(self._data.items(),
                                     key=lambda kv: kv[0]):
            out[kind][key_str(key)] = v.to_json()
        return out
