"""Bounded-memory virtual-clock time series.

End-of-run totals answer *how much*; the paper's longitudinal story
(fig5-fig11 curves across modes and scales) and the multi-tenant SLO
work both need *how it evolved* -- queue depths, bytes in flight,
attempt counts over virtual time. A full sample log is unbounded, so a
series here is a fixed-budget array of *windows*: samples landing in
the same virtual-time window fold into a streaming aggregate
``(count, total, min, max)``; when the run outgrows the window budget
the series coarsens itself (window width doubles, adjacent windows
merge), so memory stays ``O(max_windows)`` no matter how long the run.

Window widths are power-of-two multiples of one base interval, which
makes coarsening exact (``floor(t/2i) == floor(t/i) // 2``) and lets
snapshots from different ranks or runs merge associatively like
:class:`~repro.obs.metrics.MetricsSnapshot`: the finer side coarsens to
the coarser width, then windows merge index-by-index.

Determinism: every producer samples in an order fixed by virtual time
(one runnable rank at a time), so every series is byte-stable across
same-seed runs and carries a content digest into the run ledger.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

from repro.obs.metrics import Key, key_str, metric_key

#: Default finest window width (virtual seconds). Power of two so every
#: coarsening step stays exact.
DEFAULT_INTERVAL = 2.0 ** -10

#: Default per-series window budget.
DEFAULT_WINDOWS = 64


@dataclass
class Window:
    """Streaming aggregate of the samples in one time window."""

    count: int = 0
    total: float = 0.0
    vmin: float = float("inf")
    vmax: float = float("-inf")

    def add(self, value: float) -> None:
        """Fold one sample into the aggregates."""
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def merge(self, other: "Window") -> "Window":
        """Aggregates of both windows together (pure)."""
        return Window(self.count + other.count, self.total + other.total,
                      min(self.vmin, other.vmin),
                      max(self.vmax, other.vmax))

    @property
    def mean(self) -> float:
        """Mean of the samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_json(self) -> list[float]:
        """``[count, total, min, max]``."""
        return [self.count, self.total, self.vmin, self.vmax]


class SeriesValue:
    """One bounded series: windows of samples over virtual time.

    ``interval`` only ever grows by doubling from ``base_interval``, so
    any two series sharing a base can be merged exactly.
    """

    __slots__ = ("base_interval", "interval", "max_windows", "windows")

    def __init__(self, base_interval: float = DEFAULT_INTERVAL,
                 max_windows: int = DEFAULT_WINDOWS) -> None:
        if base_interval <= 0.0:
            raise ValueError("base_interval must be > 0")
        if max_windows < 2:
            raise ValueError("max_windows must be >= 2")
        self.base_interval = base_interval
        self.interval = base_interval
        self.max_windows = max_windows
        self.windows: dict[int, Window] = {}

    # -- producing ---------------------------------------------------------

    def record(self, t: float, value: float) -> None:
        """Fold one sample taken at virtual time ``t``."""
        idx = int(t // self.interval)
        w = self.windows.get(idx)
        if w is not None:
            w.add(value)
            return
        # Only a new window can widen the span past the budget.
        w = self.windows[idx] = Window()
        w.add(value)
        if len(self.windows) > 1:
            lo, hi = min(self.windows), max(self.windows)
            while hi - lo + 1 > self.max_windows:
                self._coarsen()
                lo, hi = min(self.windows), max(self.windows)

    def _coarsen(self) -> None:
        """Double the window width, merging adjacent window pairs."""
        self.interval *= 2.0
        merged: dict[int, Window] = {}
        for idx, w in self.windows.items():
            tgt = merged.get(idx >> 1)
            merged[idx >> 1] = w if tgt is None else tgt.merge(w)
        self.windows = merged

    # -- combining ---------------------------------------------------------

    def copy(self) -> "SeriesValue":
        """Independent deep copy (windows included)."""
        out = SeriesValue(self.base_interval, self.max_windows)
        out.interval = self.interval
        out.windows = {i: Window(w.count, w.total, w.vmin, w.vmax)
                       for i, w in self.windows.items()}
        return out

    def merge(self, other: "SeriesValue") -> "SeriesValue":
        """Associative merge; both sides must share a base interval."""
        if self.base_interval != other.base_interval:
            raise ValueError(
                f"cannot merge series with base intervals "
                f"{self.base_interval} and {other.base_interval}"
            )
        a, b = self.copy(), other.copy()
        while a.interval < b.interval:
            a._coarsen()
        while b.interval < a.interval:
            b._coarsen()
        for idx, w in b.windows.items():
            mine = a.windows.get(idx)
            a.windows[idx] = w if mine is None else mine.merge(w)
        a.max_windows = min(a.max_windows, b.max_windows)
        if a.windows:
            lo, hi = min(a.windows), max(a.windows)
            while hi - lo + 1 > a.max_windows:
                a._coarsen()
                lo, hi = min(a.windows), max(a.windows)
        return a

    # -- querying ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Total samples folded into the series."""
        return sum(w.count for w in self.windows.values())

    def points(self) -> list[tuple[float, Window]]:
        """``(window start vtime, Window)`` pairs, time-ordered."""
        return [(idx * self.interval, self.windows[idx])
                for idx in sorted(self.windows)]

    def to_json(self) -> dict[str, object]:
        """JSON-able form: window width plus ``[index, *aggregates]`` rows."""
        return {
            "interval": self.interval,
            "windows": [[idx] + self.windows[idx].to_json()
                        for idx in sorted(self.windows)],
        }

    def digest(self) -> str:
        """Stable content digest (windows + width)."""
        blob = json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.blake2b(blob, digest_size=8).hexdigest()


class BoundSeries:
    """A pre-resolved handle onto one series (hot-path producer).

    Like :class:`~repro.obs.metrics.BoundCounter`: resolve the
    ``(name, labels)`` key once, then every :meth:`record` is a locked
    window update with no key construction.
    """

    __slots__ = ("_lock", "_slot")

    def __init__(self, lock: threading.Lock, slot: SeriesValue) -> None:
        self._lock = lock
        self._slot = slot

    def record(self, t: float, value: float) -> None:
        """Fold one sample taken at vtime ``t`` into the bound series."""
        with self._lock:
            self._slot.record(t, value)


@dataclass(frozen=True)
class SeriesSnapshot:
    """Immutable copy of a recorder: ``key -> SeriesValue``."""

    data: dict[Key, SeriesValue] = field(default_factory=dict)

    def merge(self, other: "SeriesSnapshot") -> "SeriesSnapshot":
        """Key-wise merge of two snapshots (pure, associative)."""
        out = dict(self.data)
        for k, v in other.data.items():
            mine = out.get(k)
            out[k] = v if mine is None else mine.merge(v)
        return SeriesSnapshot(out)

    def get(self, name: str, **labels: object) -> SeriesValue | None:
        """The series for ``(name, labels)`` or ``None``."""
        return self.data.get(metric_key(name, labels))

    def to_dict(self) -> dict[str, object]:
        """Plain-dict dump: ``{name{labels}: series json}``."""
        return {key_str(k): v.to_json()
                for k, v in sorted(self.data.items())}

    def digests(self) -> dict[str, str]:
        """Stable per-series content digests."""
        return {key_str(k): v.digest()
                for k, v in sorted(self.data.items())}


class SeriesRecorder:
    """Thread-safe registry of bounded virtual-time series.

    One lock guards all series; a sample is a dict lookup plus a
    window update, cheap enough for protocol-rate sampling.
    """

    PRODUCERS = ("record", "bound")  # see ObsContext

    def __init__(self, base_interval: float = DEFAULT_INTERVAL,
                 max_windows: int = DEFAULT_WINDOWS) -> None:
        self.base_interval = base_interval
        self.max_windows = max_windows
        self._lock = threading.Lock()
        self._data: dict[Key, SeriesValue] = {}

    def _slot(self, name: str, labels: dict[str, object]) -> SeriesValue:
        key = metric_key(name, labels)
        v = self._data.get(key)
        if v is None:
            v = self._data[key] = SeriesValue(self.base_interval,
                                              self.max_windows)
        return v

    def record(self, name: str, t: float, value: float, *,
               rank: object = None, **labels: object) -> None:
        """Fold one sample of ``(name, labels)`` taken at vtime ``t``."""
        if rank is not None:
            labels["rank"] = rank
        with self._lock:
            self._slot(name, labels).record(t, value)

    def bound(self, name: str, *, rank: object = None,
              **labels: object) -> BoundSeries:
        """Resolve ``(name, labels)`` once; returns a cheap handle."""
        if rank is not None:
            labels["rank"] = rank
        with self._lock:
            slot = self._slot(name, labels)
        return BoundSeries(self._lock, slot)

    def snapshot(self) -> SeriesSnapshot:
        """Immutable copy of every series."""
        with self._lock:
            return SeriesSnapshot(
                {k: v.copy() for k, v in self._data.items()}
            )

    def to_dict(self) -> dict[str, object]:
        """Shortcut: ``snapshot().to_dict()``."""
        return self.snapshot().to_dict()


def series_dump(series: object) -> dict[str, object]:
    """Plain-dict dump of a recorder or snapshot (JSON-able)."""
    if isinstance(series, SeriesRecorder):
        series = series.snapshot()
    if isinstance(series, SeriesSnapshot):
        return series.to_dict()
    raise TypeError(f"cannot dump series from {type(series).__name__}")
