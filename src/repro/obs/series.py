"""Bounded-memory virtual-clock time series.

End-of-run totals answer *how much*; the paper's longitudinal story
(fig5-fig11 curves across modes and scales) needs *how it evolved* --
queue depths, bytes in flight, attempt counts over virtual time. A full
sample log is unbounded, so a series here is a fixed-budget array of
*windows*: samples landing in the same virtual-time window fold into a
streaming aggregate ``(count, total, min, max)``; when the run outgrows
the window budget the series coarsens itself (window width doubles,
adjacent windows merge), so memory stays ``O(DEFAULT_WINDOWS)`` no
matter how long the run.

Window widths are power-of-two multiples of :data:`DEFAULT_INTERVAL`,
which makes coarsening exact (``floor(t/2i) == floor(t/i) // 2``): a
coarsened series equals one recorded at the coarse width from the start.

Determinism: every producer samples in an order fixed by virtual time
(one runnable rank at a time), so every series is byte-stable across
same-seed runs and carries a content digest into the run ledger.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.obs.metrics import Key, key_str, metric_key

#: Finest window width (virtual seconds). Power of two so every
#: coarsening step stays exact.
DEFAULT_INTERVAL = 2.0 ** -10

#: Per-series window budget.
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

    ``interval`` only ever grows by doubling from
    :data:`DEFAULT_INTERVAL`, and the span of windows never exceeds
    :data:`DEFAULT_WINDOWS`.
    """

    __slots__ = ("interval", "windows")

    def __init__(self) -> None:
        self.interval = DEFAULT_INTERVAL
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
            while hi - lo + 1 > DEFAULT_WINDOWS:
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


class SeriesRecorder:
    """Registry of bounded virtual-time series.

    A sample is a dict lookup plus a window update, cheap enough for
    protocol-rate sampling.
    """

    PRODUCERS = ("record", "bound")  # see ObsContext

    def __init__(self) -> None:
        self._data: dict[Key, SeriesValue] = {}

    def _slot(self, name: str, labels: dict[str, object]) -> SeriesValue:
        key = metric_key(name, labels)
        v = self._data.get(key)
        if v is None:
            v = self._data[key] = SeriesValue()
        return v

    def record(self, name: str, t: float, value: float, *,
               rank: object = None, **labels: object) -> None:
        """Fold one sample of ``(name, labels)`` taken at vtime ``t``."""
        if rank is not None:
            labels["rank"] = rank
        self._slot(name, labels).record(t, value)

    def bound(self, name: str, *, rank: object = None,
              **labels: object) -> SeriesValue:
        """Resolve ``(name, labels)`` once; returns the series itself,
        whose :meth:`SeriesValue.record` needs no key construction."""
        if rank is not None:
            labels["rank"] = rank
        return self._slot(name, labels)

    def get(self, name: str, **labels: object) -> SeriesValue | None:
        """The live series for ``(name, labels)`` or ``None``."""
        return self._data.get(metric_key(name, labels))

    def items(self) -> list[tuple[Key, SeriesValue]]:
        """``(key, series)`` pairs in key order."""
        return sorted(self._data.items())

    def to_dict(self) -> dict[str, object]:
        """Plain-dict dump: ``{name{labels}: series json}``."""
        return {key_str(k): v.to_json()
                for k, v in sorted(self._data.items())}

    def digests(self) -> dict[str, str]:
        """Stable per-series content digests."""
        return {key_str(k): v.digest()
                for k, v in sorted(self._data.items())}
