"""Metrics: counters.

Every counter is keyed by ``(name, labels)``; per-rank scoping is just a
``rank=...`` label, so one registry serves all ranks of a simulated
machine. Readers query the registry itself:

    reg = MetricsRegistry()
    reg.inc("simmpi.send.bytes", 4096, rank=3)
    reg.get("simmpi.send.bytes", rank=3).total   # 4096.0
    reg.to_dict()   # {"counter": {"simmpi.send.bytes{rank=3}": ...}}

Distributions of span durations are read from the spans themselves
(the HTML run report of ``repro.tools run`` takes exact order
statistics), so the registry keeps no histogram kind.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class MetricsRegistry:
    """Registry of counters.

    Operations are dictionary lookups plus a couple of float ops, cheap
    enough for per-message accounting on the simulated machine.
    """

    PRODUCERS = ("inc", "counter")  # see ObsContext

    def __init__(self) -> None:
        self._data: dict[Key, CounterValue] = {}

    def _slot(self, name: str, labels: dict[str, object]) -> CounterValue:
        key = metric_key(name, labels)
        v = self._data.get(key)
        if v is None:
            v = self._data[key] = CounterValue()
        return v

    def inc(self, name: str, value: float = 1.0, *,
            rank: object = None, **labels: object) -> None:
        """Add ``value`` to the counter ``(name, labels)``."""
        if rank is not None:
            labels["rank"] = rank
        self._slot(name, labels).inc(value)

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
        return self._slot(name, labels)

    def get(self, name: str, **labels: object) -> CounterValue | None:
        """The live counter for ``(name, labels)`` or ``None``."""
        return self._data.get(metric_key(name, labels))

    def to_dict(self) -> dict[str, dict[str, object]]:
        """Plain-dict dump: ``{"counter": {name{labels}: value...}}``."""
        counters: dict[str, object] = {
            key_str(key): v.to_json() for key, v in sorted(self._data.items())
        }
        return {"counter": counters}
