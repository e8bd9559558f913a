"""Flight recorder: a bounded per-rank ring buffer of recent events.

Full span tracing keeps every event alive for later analysis; a flight
recorder keeps only the last ``capacity`` events *per rank*, so it can
stay on permanently -- when a run deadlocks, validates wrong, or is
mysteriously slow, the tail of each rank's activity is available for a
post-mortem without having paid full-trace memory.

Events are whatever the producers feed it: message sends/receives and
collectives (from :class:`repro.simmpi.engine.Engine`), span begin/end
markers (from :class:`repro.obs.ObsContext`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class FlightEvent:
    """One ring-buffer entry."""

    vtime: float
    rank: int
    kind: str  # "send", "recv", "coll", "span_begin", "span_end", ...
    name: str
    detail: tuple[tuple[str, object], ...] = ()  # sorted (key, value)

    def to_dict(self) -> dict[str, object]:
        """JSON-able form, ``detail`` pairs inlined."""
        d: dict[str, object] = {"vtime": self.vtime, "rank": self.rank,
                                "kind": self.kind, "name": self.name}
        d.update(dict(self.detail))
        return d


class FlightRecorder:
    """Per-rank bounded ring buffers of :class:`FlightEvent`.

    ``capacity`` is per rank; the oldest events are evicted first.
    Appends and snapshots both take the recorder lock: a rank's ring
    may be *read* (post-mortem dump, live inspection) while other
    ranks' threads are still appending, and iterating a deque that is
    mutated concurrently raises ``RuntimeError``, so :meth:`events`
    must copy under the same lock the writers hold.
    """

    PRODUCERS = ("record", "append")  # see ObsContext

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rings: dict[int, deque[FlightEvent]] = {}
        self._lock = threading.Lock()

    def set_capacity(self, capacity: int) -> None:
        """Re-bound every ring to ``capacity`` events per rank.

        Existing rings keep their newest events (a shrink evicts from
        the old end, like normal ring overflow). Configured from
        :class:`~repro.lowfive.config.CostConfig.flight_capacity` when
        a VOL attaches to the machine.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        with self._lock:
            if capacity == self.capacity:
                return
            self.capacity = capacity
            self._rings = {r: deque(ring, maxlen=capacity)
                           for r, ring in self._rings.items()}

    def record(self, rank: int, vtime: float, kind: str, name: str,
               **detail: object) -> None:
        """Append one event to ``rank``'s ring (evicting the oldest)."""
        self.append(rank, vtime, kind, name, tuple(sorted(detail.items())))

    def append(self, rank: int, vtime: float, kind: str, name: str,
               detail: tuple[tuple[str, object], ...] = ()) -> None:
        """Fast-path append: ``detail`` is an already key-sorted tuple
        of ``(key, value)`` pairs.

        Per-message producers (``Engine.record`` / ``Engine.deliver``)
        build the tuple literally in key order, skipping the kwargs
        dict and the sort that :meth:`record` pays on every call.
        """
        ev = FlightEvent(vtime, rank, kind, name, detail)
        with self._lock:
            ring = self._rings.get(rank)
            if ring is None:
                ring = self._rings[rank] = deque(maxlen=self.capacity)
            ring.append(ev)

    def events(self, rank: int | None = None) -> list[FlightEvent]:
        """Retained events of one rank (or all ranks, time-ordered)."""
        with self._lock:
            if rank is not None:
                return list(self._rings.get(rank, ()))
            rings = [list(ring) for ring in self._rings.values()]
        out: list[FlightEvent] = []
        for ring in rings:
            out.extend(ring)
        out.sort(key=lambda e: (e.vtime, e.rank))
        return out

    def ranks(self) -> list[int]:
        """Ranks that have recorded at least one event."""
        with self._lock:
            return sorted(self._rings)

    def dump(self) -> dict[int, list[dict[str, object]]]:
        """JSON-able post-mortem dump: ``{rank: [event dicts]}``."""
        return {r: [e.to_dict() for e in self.events(r)]
                for r in self.ranks()}
