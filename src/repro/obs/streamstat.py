"""Epoch-lifecycle ledger for streaming pipelines.

Every stream event -- a producer publishing or retiring an epoch, a
consumer acquiring or releasing one -- is recorded here with its
virtual time and world rank. The analyzer's retained-epoch leak check
reads :meth:`StreamLedger.open_acquisitions`; the backpressure
property tests read the queue depth carried on publish/drop events.

Releases are *cumulative high-water marks* (a release of epoch ``e``
covers every epoch ``<= e``), matching the wire protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StreamEvent:
    """One epoch-lifecycle event.

    ``depth`` is the publisher's live-epoch queue depth right after
    the event (publish/drop only; -1 elsewhere).
    """

    kind: str  # "publish" | "acquire" | "release" | "drop"
    stream: str
    epoch: int
    rank: int  # world rank
    t: float
    depth: int = -1

    def to_dict(self) -> dict:
        """JSON-able form; ``depth`` only where it was recorded."""
        d = {"kind": self.kind, "stream": self.stream,
             "epoch": self.epoch, "rank": self.rank, "t": self.t}
        if self.depth >= 0:
            d["depth"] = self.depth
        return d


@dataclass
class StreamLedger:
    """Append log of :class:`StreamEvent`."""

    PRODUCERS = ("publish", "acquire", "release", "drop")  # see ObsContext

    _events: list = field(default_factory=list)

    def _add(self, ev: StreamEvent) -> None:
        self._events.append(ev)

    def publish(self, stream: str, epoch: int, rank: int, t: float,
                depth: int) -> None:
        """Producer ``rank`` made ``epoch`` live; ``depth`` live now."""
        self._add(StreamEvent("publish", stream, epoch, rank, t, depth))

    def acquire(self, stream: str, epoch: int, rank: int,
                t: float) -> None:
        """Consumer ``rank`` opened ``epoch`` for reading."""
        self._add(StreamEvent("acquire", stream, epoch, rank, t))

    def release(self, stream: str, epoch: int, rank: int,
                t: float) -> None:
        """Consumer ``rank`` released every epoch ``<= epoch``."""
        self._add(StreamEvent("release", stream, epoch, rank, t))

    def drop(self, stream: str, epoch: int, rank: int, t: float,
             depth: int = -1) -> None:
        """Server ``rank`` retired ``epoch`` (released by everyone)."""
        self._add(StreamEvent("drop", stream, epoch, rank, t, depth))

    # -- queries -----------------------------------------------------------

    def events(self, stream: str | None = None,
               kind: str | None = None) -> list[StreamEvent]:
        """Events in deterministic virtual-time order."""
        evs = list(self._events)
        if stream is not None:
            evs = [e for e in evs if e.stream == stream]
        if kind is not None:
            evs = [e for e in evs if e.kind == kind]
        evs.sort(key=lambda e: (e.t, e.stream, e.epoch, e.rank, e.kind))
        return evs

    def streams(self) -> list[str]:
        """Names of every stream that produced events."""
        return sorted({e.stream for e in self._events})

    def max_depth(self, stream: str | None = None) -> int:
        """Largest live-epoch queue depth ever recorded (-1: none)."""
        depths = [e.depth for e in self.events(stream)
                  if e.kind in ("publish", "drop") and e.depth >= 0]
        return max(depths, default=-1)

    def open_acquisitions(self) -> list[tuple[str, int, int]]:
        """``(stream, epoch, rank)`` acquired but never released.

        A release is cumulative, so an acquisition of epoch ``e`` by
        rank ``r`` is open iff no release event of the same stream and
        rank has ``epoch >= e``.
        """
        hwm: dict[tuple[str, int], int] = {}
        acq: dict[tuple[str, int], set[int]] = {}
        for e in self.events():
            key = (e.stream, e.rank)
            if e.kind == "acquire":
                acq.setdefault(key, set()).add(e.epoch)
            elif e.kind == "release":
                hwm[key] = max(hwm.get(key, -1), e.epoch)
        return sorted(
            (stream, epoch, rank)
            for (stream, rank), epochs in acq.items()
            for epoch in epochs
            if epoch > hwm.get((stream, rank), -1)
        )
