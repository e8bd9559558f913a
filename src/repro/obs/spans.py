"""Virtual-clock span tracing with parent/child links.

A span is one timed region of a rank's execution, measured in *virtual*
seconds (the simulated machine's clocks, not wall time). Spans nest:
the recorder keeps one open-span stack per world rank, so a span opened
inside another on the same rank becomes its child -- e.g. the
``mpi.alltoall`` collective recorded inside LowFive's ``lowfive.index``
phase.

Producers use either the context-manager form (via
:meth:`repro.obs.ObsContext.span`) or the explicit
:meth:`SpanRecorder.begin` / :meth:`SpanRecorder.end` pair when the
start clock is known before any waiting happens. Point events --
injected faults, a stream epoch's publish/acquire/release/drop -- are
:class:`InstantEvent` records beside the spans, queried and exported
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeVar


@dataclass(slots=True)
class SpanEvent:
    """One completed span.

    Attributes
    ----------
    span_id, parent_id:
        Unique id and the enclosing span's id (``None`` at top level).
    name, cat:
        Event name (``"lowfive.query"``) and category/layer
        (``"simmpi"``, ``"lowfive"``, ``"pfs"``, ``"workflow"``).
    rank:
        World rank that executed the span.
    t0, t1:
        Virtual start/end clocks, seconds.
    labels:
        Structured context (dataset path, file name, phase, ...).
    """

    span_id: int
    parent_id: int | None
    name: str
    cat: str
    rank: int
    t0: float
    t1: float
    labels: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Virtual seconds from ``t0`` to ``t1``."""
        return self.t1 - self.t0


@dataclass(slots=True)
class InstantEvent:
    """One point-in-time event (no duration)."""

    name: str
    cat: str
    rank: int
    t: float
    labels: dict[str, object] = field(default_factory=dict)


_Event = TypeVar("_Event", SpanEvent, InstantEvent)


def _select(events: list[_Event], cat: str | None, name: str | None,
            rank: int | None,
            label_filter: dict[str, object]) -> list[_Event]:
    """The ``events`` matching every given field and label."""
    out = list(events)
    if cat is not None:
        out = [e for e in out if e.cat == cat]
    if name is not None:
        out = [e for e in out if e.name == name]
    if rank is not None:
        out = [e for e in out if e.rank == rank]
    for k, v in label_filter.items():
        out = [e for e in out if e.labels.get(k) == v]
    return out


class _OpenSpan:
    """Handle returned by :meth:`SpanRecorder.begin`. Internal."""

    __slots__ = ("span_id", "parent_id", "name", "cat", "rank", "t0",
                 "labels")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 cat: str, rank: int, t0: float,
                 labels: dict[str, object]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.rank = rank
        self.t0 = t0
        self.labels = labels


class SpanRecorder:
    """Collects completed spans and instants.

    The open-span stack of each world rank supplies parent links.
    Begin/end pairs must nest properly within one rank (the
    context-manager form guarantees this).
    """

    PRODUCERS = ("begin", "end", "instant")  # see ObsContext

    def __init__(self) -> None:
        self._spans: list[SpanEvent] = []
        self._instants: list[InstantEvent] = []
        self._next_id = 1
        self._stacks: dict[int, list[_OpenSpan]] = {}

    def _stack(self, rank: int) -> list[_OpenSpan]:
        st = self._stacks.get(rank)
        if st is None:
            st = self._stacks[rank] = []
        return st

    # -- producing ---------------------------------------------------------

    def begin(self, rank: int, name: str, cat: str, t0: float,
              labels: dict[str, object] | None = None) -> _OpenSpan:
        """Open a span at virtual time ``t0``; returns its handle."""
        stack = self._stack(rank)
        parent = stack[-1].span_id if stack else None
        sid = self._next_id
        self._next_id += 1
        span = _OpenSpan(sid, parent, name, cat, rank, t0,
                         dict(labels) if labels else {})
        stack.append(span)
        return span

    def end(self, open_span: _OpenSpan, t1: float) -> SpanEvent:
        """Close ``open_span`` at virtual time ``t1``."""
        stack = self._stack(open_span.rank)
        if open_span in stack:
            # Pop through any improperly-unclosed children too.
            while stack and stack[-1] is not open_span:
                stack.pop()
            if stack:
                stack.pop()
        ev = SpanEvent(open_span.span_id, open_span.parent_id,
                       open_span.name, open_span.cat, open_span.rank,
                       open_span.t0, t1, open_span.labels)
        self._spans.append(ev)
        return ev

    def instant(self, name: str, cat: str, rank: int, t: float,
                labels: dict[str, object] | None = None) -> InstantEvent:
        """Record a point event at virtual time ``t``."""
        ev = InstantEvent(name, cat, rank, t,
                          dict(labels) if labels else {})
        self._instants.append(ev)
        return ev

    # -- querying ----------------------------------------------------------

    def spans(self, cat: str | None = None, name: str | None = None,
              rank: int | None = None,
              **label_filter: object) -> list[SpanEvent]:
        """Completed spans, optionally filtered."""
        return _select(self._spans, cat, name, rank, label_filter)

    def instants(self, cat: str | None = None, name: str | None = None,
                 rank: int | None = None,
                 **label_filter: object) -> list[InstantEvent]:
        """Recorded instants, filtered as :meth:`spans` filters."""
        return _select(self._instants, cat, name, rank, label_filter)

    def total(self, cat: str | None = None, name: str | None = None,
              rank: int | None = None, **label_filter: object) -> float:
        """Summed duration of the matching spans (virtual seconds)."""
        return sum(s.duration
                   for s in self.spans(cat, name, rank, **label_filter))

    def children_of(self, span_id: int) -> list[SpanEvent]:
        """Direct children of span ``span_id``."""
        return [s for s in self.spans() if s.parent_id == span_id]
