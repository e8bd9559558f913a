"""Unified observability: metrics, spans, causal trace, series, export.

One :class:`ObsContext` per simulated machine (the
:class:`~repro.simmpi.engine.Engine` owns it) collects telemetry from
every layer -- simmpi messages and collectives, LowFive transport
phases, PFS I/O, workflow tasks -- behind a single API:

- :mod:`repro.obs.metrics` -- counters keyed by ``(name, labels)``;
- :mod:`repro.obs.spans` -- virtual-clock span tracing with
  parent/child links;
- :mod:`repro.obs.causal` -- message flow edges, collective straggler
  records, per-rank compute/transfer/wait ledgers and the wait-state
  classifier with its conservation check;
- :mod:`repro.obs.critpath` -- exact critical-path extraction through
  the virtual timeline with per-category/per-phase breakdowns;
- :mod:`repro.obs.export` -- Chrome/Perfetto ``trace_event`` JSON
  (including ``s``/``f`` flow arrows for message edges);
- :mod:`repro.obs.series` -- bounded-memory virtual-clock time series
  (windowed min/max/mean aggregates);
- :mod:`repro.obs.ledger` -- persistent per-run manifests
  (:class:`~repro.obs.ledger.RunRecord`) in a JSONL ledger plus the
  unified cross-run drift comparator behind ``repro.tools regress``;
- :mod:`repro.obs.noop` -- the same context with every recording
  method silenced, for measuring telemetry overhead.

Each fact of a run lives in exactly one recorder, and readers query
that recorder in place (``obs.metrics.to_dict()``,
``obs.series.digests()``, ``obs.stream.events()``, ...).

Instrumentation points reach the context through their communicator::

    from repro.obs import span

    with span(comm, "lowfive.query", cat="lowfive", dataset=path):
        ...  # measured in virtual time, nested under enclosing spans
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Any, cast

from repro.obs.causal import (
    CausalRecorder,
    CollectiveRecord,
    ConservationReport,
    FlowEdge,
    RankAccount,
    WaitState,
    classify_waits,
    conservation,
)
from repro.obs.critpath import (
    CausalReport,
    CriticalPath,
    Segment,
    analyze,
    critical_path,
)
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.ledger import (
    Ledger,
    RunRecord,
    check_reference,
    compare_runs,
    record_from_result,
)
from repro.obs.series import SeriesRecorder, SeriesValue
from repro.obs.spans import InstantEvent, SpanEvent, SpanRecorder
from repro.obs.streamstat import StreamEvent, StreamLedger

__all__ = [
    "ObsContext",
    "obs_of",
    "span",
    "MetricsRegistry",
    "SpanRecorder",
    "SpanEvent",
    "InstantEvent",
    "StreamLedger",
    "StreamEvent",
    "CausalRecorder",
    "FlowEdge",
    "CollectiveRecord",
    "RankAccount",
    "WaitState",
    "classify_waits",
    "conservation",
    "ConservationReport",
    "CausalReport",
    "CriticalPath",
    "Segment",
    "analyze",
    "critical_path",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "SeriesRecorder",
    "SeriesValue",
    "Ledger",
    "RunRecord",
    "record_from_result",
    "compare_runs",
    "check_reference",
    "NullObsContext",
]


class ObsContext:
    """All telemetry of one simulated machine."""

    #: Methods that record. Every recorder class lists its own; a
    #: :class:`~repro.obs.noop.NullObsContext` silences exactly these.
    PRODUCERS = ("set_task", "fault", "span")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder()
        #: Flow edges, collective records and per-rank time ledgers.
        self.causal = CausalRecorder()
        #: Epoch-lifecycle events of streaming pipelines.
        self.stream = StreamLedger()
        #: Bounded virtual-time series (queue depths, bytes, attempts).
        self.series = SeriesRecorder()
        self._rank_tasks: dict[int, str] = {}

    # -- task topology (pid/tid mapping for export) ------------------------

    def set_task(self, task: str, world_ranks: Iterable[int]) -> None:
        """Declare that ``world_ranks`` belong to workflow task ``task``."""
        for r in world_ranks:
            self._rank_tasks[r] = task

    def task_of(self, rank: int) -> str | None:
        """The task owning world rank ``rank`` (or ``None``)."""
        return self._rank_tasks.get(rank)

    def rank_tasks(self) -> dict[int, str]:
        """Copy of the world-rank -> task-name map."""
        return dict(self._rank_tasks)

    # -- fault annotations --------------------------------------------------

    def fault(self, rank: int, t: float, kind: str,
              **labels: object) -> None:
        """Account one injected fault on ``rank`` at virtual time ``t``.

        Bumps the ``faults.injected`` counter (labelled by ``kind`` and
        rank) and drops an instant event into the span stream so the
        injection shows up in the exported Perfetto trace.
        """
        self.metrics.inc("faults.injected", 1, kind=kind, rank=rank)
        self.spans.instant(f"fault.{kind}", "faults", rank, t, labels)

    # -- span production ---------------------------------------------------

    @contextmanager
    def span(self, comm: Any, name: str, cat: str = "",
             **labels: object) -> Iterator[Any]:
        """Measure a region of ``comm``'s calling rank in virtual time.

        Yields the open-span handle. No-op when ``comm`` is None (code
        running outside a simulated machine).
        """
        if comm is None:
            yield None
            return
        handle = self.spans.begin(comm.world_rank(comm.rank), name, cat,
                                  comm.vtime, labels)
        try:
            yield handle
        finally:
            self.spans.end(handle, comm.vtime)

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict[str, object]:
        """Chrome ``trace_event`` document (see :mod:`repro.obs.export`)."""
        return chrome_trace(self)

    def write_chrome_trace(self, path: str) -> dict[str, object]:
        """Export the trace as JSON at ``path``."""
        return write_chrome_trace(path, self)


# Subclasses ObsContext, so it can only be imported once that exists.
from repro.obs.noop import NullObsContext  # noqa: E402


def obs_of(comm: Any) -> ObsContext | None:
    """The :class:`ObsContext` reachable from ``comm`` (or ``None``)."""
    if comm is None:
        return None
    engine = getattr(comm, "engine", None)
    return cast("ObsContext | None", getattr(engine, "obs", None))


def span(comm: Any, name: str, cat: str = "",
         **labels: object) -> AbstractContextManager[Any]:
    """Context manager measuring a span on ``comm``'s calling rank.

    Resolves the machine's :class:`ObsContext` through the
    communicator; degrades to a no-op when there is none (plain
    single-process code).
    """
    obs = obs_of(comm)
    if obs is None:
        return nullcontext()
    return obs.span(comm, name, cat, **labels)
