"""Critical-path extraction over the causal record.

The virtual timeline of a run is a program activity graph: per-rank
local work, message edges (:class:`~repro.obs.causal.FlowEdge`) and
collective completions (:class:`~repro.obs.causal.CollectiveRecord`).
:func:`critical_path` walks that graph *backward* from the last event
of the slowest rank: whenever the walk reaches a receive whose sender
was late it hops to the sender at post time, and whenever it reaches a
collective it hops to the straggler at its entry clock; in between it
descends through the rank's local activity. The resulting segments
telescope -- each starts exactly where the previous one ends -- so
their durations sum to the makespan *exactly* (no sampling, no
approximation), which :meth:`CriticalPath.residual` exposes and tests
assert to 1e-9.

Each local segment is split by the deepest enclosing span into the
five categories ``simmpi`` / ``lowfive`` / ``pfs`` / ``compute`` /
``wait`` and, where spans carry a ``phase`` label (index/serve/query,
...), into per-phase seconds. :func:`analyze` bundles the path with
the wait-state table and conservation check from
:mod:`repro.obs.causal` into one report for the CLI and benchmarks.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, cast

from repro.obs.causal import (
    ConservationReport,
    RankAccount,
    WaitState,
    classify_waits,
    conservation,
    dominant_span,
)

if TYPE_CHECKING:
    from repro.obs.causal import CollectiveRecord, FlowEdge
    from repro.obs.spans import SpanEvent

#: Critical-path categories (span cat -> category is :data:`_CAT`).
CATEGORIES = ("simmpi", "lowfive", "pfs", "compute", "wait")

#: Span category -> critical-path category. Anything else (including
#: uninstrumented time under a bare ``task.*`` span) is compute.
#: Stream spans fold into the lowfive bucket: streaming is the VOL
#: transport extended in time, not a new machine layer.
_CAT = {"simmpi": "simmpi", "lowfive": "lowfive", "rpc": "lowfive",
        "pfs": "pfs", "stream": "lowfive"}


@dataclass(frozen=True)
class Segment:
    """One critical-path segment ``[t0, t1]`` resident on ``rank``.

    ``kind`` is ``"local"`` (the rank was executing), ``"recv"``
    (receive overhead / in-flight delivery), ``"wire"`` (message
    network time, resident on the sender) or ``"collective"`` (the
    collective's own transfer time). ``category_seconds`` partitions
    the duration over :data:`CATEGORIES`; ``phase_seconds`` over
    ``phase`` span labels where present.
    """

    rank: int
    t0: float
    t1: float
    kind: str
    category: str
    detail: str = ""
    category_seconds: tuple[tuple[str, float], ...] = ()
    phase_seconds: tuple[tuple[str, float], ...] = ()

    @property
    def duration(self) -> float:
        """Virtual seconds the segment spans."""
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, object]:
        """JSON-able form with the category and phase splits."""
        return {"rank": self.rank, "t0": self.t0, "t1": self.t1,
                "duration": self.duration, "kind": self.kind,
                "category": self.category, "detail": self.detail,
                "categories": dict(self.category_seconds),
                "phases": dict(self.phase_seconds)}


@dataclass(frozen=True)
class CriticalPath:
    """The extracted path, chronological (first segment starts at 0)."""

    makespan: float
    segments: tuple[Segment, ...]

    @property
    def total(self) -> float:
        """Summed segment durations (equals makespan up to residual)."""
        return sum(s.duration for s in self.segments)

    @property
    def residual(self) -> float:
        """``makespan - total``; exactness means ``|residual| ~ 0``."""
        return self.makespan - self.total

    def category_breakdown(self) -> dict[str, float]:
        """Seconds per category over the whole path (all keys present)."""
        out = {c: 0.0 for c in CATEGORIES}
        for s in self.segments:
            for cat, sec in s.category_seconds:
                out[cat] = out.get(cat, 0.0) + sec
        return out

    def category_shares(self) -> dict[str, float]:
        """Category fractions of the path (zeros on an empty path)."""
        total = self.total
        bd = self.category_breakdown()
        if total <= 0.0:
            return {c: 0.0 for c in bd}
        return {c: sec / total for c, sec in bd.items()}

    def phase_breakdown(self) -> dict[str, float]:
        """Seconds per ``phase`` label along the path."""
        out: dict[str, float] = {}
        for s in self.segments:
            for ph, sec in s.phase_seconds:
                out[ph] = out.get(ph, 0.0) + sec
        return out

    def rank_residence(self) -> dict[int, float]:
        """Seconds the path spends on each rank (wire -> the sender)."""
        out: dict[int, float] = {}
        for s in self.segments:
            out[s.rank] = out.get(s.rank, 0.0) + s.duration
        return out

    def top_segments(self, k: int = 10) -> list[Segment]:
        """The ``k`` longest segments, descending."""
        return sorted(self.segments,
                      key=lambda s: -s.duration)[:max(0, k)]


class _Event:
    """One per-rank sync completion (receive or collective). Internal."""

    __slots__ = ("t_end", "kind", "edge", "rec")

    def __init__(self, t_end: float, kind: str,
                 edge: FlowEdge | None = None,
                 rec: CollectiveRecord | None = None) -> None:
        self.t_end = t_end
        self.kind = kind
        self.edge = edge
        self.rec = rec


def _split_interval(
    spans: Iterable[SpanEvent], a: float, b: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """Partition ``[a, b]`` by the deepest enclosing span.

    Returns ``(category_seconds, phase_seconds)`` dicts; the category
    seconds sum to ``b - a`` exactly (uncovered slices are compute).
    """
    cats: dict[str, float] = {}
    phases: dict[str, float] = {}
    if b <= a:
        return cats, phases
    overl = [s for s in spans if s.t0 < b and s.t1 > a]
    if not overl:
        cats["compute"] = b - a
        return cats, phases
    cuts = sorted({a, b}
                  | {max(a, s.t0) for s in overl}
                  | {min(b, s.t1) for s in overl})
    for p0, p1 in zip(cuts, cuts[1:]):
        if p1 <= p0:
            continue
        mid = 0.5 * (p0 + p1)
        containing = [s for s in overl if s.t0 <= mid <= s.t1]
        d = p1 - p0
        if containing:
            deepest = min(containing, key=lambda s: (s.t1 - s.t0, -s.t0))
            cat = _CAT.get(deepest.cat, "compute")
            labelled = [s for s in containing if "phase" in s.labels]
            if labelled:
                ph = cast(str, min(
                    labelled,
                    key=lambda s: (s.t1 - s.t0, -s.t0)).labels["phase"])
                phases[ph] = phases.get(ph, 0.0) + d
        else:
            cat = "compute"
        cats[cat] = cats.get(cat, 0.0) + d
    return cats, phases


def _phase_at(spans: Iterable[SpanEvent], t: float) -> str | None:
    """Innermost ``phase`` label covering instant ``t`` (or ``None``)."""
    containing = [s for s in spans
                  if s.t0 <= t <= s.t1 and "phase" in s.labels]
    if not containing:
        return None
    return cast(str, min(containing,
                         key=lambda s: (s.t1 - s.t0, -s.t0)).labels["phase"])


def critical_path(obs: Any, clocks: Sequence[float]) -> CriticalPath:
    """Extract the critical path of a finished run.

    ``obs`` is the run's :class:`~repro.obs.ObsContext` (with its
    ``causal`` record populated); ``clocks`` the per-rank final-clock
    list from the result. See the module docstring for the algorithm.
    """
    clocks = list(clocks)
    makespan = max(clocks, default=0.0)
    if makespan <= 0.0:
        return CriticalPath(max(makespan, 0.0), ())

    spans_by_rank: dict[int, list[SpanEvent]] = {}
    for s in obs.spans.spans():
        spans_by_rank.setdefault(s.rank, []).append(s)

    events: dict[int, list[_Event]] = {}
    for e in obs.causal.edges():
        events.setdefault(e.dst, []).append(_Event(e.t_recv, "recv", edge=e))
    for rec in obs.causal.collectives():
        for rank in rec.enter_clocks:
            events.setdefault(rank, []).append(
                _Event(rec.t_end, "coll", rec=rec)
            )
    t_ends: dict[int, list[float]] = {}
    for rank, evs in events.items():
        evs.sort(key=lambda ev: ev.t_end)
        t_ends[rank] = [ev.t_end for ev in evs]
    nevents = sum(len(v) for v in events.values())

    # hi[rank]: events below this index are still available to consume;
    # monotonically decreasing, which (with strictly decreasing local
    # descents) bounds the walk even under zero-duration ties.
    hi = {rank: len(evs) for rank, evs in events.items()}
    rev: list[Segment] = []
    cur_rank = max(range(len(clocks)), key=lambda r: (clocks[r], -r))
    cur_t = makespan
    budget = 2 * nevents + 2 * len(clocks) + 64

    def local(rank: int, a: float, b: float) -> Segment:
        cats, phases = _split_interval(spans_by_rank.get(rank, ()), a, b)
        cat = max(cats, key=lambda c: (cats[c], c)) if cats else "compute"
        dom = dominant_span(spans_by_rank.get(rank, ()), a, b)
        return Segment(rank, a, b, "local", cat,
                       dom.name if dom is not None else "",
                       tuple(sorted(cats.items())),
                       tuple(sorted(phases.items())))

    while cur_t > 0.0:
        budget -= 1
        if budget < 0:  # pragma: no cover - defensive backstop
            raise RuntimeError("critical-path walk did not converge")
        evs = events.get(cur_rank, ())
        idx = bisect_right(t_ends.get(cur_rank, ()), cur_t,
                           0, hi.get(cur_rank, 0)) - 1
        if idx < 0:
            rev.append(local(cur_rank, 0.0, cur_t))
            break
        ev = evs[idx]
        if ev.t_end < cur_t:
            rev.append(local(cur_rank, ev.t_end, cur_t))
            cur_t = ev.t_end
            continue
        hi[cur_rank] = idx
        if ev.kind == "recv":
            e = ev.edge
            assert e is not None and e.t_recv_start is not None
            phase = _phase_at(spans_by_rank.get(e.dst, ()), cur_t)
            pseq = ((phase, 0.0),) if phase else ()
            if e.wait > 0.0:
                # Late sender: overhead tail on the receiver, then the
                # wire, then hop to the sender at post time.
                lo = min(e.t_post, e.t_arrival)
                d1 = cur_t - e.t_arrival
                rev.append(Segment(
                    e.dst, e.t_arrival, cur_t, "recv", "simmpi",
                    f"recv tag={e.tag} from rank {e.src}",
                    (("simmpi", d1),),
                    ((phase, d1),) if phase else (),
                ))
                d2 = e.t_arrival - lo
                wphase = _phase_at(spans_by_rank.get(e.src, ()), e.t_post)
                rev.append(Segment(
                    e.src, lo, e.t_arrival, "wire", "simmpi",
                    f"wire tag={e.tag} to rank {e.dst} "
                    f"({e.nbytes} B)",
                    (("simmpi", d2),),
                    ((wphase, d2),) if wphase else (),
                ))
                cur_rank, cur_t = e.src, lo
            else:
                # Sender was early (or on time): delivery + overhead
                # stay resident on the receiver.
                d = cur_t - e.t_recv_start
                rev.append(Segment(
                    e.dst, e.t_recv_start, cur_t, "recv", "simmpi",
                    f"recv tag={e.tag} from rank {e.src}",
                    (("simmpi", d),),
                    ((phase, d),) if phase else (),
                ))
                cur_t = e.t_recv_start
        else:
            rec = ev.rec
            assert rec is not None
            phase = _phase_at(spans_by_rank.get(cur_rank, ()),
                              0.5 * (rec.t_ready + rec.t_end))
            d = cur_t - rec.t_ready
            rev.append(Segment(
                cur_rank, rec.t_ready, cur_t, "collective", "simmpi",
                f"mpi.{rec.kind} (straggler rank {rec.straggler})",
                (("simmpi", d),),
                ((phase, d),) if phase else (),
            ))
            cur_rank, cur_t = rec.straggler, rec.t_ready

    rev.reverse()
    return CriticalPath(makespan, tuple(rev))


# -- combined report ---------------------------------------------------------


def imbalance(accounts: Mapping[int, RankAccount], nranks: int) -> float:
    """Load-imbalance metric over per-rank *compute* seconds.

    The classic ``max/mean - 1`` (0 = perfectly balanced); ranks with
    no account count as zero compute.
    """
    if nranks <= 0:
        return 0.0
    comp = [accounts[r].compute if r in accounts else 0.0
            for r in range(nranks)]
    mean = sum(comp) / nranks
    if mean <= 0.0:
        return 0.0
    return max(comp) / mean - 1.0


@dataclass(frozen=True)
class CausalReport:
    """Everything the causal layer knows about one finished run."""

    makespan: float
    path: CriticalPath
    waits: tuple[WaitState, ...]
    conservation: ConservationReport
    imbalance: float
    #: Aggregate compute/transfer/wait fractions of total rank-seconds.
    shares: dict[str, float] = field(default_factory=dict)

    def wait_by_category(self) -> dict[str, float]:
        """Idle seconds per wait-state category (across all ranks)."""
        out: dict[str, float] = {}
        for w in self.waits:
            out[w.category] = out.get(w.category, 0.0) + w.seconds
        return out

    def summary(self) -> dict[str, object]:
        """Flat JSON-able summary (used by benchmarks and snapshots)."""
        return {
            "makespan": self.makespan,
            "critpath": self.path.category_shares(),
            "critpath_residual": self.path.residual,
            "critpath_phases": self.path.phase_breakdown(),
            "shares": dict(self.shares),
            "wait_by_category": self.wait_by_category(),
            "imbalance": self.imbalance,
            "conservation_ok": self.conservation.ok,
            "max_residual": self.conservation.max_residual,
        }

    def to_dict(self) -> dict[str, object]:
        """Full JSON-able report (CLI ``--report`` output)."""
        d = self.summary()
        d["segments"] = [s.to_dict() for s in self.path.segments]
        d["waits"] = [w.to_dict() for w in self.waits]
        d["conservation"] = self.conservation.to_dict()
        return d


def analyze(obs: Any, clocks: Sequence[float],
            tol: float = 1e-9) -> CausalReport:
    """Run the full causal analysis of a finished run.

    Extracts the critical path, classifies wait states, checks
    conservation (within ``tol``) and computes the aggregate
    compute/transfer/wait shares and the compute-imbalance metric.
    """
    clocks = list(clocks)
    path = critical_path(obs, clocks)
    waits = classify_waits(obs)
    cons = conservation(obs, clocks, tol=tol, waits=waits)
    accounts = obs.causal.accounts()
    total = sum(clocks)
    shares = {"compute": 0.0, "transfer": 0.0, "wait": 0.0}
    if total > 0.0:
        for acct in accounts.values():
            shares["compute"] += acct.compute / total
            shares["transfer"] += acct.transfer / total
            shares["wait"] += acct.wait / total
    return CausalReport(
        makespan=max(clocks, default=0.0),
        path=path,
        waits=tuple(w for w in waits),
        conservation=cons,
        imbalance=imbalance(accounts, len(clocks)),
        shares=shares,
    )
