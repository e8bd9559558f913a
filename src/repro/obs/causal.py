"""Causal layer: message flow edges, stragglers, wait-state analysis.

Every point-to-point message is one :class:`FlowEdge` -- who sent, when
it was posted, when it arrived, and, once a receive matched it, how
long the receiver was blocked -- and every collective records a
:class:`CollectiveRecord` with the per-rank entry clocks and the
straggler whose arrival released everyone. Alongside them,
:class:`RankAccount` ledgers are charged at every virtual-clock
mutation in :mod:`repro.simmpi.comm`, partitioning each rank's
timeline into *compute*, *transfer* and *wait* seconds.

On top of that raw record this module provides Scalasca-style
wait-state classification (:func:`classify_waits`) attributing each
blocked interval to its causing rank and span, and the conservation
check (:func:`conservation`) that per-rank
``compute + transfer + wait`` sums exactly to the rank's final clock --
the invariant every analysis in :mod:`repro.obs.critpath` relies on.

A receive that blocks splits its blocked interval with the sender's
post time ``t_post``::

    blocked   = max(0, t_arrival - t_recv_start)
    wait      = min(blocked, max(0, t_post - t_recv_start))
    in_flight = blocked - wait

``wait`` is the portion spent idle before the sender even posted (a
*late sender*); ``in_flight`` is wire time and counts as transfer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.spans import SpanEvent

#: Receiver idled because the sender had not posted yet.
LATE_SENDER = "late-sender"
#: Sender posted early; the message sat buffered at the receiver.
EARLY_SENDER = "early-sender"
#: Receiver idled inside a collective until the last rank arrived.
COLLECTIVE_STRAGGLER = "collective-straggler"
#: Receiver idled for an RPC reply while the server handled traffic.
RPC_SERVER_BUSY = "rpc-server-busy"
#: Receiver idled behind a peer doing parallel-file-system I/O.
PFS_CONTENTION = "pfs-contention"
#: A streaming producer idled for a consumer's epoch release (its
#: live-epoch window hit ``max_lag``).
BACKPRESSURE = "backpressure"

#: Every category :func:`classify_waits` can emit.
WAIT_CATEGORIES = (LATE_SENDER, EARLY_SENDER, COLLECTIVE_STRAGGLER,
                   RPC_SERVER_BUSY, PFS_CONTENTION, BACKPRESSURE)

#: RPC reply tag (mirrors :data:`repro.lowfive.rpc.TAG_REPLY`; obs must
#: not import lowfive).
_TAG_REPLY = 702
#: Span names that mean "this rank is acting as an RPC server".
_SERVER_SPANS = ("rpc.handle", "lowfive.serve", "lowfive.staging")
#: Span a backpressured streaming producer blocks inside: any wait the
#: *receiver* spends there is backpressure, whatever message wakes it.
_BACKPRESSURE_SPAN = "stream.backpressure"


@dataclass(slots=True)
class FlowEdge:
    """One point-to-point message: its post, and its receive once matched.

    Created at delivery and completed in place by the receive that
    matches it; ``t_recv`` is ``None`` while nobody has received it.
    Times are virtual seconds on the shared simulated timeline:
    ``t_post`` (sender's clock when the message entered the network),
    ``t_arrival`` (modeled delivery time at the receiver),
    ``t_recv_start`` (receiver's clock when it started matching) and
    ``t_recv`` (receiver's clock after the completed receive).

    A wildcard receive also keeps its ``spec`` -- the local ``(source,
    tag)`` it asked for, ``-1`` for ``ANY_SOURCE``/``ANY_TAG``. Which
    other messages it could have taken is not recorded: the race
    detector rebuilds that from the records after the run.
    """

    msg_id: int
    src: int  # sender world rank
    dst: int  # receiver world rank
    tag: int
    comm_id: int
    nbytes: int
    t_post: float
    t_arrival: float
    t_recv_start: float | None = None
    t_recv: float | None = None
    spec: tuple[int, int] | None = None

    @property
    def wire(self) -> float:
        """Modeled network time of this message."""
        return self.t_arrival - self.t_post

    @property
    def blocked(self) -> float:
        """Seconds the receiver was blocked before delivery."""
        assert self.t_recv_start is not None
        return max(0.0, self.t_arrival - self.t_recv_start)

    @property
    def wait(self) -> float:
        """Blocked seconds attributable to the sender being late."""
        assert self.t_recv_start is not None
        return min(self.blocked, max(0.0, self.t_post - self.t_recv_start))

    @property
    def in_flight(self) -> float:
        """Blocked seconds spent on the wire (counted as transfer)."""
        return self.blocked - self.wait

    @property
    def buffered(self) -> float:
        """Seconds the message sat buffered before the receiver asked."""
        assert self.t_recv_start is not None
        return max(0.0, self.t_recv_start - self.t_arrival)


@dataclass(frozen=True)
class CollectiveRecord:
    """One completed collective: entry clocks and the straggler.

    ``enter_clocks`` maps world rank -> virtual clock at entry;
    ``t_ready`` is the last entry (when the collective could start) and
    ``t_end`` the common exit clock, so ``t_end - t_ready`` is the
    modeled collective transfer time. ``kinds`` maps world rank -> the
    operation that rank entered with (the mismatch checker flags records
    where they differ: the rendezvous completes regardless, silently
    corrupting semantics).
    """

    coll_id: int
    kind: str
    comm_id: int
    nbytes: int
    enter_clocks: dict[int, float]
    t_ready: float
    t_end: float
    straggler: int
    kinds: dict[int, str] = field(default_factory=dict)

    @property
    def transfer(self) -> float:
        """Modeled network time of the collective itself."""
        return self.t_end - self.t_ready

    def wait_of(self, rank: int) -> float:
        """Seconds ``rank`` idled waiting for the straggler."""
        return max(0.0, self.t_ready - self.enter_clocks[rank])


class RankAccount:
    """Running compute/transfer/wait ledger of one rank.

    Written only by the owning rank; read after the run. The
    conservation invariant is ``compute + transfer + wait == final
    clock``.
    """

    __slots__ = ("rank", "compute", "transfer", "wait")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.compute = 0.0
        self.transfer = 0.0
        self.wait = 0.0

    @property
    def total(self) -> float:
        """Accounted seconds (should equal the rank's final clock)."""
        return self.compute + self.transfer + self.wait

    def to_dict(self) -> dict[str, object]:
        """JSON-able form of the three ledgers."""
        return {"rank": self.rank, "compute": self.compute,
                "transfer": self.transfer, "wait": self.wait}


class CausalRecorder:
    """Collects message records, collective records and rank ledgers.

    One per :class:`~repro.obs.ObsContext`; always on. Writes come from
    the simmpi layer -- :meth:`post` at delivery, :meth:`receive` at
    match, one per collective completion -- so volume tracks message
    count, not payload size.
    """

    PRODUCERS = ("account", "post", "receive", "collective")  # see ObsContext

    def __init__(self) -> None:
        self._msgs: dict[int, FlowEdge] = {}
        self._edges: list[FlowEdge] = []  # received, in completion order
        self._colls: list[CollectiveRecord] = []
        self._accounts: dict[int, RankAccount] = {}
        self._next_coll = 1

    # -- producing ---------------------------------------------------------

    def account(self, rank: int) -> RankAccount:
        """The (lazily created) ledger of ``rank``."""
        acct = self._accounts.get(rank)
        if acct is None:
            acct = self._accounts.setdefault(rank, RankAccount(rank))
        return acct

    def post(self, msg_id: int, src: int, dst: int, tag: int,
             comm_id: int, nbytes: int, t_post: float,
             t_arrival: float) -> None:
        """Create the record of one delivered message (an injected twin
        is not posted: no receive can take it before its original)."""
        rec = FlowEdge(msg_id, src, dst, tag, comm_id, nbytes, t_post,
                       t_arrival)
        self._msgs[msg_id] = rec

    def receive(self, msg_id: int, t_recv_start: float, t_recv: float,
                spec: tuple[int, int] | None = None) -> None:
        """Complete the record of ``msg_id`` with the receive that took
        it; a wildcard receive also passes its spec."""
        rec = self._msgs[msg_id]
        rec.t_recv_start = t_recv_start
        rec.t_recv = t_recv
        rec.spec = spec
        self._edges.append(rec)

    def collective(self, kind: str, comm_id: int, nbytes: int,
                   enter_clocks: dict[int, float], t_ready: float,
                   t_end: float,
                   kinds: dict[int, str] | None = None) -> CollectiveRecord:
        """Record one completed collective; derives the straggler."""
        straggler = max(enter_clocks,
                        key=lambda r: (enter_clocks[r], r))
        cid = self._next_coll
        self._next_coll += 1
        rec = CollectiveRecord(cid, kind, comm_id, nbytes,
                               dict(enter_clocks), t_ready, t_end,
                               straggler, dict(kinds or {}))
        self._colls.append(rec)
        return rec

    # -- querying ----------------------------------------------------------

    def messages(self) -> list[FlowEdge]:
        """Every posted message, in msg-id order (``t_recv`` is ``None``
        on one nobody received)."""
        return [self._msgs[k] for k in sorted(self._msgs)]

    def edges(self, src: int | None = None, dst: int | None = None,
              tag: int | None = None) -> list[FlowEdge]:
        """Received messages in receive-completion order, optionally
        filtered."""
        out = list(self._edges)
        if src is not None:
            out = [e for e in out if e.src == src]
        if dst is not None:
            out = [e for e in out if e.dst == dst]
        if tag is not None:
            out = [e for e in out if e.tag == tag]
        return out

    def collectives(self) -> list[CollectiveRecord]:
        """Recorded collective completions, in completion order."""
        return list(self._colls)

    def accounts(self) -> dict[int, RankAccount]:
        """Copy of the rank -> :class:`RankAccount` map, in rank order
        (iteration order must not leak thread-scheduling order)."""
        return {r: self._accounts[r] for r in sorted(self._accounts)}


# -- cause attribution -------------------------------------------------------


def dominant_span(spans: Iterable[SpanEvent], a: float,
                  b: float) -> SpanEvent | None:
    """The innermost span covering most of ``[a, b]`` (or ``None``).

    ``spans`` are one rank's :class:`~repro.obs.spans.SpanEvent` list.
    The interval is swept over span boundaries; each slice is charged
    to its innermost (shortest) containing span, and the span with the
    largest covered total wins. This picks ``pfs.write`` over the
    enclosing ``task.producer`` when both cover a wait.
    """
    if b <= a:
        return None
    overl = [s for s in spans if s.t0 < b and s.t1 > a]
    if not overl:
        return None
    cuts = sorted({a, b}
                  | {max(a, s.t0) for s in overl}
                  | {min(b, s.t1) for s in overl})
    totals: dict[int, float] = {}
    by_id: dict[int, SpanEvent] = {}
    for p0, p1 in zip(cuts, cuts[1:]):
        if p1 <= p0:
            continue
        mid = 0.5 * (p0 + p1)
        containing = [s for s in overl if s.t0 <= mid <= s.t1]
        if not containing:
            continue
        # Tie-break on timeline position and name, never on span_id:
        # ids are allocated in real-thread order and would leak
        # scheduling nondeterminism into the attribution.
        deepest = min(containing,
                      key=lambda s: (s.t1 - s.t0, -s.t0, s.name))
        totals[deepest.span_id] = totals.get(deepest.span_id, 0.0) + (p1 - p0)
        by_id[deepest.span_id] = deepest
    if not totals:
        return None
    best = max(totals,
               key=lambda sid: (totals[sid], -by_id[sid].t0,
                                by_id[sid].t1, by_id[sid].name))
    return by_id[best]


@dataclass(frozen=True)
class WaitState:
    """One classified blocked interval.

    ``rank`` idled over ``[t0, t1]`` because of ``cause_rank``;
    ``cause_span`` names what the causing rank was doing (the dominant
    innermost span over the interval, ``""`` when uninstrumented).
    :data:`EARLY_SENDER` entries are informational (the *message*
    buffered, the rank did not idle) and are excluded from the
    wait-conservation cross-check.
    """

    rank: int
    t0: float
    t1: float
    category: str
    cause_rank: int
    cause_span: str = ""
    detail: dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Length of the blocked interval."""
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, object]:
        """JSON-able form, ``detail`` inlined."""
        return {"rank": self.rank, "t0": self.t0, "t1": self.t1,
                "seconds": self.seconds, "category": self.category,
                "cause_rank": self.cause_rank,
                "cause_span": self.cause_span, **self.detail}


def _classify_edge(edge: FlowEdge, cause_span: SpanEvent | None,
                   recv_span: SpanEvent | None = None) -> str:
    """Wait category of a late receive, from the sender's activity
    (and, for backpressure, the receiver's)."""
    if recv_span is not None and recv_span.name == _BACKPRESSURE_SPAN:
        # The receiver was a producer parked on its live-epoch bound;
        # whatever message ends the wait, the cause is the consumer
        # it was throttled by. The receiver span (not the release tag)
        # is the signal: a release arriving during an ordinary
        # end-of-stream drain is not backpressure.
        return BACKPRESSURE
    if cause_span is not None:
        if cause_span.cat == "pfs" or cause_span.name.startswith("pfs."):
            return PFS_CONTENTION
        if cause_span.name in _SERVER_SPANS:
            return RPC_SERVER_BUSY
    if edge.tag == _TAG_REPLY:
        return RPC_SERVER_BUSY
    return LATE_SENDER


def classify_waits(obs: Any, tol: float = 1e-12) -> list[WaitState]:
    """Classify every blocked interval recorded by ``obs.causal``.

    Returns :class:`WaitState` entries sorted by start time. Excluding
    :data:`EARLY_SENDER` (buffered-message) entries, the per-rank sum
    of ``seconds`` equals the rank's accounted ``wait`` ledger -- the
    cross-check :func:`conservation` enforces.
    """
    causal = obs.causal
    spans_by_rank: dict[int, list[SpanEvent]] = {}
    for s in obs.spans.spans():
        spans_by_rank.setdefault(s.rank, []).append(s)
    out: list[WaitState] = []
    for e in causal.edges():
        w = e.wait
        if w > tol:
            cause = dominant_span(spans_by_rank.get(e.src, ()),
                                  e.t_recv_start, e.t_recv_start + w)
            recv = dominant_span(spans_by_rank.get(e.dst, ()),
                                 e.t_recv_start, e.t_recv_start + w)
            out.append(WaitState(
                e.dst, e.t_recv_start, e.t_recv_start + w,
                _classify_edge(e, cause, recv), e.src,
                cause.name if cause is not None else "",
                {"tag": e.tag, "msg_id": e.msg_id},
            ))
        if e.buffered > tol:
            out.append(WaitState(
                e.dst, e.t_arrival, e.t_recv_start, EARLY_SENDER, e.src,
                "", {"tag": e.tag, "msg_id": e.msg_id},
            ))
    for rec in causal.collectives():
        for rank, enter in rec.enter_clocks.items():
            w = rec.t_ready - enter
            if rank == rec.straggler or w <= tol:
                continue
            cause = dominant_span(
                spans_by_rank.get(rec.straggler, ()), enter, rec.t_ready
            )
            out.append(WaitState(
                rank, enter, rec.t_ready, COLLECTIVE_STRAGGLER,
                rec.straggler,
                cause.name if cause is not None else "",
                {"kind": rec.kind, "coll_id": rec.coll_id},
            ))
    # Total order: the time/rank prefix alone admits ties (e.g. two
    # buffered messages from different senders consumed back-to-back
    # at identical clocks), and ties would leak the recorder's append
    # order -- which is real-thread order on the serve path. The
    # category/cause/detail suffix (msg or collective ids are unique
    # per entry) pins the output byte-for-byte across same-seed runs.
    out.sort(key=lambda w: (w.t0, w.rank, w.t1, w.category, w.cause_rank,
                            sorted(w.detail.items())))
    return out


# -- conservation ------------------------------------------------------------


@dataclass(frozen=True)
class ConservationRow:
    """Per-rank accounting vs. the rank's actual final clock."""

    rank: int
    compute: float
    transfer: float
    wait: float
    classified_wait: float
    makespan: float  # the rank's final virtual clock

    @property
    def residual(self) -> float:
        """``makespan - (compute + transfer + wait)`` (should be ~0)."""
        return self.makespan - (self.compute + self.transfer + self.wait)

    @property
    def wait_residual(self) -> float:
        """Accounted wait minus the classified wait states (~0)."""
        return self.wait - self.classified_wait


@dataclass(frozen=True)
class ConservationReport:
    """Outcome of :func:`conservation` over every rank."""

    rows: tuple[ConservationRow, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        """Largest ``|compute + transfer + wait - clock|`` over ranks."""
        return max((abs(r.residual) for r in self.rows), default=0.0)

    @property
    def max_wait_residual(self) -> float:
        """Largest ``|ledger wait - classified wait|`` over ranks."""
        return max((abs(r.wait_residual) for r in self.rows), default=0.0)

    @property
    def ok(self) -> bool:
        """True when both residuals are within ``tol``."""
        return (self.max_residual <= self.tol
                and self.max_wait_residual <= self.tol)

    def raise_if_violated(self) -> None:
        """Raise ``AssertionError`` naming the worst offending rank."""
        if self.ok:
            return
        worst = max(self.rows,
                    key=lambda r: max(abs(r.residual),
                                      abs(r.wait_residual)))
        raise AssertionError(
            f"conservation violated on rank {worst.rank}: "
            f"compute={worst.compute:.9f} + transfer={worst.transfer:.9f}"
            f" + wait={worst.wait:.9f} != clock={worst.makespan:.9f} "
            f"(residual {worst.residual:.3e}, "
            f"wait residual {worst.wait_residual:.3e}, tol {self.tol:g})"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-able form: verdict, residuals and the per-rank rows."""
        return {
            "ok": self.ok,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "max_wait_residual": self.max_wait_residual,
            "ranks": [
                {"rank": r.rank, "compute": r.compute,
                 "transfer": r.transfer, "wait": r.wait,
                 "classified_wait": r.classified_wait,
                 "clock": r.makespan, "residual": r.residual}
                for r in self.rows
            ],
        }


def conservation(obs: Any, clocks: Sequence[float], tol: float = 1e-9,
                 waits: list[WaitState] | None = None) -> ConservationReport:
    """Check compute+transfer+wait == final clock on every rank.

    ``clocks`` is the per-rank final-clock list from the run result.
    Also cross-checks that the classified wait states
    (:func:`classify_waits`, minus :data:`EARLY_SENDER` entries) sum to
    each rank's accounted wait, so the classifier provably covers every
    idle second. Pass precomputed ``waits`` to avoid reclassifying.
    """
    accounts = obs.causal.accounts()
    if waits is None:
        waits = classify_waits(obs)
    classified: dict[int, float] = {}
    for w in waits:
        if w.category != EARLY_SENDER:
            classified[w.rank] = classified.get(w.rank, 0.0) + w.seconds
    rows: list[ConservationRow] = []
    for rank, clock in enumerate(clocks):
        acct = accounts.get(rank)
        if acct is None:
            acct = RankAccount(rank)
        rows.append(ConservationRow(
            rank, acct.compute, acct.transfer, acct.wait,
            classified.get(rank, 0.0), clock,
        ))
    return ConservationReport(tuple(rows), tol)
