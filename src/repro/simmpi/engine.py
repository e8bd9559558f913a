"""Engine: a virtual-time baton scheduler over one thread per rank.

Rank bodies are OS threads, but exactly one of them holds the *baton*
and runs, so the caller of any simmpi operation is the baton holder
(:attr:`Engine.running`). A rank gives the baton up only inside a
blocking simmpi operation -- a receive or probe, a collective it does
not complete, an idle serve loop, its exit -- and :meth:`Engine.park`
hands it to the parked rank with the smallest *event time*, ties by
world rank:

- the arrival of its best queued candidate, for a receive, probe or
  serve-loop wait (capped by the serve loop's virtual deadline);
- its own clock, when it has not started yet or a collective it waited
  in has completed;
- none, while nothing queued can wake it.

Every parked rank's next action lands at or after its event time and
every send arrives after its sender's clock, so the rank holding the
minimum can commit: no rank can still post a message that arrives
earlier. Live ranks with no event at all are a deadlock, raised at
once. The one invariant this relies on: no real lock is held across a
blocking simmpi call (the next baton holder would block on it for
good).
"""

from __future__ import annotations

import heapq
import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs import ObsContext
from repro.simmpi.errors import (DeadlockError, RankFailure, RunTimeout,
                                 WorkerAborted)
from repro.simmpi.mailbox import CommMailbox
from repro.simmpi.message import Message
from repro.simmpi.netmodel import NetworkModel


class WaitDesc(NamedTuple):
    """What a parked rank is waiting for (scheduler + deadlock explainer).

    ``kind`` is ``"recv"``, ``"probe"``, ``"serve"`` or ``"collective"``;
    ``source``/``tag`` are the local spec (``ANY_SOURCE``/``ANY_TAG`` for
    wildcards and serve loops); ``senders`` is the resolved set of world
    ranks whose action could wake this rank (``None`` = any rank).
    """

    kind: str
    comm_id: int
    source: int
    tag: int
    senders: tuple | None
    detail: str = ""
    #: The ``(comm_id, source, tag)`` specs this waiter matches messages
    #: against (one for a receive/probe, several for a serve loop; empty
    #: for collectives). Its event time is the arrival of the best
    #: message queued on them.
    lanes: tuple = ()


class Proc:
    """Per-rank state: virtual clock, mailbox, scheduler slot. Internal."""

    __slots__ = ("rank", "clock", "baton", "event", "mailbox", "consumed",
                 "wait_desc", "done", "msg_seq", "tally", "acct", "depth")

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        # Per-sender message id stream: the next message this rank
        # posts gets id ``rank << 32 | msg_seq``.
        self.msg_seq = 0
        # Held while the rank is parked; the scheduler releases it to
        # hand this rank the baton.
        self.baton = threading.Lock()
        self.baton.acquire()
        # Event time while parked with something to do, else ``None``
        # (running, or nothing queued can wake it).
        self.event: float | None = None
        # comm_id -> CommMailbox, indexed by (src, tag)
        self.mailbox: dict[int, CommMailbox] = {}
        # seqs of consumed messages that have an injected duplicate in
        # flight; lets the matcher drop the copy (dedup).
        self.consumed: set[int] = set()
        # :class:`WaitDesc` for the duration of a parked wait; ``None``
        # while the rank runs or has not started.
        self.wait_desc = None
        # True once the rank's main returned (it will never send again).
        self.done = False
        # Communication events by kind: [events, bytes, events with
        # nonzero bytes]; :meth:`Engine.run` folds them into the
        # ``simmpi.<kind>.{count,bytes}`` counters once.
        self.tally = {"send": [0, 0, 0], "recv": [0, 0, 0],
                      "coll": [0, 0, 0]}
        # Causal ledger (:meth:`Engine.account`) and mailbox-depth
        # series, made on first use: a rank that needs neither has none.
        self.acct = None
        self.depth = None

    def record(self, kind: str, nbytes: int) -> None:
        """Account one communication event of ``kind`` (``"send"``,
        ``"recv"``, ``"coll"``); the full per-message record is the
        causal trace."""
        t = self.tally[kind]
        t[0] += 1
        if nbytes:
            t[1] += nbytes
            t[2] += 1

    def best_match(self, lanes) -> Message | None:
        """Best queued message over ``lanes``: the minimum ``(arrival,
        comm_id, src, seq)``, the order serve loops answer in (one lane:
        the mailbox's own ``(arrival, src, seq)``)."""
        if len(lanes) == 1:
            cid, source, tag = lanes[0]
            mbox = self.mailbox.get(cid)
            return (None if mbox is None
                    else mbox.peek_match(source, tag, self.consumed))
        best = best_key = None
        for cid, source, tag in lanes:
            mbox = self.mailbox.get(cid)
            if mbox is None:
                continue
            m = mbox.peek_match(source, tag, self.consumed)
            if m is None:
                continue
            key = (m.arrival, cid, m.src, m.seq)
            if best_key is None or key < best_key:
                best, best_key = m, key
        return best


@dataclass
class WorldResult:
    """Result of :meth:`Engine.run`.

    Attributes
    ----------
    returns:
        Per-rank return values of ``main``.
    vtime:
        Simulated completion time: the maximum final virtual clock.
    clocks:
        Final virtual clock of every rank.
    messages, bytes_sent:
        Total point-to-point messages and payload bytes.
    obs:
        The engine's :class:`~repro.obs.ObsContext` (causal trace,
        metrics, spans) -- what :func:`repro.analyze.analyze_obs`
        consumes.
    """

    returns: list = field(default_factory=list)
    vtime: float = 0.0
    clocks: list = field(default_factory=list)
    messages: int = 0
    bytes_sent: int = 0
    obs: object = None


class Engine:
    """A simulated machine running ``nprocs`` ranks, one runnable at a time.

    Parameters
    ----------
    nprocs:
        Number of simulated MPI ranks.
    model:
        Network cost model; defaults to Aries-like parameters.
    timeout:
        Real-time seconds the whole run may take. It only bounds a rank
        body that never reaches a simmpi call; no individual wait reads
        it (a deadlock is detected exactly, in no time).
    obs:
        Observability context collecting metrics, spans and the causal
        trace; a fresh :class:`~repro.obs.ObsContext` by default.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; when given, message
        deliveries and clock checkpoints consult it to inject seeded,
        deterministic faults (delays, duplicates, rank crashes).
    """

    def __init__(self, nprocs: int, model: NetworkModel | None = None,
                 timeout: float = 60.0, obs: ObsContext | None = None,
                 faults=None):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.model = model if model is not None else NetworkModel()
        self.timeout = timeout
        #: Fault-injection plan (``None`` = healthy machine).
        self.faults = faults
        #: Unified telemetry (always on).
        self.obs = obs if obs is not None else ObsContext()
        self.procs = [Proc(i) for i in range(nprocs)]
        #: The baton holder's :class:`Proc`, which is the caller of any
        #: simmpi operation; ``None`` outside a run.
        self.running: Proc | None = None
        self.failure: BaseException | None = None
        self._comm_counter = 0
        self._coll_ctxs: dict[int, object] = {}
        # The schedule: a heap of ``(event time, rank)``. An entry is
        # live while it equals its rank's ``Proc.event``; superseded
        # ones are dropped when they surface.
        self._events: list[tuple[float, int]] = []
        self._live = nprocs
        self._finished = threading.Event()

    def coll_ctx(self, comm_id: int, size: int):
        """The open collective rendezvous of a communicator."""
        from repro.simmpi.comm import _CollectiveCtx

        ctx = self._coll_ctxs.get(comm_id)
        if ctx is None:
            ctx = self._coll_ctxs[comm_id] = _CollectiveCtx(size)
        elif ctx.size != size:
            raise ValueError(
                f"collective context size mismatch for comm {comm_id}: "
                f"{ctx.size} != {size}"
            )
        return ctx

    def complete_collective(self, comm_id: int) -> None:
        """The last participant arrived: the communicator's next
        collective starts a fresh rendezvous, and every waiter of this
        one becomes runnable at its own clock."""
        for p in self._coll_ctxs.pop(comm_id).waiters:
            self._post(p, p.clock)

    # -- identity ---------------------------------------------------------

    def next_comm_id(self) -> int:
        """Allocate a fresh communicator id."""
        self._comm_counter += 1
        return self._comm_counter

    def current_proc(self) -> Proc:
        """The calling rank's Proc: the baton holder."""
        proc = self.running
        if proc is None:
            raise RuntimeError("not inside a simmpi rank thread")
        return proc

    # -- event accounting ---------------------------------------------------

    def account(self, proc: Proc):
        """``proc``'s :class:`~repro.obs.causal.RankAccount`, cached on
        it from its first use (call sites read ``proc.acct or
        engine.account(proc)``)."""
        acct = proc.acct = self.obs.causal.account(proc.rank)
        return acct

    def _fold_tallies(self) -> None:
        """Fold every rank's :attr:`Proc.tally` into the
        ``simmpi.<kind>.{count,bytes}`` counters of :attr:`obs`: two
        counter writes per rank and kind that had an event."""
        metrics = self.obs.metrics
        for p in self.procs:
            for kind, (n, nbytes, nonzero) in p.tally.items():
                if n:
                    metrics.counter(f"simmpi.{kind}.count",
                                    rank=p.rank).inc(n, count=n)
                    metrics.counter(f"simmpi.{kind}.bytes",
                                    rank=p.rank).inc(nbytes, count=nonzero)

    # -- the scheduler --------------------------------------------------------

    def _post(self, proc: Proc, event: float) -> None:
        """Give a parked rank a (new, earlier) event time."""
        proc.event = event
        heapq.heappush(self._events, (event, proc.rank))

    def _head(self) -> tuple[float, int] | None:
        """Smallest live ``(event time, rank)`` of any parked rank."""
        events = self._events
        while events:
            head = events[0]
            if self.procs[head[1]].event == head[0]:
                return head
            heapq.heappop(events)
        return None

    def is_next(self, arrival: float) -> bool:
        """True when the baton holder may commit a message that arrived
        at ``arrival``: no parked rank has an earlier event, so none can
        still post one that arrives before it. Nonblocking operations
        report "nothing there" otherwise."""
        head = self._head()
        return head is None or arrival <= head[0]

    def _next(self) -> Proc:
        """Take the rank to run next off the schedule.

        Normally the smallest event; live ranks but no event is the
        deadlock. Once the run has failed, the live ranks (all parked)
        are resumed one at a time, in rank order, each into
        :class:`WorkerAborted`.
        """
        if self.failure is None:
            head = self._head()
            if head is not None:
                heapq.heappop(self._events)
                proc = self.procs[head[1]]
                proc.event = None
                return proc
            self.failure = DeadlockError(self._explain_deadlock())
        return next(p for p in self.procs if not p.done)

    def park(self, proc: Proc, desc: WaitDesc,
             deadline: float | None = None) -> Message | None:
        """Wait, inside a blocking operation, until ``proc`` is next;
        return the best message queued on ``desc.lanes`` then (``None``
        for none).

        ``proc``'s event is the arrival of that message, or the virtual
        ``deadline`` if that comes first, or none. When ``(event, rank)``
        already sorts below the schedule's head, ``proc`` keeps the
        baton and its match stands. Otherwise it joins the schedule
        (deliveries lower its event while parked), gives up the baton
        and, holding it again, matches once more: other ranks ran, and
        may have queued a better message.
        """
        if self.failure is not None:
            self.check_failed()
        best = proc.best_match(desc.lanes)
        event = best.arrival if best is not None else deadline
        if deadline is not None and event > deadline:
            event = deadline
        if event is not None:
            mine = (event, proc.rank)
            head = self._head()
            if head is None or mine < head:
                return best
        proc.wait_desc = desc
        if event is None:
            nxt = self._next()
        else:
            # Join the schedule and take its (live) head off in one step.
            proc.event = event
            nxt = self.procs[heapq.heappushpop(self._events, mine)[1]]
            nxt.event = None
        if nxt is not proc:
            nxt.baton.release()
            proc.baton.acquire()
            self.running = proc
        proc.wait_desc = None
        if self.failure is not None:
            self.check_failed()
        return proc.best_match(desc.lanes)

    def _retire(self, proc: Proc) -> None:
        """``proc``'s body returned: pass the baton on for good."""
        proc.done = True
        self._live -= 1
        if self._live:
            self._next().baton.release()
        else:
            self.running = None
            self._finished.set()

    # -- failure handling ---------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        """Record the run's (first) failure; every rank that gets the
        baton from now on is torn down (:meth:`_next`)."""
        if self.failure is None:
            self.failure = exc

    def check_failed(self) -> None:
        """Raise WorkerAborted if any rank failed."""
        if self.failure is not None:
            raise WorkerAborted("another rank failed") from self.failure

    def _explain_deadlock(self) -> str:
        """The wait-for explanation of a schedule with no event left
        (never let the explainer mask the deadlock itself)."""
        base = ("deadlock: every live rank is blocked and no queued "
                "message can wake one")
        try:
            from repro.analyze.deadlock import explain_deadlock

            detail = explain_deadlock(self)
        except Exception:  # noqa: BLE001,ANL006 - explainer must never mask
            return base
        return f"{base}\n{detail}" if detail else base

    # -- fault injection -----------------------------------------------------

    def maybe_crash(self) -> None:
        """Crash the calling rank if its fault-plan time has come.

        Called, only under a fault plan, at clock checkpoints
        (send/recv/collective/compute and RPC serve loops); raises
        :class:`RankFailure` on the crashing rank, which tears down
        every peer cleanly via the engine's failure path instead of
        leaving them hanging.
        """
        plan = self.faults
        proc = self.current_proc()
        rank = proc.rank
        t = plan.crash_vtime(rank)
        if t is None or proc.clock < t:
            return
        plan.note_crash(rank)
        self.obs.fault(rank, proc.clock, "crash")
        raise RankFailure(rank, proc.clock)

    def _inject_message_faults(self, msg: Message) -> Message | None:
        """Apply the fault plan to ``msg``; returns an injected
        duplicate copy to co-deliver, or ``None``."""
        decision = self.faults.message_decision(msg.src_world,
                                                msg.dst_world)
        if decision is None:
            return None
        obs = self.obs
        if decision.wire_factor != 1.0:
            msg.arrival = msg.sent_at + (
                (msg.arrival - msg.sent_at) * decision.wire_factor
            )
        if decision.extra_delay > 0.0:
            msg.arrival += decision.extra_delay
            obs.fault(msg.dst_world, msg.arrival, "msg_delay",
                      src=msg.src_world, delay=decision.extra_delay)
        if not decision.duplicate:
            return None
        msg.has_dup = True
        obs.fault(msg.dst_world, msg.arrival, "msg_duplicate",
                  src=msg.src_world)
        return Message(
            comm_id=msg.comm_id, src=msg.src, dst_world=msg.dst_world,
            tag=msg.tag, payload=msg.payload, nbytes=msg.nbytes,
            arrival=msg.arrival + decision.dup_delay,
            src_world=msg.src_world, sent_at=msg.sent_at,
            dup_of=msg.seq,
            seq=self.next_msg_seq(self.procs[msg.src_world]),
        )

    # -- delivery ------------------------------------------------------------

    def next_msg_seq(self, proc: Proc) -> int:
        """Deterministic message id from the sender's own stream.

        ``rank << 32 | n`` for the sender's ``n``-th post, so same-seed
        runs label every message identically.
        """
        seq = (proc.rank << 32) | proc.msg_seq
        proc.msg_seq += 1
        return seq

    def deliver(self, msg: Message) -> None:
        """Enqueue a message at its destination mailbox.

        When a fault plan is installed, the message may be delayed,
        carried over a slowed wire, or duplicated (the duplicate is
        deduped at match time, so protocols above never see it twice).
        """
        dup = None
        if self.faults is not None:
            dup = self._inject_message_faults(msg)
        # The message's one causal record, completed by its receive; the
        # injected twin is never received, so it gets none.
        self.obs.causal.post(
            msg.seq, msg.src_world, msg.dst_world, msg.tag, msg.comm_id,
            msg.nbytes, msg.sent_at, msg.arrival,
        )
        dst = self.procs[msg.dst_world]
        mbox = dst.mailbox.get(msg.comm_id)
        if mbox is None:
            mbox = dst.mailbox[msg.comm_id] = CommMailbox()
        mbox.push(msg)
        if dup is not None:
            mbox.push(dup)
        # A parked receiver's event time is its best candidate's
        # arrival: lower it when this message (its injected twin has
        # the same envelope and arrives later) is a better one.
        desc = dst.wait_desc
        if desc is not None and (dst.event is None
                                 or msg.arrival < dst.event):
            for cid, source, tag in desc.lanes:
                if cid == msg.comm_id and msg.matches(source, tag):
                    self._post(dst, msg.arrival)
                    break
        series = dst.depth
        if series is None:
            series = dst.depth = self.obs.series.bound(
                "simmpi.mailbox_depth", rank=dst.rank
            )
        boxes = dst.mailbox
        series.record(msg.arrival, len(mbox) if len(boxes) == 1
                      else sum(len(m) for m in boxes.values()))

    # -- running ----------------------------------------------------------

    def run(self, main, args: tuple = (), kwargs: dict | None = None) -> WorldResult:
        """Run ``main(world_comm, *args, **kwargs)`` on every rank.

        Raises the first exception raised by any rank. Returns a
        :class:`WorldResult` on success.
        """
        from repro.simmpi.comm import Comm

        kwargs = kwargs or {}
        world = Comm(self, list(range(self.nprocs)))
        returns = [None] * self.nprocs

        def runner(proc: Proc):
            _batch_policy()
            proc.baton.acquire()
            self.running = proc
            try:
                if self.failure is None:
                    returns[proc.rank] = main(world, *args, **kwargs)
            except WorkerAborted:
                pass  # secondary failure; the primary one is recorded
            except BaseException as exc:  # noqa: BLE001,ANL006 - re-raised from run()
                self.fail(exc)
            finally:
                self._retire(proc)

        threads = [
            threading.Thread(target=runner, args=(p,),
                             name=f"simmpi-rank-{p.rank}", daemon=True)
            for p in self.procs
        ]
        for p in self.procs:
            self._post(p, p.clock)
        for t in threads:
            t.start()
        self._next().baton.release()
        if self._finished.wait(self.timeout):
            for t in threads:
                t.join()
        else:
            # Some body holds the baton and never reaches a simmpi call.
            self.fail(RunTimeout(
                f"run did not finish within {self.timeout:.0f}s real time"
            ))
        self._fold_tallies()
        if self.failure is not None:
            raise self.failure
        clocks = [p.clock for p in self.procs]
        sends = [p.tally["send"] for p in self.procs]
        return WorldResult(
            returns=returns,
            vtime=max(clocks),
            clocks=clocks,
            messages=sum(t[0] for t in sends),
            bytes_sent=sum(t[1] for t in sends),
            obs=self.obs,
        )


def _batch_policy() -> None:
    """Run the calling rank thread under ``SCHED_BATCH`` where allowed.

    Under the default policy a woken rank preempts the waker while the
    waker still holds the GIL, so a baton handoff costs several context
    switches; a batch thread does not preempt on wake-up, so the waker
    blocks first and the handoff is one switch. Host time only: virtual
    results do not depend on the policy, so a missing or refused one is
    skipped.
    """
    policy = getattr(os, "SCHED_BATCH", None)
    if policy is None:
        return
    try:
        os.sched_setscheduler(0, policy, os.sched_param(0))
    except OSError:
        pass


def run_world(nprocs: int, main, *, model: NetworkModel | None = None,
              timeout: float = 60.0, faults=None, args: tuple = (),
              kwargs: dict | None = None) -> WorldResult:
    """Convenience wrapper: build an :class:`Engine` and run ``main``."""
    return Engine(nprocs, model=model, timeout=timeout, faults=faults).run(
        main, args=args, kwargs=kwargs
    )
