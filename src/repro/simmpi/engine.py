"""Engine: launches ranks on threads and owns virtual clocks/mailboxes."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs import ObsContext
from repro.simmpi.errors import DeadlockError, RankFailure, WorkerAborted
from repro.simmpi.mailbox import CommMailbox
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message
from repro.simmpi.netmodel import NetworkModel

_tls = threading.local()

#: Wait-spec sentinel: wake the rank on *any* arriving message (used by
#: serve loops whose wake predicate the engine cannot inspect).
WAKE_ANY = object()


class WaitDesc(NamedTuple):
    """What a blocked rank is waiting for (safety gate + deadlock explainer).

    ``kind`` is ``"recv"``, ``"probe"``, ``"serve"`` or ``"collective"``;
    ``source``/``tag`` are the local spec (``ANY_SOURCE``/``ANY_TAG`` for
    wildcards and serve loops); ``senders`` is the resolved set of world
    ranks whose action could wake this rank (``None`` = any rank). The
    attribute write is atomic under the GIL; readers that also need the
    rank's mailbox state take the rank's lock.
    """

    kind: str
    comm_id: int
    source: int
    tag: int
    senders: tuple | None
    detail: str = ""
    #: Optional lock-free probe: returns False once the wait's predicate
    #: turned true (the rank can proceed without a waker and must be
    #: treated as running even though it is still inside the wait).
    stuck: object = None
    #: The ``(comm_id, source, tag)`` specs this waiter matches messages
    #: against (one for a receive/probe, several for a serve loop; empty
    #: for collectives). The safety evaluator peeks these lanes under
    #: the rank's lock: a waiter whose best queued candidate arrives at
    #: or after the bound is classifiable as blocked -- every path by
    #: which it proceeds lands its clock at or past the bound -- so
    #: concurrent gated matches resolve in arrival order instead of
    #: deadlocking on each other.
    lanes: tuple = ()


def current_world_rank() -> int:
    """World rank of the calling thread (threads launched by an Engine)."""
    rank = getattr(_tls, "world_rank", None)
    if rank is None:
        raise RuntimeError("not inside a simmpi rank thread")
    return rank


class Proc:
    """Per-rank state: virtual clock and mailbox. Internal."""

    __slots__ = ("rank", "clock", "lock", "cond", "mailbox", "consumed",
                 "wait_spec", "wait_desc", "done", "msg_seq")

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        # Per-sender message id stream: the next message this rank
        # posts gets id ``rank << 32 | msg_seq``. Single-writer (the
        # rank's own thread), so ids are identical across same-seed
        # runs regardless of thread interleaving or process history.
        self.msg_seq = 0
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        # comm_id -> CommMailbox, indexed by (src, tag)
        self.mailbox: dict[int, CommMailbox] = {}
        # seqs of consumed messages that have an injected duplicate in
        # flight; lets the matcher drop the copy (dedup).
        self.consumed: set[int] = set()
        # What this rank is blocked on, or None when it is not blocked
        # in a mailbox wait: WAKE_ANY, or a (comm_id, source, tag)
        # triple. Written and read under ``lock`` only; deliver uses it
        # to wake the rank only for messages it actually waits for.
        self.wait_spec = None
        # Rich wait descriptor (:class:`WaitDesc`) set for the duration
        # of any blocked wait -- mailbox, probe, serve loop or
        # collective. Input to the wildcard safety gate and the
        # deadlock explainer. Atomic attribute write; ``None`` while
        # the rank runs.
        self.wait_desc = None
        # True once the rank's main returned (it will never send again).
        self.done = False


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
    """A simulated machine running ``nprocs`` ranks on threads.

    Parameters
    ----------
    nprocs:
        Number of simulated MPI ranks.
    model:
        Network cost model; defaults to Aries-like parameters.
    timeout:
        Real-time seconds a blocking operation may wait before the run is
        declared deadlocked.
    obs:
        Observability context collecting metrics, spans and the flight
        recorder; a fresh :class:`~repro.obs.ObsContext` by default.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; when given, message
        deliveries and clock checkpoints consult it to inject seeded,
        deterministic faults (delays, duplicates, rank crashes).
    """

    #: Wake-and-recheck slice for waits whose predicate depends on
    #: global state (serve loops watching the machine's virtual clock);
    #: mailbox waits are purely event-driven and never poll.
    _POLL = 0.05

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
        #: Unified telemetry (always on; the flight recorder is bounded).
        self.obs = obs if obs is not None else ObsContext()
        # (kind, rank) -> (count handle, bytes handle): pre-resolved
        # bound counters so the per-event hot path never rebuilds
        # metric keys (benign race: duplicate handles bind one slot).
        self._evt_counters: dict[tuple, tuple] = {}
        # rank -> bound series handle for mailbox-depth sampling at
        # delivery. Volatile: the depth seen at a given delivery depends
        # on real thread interleaving, so the series never feeds
        # deterministic run digests.
        self._mbox_series: dict[int, object] = {}
        self.procs = [Proc(i) for i in range(nprocs)]
        self.failure: BaseException | None = None
        self._failed = threading.Event()
        self._stats_lock = threading.Lock()
        self.n_messages = 0
        self.n_bytes = 0
        self._comm_counter = 0
        self._comm_lock = threading.Lock()
        self._coll_ctxs: dict[int, object] = {}
        # Wildcard-match safety gate state: the epoch counts blocked-wait
        # entries and rank exits (the transitions that can make a lagging
        # sender safe); gated waiters sleep until it moves. ``_safety_
        # waiters`` holds the Procs currently sleeping in a gated wait.
        self.safety_epoch = 0
        self._safety_lock = threading.Lock()
        self._safety_waiters: set[Proc] = set()

    def coll_ctx(self, comm_id: int, size: int):
        """Shared collective-rendezvous context for a communicator."""
        from repro.simmpi.comm import _CollectiveCtx

        with self._comm_lock:
            ctx = self._coll_ctxs.get(comm_id)
            if ctx is None:
                ctx = _CollectiveCtx(size)
                self._coll_ctxs[comm_id] = ctx
            elif ctx.size != size:
                raise ValueError(
                    f"collective context size mismatch for comm {comm_id}: "
                    f"{ctx.size} != {size}"
                )
            return ctx

    # -- identity ---------------------------------------------------------

    def next_comm_id(self) -> int:
        """Allocate a fresh communicator id."""
        with self._comm_lock:
            self._comm_counter += 1
            return self._comm_counter

    def current_proc(self) -> Proc:
        """The calling thread's Proc."""
        return self.procs[current_world_rank()]

    # -- event accounting ---------------------------------------------------

    def record(self, vtime: float, kind: str, rank: int, peer: int,
               tag: int, nbytes: int, label: str = "") -> None:
        """Account one communication event.

        Feeds the flight recorder and the byte/message counters in
        :attr:`obs` (the full per-message record is the causal trace,
        written at delivery and match time). Counters are pre-resolved
        bound handles and the flight detail tuple is built in key
        order, so this path does no metric-key or sort work.
        """
        handles = self._evt_counters.get((kind, rank))
        if handles is None:
            metrics = self.obs.metrics
            handles = (metrics.counter(f"simmpi.{kind}.count", rank=rank),
                       metrics.counter(f"simmpi.{kind}.bytes", rank=rank))
            self._evt_counters[(kind, rank)] = handles
        handles[0].inc(1)
        if nbytes:
            handles[1].inc(nbytes)
        self.obs.flight.append(
            rank, vtime, kind, label or kind,
            (("nbytes", nbytes), ("peer", peer), ("tag", tag)),
        )

    # -- failure handling ---------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        """Record a failure and wake every sleeper.

        Mailbox waits are event-driven (no polling), so every sleeper
        -- per-rank mailbox conditions *and* collective rendezvous
        conditions -- must be notified explicitly.
        """
        if self.failure is None:
            self.failure = exc
        self._failed.set()
        for p in self.procs:
            with p.cond:
                p.cond.notify_all()
        with self._comm_lock:
            ctxs = list(self._coll_ctxs.values())
        for ctx in ctxs:
            with ctx.cond:
                ctx.cond.notify_all()

    def check_failed(self) -> None:
        """Raise WorkerAborted if any rank failed."""
        if self._failed.is_set():
            raise WorkerAborted("another rank failed") from self.failure

    def wait_on(self, cond: threading.Condition, predicate, what: str,
                poll: float | None = None):
        """Wait (holding ``cond``) until ``predicate()``; honor timeout/failure.

        The deadlock timeout is a single ``time.monotonic()`` deadline:
        frequently-notified waiters consume only the real time that
        actually passed, not a fixed slice per wakeup. With ``poll=None``
        (the default) the wait is purely event-driven -- whoever makes
        the predicate true must notify ``cond`` (message delivery,
        collective completion, engine failure all do). Waits whose
        predicate can turn true without a notification (serve loops
        watching global virtual time) pass a ``poll`` slice to recheck
        periodically.
        """
        deadline = time.monotonic() + self.timeout
        while not predicate():
            if self._failed.is_set():
                raise WorkerAborted("another rank failed") from self.failure
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlockError(self._explain_deadlock(what))
            cond.wait(remaining if poll is None else min(poll, remaining))

    def _explain_deadlock(self, what: str) -> str:
        """Base watchdog message, enriched with the wait-for cycle when
        the analyzer can derive one (never let the explainer mask the
        deadlock itself)."""
        base = (
            f"rank {current_world_rank()} timed out after "
            f"{self.timeout:.0f}s real time waiting for {what}"
        )
        try:
            from repro.analyze.deadlock import explain_deadlock

            detail = explain_deadlock(self)
        except Exception:  # noqa: BLE001,ANL006 - explainer must never mask
            return base
        return f"{base}\n{detail}" if detail else base

    # -- wildcard-match safety gate ------------------------------------------

    def note_blocked(self) -> None:
        """A rank entered a blocked wait (or exited): bump the safety
        epoch and wake every gated waiter so it re-evaluates.

        Must be called with *no* Proc lock held by the caller: waking a
        waiter takes that waiter's lock, and gated waiters never hold
        their own lock while snapshotting peers, so the acquisition
        graph stays acyclic.
        """
        with self._safety_lock:
            self.safety_epoch += 1
            waiters = list(self._safety_waiters)
        for p in waiters:
            with p.cond:
                p.cond.notify_all()

    def add_safety_waiter(self, proc: Proc) -> None:
        """Register ``proc`` as sleeping in a gated wait: it will be
        woken on every safety-epoch change until discarded."""
        with self._safety_lock:
            self._safety_waiters.add(proc)

    def discard_safety_waiter(self, proc: Proc) -> None:
        """Remove ``proc`` from the gated-sleeper set (wait finished)."""
        with self._safety_lock:
            self._safety_waiters.discard(proc)

    def _rank_state(self, s: Proc, arrival: float):
        """Classify ``s`` against an arrival bound: ``("safe", None)``,
        ``("running", None)`` or ``("blocked", wakers)``.

        Taken under ``s.lock`` (one peer at a time, caller holds no
        lock) so the check "blocked with nothing queued that matches"
        cannot race a concurrent delivery: deliveries run synchronously
        inside ``send`` under the destination lock.
        """
        if s.done or s.clock >= arrival:
            return ("safe", None)
        with s.lock:
            if s.done or s.clock >= arrival:
                return ("safe", None)
            desc = s.wait_desc
            if desc is None:
                return ("running", None)
            if desc.kind == "collective":
                if desc.stuck is not None and not desc.stuck():
                    # Released (e.g. the collective completed) but not
                    # rescheduled yet: it can proceed without a waker.
                    return ("running", None)
                return ("blocked", desc.senders)
            # Mailbox wait: peek the waiter's lanes for its best queued
            # candidate. No candidate -> it proceeds only via a waker.
            # Best candidate at/after the bound -> still classifiable
            # as blocked: whichever way it proceeds (matching that
            # candidate, or an earlier one delivered by a safe sender)
            # its clock lands at or past the bound. Best candidate
            # before the bound -> it can act below the bound on its
            # own; treat as running.
            best = None
            for cid, src, tg in desc.lanes:
                mbox = s.mailbox.get(cid)
                if mbox is None:
                    continue
                m = mbox.peek_match(src, tg, s.consumed)
                if m is not None and (best is None or m.arrival < best):
                    best = m.arrival
            if best is not None and best < arrival:
                return ("running", None)
            return ("blocked", desc.senders)

    def wildcard_safe(self, me: int, arrival: float, senders) -> bool:
        """True when no potential sender can still produce a matching
        message with an earlier arrival than ``arrival``.

        A sender is *safe* when its clock already passed ``arrival``
        (clocks are monotone and every send arrives strictly after the
        sender's clock), when it exited, or when it is blocked and every
        rank that could wake it is itself safe -- a greatest fixed
        point, so a cycle of mutually-blocked ranks is safe (it can
        never send). Stale lock-free clock reads only underestimate,
        which is conservative. Safety is stable: once true it stays
        true, so the caller may commit the match after re-taking its
        own lock.
        """
        if senders is None:
            need = [r for r in range(self.nprocs) if r != me]
        else:
            need = [r for r in senders if r != me]
        procs = self.procs
        if all(procs[r].done or procs[r].clock >= arrival for r in need):
            return True
        # Closure: classify every rank the verdict can depend on.
        state: dict[int, tuple] = {me: ("safe", None)}
        stack = list(need)
        while stack:
            r = stack.pop()
            if r in state:
                continue
            st = self._rank_state(procs[r], arrival)
            state[r] = st
            if st[0] == "blocked":
                wakers = st[1]
                stack.extend(
                    range(self.nprocs) if wakers is None else wakers
                )
        # Greatest fixed point: start from "every blocked rank is safe"
        # and prune ranks reachable from a running one.
        unsafe = {r for r, st in state.items() if st[0] == "running"}
        changed = True
        while changed:
            changed = False
            for r, st in state.items():
                if r in unsafe or st[0] != "blocked":
                    continue
                wakers = st[1]
                ws = range(self.nprocs) if wakers is None else wakers
                if any(w in unsafe for w in ws if w != r):
                    unsafe.add(r)
                    changed = True
        return not any(r in unsafe for r in need)

    # -- fault injection -----------------------------------------------------

    def maybe_crash(self) -> None:
        """Crash the calling rank if its fault-plan time has come.

        Called at clock checkpoints (send/recv/collective/compute and
        RPC serve loops); raises :class:`RankFailure` on the crashing
        rank, which tears down every peer cleanly via the engine's
        failure path instead of leaving them hanging.
        """
        plan = self.faults
        if plan is None:
            return
        rank = current_world_rank()
        proc = self.procs[rank]
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

        ``rank << 32 | n`` for the sender's ``n``-th post; assigned by
        the sending thread only, so same-seed runs label every message
        identically no matter how the OS interleaves rank threads.
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
        # Pending-send table (message-leak analysis): the injected twin
        # is not re-posted -- consuming either copy satisfies this entry.
        self.obs.causal.post(
            msg.seq, msg.src_world, msg.dst_world, msg.tag, msg.comm_id,
            msg.nbytes, msg.sent_at, msg.arrival,
        )
        dst = self.procs[msg.dst_world]
        with dst.cond:
            mbox = dst.mailbox.get(msg.comm_id)
            if mbox is None:
                mbox = dst.mailbox[msg.comm_id] = CommMailbox()
            mbox.push(msg)
            if dup is not None:
                mbox.push(dup)
            # Targeted wakeup: only notify a rank that is blocked on a
            # wait this message (or its injected twin -- same envelope)
            # can satisfy; a rank waiting on a different (comm, source,
            # tag) or not waiting at all is left alone.
            spec = dst.wait_spec
            if spec is not None and (
                spec is WAKE_ANY
                or (spec[0] == msg.comm_id
                    and spec[1] in (ANY_SOURCE, msg.src)
                    and spec[2] in (ANY_TAG, msg.tag))
            ):
                dst.cond.notify_all()
            depth = sum(len(m) for m in dst.mailbox.values())
        series = self._mbox_series.get(msg.dst_world)
        if series is None:
            series = self.obs.series.bound(
                "simmpi.mailbox_depth", rank=msg.dst_world, volatile=True
            )
            self._mbox_series[msg.dst_world] = series
        series.record(msg.arrival, depth)
        # Delivery marker on the *destination* ring (written from the
        # sender's thread; FlightRecorder serializes appends).
        self.obs.flight.append(
            msg.dst_world, msg.arrival, "deliver", f"tag {msg.tag}",
            (("msg_id", msg.msg_id), ("nbytes", msg.nbytes),
             ("src", msg.src_world)),
        )
        with self._stats_lock:
            self.n_messages += 1
            self.n_bytes += msg.nbytes

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

        def runner(rank: int):
            _tls.world_rank = rank
            try:
                returns[rank] = main(world, *args, **kwargs)
            except WorkerAborted:
                pass  # secondary failure; the primary one is recorded
            except BaseException as exc:  # noqa: BLE001,ANL006 - re-raised from run()
                self.fail(exc)
            finally:
                # The rank will never send again: lagging wildcard
                # matches gated on its clock may now proceed.
                self.procs[rank].done = True
                self.note_blocked()

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}",
                             daemon=True)
            for r in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        # One shared monotonic deadline for the whole shutdown: the old
        # per-thread join bound let total wait grow to nprocs x bound.
        deadline = time.monotonic() + self.timeout * 10
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive() and not self._failed.is_set():
                self.fail(DeadlockError(f"thread {t.name} did not finish"))
        if self.failure is not None:
            raise self.failure
        clocks = [p.clock for p in self.procs]
        return WorldResult(
            returns=returns,
            vtime=max(clocks),
            clocks=clocks,
            messages=self.n_messages,
            bytes_sent=self.n_bytes,
            obs=self.obs,
        )


def run_world(nprocs: int, main, *, model: NetworkModel | None = None,
              timeout: float = 60.0, faults=None, args: tuple = (),
              kwargs: dict | None = None) -> WorldResult:
    """Convenience wrapper: build an :class:`Engine` and run ``main``."""
    return Engine(nprocs, model=model, timeout=timeout, faults=faults).run(
        main, args=args, kwargs=kwargs
    )
