"""Communicators: point-to-point, collectives, split, intercommunicators."""

from __future__ import annotations

from repro.simmpi.errors import CommMismatchError
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, Status
from repro.simmpi.netmodel import payload_nbytes
from repro.simmpi.request import SENT, Request
from repro.simmpi import engine as _engine


class _CollectiveCtx:
    """One rendezvous of one communicator's collectives. Internal.

    Ranks enter with a contribution; the last arriver runs the reducer
    once, publishes the result plus the post-collective clock and
    retires the context (:meth:`Engine.complete_collective`): the
    communicator's next collective opens a fresh one while the waiters
    of this one still hold it.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: dict[int, object] = {}
        # world rank -> clock at entry (straggler attribution)
        self.enter_clocks: dict[int, float] = {}
        # world rank -> collective kind at entry (mismatch detection:
        # the rendezvous completes even when ranks disagree, so the
        # analyzer needs the per-rank record to flag it).
        self.enter_kinds: dict[int, str] = {}
        self.max_clock = float("-inf")
        # Largest nbytes any participant passed: the rendezvous cost
        # must not depend on *which* rank happens to complete it.
        self.max_nbytes = 0
        self.waiters: list = []
        self.result = None
        self.final_clock = 0.0


class Comm:
    """An intra-communicator over a subset of world ranks.

    A single ``Comm`` object is shared by all of its member threads;
    the calling rank is the engine's baton holder
    (:attr:`~repro.simmpi.engine.Engine.running`). All operations
    advance the calling rank's virtual clock per the engine's
    :class:`~repro.simmpi.netmodel.NetworkModel`.
    """

    is_inter = False

    def __init__(self, engine, members: list[int], comm_id: int | None = None):
        self.engine = engine
        self.members = list(members)
        self._world_to_local = {w: i for i, w in enumerate(self.members)}
        self.comm_id = engine.next_comm_id() if comm_id is None else comm_id
        # Wait descriptions, built once: a receive or probe spec's,
        # keyed (kind, source, tag), does not depend on the calling
        # rank; a collective waiter's is keyed ("collective", kind,
        # world rank).
        self._descs: dict[tuple, _engine.WaitDesc] = {}

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        """Local rank of the calling rank within this communicator."""
        w = self.engine.current_proc().rank
        try:
            return self._world_to_local[w]
        except KeyError:
            raise CommMismatchError(
                f"world rank {w} is not a member of this communicator"
            ) from None

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self.members)

    @property
    def model(self):
        """The engine's network cost model."""
        return self.engine.model

    def world_rank(self, local_rank: int) -> int:
        """World rank of ``local_rank`` in this comm."""
        return self.members[local_rank]

    def _src_world(self, src_local: int) -> int:
        """World rank of a message sender (its rank in its group)."""
        return self.members[src_local]

    def _dest_world(self, dest: int) -> int:
        try:
            return self.members[dest]
        except IndexError:
            raise CommMismatchError(
                f"dest {dest} out of range for size {self.size}"
            ) from None

    # -- local virtual work -------------------------------------------------

    def compute(self, seconds: float) -> None:
        """Advance this rank's virtual clock by ``seconds`` of local work."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        engine = self.engine
        proc = engine.current_proc()
        plan = engine.faults
        if plan is not None:
            seconds = plan.scaled_compute(proc.rank, seconds)
        proc.clock += seconds
        (proc.acct or engine.account(proc)).compute += seconds
        if plan is not None:
            engine.maybe_crash()

    def charge_memcpy(self, nbytes: int) -> None:
        """Charge a bulk contiguous copy of ``nbytes`` to the clock."""
        proc = self.engine.current_proc()
        dt = self.model.memcpy_time(nbytes)
        proc.clock += dt
        (proc.acct or self.engine.account(proc)).compute += dt

    def charge_pack_elements(self, nelements: int) -> None:
        """Charge per-element (point-at-a-time) serialization work."""
        proc = self.engine.current_proc()
        dt = self.model.pack_elements_time(nelements)
        proc.clock += dt
        (proc.acct or self.engine.account(proc)).compute += dt

    @property
    def vtime(self) -> float:
        """Current virtual clock of the calling rank."""
        return self.engine.current_proc().clock

    # -- point to point ------------------------------------------------------

    def send(self, payload, dest: int, tag: int = 0, nbytes: int | None = None):
        """Buffered send: completes locally once posted.

        ``nbytes`` overrides the payload size used by the cost model
        (modeled runs pass :class:`VirtualPayload` or an explicit size).
        """
        engine = self.engine
        proc = engine.running
        if engine.failure is not None:
            engine.check_failed()
        if engine.faults is not None:
            engine.maybe_crash()
        nb = payload_nbytes(payload) if nbytes is None else int(nbytes)
        model = engine.model
        overhead = model.msg_overhead
        proc.clock = sent_at = proc.clock + overhead
        (proc.acct or engine.account(proc)).transfer += overhead
        dst_world = self._dest_world(dest)
        rank = proc.rank
        try:
            src = self._world_to_local[rank]
        except KeyError:
            src = self.rank  # raises CommMismatchError
        # The next id of the sender's stream (Engine.next_msg_seq).
        seq = rank << 32 | proc.msg_seq
        proc.msg_seq += 1
        engine.deliver(Message(
            self.comm_id, src, dst_world, tag, payload, nb,
            sent_at + model.transfer_time(nb, engine.nprocs), rank,
            sent_at, None, False, seq,
        ))
        proc.record("send", nb)

    def isend(self, payload, dest: int, tag: int = 0,
              nbytes: int | None = None) -> Request:
        """Nonblocking send (buffered, hence complete at once)."""
        self.send(payload, dest, tag, nbytes)
        return SENT

    def _sender_members(self):
        """World ranks that may post messages into this communicator."""
        return self.members

    def _spec_senders(self, source: int) -> tuple:
        """Resolved world ranks that could satisfy a ``source`` spec."""
        if source == ANY_SOURCE:
            return tuple(self._sender_members())
        return (self._src_world(source),)

    def _take_match(self, proc, msg: Message, source: int, tag: int,
                    t_start: float) -> Message:
        """Dequeue ``msg`` -- the best queued match for ``(source,
        tag)``, as the caller just found it -- advance the clock, charge
        the wait/transfer split to the rank's ledger, complete the
        message's causal record and tally the receive (together, so a
        crash after the receive leaves both agreeing).

        Matching is an indexed bucket-head lookup (see
        :class:`~repro.simmpi.mailbox.CommMailbox`); non-matching queued
        messages are never touched. The taken message is never an
        injected twin: a twin arrives no earlier than its original, gets
        a later seq and shares its ``(src, tag)`` bucket, so it sorts
        after it, and taking the original records its seq in
        ``proc.consumed`` so the mailbox purges the twin. A wildcard
        receive records its ``(source, tag)`` spec on the message's
        causal record; the race detector rebuilds what it could have
        taken from the record after the run.

        The blocked interval ``[t_start, arrival]`` is split at the
        sender's post time: idling before the post is *wait* (late
        sender), the remainder plus the receive overhead is *transfer*
        (wire time). Fault plans may rewrite ``arrival``, so both
        pieces are clamped to be non-negative.
        """
        proc.mailbox[self.comm_id].take(msg)
        if msg.has_dup:
            proc.consumed.add(msg.seq)
        arrival = msg.arrival
        engine = self.engine
        overhead = engine.model.msg_overhead
        proc.clock = max(t_start, arrival) + overhead
        blocked = max(0.0, arrival - t_start)
        wait = min(blocked, max(0.0, msg.sent_at - t_start))
        acct = proc.acct or engine.account(proc)
        acct.wait += wait
        acct.transfer += (blocked - wait) + overhead
        wildcard = source == ANY_SOURCE or tag == ANY_TAG
        engine.obs.causal.receive(msg.seq, t_start, proc.clock,
                                  (source, tag) if wildcard else None)
        proc.record("recv", msg.nbytes)
        return msg

    def _wait_desc(self, kind: str, source: int, tag: int):
        key = (kind, source, tag)
        desc = self._descs.get(key)
        if desc is None:
            desc = self._descs[key] = _engine.WaitDesc(
                kind, self.comm_id, source, tag, self._spec_senders(source),
                lanes=((self.comm_id, source, tag),),
            )
        return desc

    def _peek(self, proc, source: int, tag: int):
        """Best queued match for ``(source, tag)``, not consumed."""
        return proc.best_match(((self.comm_id, source, tag),))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns ``(payload, Status)``.

        Parks until the scheduler hands this rank the baton for its
        best queued match: by then no rank can still post an
        earlier-arriving one, so which message a (wildcard) receive
        takes is a function of virtual time alone.
        """
        engine = self.engine
        proc = engine.running
        if engine.faults is not None:
            engine.maybe_crash()
        t_start = proc.clock
        msg = engine.park(proc, self._descs.get(("recv", source, tag))
                          or self._wait_desc("recv", source, tag))
        self._take_match(proc, msg, source, tag, t_start)
        if engine.faults is not None:
            engine.maybe_crash()
        return msg.payload, Status(msg.src, msg.tag, msg.nbytes)

    def _try_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking receive; ``(payload, Status)`` or ``None``.

        A queued candidate that some parked rank could still overtake
        (:meth:`Engine.is_next`) is reported as "nothing there".
        """
        engine = self.engine
        proc = engine.current_proc()
        if engine.faults is not None:
            engine.maybe_crash()
        msg = self._peek(proc, source, tag)
        if msg is None or not engine.is_next(msg.arrival):
            return None
        self._take_match(proc, msg, source, tag, proc.clock)
        return msg.payload, Status(msg.src, msg.tag, msg.nbytes)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive returning a :class:`Request`."""
        return Request(self, "recv", source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              block: bool = True):
        """Check for a matching message without consuming it.

        Returns a :class:`Status`, or ``None`` when ``block=False`` and
        nothing matches yet. Same commit rule as :meth:`recv` /
        :meth:`_try_recv`: the reported message is the one a receive
        would take.
        """
        proc = self.engine.current_proc()
        if block:
            m = self.engine.park(proc, self._wait_desc("probe", source, tag))
        else:
            m = self._peek(proc, source, tag)
            if m is None or not self.engine.is_next(m.arrival):
                return None
        return Status(m.src, m.tag, m.nbytes)

    # -- collectives -----------------------------------------------------------

    def _participants(self) -> int:
        return self.size

    def _participant_worlds(self) -> list[int]:
        """World ranks taking part in this comm's collectives."""
        return self.members

    def _my_coll_key(self) -> int:
        return self.rank

    _COST_ALIAS = {
        "allgather_split": "allgather",
        "dup": "barrier",
    }

    def _collective(self, kind: str, contribution, reducer, nbytes: int = 0):
        engine = self.engine
        ctx = engine.coll_ctx(self.comm_id, self._participants())
        if engine.faults is not None:
            engine.maybe_crash()
        proc = engine.current_proc()
        cost_kind = self._COST_ALIAS.get(kind, kind)
        obs = engine.obs
        open_span = obs.spans.begin(
            proc.rank, f"mpi.{kind}", "simmpi", proc.clock,
            {"comm": self.comm_id, "nbytes": nbytes},
        )
        enter = proc.clock
        ctx.entries[self._my_coll_key()] = contribution
        ctx.enter_clocks[proc.rank] = enter
        ctx.enter_kinds[proc.rank] = kind
        ctx.max_clock = max(ctx.max_clock, enter)
        ctx.max_nbytes = max(ctx.max_nbytes, nbytes)
        if len(ctx.entries) == ctx.size:
            # Cost from the aggregate payload size, never from the
            # completing rank's own ``nbytes``: per-rank sizes can
            # differ (e.g. alltoall).
            ctx.result = reducer(dict(ctx.entries))
            ctx.final_clock = ctx.max_clock + self.model.collective_time(
                cost_kind, ctx.size, ctx.max_nbytes
            )
            obs.causal.collective(
                kind=kind, comm_id=self.comm_id,
                nbytes=ctx.max_nbytes,
                enter_clocks=ctx.enter_clocks, t_ready=ctx.max_clock,
                t_end=ctx.final_clock, kinds=ctx.enter_kinds,
            )
            engine.complete_collective(self.comm_id)
        else:
            # Only another participant can release this rank.
            ctx.waiters.append(proc)
            key = ("collective", kind, proc.rank)
            desc = self._descs.get(key)
            if desc is None:
                desc = self._descs[key] = _engine.WaitDesc(
                    "collective", self.comm_id, -1, -1,
                    tuple(w for w in self._participant_worlds()
                          if w != proc.rank), kind,
                )
            engine.park(proc, desc)
        proc.clock = ctx.final_clock
        acct = proc.acct or engine.account(proc)
        acct.wait += max(0.0, ctx.max_clock - enter)
        acct.transfer += ctx.final_clock - ctx.max_clock
        obs.spans.end(open_span, proc.clock)
        proc.record("coll", nbytes)
        return ctx.result

    def barrier(self) -> None:
        """Synchronize all ranks; clocks advance to a common time."""
        self._collective("barrier", None, lambda e: None)

    def epoch_barrier(self, epoch: int) -> None:
        """Barrier bounding one streaming epoch.

        Semantically a plain barrier; the surrounding span labels it
        with the epoch id, so traces and wait-state attribution can
        tell which timestep a straggler stalled.
        """
        obs = self.engine.obs
        proc = self.engine.current_proc()
        h = obs.spans.begin(proc.rank, "mpi.epoch_barrier", "simmpi",
                            proc.clock, {"epoch": epoch})
        try:
            self._collective("barrier", None, lambda e: None)
        finally:
            obs.spans.end(h, self.engine.current_proc().clock)

    def bcast(self, payload=None, root: int = 0):
        """Broadcast ``payload`` from ``root``; every rank returns it."""
        nb = payload_nbytes(payload) if self.rank == root else 0
        return self._collective(
            "bcast", payload if self.rank == root else None,
            lambda e: e[root], nbytes=nb,
        )

    def gather(self, payload, root: int = 0):
        """Gather; ``root`` returns the rank-ordered list, others ``None``."""
        res = self._collective(
            "gather", payload,
            lambda e: [e[i] for i in range(len(e))],
            nbytes=payload_nbytes(payload),
        )
        return res if self.rank == root else None

    def allgather(self, payload):
        """Gather-to-all; every rank returns the rank-ordered list."""
        return self._collective(
            "allgather", payload,
            lambda e: [e[i] for i in range(len(e))],
            nbytes=payload_nbytes(payload),
        )

    def scatter(self, payloads=None, root: int = 0):
        """Scatter a list from ``root``; each rank returns its element."""
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("scatter root must supply size-length list")
            nb = max(payload_nbytes(p) for p in payloads)
        else:
            nb = 0
        res = self._collective(
            "scatter", payloads if self.rank == root else None,
            lambda e: e[root], nbytes=nb,
        )
        return res[self.rank]

    def alltoall(self, payloads):
        """All-to-all: rank i sends ``payloads[j]`` to rank j."""
        if len(payloads) != self.size:
            raise ValueError("alltoall requires a size-length list")
        me = self.rank
        res = self._collective(
            "alltoall", list(payloads),
            lambda e: e,
            nbytes=max(payload_nbytes(p) for p in payloads),
        )
        return [res[j][me] for j in range(self.size)]

    def reduce(self, payload, op=None, root: int = 0):
        """Reduce with binary ``op`` (default ``+``); root gets the result."""
        import functools

        op = op or (lambda a, b: a + b)

        def reducer(entries):
            vals = [entries[i] for i in range(len(entries))]
            return functools.reduce(op, vals)

        res = self._collective(
            "reduce", payload, reducer, nbytes=payload_nbytes(payload)
        )
        return res if self.rank == root else None

    def allreduce(self, payload, op=None):
        """Reduce-to-all with binary ``op`` (default ``+``)."""
        import functools

        op = op or (lambda a, b: a + b)

        def reducer(entries):
            vals = [entries[i] for i in range(len(entries))]
            return functools.reduce(op, vals)

        return self._collective(
            "allreduce", payload, reducer, nbytes=payload_nbytes(payload)
        )

    def sendrecv(self, payload, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 nbytes: int | None = None):
        """Combined send+receive (deadlock-free shift patterns)."""
        self.send(payload, dest, sendtag, nbytes=nbytes)
        return self.recv(source, recvtag)

    # -- derived communicators ---------------------------------------------------

    def split(self, color, key: int | None = None):
        """Partition into sub-communicators by ``color`` (``None`` opts out).

        Ranks with equal ``color`` form a new communicator ordered by
        ``(key, old rank)``. Returns the new :class:`Comm` or ``None``.
        """
        me = self.rank
        k = me if key is None else key
        engine = self.engine

        def reducer(entries):
            groups: dict[object, list] = {}
            for r in range(len(entries)):
                c, kk = entries[r]
                if c is None:
                    continue
                groups.setdefault(c, []).append((kk, r))
            out = {}
            for c, lst in groups.items():
                lst.sort()
                out[c] = (engine.next_comm_id(), [r for _, r in lst])
            return out

        groups = self._collective("allgather_split", (color, k), reducer)
        if color is None:
            return None
        comm_id, local_ranks = groups[color]
        return Comm(engine, [self.members[r] for r in local_ranks], comm_id)

    def dup(self):
        """Duplicate: same group, fresh communication context."""
        def reducer(entries):
            return self.engine.next_comm_id()

        new_id = self._collective("dup", None, reducer)
        return Comm(self.engine, self.members, new_id)


class Intercomm(Comm):
    """An inter-communicator linking two disjoint groups.

    Point-to-point ``dest``/``source`` ranks are *remote group* ranks, as
    in MPI intercommunicator semantics. The same ``Intercomm`` object is
    shared by both sides; each side addresses the other. Collectives on
    an intercomm are limited to :meth:`barrier` (a rendezvous across both
    groups), which is all the transports in this package need.
    """

    is_inter = True

    def __init__(self, engine, local_members: list[int],
                 remote_members: list[int], comm_id: int | None = None):
        super().__init__(engine, local_members, comm_id)
        self.remote_members = list(remote_members)
        self._remote_w2l = {w: i for i, w in enumerate(self.remote_members)}
        overlap = set(local_members) & set(remote_members)
        if overlap:
            raise CommMismatchError(f"groups overlap: {sorted(overlap)}")

    @classmethod
    def create(cls, engine, group_a: list[int], group_b: list[int]):
        """Build the pair of views (a->b, b->a) sharing one context."""
        comm_id = engine.next_comm_id()
        ab = cls(engine, group_a, group_b, comm_id)
        ba = cls(engine, group_b, group_a, comm_id)
        return ab, ba

    @property
    def remote_size(self) -> int:
        """Number of ranks in the remote group."""
        return len(self.remote_members)

    def _dest_world(self, dest: int) -> int:
        try:
            return self.remote_members[dest]
        except IndexError:
            raise CommMismatchError(
                f"remote dest {dest} out of range for remote size "
                f"{self.remote_size}"
            ) from None

    def _src_world(self, src_local: int) -> int:
        """Senders on an intercomm live in the remote group."""
        return self.remote_members[src_local]

    def _sender_members(self):
        """Messages on an intercomm always come from the remote group."""
        return self.remote_members

    def _participants(self) -> int:
        return len(self.members) + len(self.remote_members)

    def _participant_worlds(self) -> list[int]:
        return self.members + self.remote_members

    def _my_coll_key(self) -> int:
        # Unique key across both groups: world rank.
        return self.engine.current_proc().rank

    def barrier(self) -> None:
        """Rendezvous across both groups."""
        self._collective("barrier", None, lambda e: None)

    def notify_remote(self, payload, tag: int,
                      nbytes: int | None = None) -> None:
        """Send ``payload`` to every rank of the remote group.

        The epoch-notify primitive: a streaming producer announces
        published epochs (and end-of-stream) to all consumer ranks
        with one call.
        """
        for dest in range(self.remote_size):
            self.send(payload, dest, tag, nbytes=nbytes)

    def split(self, color, key=None):  # pragma: no cover - guard
        raise NotImplementedError("cannot split an intercommunicator")

    def dup(self):  # pragma: no cover - guard
        raise NotImplementedError("cannot dup an intercommunicator")
