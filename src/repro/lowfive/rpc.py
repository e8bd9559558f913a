"""Remote procedure calls over (simulated) MPI intercommunicators.

The paper: "The index, serve, and query functions are written using a
custom remote procedure call (RPC) abstraction implemented over MPI."
This module is that abstraction: a :class:`RPCServer` registers named
handlers and answers requests from the remote group; an
:class:`RPCClient` issues blocking calls and one-way notifications.

A server can multiplex several intercommunicators (fan-out to multiple
consumer tasks): it polls each in turn. Termination is cooperative: each
remote rank sends a ``done`` control message; the serve loop exits once
every remote rank of every intercomm is done.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import span as obs_span
from repro.simmpi import ANY_SOURCE, ANY_TAG, Intercomm, WAKE_ANY, WaitDesc

#: Tag used for RPC requests (client -> server).
TAG_REQUEST = 701
#: Tag used for RPC replies (server -> client).
TAG_REPLY = 702
#: Tag used for out-of-band control notifications.
TAG_CTRL = 703


class RPCError(RuntimeError):
    """A handler raised, or an unknown function was called."""


class RPCTimeout(RPCError):
    """An RPC exchange made no progress within its virtual-time bound."""


class RetriesExhausted(RPCTimeout):
    """Every attempt of a call was lost; the retry budget is spent.

    Subclasses :class:`RPCTimeout` (and hence :class:`RPCError`) so
    callers that only distinguish "RPC failed" keep working, while
    fault-tolerance tests can assert the precise terminal state.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff behaviour of an :class:`RPCClient`.

    Attributes
    ----------
    max_retries:
        Additional attempts after the first (0 = fail on first loss).
    timeout:
        Virtual seconds the client waits before concluding an attempt
        was lost. Charged to the caller's virtual clock per lost
        attempt; no real time passes.
    backoff:
        Multiplier applied to ``timeout`` on each successive attempt
        (exponential backoff).
    """

    max_retries: int = 0
    timeout: float = 0.05
    backoff: float = 2.0

    def wait_for(self, attempt: int) -> float:
        """Virtual seconds to wait out the ``attempt``-th lost try."""
        return self.timeout * self.backoff**attempt


class Defer(Exception):
    """Raised by a handler to postpone a request to the next serve epoch.

    Used when a consumer asks about a file the producer has not closed
    (and therefore not indexed) yet: the request is stashed and replayed
    at the start of the next :meth:`RPCServer.serve`.
    """


@dataclass(frozen=True)
class Reply:
    """Handler return value that overrides the reply's wire size.

    A handler normally returns a plain payload and the reply costs its
    real serialized size on the wire. Returning ``Reply(payload,
    nbytes)`` ships the same payload but charges ``nbytes`` instead --
    how the serve-time compression stage of wire-side data reduction
    is modelled (the consumer still receives exact values; only the
    wire cost shrinks).
    """

    payload: object
    nbytes: int


class RPCClient:
    """Issues calls to the remote group of an intercommunicator.

    Parameters
    ----------
    inter:
        The intercommunicator whose remote group hosts the servers.
    retry:
        Optional :class:`RetryPolicy` making calls survive injected
        request losses; the default retries nothing (first loss fails).
    """

    def __init__(self, inter: Intercomm, retry: RetryPolicy | None = None):
        self.inter = inter
        self.retry = retry if retry is not None else RetryPolicy()
        # (fn, rank) -> bound retry counter; resolved once per pair so
        # faulty runs with many retries skip the metric-key build.
        self._retry_counters: dict[tuple, object] = {}

    @property
    def remote_size(self) -> int:
        """Number of remote (server) ranks."""
        return self.inter.remote_size

    def call(self, dest: int, fn: str, *args, nbytes: int | None = None):
        """Blocking call of ``fn(*args)`` on remote rank ``dest``.

        When the engine carries a fault plan, each attempt may be lost
        before reaching the network; a lost attempt charges this rank
        ``retry.wait_for(attempt)`` virtual seconds (the timeout it
        would have waited) and is retried up to ``retry.max_retries``
        times before :class:`RetriesExhausted` is raised.
        """
        with obs_span(self.inter, "rpc.call", cat="rpc", fn=fn, dest=dest):
            return self._call_impl(dest, fn, args, nbytes)

    def _call_impl(self, dest: int, fn: str, args, nbytes):
        policy = self.retry
        plan = getattr(self.inter.engine, "faults", None)
        attempts = policy.max_retries + 1
        for attempt in range(attempts):
            if plan is not None:
                me = self.inter.world_rank(self.inter.rank)
                if plan.rpc_lost(me, dest, fn, attempt):
                    obs = self.inter.engine.obs
                    obs.fault(me, self.inter.vtime, "rpc_lost",
                              fn=fn, dest=dest, attempt=attempt)
                    # Wait out the attempt's timeout in virtual time.
                    self.inter.compute(policy.wait_for(attempt))
                    if attempt < attempts - 1:
                        ctr = self._retry_counters.get((fn, me))
                        if ctr is None:
                            ctr = obs.metrics.counter(
                                "rpc.retry.count", fn=fn, rank=me)
                            self._retry_counters[(fn, me)] = ctr
                        ctr.inc(1)
                    continue
            self.inter.send((fn, args), dest, TAG_REQUEST, nbytes=nbytes)
            reply, _ = self.inter.recv(source=dest, tag=TAG_REPLY)
            ok, payload = reply
            if not ok:
                raise RPCError(f"remote {fn!r} failed: {payload}")
            return payload
        raise RetriesExhausted(
            f"rpc {fn!r} to remote rank {dest}: all {attempts} attempts "
            "lost (retry budget spent)"
        )

    def notify(self, dest: int, fn: str, *args,
               nbytes: int | None = None) -> None:
        """One-way notification: no reply is produced or awaited."""
        self.inter.send((fn, args), dest, TAG_CTRL, nbytes=nbytes)

    def notify_all(self, fn: str, *args) -> None:
        """Notify every remote rank."""
        for dest in range(self.inter.remote_size):
            self.notify(dest, fn, *args)


class RPCServer:
    """Serves registered handlers over one or more intercommunicators.

    Handlers are ``fn(source_rank, *args) -> payload``; the payload is
    sent back as the reply. Control notifications dispatch to handlers
    registered with :meth:`on_notify` and produce no reply.
    """

    def __init__(self):
        self._inters: list[Intercomm] = []
        self._handlers = {}
        self._notify_handlers = {}
        self._done: dict[int, set[int]] = {}
        self._pending: list[tuple[Intercomm, object, int]] = []
        # Extra message lanes beyond REQUEST/CTRL: tag -> handler
        # ``fn(inter, payload, source)``. Registered lanes take part in
        # the same global arrival-order selection as RPC traffic, so a
        # server that also drains e.g. staged data keeps one
        # deterministic ordering across all of its inbound tags.
        self._lane_handlers: dict[int, object] = {}
        #: World ranks that can post into any lane (safety-gate input).
        self._senders: tuple = ()

    def attach(self, inter: Intercomm) -> None:
        """Listen for requests arriving on ``inter``."""
        if inter not in self._inters:
            self._inters.append(inter)
            self._done[id(inter)] = set()
            self._senders = tuple(sorted(
                {*self._senders, *inter._sender_members()}))

    def add_lane(self, tag: int, handler) -> None:
        """Serve an extra inbound ``tag`` with ``handler(inter, payload,
        source)`` on every attached intercomm."""
        self._lane_handlers[tag] = handler

    def register(self, name: str, handler) -> None:
        """Register a call handler ``handler(source, *args)``."""
        self._handlers[name] = handler

    def on_notify(self, name: str, handler) -> None:
        """Register a notification handler ``handler(source, *args)``."""
        self._notify_handlers[name] = handler

    # -- serving ----------------------------------------------------------------

    def _handle_request(self, inter: Intercomm, payload, source: int) -> None:
        fn, args = payload
        handler = self._handlers.get(fn)
        if handler is None:
            inter.send((False, f"unknown function {fn!r}"), source, TAG_REPLY)
            return
        # The span marks this rank as *serving* (wait-state analysis
        # attributes reply waits on it to rpc-server-busy).
        with obs_span(inter, "rpc.handle", cat="rpc", fn=fn,
                      source=source, phase="serve"):
            try:
                result = handler(source, *args)
            except Defer:
                self._pending.append((inter, payload, source))
                return
            except Exception as exc:  # noqa: BLE001,ANL006 - forwarded to caller
                inter.send((False, f"{type(exc).__name__}: {exc}"), source,
                           TAG_REPLY)
                return
            if isinstance(result, Reply):
                inter.send((True, result.payload), source, TAG_REPLY,
                           nbytes=result.nbytes)
            else:
                inter.send((True, result), source, TAG_REPLY)

    def _handle_ctrl(self, inter: Intercomm, payload, source: int) -> None:
        fn, args = payload
        if fn == "__done__":
            self._done[id(inter)].add(source)
            return
        handler = self._notify_handlers.get(fn)
        if handler is not None:
            handler(source, *args)

    def _all_done(self) -> bool:
        return all(
            len(self._done[id(i)]) >= i.remote_size for i in self._inters
        )

    def _lane_specs(self):
        """Every ``(intercomm, tag)`` lane this server drains."""
        for inter in self._inters:
            yield inter, TAG_REQUEST
            yield inter, TAG_CTRL
            for tag in self._lane_handlers:
                yield inter, tag

    def _select_locked(self, proc):
        """Best queued candidate over every lane; ``proc.lock`` held.

        Returns ``((inter, tag, msg), key)`` or ``(None, None)`` where
        ``key = (arrival, comm_id, src, seq)`` -- the total order serve
        loops answer messages in.
        """
        best = None
        best_key = None
        for inter, tag in self._lane_specs():
            mbox = proc.mailbox.get(inter.comm_id)
            if not mbox:
                continue
            m = mbox.peek_match(ANY_SOURCE, tag, proc.consumed)
            if m is None:
                continue
            key = (m.arrival, inter.comm_id, m.src, m.seq)
            if best_key is None or key < best_key:
                best_key, best = key, (inter, tag, m)
        return best, best_key

    def _select(self, proc):
        with proc.lock:
            return self._select_locked(proc)

    def _dispatch(self, inter: Intercomm, tag: int, payload,
                  source: int) -> None:
        if tag == TAG_REQUEST:
            self._handle_request(inter, payload, source)
        elif tag == TAG_CTRL:
            self._handle_ctrl(inter, payload, source)
        else:
            self._lane_handlers[tag](inter, payload, source)

    def poll_once(self) -> bool:
        """Handle the single best queued message across every lane.

        Selection is global virtual arrival order -- the minimum
        ``(arrival, comm_id, src, seq)`` over every attached intercomm
        and tag lane -- never attachment or tag priority, so which
        message a server answers next is a pure function of virtual
        time, independent of real-thread scheduling. The winner is
        consumed only once the wildcard safety gate proves no lagging
        sender can still post an earlier one (safety is monotone in the
        arrival bound, so when the global minimum is not yet provably
        next, nothing is).

        Returns True when a message was handled.
        """
        if not self._inters:
            return False
        engine = self._inters[0].engine
        proc = engine.current_proc()
        cand, _ = self._select(proc)
        if cand is None:
            return False
        # Gate on the senders of *every* lane: the receive below checks
        # its own intercomm only, and a rank behind another one may
        # still post an earlier arrival.
        if not engine.wildcard_safe(proc.rank, cand[2].arrival,
                                    self._senders):
            return False
        # Safety is stable and monotone in the bound: whatever slipped
        # in before it held is queued by now, so this minimum is final.
        (inter, tag, _msg), _ = self._select(proc)
        got = inter._try_recv(ANY_SOURCE, tag)
        if got is None:
            # Queued but not provably the global minimum yet; the
            # caller sleeps until the safety epoch moves.
            return False
        payload, status = got
        self._dispatch(inter, tag, payload, status.source)
        return True

    def _global_vtime(self) -> float:
        """Furthest virtual clock of any rank on the machine.

        The serve loop's notion of progress: while *someone* is still
        computing or communicating, the machine is alive even if this
        server sees no traffic.
        """
        engine = self._inters[0].engine
        return max(p.clock for p in engine.procs)

    def _replay_pending(self) -> None:
        """Replay requests deferred from earlier epochs (e.g. queries
        for a file that had not been closed/indexed at the time)."""
        replay, self._pending = self._pending, []
        for inter, payload, source in replay:
            self._handle_request(inter, payload, source)

    def serve(self, timeout: float = 60.0) -> None:
        """Answer requests until every remote rank has sent ``done``.

        The paper's Algorithm 2: producers sit in this loop after
        closing a file, answering intersection and data queries.

        ``timeout`` is measured on the *virtual* clock: if the
        machine's global virtual time advances ``timeout`` simulated
        seconds past the last handled message without this server
        seeing traffic, the consumers are presumed wedged and
        :class:`RPCTimeout` is raised. A machine that stops advancing
        entirely (all peers exited without signalling done) is caught
        by the engine's real-time deadlock watchdog instead, which
        raises :class:`~repro.simmpi.DeadlockError`.
        """
        if not self._inters:
            return
        self.serve_until(self._all_done, timeout=timeout)
        # Reset for a potential next serve epoch (next file close).
        for inter in self._inters:
            self._done[id(inter)] = set()

    def serve_until(self, predicate, timeout: float = 60.0,
                    what: str = "rpc traffic") -> None:
        """Answer inbound traffic until ``predicate()`` holds.

        The generalized serve loop: :meth:`serve` runs it until every
        remote rank is done; a backpressured streaming producer runs
        it until the live-epoch window shrinks. ``what`` names the
        wait for the deadlock explainer.
        """
        if not self._inters:
            return
        engine = self._inters[0].engine
        proc = engine.current_proc()
        self._replay_pending()
        # Wait descriptor for the safety gate / deadlock explainer: the
        # lanes let peers prove this server cannot act before a bound,
        # which is what breaks the mutual wait between two servers each
        # holding an unsafe candidate (they commit in arrival order).
        lanes = tuple((i.comm_id, ANY_SOURCE, t)
                      for i, t in self._lane_specs())
        desc = WaitDesc("serve", -1, ANY_SOURCE, ANY_TAG,
                        self._senders, lanes=lanes)
        last_progress = self._global_vtime()
        while not predicate():
            engine.check_failed()
            engine.maybe_crash()
            # Epoch read precedes the poll's peek + safety evaluation,
            # so a blocked-transition after either shows as a change
            # against ``epoch0 + 1`` (our own note_blocked bumps once).
            epoch0 = engine.safety_epoch
            if self.poll_once():
                last_progress = self._global_vtime()
                # New traffic may unblock previously deferred requests
                # (e.g. a registration arriving completes coverage).
                if self._pending:
                    self._replay_pending()
                continue
            if self._global_vtime() - last_progress >= timeout:
                raise RPCTimeout(
                    f"serve loop starved for {timeout:.0f}s virtual "
                    f"time waiting for {what}"
                )
            _, key0 = self._select(proc)
            proc.wait_desc = desc
            engine.note_blocked()
            engine.add_safety_waiter(proc)
            try:
                # Sleep until the lane minimum changes, the safety
                # epoch moves (a candidate may have become provably
                # next), or the machine advances past the virtual
                # deadline; the engine watchdog bounds real time. The
                # deadline can pass without any event, so this wait
                # polls -- unlike mailbox waits, which are event-driven.
                with proc.cond:
                    def stirred():
                        _, k = self._select_locked(proc)
                        if k != key0:
                            return True
                        if engine.safety_epoch != epoch0 + 1:
                            return True
                        return (self._global_vtime() - last_progress
                                >= timeout)

                    proc.wait_spec = WAKE_ANY
                    try:
                        engine.wait_on(proc.cond, stirred, what,
                                       poll=engine._POLL)
                    finally:
                        proc.wait_spec = None
            finally:
                engine.discard_safety_waiter(proc)
                proc.wait_desc = None
