"""Remote procedure calls over (simulated) MPI intercommunicators.

The paper: "The index, serve, and query functions are written using a
custom remote procedure call (RPC) abstraction implemented over MPI."
This module is that abstraction: a :class:`RPCServer` registers named
handlers and answers requests from the remote group; an
:class:`RPCClient` issues blocking calls and one-way notifications.

A server can multiplex several intercommunicators (fan-out to multiple
consumer tasks), answering in virtual arrival order. Termination is
cooperative: each remote rank sends a ``done`` control message; the
serve loop exits once every remote rank of every intercomm is done.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import span as obs_span
from repro.simmpi import ANY_SOURCE, ANY_TAG, Intercomm, WaitDesc

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

    def attach(self, inter: Intercomm) -> None:
        """Listen for requests arriving on ``inter``."""
        if inter not in self._inters:
            self._inters.append(inter)
            self._done[id(inter)] = set()

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

    def _lanes(self) -> tuple:
        """Every ``(comm_id, source, tag)`` lane this server drains."""
        tags = (TAG_REQUEST, TAG_CTRL, *self._lane_handlers)
        return tuple((inter.comm_id, ANY_SOURCE, tag)
                     for inter in self._inters for tag in tags)

    def _take(self, proc, msg) -> None:
        """Receive and dispatch ``msg``: the best queued message over
        every lane (so also the best of its own lane), which the
        scheduler lets this rank commit now. It is taken as it is, not
        matched again; its causal record keeps the ``(ANY_SOURCE,
        tag)`` spec of the lane it came in on."""
        inter = next(i for i in self._inters if i.comm_id == msg.comm_id)
        inter._take_match(proc, msg, ANY_SOURCE, msg.tag, proc.clock)
        if msg.tag == TAG_REQUEST:
            self._handle_request(inter, msg.payload, msg.src)
        elif msg.tag == TAG_CTRL:
            self._handle_ctrl(inter, msg.payload, msg.src)
        else:
            self._lane_handlers[msg.tag](inter, msg.payload, msg.src)
        # New traffic may unblock previously deferred requests (e.g. a
        # registration arriving completes coverage).
        if self._pending:
            self._replay_pending()

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

        ``timeout`` is measured on the *virtual* clock: when no message
        arrives within ``timeout`` simulated seconds of this server's
        clock (the end of the last one it handled), the consumers are
        presumed wedged and :class:`RPCTimeout` is raised.
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
        wait in the timeout message.
        """
        if not self._inters:
            return
        engine = self._inters[0].engine
        proc = engine.current_proc()
        self._replay_pending()
        lanes = self._lanes()
        senders = tuple(sorted({w for i in self._inters
                                for w in i._sender_members()}))
        desc = WaitDesc("serve", -1, ANY_SOURCE, ANY_TAG, senders,
                        lanes=lanes)
        while not predicate():
            if engine.faults is not None:
                engine.maybe_crash()
            # The deadline is one more event time: the scheduler hands
            # this rank the baton for its best queued message or, when
            # every other rank's next action lies past it, to give up.
            deadline = proc.clock + timeout
            msg = engine.park(proc, desc, deadline)
            if msg is None or msg.arrival > deadline:
                proc.clock = deadline
                raise RPCTimeout(
                    f"serve loop starved for {timeout:.0f}s virtual "
                    f"time waiting for {what}"
                )
            self._take(proc, msg)
