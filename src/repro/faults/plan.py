"""Seeded fault plans: declarative rules + a keyed-hash decision PRF.

Determinism contract
--------------------
Decisions never consult wall-clock time or any global RNG. Each one is
``PRF(seed, event key, ordinal)`` where the *ordinal* is a per-key
counter advanced in the calling rank's program order (per-link send
index, per-``(caller, dest, fn)`` RPC call index). Program order on a
simulated rank is deterministic, so the same seed replays the same
faults at the same virtual times regardless of host thread scheduling.

A plan instance *consumes* its ordinals (and crash occurrences) as the
run proceeds. Two independent runs must therefore each get a fresh plan
built from the same seed and rules; a single instance is deliberately
reused across :class:`~repro.workflow.runner.Workflow` restart attempts
so that a ``times=1`` crash fires once and the retry runs clean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MessageFaultRule:
    """Message-level faults on point-to-point links.

    ``src``/``dst`` filter on world ranks (``None`` matches any). The
    first matching rule decides a message's fate.

    Attributes
    ----------
    p_delay, max_delay:
        With probability ``p_delay`` the message's virtual arrival is
        pushed back by a PRF-drawn amount in ``(0, max_delay]`` --
        bounded delay, which also reorders it against later traffic on
        other links.
    p_duplicate:
        Probability that a second copy of the message is enqueued at
        the receiver (the engine dedups duplicates at match time, so
        this fault is always recoverable).
    wire_factor:
        Multiplier on the message's wire time (a persistently slow or
        fast link); ``1.0`` leaves it untouched.
    """

    src: int | None = None
    dst: int | None = None
    p_delay: float = 0.0
    max_delay: float = 0.0
    p_duplicate: float = 0.0
    wire_factor: float = 1.0

    def matches(self, src: int, dst: int) -> bool:
        """True when the rule applies to the (src, dst) world-rank link."""
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class MessageDecision:
    """Outcome of consulting the plan for one delivered message."""

    extra_delay: float = 0.0
    duplicate: bool = False
    dup_delay: float = 0.0
    wire_factor: float = 1.0


@dataclass(frozen=True)
class CrashRule:
    """Crash ``rank`` once its virtual clock reaches ``at_vtime``.

    ``times`` bounds how often the crash fires across restart attempts
    of the same plan instance: the default ``1`` makes the fault
    transient (a workflow restart runs clean), a large value makes the
    rank persistently faulty.
    """

    rank: int
    at_vtime: float
    times: int = 1


@dataclass(frozen=True)
class ComputeSlowRule:
    """Stretch every ``compute`` of ``rank`` by ``factor``.

    A persistently slow rank: its local work takes ``factor`` times the
    nominal virtual seconds. The canonical way to make one streaming
    consumer lag its producer deterministically -- no user-code changes,
    the slowdown rides on the plan like every other fault.
    """

    rank: int
    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("factor must be > 0")


@dataclass(frozen=True)
class OstSlowRule:
    """Degrade OST ``ost`` to ``factor`` of its nominal bandwidth."""

    ost: int
    factor: float


@dataclass(frozen=True)
class RpcFaultRule:
    """Drop RPC request attempts before they reach the network.

    ``fn``/``dest``/``caller`` filter on the called function name, the
    server's remote-group rank and the caller's world rank (``None``
    matches any). ``lose_first`` deterministically drops the first that
    many attempts of every matching call (guaranteed-recoverable when
    below the client's ``max_retries``); ``p_lost`` additionally drops
    later attempts at random (per-attempt PRF draw).
    """

    fn: str | None = None
    dest: int | None = None
    caller: int | None = None
    lose_first: int = 0
    p_lost: float = 0.0

    def matches(self, caller: int, dest: int, fn: str) -> bool:
        """True when the rule applies to this (caller, dest, fn) call."""
        return ((self.fn is None or self.fn == fn)
                and (self.dest is None or self.dest == dest)
                and (self.caller is None or self.caller == caller))


class FaultPlan:
    """A seeded, deterministic schedule of injectable faults.

    Parameters
    ----------
    seed:
        Root of the decision PRF; equal seeds (with equal rules) replay
        identical faults.
    messages, crashes, osts, rpcs, slowdowns:
        Declarative rule lists (see the rule dataclasses).
    """

    def __init__(self, seed: int = 0, *,
                 messages: tuple | list = (),
                 crashes: tuple | list = (),
                 osts: tuple | list = (),
                 rpcs: tuple | list = (),
                 slowdowns: tuple | list = ()):
        self.seed = int(seed)
        self.message_rules = tuple(messages)
        self.crash_rules = tuple(crashes)
        self.ost_rules = tuple(osts)
        self.rpc_rules = tuple(rpcs)
        self.slowdown_rules = tuple(slowdowns)
        self._slow_factor = {r.rank: r.factor for r in self.slowdown_rules}
        self._link_counts: dict[tuple, int] = {}
        self._rpc_counts: dict[tuple, int] = {}
        self._crash_left = {r.rank: r.times for r in self.crash_rules}
        self._injected: dict[str, int] = {}

    # -- PRF ---------------------------------------------------------------

    def _u(self, *key) -> float:
        """Uniform [0, 1) draw that is a pure function of (seed, key)."""
        blob = repr((self.seed,) + key).encode()
        h = hashlib.blake2b(blob, digest_size=8).digest()
        return int.from_bytes(h, "big") / 2.0**64

    def _note(self, kind: str, n: int = 1) -> None:
        self._injected[kind] = self._injected.get(kind, 0) + n

    def injected_counts(self) -> dict:
        """Copy of the per-kind injected-fault counters so far."""
        return dict(self._injected)

    # -- message faults ----------------------------------------------------

    def message_decision(self, src_world: int,
                         dst_world: int) -> MessageDecision | None:
        """Decide the fate of the next message on the (src, dst) link.

        Advances the link's ordinal; returns ``None`` when no rule
        matches the link.
        """
        rule = None
        for r in self.message_rules:
            if r.matches(src_world, dst_world):
                rule = r
                break
        if rule is None:
            return None
        key = (src_world, dst_world)
        idx = self._link_counts.get(key, 0)
        self._link_counts[key] = idx + 1
        extra = 0.0
        if rule.p_delay > 0 and self._u("delay?", src_world, dst_world,
                                        idx) < rule.p_delay:
            extra = rule.max_delay * self._u("delay", src_world,
                                             dst_world, idx)
            self._note("msg_delay")
        duplicate = (rule.p_duplicate > 0
                     and self._u("dup?", src_world, dst_world,
                                 idx) < rule.p_duplicate)
        dup_delay = 0.0
        if duplicate:
            dup_delay = rule.max_delay * self._u("dup_delay", src_world,
                                                 dst_world, idx)
            self._note("msg_duplicate")
        if extra == 0.0 and not duplicate and rule.wire_factor == 1.0:
            return None
        if rule.wire_factor != 1.0:
            self._note("msg_slow_wire")
        return MessageDecision(extra, duplicate, dup_delay,
                               rule.wire_factor)

    # -- crashes -----------------------------------------------------------

    def crash_vtime(self, rank: int) -> float | None:
        """Pending crash time of ``rank``, or ``None`` when it has no
        (remaining) crash scheduled."""
        if self._crash_left.get(rank, 0) <= 0:
            return None
        for r in self.crash_rules:
            if r.rank == rank:
                return r.at_vtime
        return None

    def note_crash(self, rank: int) -> None:
        """Consume one crash occurrence of ``rank`` (engine callback)."""
        self._crash_left[rank] = self._crash_left.get(rank, 0) - 1
        self._injected["crash"] = self._injected.get("crash", 0) + 1

    # -- compute slowdowns -------------------------------------------------

    def scaled_compute(self, rank: int, seconds: float) -> float:
        """Virtual seconds ``rank``'s nominal ``seconds`` of work takes.

        Stateless (no ordinal): a slow rank is slow for the whole run,
        so the scaling is a pure per-rank factor.
        """
        factor = self._slow_factor.get(rank)
        if factor is None or factor == 1.0:
            return seconds
        return seconds * factor

    # -- storage faults ----------------------------------------------------

    def lustre_model(self, model):
        """A copy of ``model`` with this plan's OST slowdowns applied."""
        if not self.ost_rules:
            return model
        nost = model.stripe_count
        factors = [1.0] * nost
        for r in self.ost_rules:
            if 0 <= r.ost < nost:
                factors[r.ost] = r.factor
        self._note("ost_slow", sum(1 for f in factors if f != 1.0))
        return replace(model, ost_factors=tuple(factors))

    # -- RPC faults --------------------------------------------------------

    def rpc_lost(self, caller_world: int, dest: int, fn: str,
                 attempt: int) -> bool:
        """True when this attempt of the call should be dropped.

        ``attempt`` 0 advances the per-``(caller, dest, fn)`` call
        ordinal; retries of the same call share it.
        """
        rule = None
        for r in self.rpc_rules:
            if r.matches(caller_world, dest, fn):
                rule = r
                break
        if rule is None:
            return False
        key = (caller_world, dest, fn)
        if attempt == 0:
            self._rpc_counts[key] = self._rpc_counts.get(key, -1) + 1
        idx = self._rpc_counts.get(key, 0)
        lost = attempt < rule.lose_first or (
            rule.p_lost > 0
            and self._u("rpc", caller_world, dest, fn, idx,
                        attempt) < rule.p_lost
        )
        if lost:
            self._note("rpc_lost")
        return lost
