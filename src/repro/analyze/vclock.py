"""Vector clocks: a happens-before relation over the causal trace.

Every run already records the full communication structure --
one :class:`~repro.obs.causal.FlowEdge` per message (its post, and its
receive once matched) and
:class:`~repro.obs.causal.CollectiveRecord` entries for rendezvous --
so happens-before can be *derived* after the fact instead of being
tracked online. :func:`build_happens_before` replays the trace into
per-event vector clocks:

- each rank's events (send posts, receive completions, collective
  enters/exits) form a chain ordered by that rank's virtual clock;
- a receive joins the sender's clock at the matched post;
- a collective exit joins every participant's clock at entry (the
  rendezvous is a barrier in the happens-before sense, whatever data
  it moves).

Two sends are *concurrent* when neither vector clock dominates the
other -- exactly the pairs whose delivery order real MPI would not
fix. The race detector (:mod:`repro.analyze.races`) uses that test to
separate candidate messages that merely queued up (but were causally
ordered) from genuine schedule races.

The replay is a worklist pass: a rank's next event fires once its
cross-rank dependencies (the matched send, the other participants'
entries) have fired. Virtual times are consistent with causality by
construction of the simulator (messages arrive strictly after they
are posted, collectives end no earlier than their last entry), so the
pass always terminates on a well-formed trace; a trace that cannot be
replayed raises :class:`TraceInconsistency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

VClock = tuple[int, ...]


class TraceInconsistency(RuntimeError):
    """The recorded trace admits no causally-consistent replay."""


def leq(a: VClock, b: VClock) -> bool:
    """Componentwise ``a <= b`` (vector-clock partial order)."""
    return all(x <= y for x, y in zip(a, b))


def happens_before(a: VClock, b: VClock) -> bool:
    """Strict vector-clock order: ``a`` causally precedes ``b``."""
    return a != b and leq(a, b)


def concurrent(a: VClock, b: VClock) -> bool:
    """Neither event causally precedes the other."""
    return not leq(a, b) and not leq(b, a)


# Event kinds, in same-virtual-time priority order: completions
# (receives, collective exits) fire before initiations (sends,
# collective enters) at an equal clock reading, matching program order
# (a rank that receives at t can post its next send no earlier than t
# plus the message overhead; a collective releases at t_end and the
# next operation starts from that clock).
_PRIO = {"recv": 0, "cexit": 0, "send": 1, "centr": 1}


@dataclass(frozen=True)
class _Event:
    t: float
    kind: str  # "send" | "recv" | "centr" | "cexit"
    key: int  # msg_id for send/recv, coll_id for centr/cexit

    @property
    def order(self) -> tuple[float, int, int]:
        return (self.t, _PRIO[self.kind], self.key)


class HBRelation:
    """The happens-before relation of one recorded run.

    Attributes
    ----------
    nranks:
        Length of every vector clock.
    send_vc / recv_vc:
        ``msg_id -> vector clock`` of the post / completed receive.
    coll_vc:
        ``coll_id -> vector clock`` of the collective's release.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.send_vc: dict[int, VClock] = {}
        self.recv_vc: dict[int, VClock] = {}
        self.coll_vc: dict[int, VClock] = {}

    def concurrent_sends(self, msg_a: int, msg_b: int) -> bool:
        """True when the posts of two messages are causally unordered."""
        return concurrent(self.send_vc[msg_a], self.send_vc[msg_b])


def _rank_streams(causal: Any) -> dict[int, list[_Event]]:
    """Per-rank event chains, each sorted by local virtual time."""
    streams: dict[int, list[_Event]] = {}

    def add(rank: int, ev: _Event) -> None:
        streams.setdefault(rank, []).append(ev)

    for p in causal.messages():
        add(p.src, _Event(p.t_post, "send", p.msg_id))
    for e in causal.edges():
        add(e.dst, _Event(e.t_recv, "recv", e.msg_id))
    for rec in causal.collectives():
        for rank, enter in rec.enter_clocks.items():
            add(rank, _Event(enter, "centr", rec.coll_id))
            add(rank, _Event(rec.t_end, "cexit", rec.coll_id))
    for evs in streams.values():
        evs.sort(key=lambda ev: ev.order)
    return streams


def build_happens_before(obs: Any,
                         nranks: int | None = None) -> HBRelation:
    """Replay ``obs.causal`` into vector clocks (see module docs).

    ``nranks`` defaults to one past the highest world rank seen in the
    trace. Raises :class:`TraceInconsistency` when the trace has a
    receive before its send or a collective exit before some entry --
    states an actual run cannot produce.
    """
    causal = obs.causal
    streams = _rank_streams(causal)
    if nranks is None:
        nranks = max(streams, default=-1) + 1
    hb = HBRelation(nranks)

    # Cross-rank dependency state.
    enters_left = {rec.coll_id: len(rec.enter_clocks)
                   for rec in causal.collectives()}
    coll_join: dict[int, list[VClock]] = {}

    vc = {r: [0] * nranks for r in streams}
    idx = {r: 0 for r in streams}
    remaining = sum(len(evs) for evs in streams.values())
    while remaining:
        progressed = False
        for r in sorted(streams):
            evs = streams[r]
            while idx[r] < len(evs):
                ev = evs[idx[r]]
                if ev.kind == "recv" and ev.key not in hb.send_vc:
                    break  # matched send not replayed yet
                if ev.kind == "cexit" and enters_left[ev.key] > 0:
                    break  # some participant has not entered yet
                clock = vc[r]
                if r < nranks:
                    clock[r] += 1
                if ev.kind == "recv":
                    for i, x in enumerate(hb.send_vc[ev.key]):
                        if x > clock[i]:
                            clock[i] = x
                    hb.recv_vc[ev.key] = tuple(clock)
                elif ev.kind == "send":
                    hb.send_vc[ev.key] = tuple(clock)
                elif ev.kind == "centr":
                    enters_left[ev.key] -= 1
                    coll_join.setdefault(ev.key, []).append(tuple(clock))
                else:  # cexit: join every participant's entry clock
                    for snap in coll_join[ev.key]:
                        for i, x in enumerate(snap):
                            if x > clock[i]:
                                clock[i] = x
                    hb.coll_vc[ev.key] = tuple(clock)
                idx[r] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            stuck = {r: streams[r][idx[r]]
                     for r in streams if idx[r] < len(streams[r])}
            raise TraceInconsistency(
                "causal trace admits no consistent replay; stuck at "
                + ", ".join(f"rank {r}: {ev.kind} {ev.key} @ {ev.t:.9f}"
                            for r, ev in sorted(stuck.items()))
            )
    return hb
