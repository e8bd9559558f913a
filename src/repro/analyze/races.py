"""Schedule-race detection over wildcard receive candidate sets.

Every wildcard receive (``ANY_SOURCE``/``ANY_TAG``) records its spec
on the :class:`~repro.obs.causal.FlowEdge` of the message it took;
:func:`candidate_sets` rebuilds after the run, in virtual time, which
messages it could have taken. The engine commits the candidate with
the least ``(arrival, src, seq)``, so the winner is a function of the
cost model. A race is a match that a small change to that model would
hand to another sender: the winner and some other candidate are

1. **causally concurrent** -- neither send happens-before the other
   (:mod:`repro.analyze.vclock`), so no program order forced one to
   arrive first, *and*
2. **order-unstable** -- their arrival order either *inverts* their
   post order (decided by modeled transfer times, which a perturbation
   changes) or *ties* it exactly (decided by the ``(src, seq)``
   tie-break, which has no physical meaning), *and*
3. **assignment-relevant** -- an inversion always is. An exact tie is
   not when both messages are drained by the *same* stream (the same
   ``(dst, comm, source, tag)`` wildcard spec): either resolution
   delivers the same messages to the same receiver. A tie whose loser
   lands in another stream, or is never received, is a race.

Concurrent candidates that arrive in post order are not races. These
rules keep a clean many-to-one server loop (fig5/fig7, including their
symmetric same-instant control messages) silent, while a fault-injected
message delay fires. Limitation: an application sensitive to the order
of two tied messages within one stream hides behind rule 3; the trace
records who got what, not what the receiver did with it.
"""

from __future__ import annotations

from typing import Any

from repro.analyze.finding import Finding, WILDCARD_RACE, msg_label
from repro.analyze.vclock import HBRelation, build_happens_before

#: ``ANY_SOURCE`` / ``ANY_TAG`` in a recorded spec.
_ANY = -1


def candidate_sets(causal: Any) -> dict[int, list[Any]]:
    """The messages each wildcard receive could have taken.

    Maps the msg id a wildcard receive W took to its candidate records,
    in msg-id order. A record is eligible when it went to W's rank on
    W's communicator, matches W's spec, was posted by ``max(
    W.t_recv_start, W.t_arrival)`` and was not received before W (in
    ``edges()`` order). Of each ``(src, tag)`` group of eligible records
    only the head -- least ``(t_arrival, msg_id)``, the mailbox's bucket
    order -- is a candidate; W heads its own group.
    """
    edges = causal.edges()
    order = {e.msg_id: i for i, e in enumerate(edges)}
    inbox: dict[tuple[int, int], list[Any]] = {}
    for m in sorted(causal.messages(), key=lambda m: m.t_post):
        inbox.setdefault((m.dst, m.comm_id), []).append(m)
    out: dict[int, list[Any]] = {}
    for i, w in enumerate(edges):
        if w.spec is None:
            continue
        source, tag = w.spec
        horizon = max(w.t_recv_start, w.t_arrival)
        heads: dict[tuple[int, int], Any] = {}
        for m in inbox[(w.dst, w.comm_id)]:
            if m.t_post > horizon:
                break
            if ((source != _ANY and m.src != w.src)
                    or (tag != _ANY and m.tag != tag)
                    or order.get(m.msg_id, i) < i):
                continue
            head = heads.get((m.src, m.tag))
            if head is None or ((m.t_arrival, m.msg_id)
                                < (head.t_arrival, head.msg_id)):
                heads[(m.src, m.tag)] = m
        out[w.msg_id] = sorted(heads.values(), key=lambda m: m.msg_id)
    return out


def _unstable(winner: Any, other: Any) -> str | None:
    """Why the pair's arrival order is not forced by its post order."""
    if other.t_arrival == winner.t_arrival:
        return "arrival tie"
    if ((other.t_post - winner.t_post)
            * (other.t_arrival - winner.t_arrival) < 0):
        return "arrival order inverts post order"
    return None


def _stream(m: Any) -> tuple[int, ...] | None:
    """``(dst, comm, source, tag)`` wildcard stream that received ``m``
    (``None`` unless a wildcard receive took it)."""
    return None if m.spec is None else (m.dst, m.comm_id, *m.spec)


def _sent(m: Any) -> dict[str, Any]:
    """A candidate as the finding names it: id, sender and times."""
    return {"msg_id": m.msg_id, "src": m.src, "t_post": m.t_post,
            "t_arrival": m.t_arrival}


def find_races(obs: Any, nranks: int | None = None,
               hb: HBRelation | None = None) -> list[Finding]:
    """Flag every recorded wildcard match that hides a schedule race.

    Returns one :class:`~repro.analyze.finding.Finding` per racy
    match, naming the full candidate set and each racy rival. Pass a
    prebuilt ``hb`` relation to avoid replaying the trace twice.
    """
    if hb is None:
        hb = build_happens_before(obs, nranks)
    cands = candidate_sets(obs.causal)
    findings: list[Finding] = []
    for m in obs.causal.edges():
        cset = cands.get(m.msg_id, [])
        if len(cset) < 2:
            continue
        rivals: list[dict[str, Any]] = []
        for cand in (c for c in cset if c.msg_id != m.msg_id):
            why = _unstable(m, cand)
            if why is None:
                continue
            if why == "arrival tie" and _stream(cand) == _stream(m):
                continue  # same-stream drain: assignment-irrelevant
            if not hb.concurrent_sends(m.msg_id, cand.msg_id):
                continue
            rivals.append({**_sent(cand), "why": why})
        if not rivals:
            continue
        source, tag = m.spec
        findings.append(Finding(
            WILDCARD_RACE, m.dst,
            f"wildcard recv on rank {m.dst} (comm {m.comm_id}, source "
            f"{source}, tag {tag}) chose msg {msg_label(m.msg_id)} "
            f"from rank {m.src} over {len(rivals)} concurrent "
            "rival(s): "
            + ", ".join(f"msg {msg_label(r['msg_id'])} from rank "
                        f"{r['src']} ({r['why']})" for r in rivals),
            {
                "comm_id": m.comm_id,
                "source": source,
                "tag": tag,
                "chosen": m.msg_id,
                "t_match": m.t_recv_start,
                "candidates": [_sent(c) for c in cset],
                "rivals": rivals,
            },
        ))
    return findings
