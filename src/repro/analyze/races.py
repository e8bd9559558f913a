"""Schedule-race detection over wildcard receive candidate sets.

Every wildcard receive (``ANY_SOURCE``/``ANY_TAG``) records, on the
:class:`~repro.obs.causal.FlowEdge` of the message it took, its spec
and the exact set of live candidate messages the matcher chose
between. The simulator always commits the candidate with the least
``(arrival, src, seq)``, so the *simulated* schedule is deterministic;
the question this detector answers is whether that choice stands in
for a choice real MPI would also have made, or papers over a genuine
race.

A match is flagged when the winner and some other candidate are

1. **causally concurrent** -- neither send happens-before the other
   (:mod:`repro.analyze.vclock`), so no program ordering forced one
   to arrive first, *and*
2. **order-unstable** -- their modeled arrival order either *inverts*
   their post order (the message posted earlier arrived later: the
   winner is decided by modeled transfer times, which a real network
   would perturb) or *ties* it exactly (the winner is decided by the
   ``(src, seq)`` tie-break, which has no physical meaning at all),
   *and*
3. **assignment-relevant** -- resolving the pair the other way would
   change which receive stream gets which message. An inversion
   always qualifies (the modeled times deciding it are exactly what a
   perturbation changes). An exact tie does not when both messages
   are drained by the *same* stream -- the same ``(dst, comm, source,
   tag)`` wildcard spec -- since either resolution then delivers the
   same messages to the same receiver, differing only in an
   intra-stream order the model itself declares symmetric. A tie
   whose loser lands in a *different* stream (or is never received at
   all) is a race: physical noise alone decides the assignment.

Candidates that are concurrent but arrive in post order are not
races: any network that roughly preserves injection order delivers
the same winner. Together these rules make a clean many-to-one server
loop (the paper's fig5/fig7 workloads, including their symmetric
same-instant control messages) analyze silent, while a fault-injected
message delay deterministically fires.

Documented limitation: an application that is order-sensitive to two
*tied* messages within one receive stream can hide behind rule 3;
the trace records who-got-what, not what the receiver did with it.
"""

from __future__ import annotations

from typing import Any

from repro.analyze.finding import Finding, WILDCARD_RACE, msg_label
from repro.analyze.vclock import HBRelation, build_happens_before


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
    msgs = {m.msg_id: m for m in obs.causal.messages()}
    findings: list[Finding] = []
    for m in obs.causal.edges():
        if len(m.candidates) < 2:
            continue
        rivals: list[dict[str, Any]] = []
        for cand in (msgs[c] for c in m.candidates if c != m.msg_id):
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
                "candidates": [_sent(msgs[c]) for c in m.candidates],
                "rivals": rivals,
            },
        ))
    return findings
