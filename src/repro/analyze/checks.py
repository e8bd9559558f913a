"""Collective-mismatch and message-leak checks over the causal trace.

Both are protocol-hygiene invariants the simulator itself does not
enforce:

- the collective rendezvous is generation-based, so ranks calling
  *different* collectives on the same communicator still complete the
  rendezvous -- with silently corrupted semantics. Every
  :class:`~repro.obs.causal.CollectiveRecord` carries the per-rank
  entered operation; :func:`check_collectives` flags records where
  they differ.
- a buffered send completes locally whether or not anyone ever
  receives it, so a mismatched tag or a forgotten receive leaks the
  message without any error. :func:`check_leaks` reports every posted
  message whose record no receive ever completed.
- a retained stream epoch the holder never releases stays live on the
  producer for the rest of the stream -- the producer cannot retire it
  and its memory is pinned. :func:`check_stream_leaks` reports every
  epoch a consumer rank acquired but never covered with a release
  high-water mark.
"""

from __future__ import annotations

from typing import Any

from repro.analyze.finding import (
    COLLECTIVE_MISMATCH,
    EPOCH_LEAK,
    Finding,
    MESSAGE_LEAK,
    msg_label,
)


def check_collectives(obs: Any) -> list[Finding]:
    """Flag collectives whose participants entered different ops."""
    findings: list[Finding] = []
    for rec in obs.causal.collectives():
        if not rec.kinds or len(set(rec.kinds.values())) <= 1:
            continue
        by_kind: dict[str, list[int]] = {}
        for rank in sorted(rec.kinds):
            by_kind.setdefault(rec.kinds[rank], []).append(rank)
        findings.append(Finding(
            COLLECTIVE_MISMATCH, min(rec.kinds),
            f"collective #{rec.coll_id} on comm {rec.comm_id} completed "
            "with mismatched operations: "
            + ", ".join(f"{k} on ranks {r}"
                        for k, r in sorted(by_kind.items())),
            {"coll_id": rec.coll_id, "comm_id": rec.comm_id,
             "kinds": dict(sorted(rec.kinds.items()))},
        ))
    return findings


def check_leaks(obs: Any) -> list[Finding]:
    """Report posted messages never matched by any receive."""
    findings: list[Finding] = []
    for p in obs.causal.messages():
        if p.t_recv is not None:
            continue
        findings.append(Finding(
            MESSAGE_LEAK, p.src,
            f"message {msg_label(p.msg_id)} (rank {p.src} -> rank {p.dst}, comm "
            f"{p.comm_id}, tag {p.tag}, {p.nbytes} B, posted at "
            f"{p.t_post:.9f}) was never received",
            {"msg_id": p.msg_id, "src": p.src, "dst": p.dst,
             "comm_id": p.comm_id, "tag": p.tag, "nbytes": p.nbytes,
             "t_post": p.t_post, "t_arrival": p.t_arrival},
        ))
    return findings


def check_stream_leaks(obs: Any) -> list[Finding]:
    """Report stream epochs acquired but never released.

    Reads the ``stream``-category span instants: an epoch a consumer
    rank acquired whose id exceeds that rank's cumulative release
    high-water mark (a release of epoch ``e`` covers every epoch
    ``<= e``) is retained forever -- the producer keeps it live (and
    its memory pinned) for the rest of the stream. Typically a
    consumer that called ``Epoch.retain()`` and exited without the
    matching ``release()``.
    """
    spans = getattr(obs, "spans", None)
    if spans is None:
        return []
    hwm: dict[tuple[str, int], int] = {}
    acq: dict[tuple[str, int], set[int]] = {}
    for i in spans.instants(cat="stream"):
        key = (i.labels["stream"], i.rank)
        if i.name == "stream.acquire":
            acq.setdefault(key, set()).add(i.labels["epoch"])
        elif i.name == "stream.release":
            hwm[key] = max(hwm.get(key, -1), i.labels["epoch"])
    leaks = sorted((stream, epoch, rank)
                   for (stream, rank), epochs in acq.items()
                   for epoch in epochs
                   if epoch > hwm.get((stream, rank), -1))
    return [Finding(
        EPOCH_LEAK, rank,
        f"stream {stream!r} epoch {epoch} was acquired by rank "
        f"{rank} and never released (the producer retains it for "
        "the rest of the stream)",
        {"stream": stream, "epoch": epoch, "rank": rank},
    ) for stream, epoch, rank in leaks]
