"""The one result type every analyzer emits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: A wildcard receive whose outcome real MPI would not have ordered.
WILDCARD_RACE = "wildcard-race"
#: Ranks entered one collective rendezvous with different operations.
COLLECTIVE_MISMATCH = "collective-mismatch"
#: A posted message no receive ever matched by finalize.
MESSAGE_LEAK = "message-leak"
#: A stream epoch acquired by a consumer rank and never released.
EPOCH_LEAK = "epoch-leak"

#: Every finding kind the dynamic analyzers can emit.
FINDING_KINDS = (WILDCARD_RACE, COLLECTIVE_MISMATCH, MESSAGE_LEAK,
                 EPOCH_LEAK)


def msg_label(msg_id: int) -> str:
    """Human form of an engine message id: ``r<sender>#<n>``.

    Engine ids encode ``sender_rank << 32 | n`` (the sender's n-th
    post); small ids from directly-built messages render as ``r0#n``,
    which is still unambiguous within one trace.
    """
    return f"r{msg_id >> 32}#{msg_id & 0xFFFFFFFF}"


@dataclass(frozen=True)
class Finding:
    """One confirmed defect in a recorded schedule.

    ``kind`` is one of :data:`FINDING_KINDS`; ``rank`` is the world
    rank where the defect was observed (the receiver for races, the
    sender for leaks, -1 when no single rank applies); ``summary`` is
    the one-line human statement and ``detail`` the machine-readable
    evidence (candidate sets, clocks, message ids).
    """

    kind: str
    rank: int
    summary: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form: kind, rank and summary, ``detail`` inlined."""
        return {"kind": self.kind, "rank": self.rank,
                "summary": self.summary, **self.detail}
