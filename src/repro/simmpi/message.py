"""Message envelope, status, and virtual payload types."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

#: Wildcard source for :meth:`Comm.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG = -1

_seq = itertools.count()


@dataclass(frozen=True)
class VirtualPayload:
    """A payload that carries a byte count but no data.

    Used by modeled (non-executed) large-scale runs: the communication
    schedule is exercised for real, but the bulk data is represented only
    by its size, so 16K-rank runs stay cheap. ``payload_nbytes`` picks up
    :attr:`nbytes` through duck typing.
    """

    nbytes: int
    label: str = ""


class Status(NamedTuple):
    """Completion status of a receive, mirroring ``MPI_Status``."""

    source: int
    tag: int
    nbytes: int


@dataclass(slots=True)
class Message:
    """In-flight message inside the engine. Internal. :meth:`Comm.send`
    builds it positionally; the defaults serve messages built directly."""

    comm_id: int
    src: int  # sender rank, local to the communicator
    dst_world: int  # receiver world rank
    tag: int
    payload: object
    nbytes: int
    arrival: float  # virtual arrival time at the receiver
    src_world: int = -1  # sender world rank (fault-plan link key)
    sent_at: float = 0.0  # sender's clock at post time (wire-time base)
    dup_of: int | None = None  # seq of the original, for injected copies
    has_dup: bool = False  # an injected copy of this message exists
    # Also the message's id in the causal trace. Engine sends pass the
    # sender's deterministic stream (see Engine.next_msg_seq); the
    # global counter is a fallback for messages built directly.
    seq: int = field(default_factory=lambda: next(_seq))

    def matches(self, source: int, tag: int) -> bool:
        """True when (source, tag) match this envelope."""
        return (source == ANY_SOURCE or source == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )
