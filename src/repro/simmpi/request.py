"""The handle a nonblocking send returns."""

from __future__ import annotations


class Request:
    """Handle of a nonblocking send.

    Sends in simmpi are buffered: they complete locally as soon as they
    are posted, so every :meth:`Comm.isend` returns the one completed
    :data:`SENT`, whose :meth:`wait` is a no-op returning ``None``.
    """

    __slots__ = ()

    def wait(self) -> None:
        """Return at once: the send completed when it was posted."""
        return None


#: The request every :meth:`Comm.isend` returns.
SENT = Request()
