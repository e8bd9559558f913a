"""Nonblocking-operation request handles."""

from __future__ import annotations

from repro.simmpi.message import ANY_SOURCE, ANY_TAG


class Request:
    """Handle for a nonblocking send or receive.

    Sends in simmpi are buffered (they complete locally as soon as they
    are posted), so every send returns the one completed :data:`SENT`;
    its :meth:`wait` is a no-op returning ``None``. A receive request
    completes when a matching message is consumed from the mailbox.
    """

    __slots__ = ("_comm", "_kind", "_source", "_tag", "_done", "_result")

    def __init__(self, comm, kind: str, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._comm = comm
        self._kind = kind
        self._source = source
        self._tag = tag
        self._done = kind == "send"
        self._result = None

    @property
    def done(self) -> bool:
        """True once the operation has completed."""
        return self._done

    def test(self):
        """Nonblocking completion check.

        Returns ``(True, (payload, status))`` if complete (payload/status
        are ``None`` for sends), else ``(False, None)``. It never gives
        up the baton, so no other rank runs between two calls: a loop
        that only polls cannot see a message its sender has yet to
        post -- finish with :meth:`wait`.
        """
        if self._done:
            return True, self._result
        got = self._comm._try_recv(self._source, self._tag)
        if got is None:
            return False, None
        self._result = got
        self._done = True
        return True, got

    def wait(self):
        """Block until complete; return ``(payload, status)`` for recvs."""
        if self._done:
            return self._result
        self._result = self._comm.recv(self._source, self._tag)
        self._done = True
        return self._result


#: The request every :meth:`Comm.isend` returns: complete, result ``None``.
SENT = Request(None, "send")


def wait_all(requests):
    """Wait on every request; return their results in order."""
    return [r.wait() for r in requests]
