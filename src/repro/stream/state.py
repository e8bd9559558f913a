"""Live-epoch window bookkeeping (pure data structure, per rank).

Each producer rank tracks which epochs it has published and the
cumulative release high-water mark of every consumer rank. An epoch is
*live* until every consumer rank's mark covers it; the number of live
epochs is the queue depth the ``max_lag`` backpressure rule bounds.
A staging rank (:func:`~repro.lowfive.vol_staged.staging_main`) keeps
one window per stream for the release quorum alone: it never publishes,
and drops the staged epochs :meth:`EpochWindow.retire_ready` returns.
"""

from __future__ import annotations


class EpochWindow:
    """Publish/release ledger of one producer (or staging) rank.

    Parameters
    ----------
    consumers:
        World ranks of every consumer subscribed to the stream. The
        release quorum: an epoch retires once each of them (minus any
        ranks the caller excludes as *done*) has released it.
    """

    def __init__(self, consumers):
        self.consumers = tuple(sorted(consumers))
        self.published = -1  # newest published epoch (-1: none yet)
        self._hwm: dict[int, int] = {}  # consumer world rank -> released
        # Newest epoch every consumer released (kept at each release).
        self._floor = -1
        self._retired = -1  # newest epoch dropped by the producer

    def publish(self) -> int:
        """Make the next epoch live; returns its id."""
        self.published += 1
        return self.published

    def release(self, consumer: int, upto: int) -> None:
        """Consumer ``consumer`` released every epoch ``<= upto``."""
        if consumer not in self._hwm or self._hwm[consumer] < upto:
            self._hwm[consumer] = upto
            self._floor = min((self._hwm.get(c, -1) for c in self.consumers),
                              default=-1)

    def floor(self, done=()) -> int:
        """Newest epoch released by every consumer still in the quorum.

        ``done`` lists consumer world ranks that signalled end-of-
        stream; they will never release again and drop out of the
        quorum (with everyone done, everything published is released).
        """
        if not done and self.consumers:
            return self._floor
        active = [c for c in self.consumers if c not in done]
        if not active:
            return self.published
        return min(self._hwm.get(c, -1) for c in active)

    def depth(self, done=()) -> int:
        """Number of live (published, not fully released) epochs."""
        return self.published - self.floor(done)

    def retire_ready(self, done=()) -> list[int]:
        """Epochs newly eligible for dropping; marks them retired."""
        limit = self.floor(done)
        ready = list(range(self._retired + 1, limit + 1))
        if ready:
            self._retired = limit
        return ready
