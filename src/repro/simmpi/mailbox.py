"""Indexed per-rank mailboxes: messages bucketed by ``(src, tag)``.

- each bucket is a heap ordered by ``(arrival, seq)``, so the bucket
  head is always its best candidate;
- a fully-qualified receive ``(source, tag)`` inspects exactly one
  bucket head;
- a wildcard receive (``ANY_SOURCE`` and/or ``ANY_TAG``) takes the min
  over the matching bucket heads -- found through small ``by_src`` /
  ``by_tag`` key indexes -- never touching non-matching messages.

The winner is the queued matching message minimising ``(arrival, src,
seq)``: within one bucket ``src`` is constant, so the per-bucket heap
order and the cross-bucket comparison give the global minimum.

A concrete bucket that empties stays in place, so a steady stream on
one ``(src, tag)`` reuses its heap and index entries; wildcard scans
drop the empty buckets they meet.

Fault-injected duplicates are deduped: an injected copy arrives no
earlier than its original and has a later seq in the same bucket, so it
always surfaces after it; once the original is consumed (its seq is in
the per-rank ``consumed`` set) the copy is purged lazily when it
reaches a bucket head.
"""

from __future__ import annotations

import heapq

from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message


class CommMailbox:
    """Messages of one communicator queued at one rank. Internal.

    Only the rank holding the engine's baton touches a mailbox (its
    owner matching, or a sender delivering), so nothing here locks.

    ``examined`` counts bucket heads inspected by matching calls; the
    perf smoke tests assert it does not scale with unrelated queued
    messages.
    """

    __slots__ = ("_buckets", "_by_src", "_by_tag", "_count", "examined")

    def __init__(self):
        # (src, tag) -> heap of (arrival, seq, Message)
        self._buckets: dict[tuple[int, int], list] = {}
        # src -> set of live (src, tag) keys; tag -> same, for wildcards
        self._by_src: dict[int, set] = {}
        self._by_tag: dict[int, set] = {}
        self._count = 0
        self.examined = 0

    def __len__(self) -> int:
        return self._count

    def push(self, msg: Message) -> None:
        """Enqueue ``msg`` into its ``(src, tag)`` bucket."""
        key = (msg.src, msg.tag)
        heap = self._buckets.get(key)
        if heap is None:
            heap = self._buckets[key] = []
            self._by_src.setdefault(msg.src, set()).add(key)
            self._by_tag.setdefault(msg.tag, set()).add(key)
        heapq.heappush(heap, (msg.arrival, msg.seq, msg))
        self._count += 1

    # -- internals -----------------------------------------------------------

    def _drop(self, key) -> None:
        """Remove an emptied bucket from every index."""
        del self._buckets[key]
        src, tag = key
        peers = self._by_src[src]
        peers.discard(key)
        if not peers:
            del self._by_src[src]
        tags = self._by_tag[tag]
        tags.discard(key)
        if not tags:
            del self._by_tag[tag]

    def _candidate_keys(self, source: int, tag: int):
        """Bucket keys that could hold a wildcard ``(source, tag)``
        match."""
        if source != ANY_SOURCE:
            return tuple(self._by_src.get(source, ()))
        if tag != ANY_TAG:
            return tuple(self._by_tag.get(tag, ()))
        return tuple(self._buckets)

    def _live_head(self, key, consumed):
        """Head entry of ``key``'s bucket after purging dead twins, or
        ``None`` for a missing or empty bucket.

        A message is dead when it is an injected copy whose original's
        seq is in ``consumed``: the original was already received, so
        protocols above must never see the copy.
        """
        heap = self._buckets.get(key)
        while heap:
            entry = heap[0]
            msg = entry[2]
            if msg.dup_of is not None and msg.dup_of in consumed:
                heapq.heappop(heap)
                self._count -= 1
                continue
            return entry
        return None

    def _best_key(self, source: int, tag: int, consumed):
        """Bucket key holding the overall best match, or ``None``."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (source, tag)
            if self._live_head(key, consumed) is None:
                return None
            self.examined += 1
            return key
        best_key = None
        best_rank = None
        for key in self._candidate_keys(source, tag):
            head = self._live_head(key, consumed)
            if head is None:
                self._drop(key)
                continue
            self.examined += 1
            arrival, seq, msg = head
            rank = (arrival, msg.src, seq)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_key = key
        return best_key

    # -- matching ------------------------------------------------------------

    def pop_match(self, source: int, tag: int, consumed) -> Message | None:
        """Dequeue the best queued match for ``(source, tag)``."""
        key = self._best_key(source, tag, consumed)
        if key is None:
            return None
        _, _, msg = heapq.heappop(self._buckets[key])
        self._count -= 1
        return msg

    def take(self, msg: Message) -> None:
        """Dequeue ``msg``, the live head of its bucket as
        :meth:`peek_match` just returned it (nothing ran in between)."""
        heapq.heappop(self._buckets[msg.src, msg.tag])
        self._count -= 1

    def peek_match(self, source: int, tag: int, consumed) -> Message | None:
        """Best queued match without consuming it (probe)."""
        key = self._best_key(source, tag, consumed)
        if key is None:
            return None
        return self._buckets[key][0][2]
