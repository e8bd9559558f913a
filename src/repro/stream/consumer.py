"""Streaming consumer: subscribe to epochs, release them when done.

The consumer side of a :mod:`repro.stream` pipeline. Epoch
announcements from producer rank 0 arrive on ``TAG_STREAM_CTRL``;
:meth:`StreamConsumer.next_epoch` opens the next (or, with
``StreamConfig.catch_up``, the newest announced) epoch remotely
through the VOL and hands back an :class:`Epoch`. Leaving the epoch's
``with`` block releases it -- a cumulative high-water mark sent to
every producer rank -- which is what shrinks the producer's live
window and relieves backpressure. :meth:`Epoch.retain` keeps an epoch
live past the cursor; a retained epoch the consumer never releases is
reported by ``repro.analyze`` as an epoch leak.
"""

from __future__ import annotations

import repro.h5 as h5
from repro.lowfive.config import StreamConfig
from repro.lowfive.rpc import RPCClient
from repro.stream.protocol import (
    MSG_EOS,
    MSG_EPOCH,
    TAG_STREAM_CTRL,
    TAG_STREAM_RELEASE,
    epoch_fname,
    stream_pattern,
)


class Epoch:
    """Handle on one live epoch held by a consumer rank.

    Context manager: ``with cons.next_epoch() as ep:`` reads
    ``ep.file`` and releases the epoch on exit. Call :meth:`retain`
    inside the block to keep it live past the cursor -- the holder must
    then call :meth:`release` itself, or the epoch stays retained on
    the producer for the rest of the stream (an *epoch leak*).
    """

    def __init__(self, consumer: "StreamConsumer", epoch: int, file):
        self.consumer = consumer
        self.id = epoch
        self.file = file
        self._retained = False
        self._released = False

    def retain(self) -> None:
        """Keep this epoch live when the ``with`` block exits."""
        self._retained = True

    def release(self) -> None:
        """Close the file and release every epoch ``<= id``.

        Idempotent. Releases are cumulative high-water marks, so
        releasing a caught-up epoch also releases any skipped ones.
        """
        if self._released:
            return
        self._released = True
        self.file.close()
        self.consumer._release_upto(self.id)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._retained:
            self.release()
        return False


class StreamConsumer:
    """Subscribes one consumer rank to a stream's epochs.

    Parameters
    ----------
    vol:
        The task's :class:`~repro.lowfive.DistMetadataVOL` -- gets
        memory + stream-consumer wiring for the epoch files.
    comm:
        The consumer task's communicator.
    inter:
        Intercommunicator to the producer task.
    name:
        Stream name (must match the producer's).
    config:
        :class:`~repro.lowfive.StreamConfig`; ``catch_up=True`` makes
        :meth:`next_epoch` ask producer rank 0 for the newest published
        epoch and jump there instead of consuming every one (slow
        joiners / restarted consumers).
    """

    def __init__(self, vol, comm, inter, name: str,
                 config: StreamConfig | None = None):
        self.vol = vol
        self.comm = comm
        self.inter = inter
        self.name = name
        self.config = config if config is not None else StreamConfig()
        pattern = stream_pattern(name)
        if not vol.config.file_intercepted(epoch_fname(name, 0)):
            vol.set_memory(pattern)
        vol.set_stream_consumer(pattern, inter)
        self._obs = comm.engine.obs
        self._world = comm.world_rank(comm.rank)
        self._next = 0  # cursor: next epoch this rank would consume
        self._newest = -1  # newest epoch announced so far
        self._eos: int | None = None  # last epoch, once EOS arrives
        self._closed = False

    # -- announcements ------------------------------------------------------

    def _note(self, kind: str, stream: str, epoch: int) -> None:
        if stream != self.name:
            return
        if kind == MSG_EOS:
            self._eos = epoch
        self._newest = max(self._newest, epoch)

    def _recv_announcement(self) -> None:
        """Block for one announcement from producer rank 0.

        The concrete source/tag pair makes this a deterministic FIFO
        receive; the wait's flow edge points at the producer, so a
        consumer ahead of the stream shows up as waiting on it.
        Announcements are only ever consumed this way -- a nonblocking
        drain would make state (and this rank's virtual clock) depend
        on how far the producer *thread* happens to have run.
        """
        (kind, stream, epoch), _ = self.inter.recv(
            source=0, tag=TAG_STREAM_CTRL)
        self._note(kind, stream, epoch)

    # -- consuming ----------------------------------------------------------

    def next_epoch(self) -> Epoch | None:
        """Open the next epoch (newest, with ``catch_up``); None at EOS."""
        while self._newest < self._next:
            if self._eos is not None:
                return None
            self._recv_announcement()
        if self._eos is not None and self._next > self._eos:
            return None
        e = self._next
        if self.config.catch_up:
            # Ask rank 0 how far the stream has advanced and jump
            # there; the cumulative release covers skipped epochs.
            newest = RPCClient(self.inter).call(0, "stream.newest",
                                                self.name)
            e = max(e, newest)
        f = h5.File(epoch_fname(self.name, e), "r", comm=self.comm,
                    vol=self.vol)
        self._obs.spans.instant("stream.acquire", "stream", self._world,
                                self.comm.vtime,
                                {"stream": self.name, "epoch": e})
        self._next = e + 1
        return Epoch(self, e, f)

    def epochs(self):
        """Iterate the stream: yields :class:`Epoch` handles until EOS.

        Each yielded epoch is released when the loop body leaves its
        ``with`` block (or, without one, when the caller releases it).
        """
        while True:
            ep = self.next_epoch()
            if ep is None:
                return
            yield ep

    def _release_upto(self, epoch: int) -> None:
        self._obs.spans.instant("stream.release", "stream", self._world,
                                self.comm.vtime,
                                {"stream": self.name, "epoch": epoch})
        for dest in range(self.inter.remote_size):
            self.inter.send((self.name, epoch), dest,
                            TAG_STREAM_RELEASE)

    def close(self, drain: bool = True) -> None:
        """Leave the stream: signal done to every producer rank.

        With ``drain`` (the default) first waits for EOS, so the
        producer's announcements are all consumed; ``drain=False``
        abandons the stream early (the producer drops this rank from
        the release quorum once the done signal lands). Deliberately
        does *not* release epochs still retained by this rank --
        that is the holder's job, and forgetting it is exactly what
        the epoch-leak check reports.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            # Announcements are FIFO from producer rank 0, so EOS is
            # last; once seen, nothing is left queued on the tag.
            while self._eos is None:
                self._recv_announcement()
        RPCClient(self.inter).notify_all("__done__")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        return False
